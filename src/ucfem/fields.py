"""Scalar fields used as exact solutions, loads and perturbation shapes.

A field exposes `value(points)` on an (m, 2) array; fields that serve as
exact solutions for error norms also expose `gradient(points)`.  Plain
callables are accepted wherever only values are needed.  A data
perturbation is not a field: the solver takes it as a load vector (see
`solver.make_perturbation`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ZeroField:
    def value(self, points):
        return np.zeros(len(points))

    def gradient(self, points):
        return np.zeros((len(points), 2))


@dataclass(frozen=True)
class ConstantField:
    c: float

    def value(self, points):
        return np.full(len(points), self.c)

    def gradient(self, points):
        return np.zeros((len(points), 2))


@dataclass(frozen=True)
class AffineField:
    """a + bx*x + by*y; harmonic, reproduced exactly by P1 elements."""

    a: float
    bx: float
    by: float

    def value(self, points):
        points = np.asarray(points)
        return self.a + self.bx * points[:, 0] + self.by * points[:, 1]

    def gradient(self, points):
        g = np.empty((len(points), 2))
        g[:, 0] = self.bx
        g[:, 1] = self.by
        return g


@dataclass(frozen=True)
class RadialQuadratic:
    """a + b*|x|^2; with b = -1 the Poisson solution for f = 4."""

    a: float
    b: float

    def value(self, points):
        points = np.asarray(points)
        return self.a + self.b * (points[:, 0] ** 2 + points[:, 1] ** 2)

    def gradient(self, points):
        return 2.0 * self.b * np.asarray(points)


@dataclass(frozen=True)
class OscillatoryField:
    """sin(kappa*x) * sin(kappa*y), the unnormalized perturbation shape."""

    kappa: float

    def value(self, points):
        points = np.asarray(points)
        return np.sin(self.kappa * points[:, 0]) * np.sin(self.kappa * points[:, 1])


def _field_values(g, points) -> np.ndarray:
    if hasattr(g, "value"):
        return np.asarray(g.value(points), dtype=float)
    return np.asarray(g(points), dtype=float)


def _field_gradient(g, points) -> np.ndarray | None:
    if hasattr(g, "gradient"):
        return np.asarray(g.gradient(points), dtype=float)
    return None
