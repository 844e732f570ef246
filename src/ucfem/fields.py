"""Scalar fields used as exact solutions, loads and perturbation shapes.

A field exposes `value(points)` on an (m, 2) array; fields that serve as
exact solutions for error norms also expose `gradient(points)`.  A data
perturbation is not a field: the solver takes it as a load vector (see
`solver.make_perturbation`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadraticField:
    """a + bx*x + by*y + c*|x|^2: zero by default, affine (harmonic, exact in
    P1) with c = 0, and with (a, c) = (1, -1) the Poisson solution for f = 4."""

    a: float = 0.0
    bx: float = 0.0
    by: float = 0.0
    c: float = 0.0

    def value(self, points):
        x, y = np.asarray(points).T
        return self.a + self.bx * x + self.by * y + self.c * (x**2 + y**2)

    def gradient(self, points):
        x, y = np.asarray(points).T
        return np.column_stack([self.bx + 2.0 * self.c * x, self.by + 2.0 * self.c * y])


@dataclass(frozen=True)
class OscillatoryField:
    """sin(kappa*x) * sin(kappa*y), the unnormalized perturbation shape."""

    kappa: float

    def value(self, points):
        points = np.asarray(points)
        return np.sin(self.kappa * points[:, 0]) * np.sin(self.kappa * points[:, 1])
