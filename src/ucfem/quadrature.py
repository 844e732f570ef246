"""Quadrature rules on the reference triangle and on edges.

The reference triangle has vertices (0,0), (1,0), (0,1) and area 1/2.
Points are stored in barycentric coordinates, weights in reference-area
scale (they sum to 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TriangleRule:
    points: np.ndarray  # (nq, 3) barycentric coordinates
    weights: np.ndarray  # (nq,), sums to 1/2

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


def tri_rule(degree: int) -> TriangleRule:
    """The smallest symmetric rule exact for bivariate polynomials of `degree`.

    The centroid (degree <= 1), the three interior points (2/3, 1/6, 1/6)
    (degree 2) or two 3-point orbits (degrees 3 and 4), all with positive
    weights (Strang & Fix 1973; Dunavant, IJNME 21, 1985).
    """
    if not 0 <= degree <= 4:
        raise ValueError(f"tri_rule needs a degree in 0..4, got {degree}")
    if degree <= 1:
        return TriangleRule(points=np.full((1, 3), 1.0 / 3.0), weights=np.array([0.5]))
    if degree == 2:
        return TriangleRule(points=_orbit(2.0 / 3.0, 1.0 / 6.0), weights=np.full(3, 1.0 / 6.0))
    a1, b1, w1 = 0.816847572980459, 0.091576213509771, 0.109951743655322
    a2, b2, w2 = 0.108103018168070, 0.445948490915965, 0.223381589678011
    pts = np.vstack([_orbit(a1, b1), _orbit(a2, b2)])
    return TriangleRule(points=pts, weights=0.5 * np.repeat([w1, w2], 3))


def _orbit(a: float, b: float) -> np.ndarray:
    """The three barycentric points (a, b, b), (b, a, b), (b, b, a)."""
    return np.where(np.eye(3, dtype=bool), a, b)


def gauss_rule_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0,1], exact to degree 2n-1; weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def reference_monomial_integral(a: int, b: int) -> float:
    """Exact value of the integral of xi^a * eta^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
