"""Stability exponents and closed-form norms of harmonic monomials.

The Hoelder exponent of the three-ball inequality on concentric disks is

    alpha = log(r3/r2) / log(r3/r1),    beta = log(r3/r2) / log(r2/r1),

with alpha = beta/(1+beta).  The monomials z^{n-1} realize equality at
that exponent and blow up the ratio for any larger test exponent; their
squared L2 norms on B(rho) are

    2D:  (pi/n) rho^{2n}
    3D:  2*pi^{3/2} Gamma(n) / ((2n+1) Gamma(n+1/2)) * rho^{2n+1}

for the complex-valued monomial.  Gamma values at integers and
half-integers reduce to factorials, so the constants are computed from
exact integer arithmetic; ratio computations work in log space to stay
finite for large n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import Geometry


@dataclass(frozen=True)
class StabilityExponents:
    alpha: float
    beta: float


def optimal_alpha(r1: float, r2: float, r3: float) -> StabilityExponents:
    if not (0.0 < r1 < r2 < r3):
        raise ValueError(f"radii must satisfy 0 < r1 < r2 < r3, got ({r1}, {r2}, {r3})")
    beta = (math.log(r3) - math.log(r2)) / (math.log(r2) - math.log(r1))
    alpha = (math.log(r3) - math.log(r2)) / (math.log(r3) - math.log(r1))
    return StabilityExponents(alpha=alpha, beta=beta)


def combined_exponent(alpha1: float, alpha2: float) -> float:
    """Exponent alpha1 / (1 + alpha1 - alpha2) combining rate and sensitivity."""
    for name, val in (("alpha1", alpha1), ("alpha2", alpha2)):
        if not (0.0 < val < 1.0):
            raise ValueError(f"{name} must lie in (0,1), got {val}")
    return alpha1 / (1.0 + alpha1 - alpha2)


@dataclass(frozen=True)
class HarmonicMonomial:
    """The harmonic function Re/Im of z^{n-1} (z = x1 + i x2), n >= 1.

    In 3D the same complex power of x1 + i x2 is used, viewed as a
    function on the ball; only its closed-form norms are implemented for
    dim == 3.
    """

    n: int
    part: str = "Re"
    dim: int = 2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"monomial index must satisfy n >= 1, got {self.n}")
        if self.part not in ("Re", "Im"):
            raise ValueError(f"part must be 'Re' or 'Im', got {self.part!r}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")

    @staticmethod
    def _power(points, q):
        """z^q at the points, by q successive multiplications."""
        points = np.asarray(points, dtype=float)
        z = points[:, 0] + 1j * points[:, 1]
        w = np.ones_like(z)
        for _ in range(q):
            w = w * z
        return w

    def value(self, points) -> np.ndarray:
        w = self._power(points, self.n - 1)
        return w.real.copy() if self.part == "Re" else w.imag.copy()

    def gradient(self, points) -> np.ndarray:
        p = self.n - 1
        if p == 0:
            return np.zeros((len(points), 2))
        d = p * self._power(points, p - 1)  # derivative of z^p
        if self.part == "Re":
            return np.column_stack([d.real, -d.imag])
        return np.column_stack([d.imag, d.real])


def _norm_constant_3d(n: int) -> Fraction:
    """c_n / (2 pi) as an exact rational: Gamma(n) 4^n n! / ((2n+1) (2n)!)."""
    return Fraction(
        math.factorial(n - 1) * 4**n * math.factorial(n),
        (2 * n + 1) * math.factorial(2 * n),
    )


def log_norm(mono: HarmonicMonomial, rho: float) -> float:
    """log of the (unsquared) closed-form norm; safe for large n."""
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    n = mono.n
    if mono.dim == 2:
        log_sq = math.log(math.pi) - math.log(n) + 2 * n * math.log(rho)
    else:
        c = _norm_constant_3d(n)
        log_c = math.log(2 * math.pi) + math.log(c.numerator) - math.log(c.denominator)
        log_sq = log_c + (2 * n + 1) * math.log(rho)
    return 0.5 * log_sq


def three_ball_ratio(mono: HarmonicMonomial, geometry: Geometry, alpha_test: float) -> float:
    """||u||_{B(r2)} / (||u||_{B(r1)}^a * ||u||_{B(r3)}^{1-a}) from closed forms.

    Equals 1 for every monomial at the optimal exponent and grows without
    bound in n for any larger test exponent.  Evaluated in log space.
    """
    if not (0.0 < alpha_test < 1.0):
        raise ValueError(f"alpha_test must lie in (0,1), got {alpha_test}")
    mono = HarmonicMonomial(mono.n, mono.part, geometry.dim)
    l1 = log_norm(mono, geometry.r1)
    l2 = log_norm(mono, geometry.r2)
    l3 = log_norm(mono, geometry.r3)
    return math.exp(l2 - alpha_test * l1 - (1.0 - alpha_test) * l3)


def _part_norm_sq(coeff: complex, q: int, part: str, rho: float) -> float:
    """Squared L2(B(rho)) norm of Re/Im(coeff * z^q), 2D."""
    if q >= 1:
        return 0.5 * abs(coeff) ** 2 * math.pi / (q + 1) * rho ** (2 * (q + 1))
    c = coeff.real if part == "Re" else coeff.imag
    return c * c * math.pi * rho**2


def monomial_seminorm_sq(mono: HarmonicMonomial, rho: float, order: int) -> float:
    """Squared H^order seminorm of the 2D monomial on B(rho).

    Each order-m partial derivative of Re/Im z^p is Re/Im(i^b p!/(p-m)! z^{p-m});
    the seminorm sums over the m+1 multi-indices.
    """
    if mono.dim != 2:
        raise ValueError("seminorms implemented for dim == 2 only")
    p = mono.n - 1
    m = order
    if m > p:
        return 0.0
    fac = math.factorial(p) // math.factorial(p - m)
    total = 0.0
    for b in range(m + 1):
        total += _part_norm_sq(fac * 1j**b, p - m, mono.part, rho)
    return total


def monomial_sobolev_norm(mono: HarmonicMonomial, rho: float, order: int) -> float:
    """Full H^order norm of the 2D monomial on B(rho) (closed form)."""
    total = sum(monomial_seminorm_sq(mono, rho, m) for m in range(order + 1))
    return math.sqrt(total)
