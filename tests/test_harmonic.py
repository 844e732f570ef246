import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import harmonic_norm_closed
from ucfem.geometry import Geometry
from ucfem.harmonic import (
    HarmonicMonomial,
    combined_exponent,
    log_norm,
    monomial_seminorm_sq,
    monomial_sobolev_norm,
    optimal_alpha,
    three_ball_ratio,
)

radii = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)


@st.composite
def radius_triples(draw):
    r1 = draw(st.floats(min_value=0.05, max_value=5.0))
    g2 = draw(st.floats(min_value=1.05, max_value=4.0))
    g3 = draw(st.floats(min_value=1.05, max_value=4.0))
    return r1, r1 * g2, r1 * g2 * g3


class TestOptimalAlpha:
    def test_default_geometry_is_one_half(self):
        exps = optimal_alpha(0.25, 0.5, 1.0)
        assert abs(exps.alpha - 0.5) < 1e-15
        assert abs(exps.beta - 1.0) < 1e-15

    def test_scaled_triple(self):
        assert abs(optimal_alpha(1.0, 2.0, 4.0).alpha - 0.5) < 1e-15

    def test_against_extended_precision(self):
        import mpmath

        mpmath.mp.dps = 40
        want = mpmath.log(mpmath.mpf(4) / 3) / mpmath.log(2)
        exps = optimal_alpha(0.5, 0.75, 1.0)
        assert abs(exps.alpha - float(want)) < 1e-12
        want_beta = mpmath.log(mpmath.mpf(4) / 3) / mpmath.log(mpmath.mpf(3) / 2)
        assert abs(exps.beta - float(want_beta)) < 1e-12

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            optimal_alpha(0.5, 0.25, 1.0)

    @given(radius_triples())
    @settings(max_examples=200)
    def test_alpha_beta_relation(self, triple):
        exps = optimal_alpha(*triple)
        assert 0.0 < exps.alpha < 1.0
        assert exps.beta > 0.0
        assert abs(exps.alpha - exps.beta / (1.0 + exps.beta)) < 1e-12


class TestCombinedExponent:
    def test_collapses_on_diagonal(self):
        for a in (0.1, 0.5, 0.9):
            assert abs(combined_exponent(a, a) - a) < 1e-15

    def test_hand_values(self):
        assert abs(combined_exponent(0.6, 0.5) - 0.6 / 1.1) < 1e-15
        assert abs(combined_exponent(0.5, 0.7) - 0.625) < 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            combined_exponent(0.0, 0.5)
        with pytest.raises(ValueError):
            combined_exponent(0.5, 1.0)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_exceeds_base_when_one_is_larger(self, alpha, s1, s2):
        # the closing computation: alpha1, alpha2 in [alpha, 1) with one
        # strict improvement forces the combined exponent above alpha
        a1 = alpha + s1 * (1.0 - alpha) * 0.999
        a2 = alpha + s2 * (1.0 - alpha) * 0.999
        if max(a1, a2) <= alpha + 1e-9:  # improvements below float noise prove nothing
            return
        assert combined_exponent(a1, a2) > alpha


class TestClosedFormNorms:
    def test_constant_gives_disk_area(self):
        assert abs(harmonic_norm_closed(HarmonicMonomial(1), 1.0) - math.pi) < 1e-15

    def test_2d_n2(self):
        assert abs(harmonic_norm_closed(HarmonicMonomial(2), 1.0) - math.pi / 2) < 1e-15

    def test_3d_constant_gives_ball_volume(self):
        got = harmonic_norm_closed(HarmonicMonomial(1, dim=3), 2.0)
        assert abs(got - 32.0 * math.pi / 3.0) < 1e-12

    def test_3d_n2_gamma_constant(self):
        # c_2 = 2 pi^{3/2} Gamma(2) / (5 Gamma(5/2)) = 8 pi / 15
        got = harmonic_norm_closed(HarmonicMonomial(2, dim=3), 1.0)
        assert abs(got - 8.0 * math.pi / 15.0) < 1e-14

    def test_log_norm_consistent(self):
        for dim in (2, 3):
            for n in (1, 3, 7):
                mono = HarmonicMonomial(n, dim=dim)
                direct = 0.5 * math.log(harmonic_norm_closed(mono, 0.7))
                assert abs(log_norm(mono, 0.7) - direct) < 1e-12

    def test_log_convexity_in_log_radius(self):
        # the log of the norm on B(e^t) is affine in t, hence midpoint-convex
        for n in range(1, 11):
            mono = HarmonicMonomial(n)
            f = lambda t: log_norm(mono, math.exp(t))
            for s, t in ((-1.0, 0.5), (-2.0, -0.1), (0.3, 1.1)):
                assert f(0.5 * (s + t)) <= 0.5 * (f(s) + f(t)) + 1e-12


class TestThreeBallRatio:
    def test_equality_at_optimal_exponent(self, geometry):
        alpha = optimal_alpha(*geometry.radii).alpha
        for dim in (2, 3):
            geo = Geometry(*geometry.radii, dim=dim)
            for n in range(1, 51):
                ratio = three_ball_ratio(HarmonicMonomial(n, dim=dim), geo, alpha)
                assert abs(ratio - 1.0) < 1e-12

    @given(radius_triples(), st.integers(min_value=1, max_value=50), st.sampled_from([2, 3]))
    @settings(max_examples=200)
    def test_equality_for_random_geometry(self, triple, n, dim):
        geo = Geometry(*triple, dim=dim)
        alpha = optimal_alpha(*triple).alpha
        assert abs(three_ball_ratio(HarmonicMonomial(n, dim=dim), geo, alpha) - 1.0) < 1e-11

    def test_hand_values_above_optimal(self, geometry):
        # r2^n / (r1^{0.6 n} r3^{0.4 n}) = 2^{0.2 n} for r = (1/4, 1/2, 1)
        assert abs(three_ball_ratio(HarmonicMonomial(10), geometry, 0.6) - 4.0) < 1e-10
        got = three_ball_ratio(HarmonicMonomial(80), geometry, 0.6)
        assert abs(got - 65536.0) < 1e-9 * 65536.0

    def test_divergence_monotone_in_n(self, geometry):
        alpha = optimal_alpha(*geometry.radii).alpha
        for test in (alpha + 0.05, 0.55, 0.6):
            ratios = [
                three_ball_ratio(HarmonicMonomial(n), geometry, test) for n in range(1, 201)
            ]
            assert all(b > a for a, b in zip(ratios, ratios[1:]))
            assert max(ratios) > 1e3


class TestEvaluation:
    def test_constant_monomial(self):
        mono = HarmonicMonomial(1)
        pts = np.array([[0.3, -0.7], [2.0, 1.0]])
        assert np.array_equal(mono.value(pts), np.ones(2))
        assert np.array_equal(mono.gradient(pts), np.zeros((2, 2)))

    def test_re_z2_at_one_one(self):
        mono = HarmonicMonomial(3)
        pts = np.array([[1.0, 1.0]])
        assert abs(mono.value(pts)[0]) < 1e-15  # Re (1+i)^2 = 0
        assert np.allclose(mono.gradient(pts)[0], [2.0, -2.0], atol=1e-15)

    @pytest.mark.parametrize("n,part", [(2, "Re"), (4, "Re"), (5, "Im"), (7, "Re")])
    def test_gradient_matches_finite_differences(self, n, part):
        mono = HarmonicMonomial(n, part=part)
        rng = np.random.default_rng(n)
        pts = rng.uniform(-0.8, 0.8, (5, 2))
        eps = 1e-6
        for p in pts:
            grad = mono.gradient(p[None, :])[0]
            for axis in range(2):
                shift = np.zeros(2)
                shift[axis] = eps
                fd = (mono.value((p + shift)[None, :])[0] - mono.value((p - shift)[None, :])[0]) / (
                    2 * eps
                )
                assert abs(fd - grad[axis]) < 1e-6 * max(1.0, abs(grad[axis]))

    def test_harmonicity_by_quadrature(self):
        # 5-point Laplacian of Re/Im z^{n-1} vanishes
        for n in (3, 5, 8):
            for part in ("Re", "Im"):
                mono = HarmonicMonomial(n, part=part)
                p = np.array([0.4, -0.2])
                h = 1e-4
                stencil = np.array(
                    [p, p + [h, 0], p - [h, 0], p + [0, h], p - [0, h]]
                )
                v = mono.value(stencil)
                lap = (v[1] + v[2] + v[3] + v[4] - 4 * v[0]) / h**2
                assert abs(lap) < 1e-4

    def test_rejects_bad_descriptor(self):
        with pytest.raises(ValueError):
            HarmonicMonomial(0)
        with pytest.raises(ValueError):
            HarmonicMonomial(2, part="real")


def polar_seminorm_sq_oracle(mono, rho, order, nr=80, ntheta=512):
    """H^order seminorm by polar quadrature of the exact derivative fields."""
    p = mono.n - 1
    m = order
    if m > p:
        return 0.0
    x, w = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * rho * (x + 1.0)
    wr = 0.5 * rho * w
    theta = 2 * np.pi * np.arange(ntheta) / ntheta
    wt = 2 * np.pi / ntheta
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    z = rr * np.exp(1j * tt)
    fac = math.factorial(p) / math.factorial(p - m)
    total = 0.0
    for b in range(m + 1):
        d = (1j**b) * fac * z ** (p - m)
        vals = d.real if mono.part == "Re" else d.imag
        total += float(np.einsum("i,ij->", wr, vals**2 * rr) * wt)
    return total


class TestSobolevNorms:
    @pytest.mark.parametrize("n,order", [(2, 1), (3, 2), (4, 2), (5, 3)])
    def test_seminorm_matches_polar_quadrature(self, n, order):
        for part in ("Re", "Im"):
            mono = HarmonicMonomial(n, part=part)
            closed = monomial_seminorm_sq(mono, 0.8, order)
            oracle = polar_seminorm_sq_oracle(mono, 0.8, order)
            assert abs(closed - oracle) <= 1e-10 * max(1.0, oracle)

    def test_full_norm_accumulates_seminorms(self):
        mono = HarmonicMonomial(3)
        total = sum(monomial_seminorm_sq(mono, 1.0, m) for m in range(3))
        assert abs(monomial_sobolev_norm(mono, 1.0, 2) - math.sqrt(total)) < 1e-14

    def test_re_z2_h2_value(self):
        # |u|^2 sums: pi/6 + 2 pi + 8 pi for u = Re z^2 on the unit disk
        want = math.sqrt(math.pi / 6 + 2 * math.pi + 8 * math.pi)
        assert abs(monomial_sobolev_norm(HarmonicMonomial(3), 1.0, 2) - want) < 1e-13

    def test_orders_above_degree_vanish(self):
        assert monomial_seminorm_sq(HarmonicMonomial(2), 1.0, 5) == 0.0
