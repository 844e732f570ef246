import numpy as np
import pytest

from oracles import tri_rule_collapsed
from ucfem.quadrature import (
    gauss_rule_01,
    reference_monomial_integral,
    tri_rule,
)


def quadrature_monomial(rule, a, b):
    xi = rule.points[:, 1]
    eta = rule.points[:, 2]
    return float(np.dot(rule.weights, xi**a * eta**b))


class TestDegree4Rule:
    def test_weights_sum_to_reference_area(self):
        rule = tri_rule(4)
        assert abs(rule.weights.sum() - 0.5) < 1e-15

    @pytest.mark.parametrize("a,b", [(a, b) for a in range(5) for b in range(5 - a)])
    def test_monomial_exactness(self, a, b):
        # oracle: integral of xi^a eta^b over the reference triangle is a! b! / (a+b+2)!
        rule = tri_rule(4)
        want = reference_monomial_integral(a, b)
        assert abs(quadrature_monomial(rule, a, b) - want) <= 1e-14 * max(1.0, want)

    def test_barycentric_points_sum_to_one(self):
        rule = tri_rule(4)
        assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-15)


class TestTriRule:
    @pytest.mark.parametrize("degree", range(5))
    def test_exact_to_its_degree(self, degree):
        rule = tri_rule(degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                want = reference_monomial_integral(a, b)
                assert abs(quadrature_monomial(rule, a, b) - want) <= 1e-15

    @pytest.mark.parametrize("degree,points", [(0, 1), (1, 1), (2, 3), (3, 6), (4, 6)])
    def test_point_count(self, degree, points):
        assert tri_rule(degree).weights.shape == (points,)

    @pytest.mark.parametrize("degree", [-1, 5, 8])
    def test_rejects_degree_outside_0_to_4(self, degree):
        with pytest.raises(ValueError):
            tri_rule(degree)


class TestCollapsedRule:
    @pytest.mark.parametrize("degree", [2, 4, 8, 12])
    def test_monomial_exactness(self, degree):
        rule = tri_rule_collapsed(degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                want = reference_monomial_integral(a, b)
                got = quadrature_monomial(rule, a, b)
                assert abs(got - want) <= 1e-13 * max(1.0, want)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            tri_rule_collapsed(-1)


def test_gauss_01_weights_and_symmetry():
    x, w = gauss_rule_01(2)
    assert abs(w.sum() - 1.0) < 1e-15
    assert np.allclose(x, 1.0 - x[::-1])
    # exact for cubics on [0,1]
    assert abs(np.dot(w, x**3) - 0.25) < 1e-15
