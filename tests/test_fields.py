import numpy as np
import pytest

from ucfem.fields import QuadraticField

#: points in all four quadrants of the outer disk, none on an axis
POINTS = np.random.default_rng(0).uniform(-1.0, 1.0, (50, 2))


@pytest.mark.parametrize("a, bx, by, c", [(0.3, -1.0, 2.0, 0.0), (1.0, 0.0, 0.0, -1.0), (-0.7, 0.4, 1.5, 2.5)])
def test_value_and_gradient_match_closed_forms(a, bx, by, c):
    field = QuadraticField(a, bx, by, c)
    x, y = POINTS.T
    assert np.allclose(field.value(POINTS), a + bx * x + by * y + c * (x * x + y * y), rtol=0, atol=1e-15)
    want = np.column_stack([bx + 2 * c * x, by + 2 * c * y])
    assert field.gradient(POINTS).shape == (len(POINTS), 2)
    assert np.allclose(field.gradient(POINTS), want, rtol=0, atol=1e-15)
    # a central difference is exact on a quadratic up to rounding
    h = 1e-4
    for axis in (0, 1):
        step = h * np.eye(2)[axis]
        diff = (field.value(POINTS + step) - field.value(POINTS - step)) / (2 * h)
        assert np.allclose(diff, want[:, axis], rtol=0, atol=1e-9)


def test_default_field_is_positive_zero():
    field = QuadraticField()
    for got, shape in ((field.value(POINTS), (50,)), (field.gradient(POINTS), (50, 2))):
        assert got.shape == shape
        assert not np.any(got) and not np.any(np.signbit(got))


def test_former_fields_are_reproduced_bit_for_bit():
    # zero, the constant load 4, the self-test's affine field and the Poisson
    # paraboloid, against the formulas of the classes they replace
    x, y = POINTS.T
    n = len(POINTS)
    cases = (
        (QuadraticField(), np.zeros(n), np.zeros((n, 2))),
        (QuadraticField(4.0), np.full(n, 4.0), np.zeros((n, 2))),
        (QuadraticField(0.3, -1.0, 2.0), 0.3 + -1.0 * x + 2.0 * y, np.tile((-1.0, 2.0), (n, 1))),
        (QuadraticField(1.0, c=-1.0), 1.0 + -1.0 * (x**2 + y**2), 2.0 * -1.0 * POINTS),
    )
    for field, value, gradient in cases:
        assert field.value(POINTS).tobytes() == value.tobytes()
        assert field.gradient(POINTS).tobytes() == gradient.tobytes()
