"""Tests for the logistic item response function and its derivatives."""
import math

import numpy as np
import pytest

from emirt.model import ItemParams, irf, irf_grad


def central_difference(a, b, theta, wrt, h=1e-6):
    """FD of irf, evaluated on the unsaturated side of the curve."""
    if irf(ItemParams(a=a, b=b), theta) <= 0.5:
        f, sign = (lambda aa, bb: irf(ItemParams(a=aa, b=bb), theta)), 1.0
    else:
        f, sign = (lambda aa, bb: irf(ItemParams(a=-aa, b=bb), theta)), -1.0
    if wrt == "a":
        return sign * (f(a + h, b) - f(a - h, b)) / (2 * h)
    return sign * (f(a, b + h) - f(a, b - h)) / (2 * h)


class TestItemParams:
    def test_tau_is_negative_ab(self):
        p = ItemParams(a=2.0, b=1.5)
        assert p.tau == -3.0

    @pytest.mark.parametrize(
        "a,tau,expected_b", [(1.0, 0.0, 0.0), (2.0, -2.0, 1.0), (0.5, 1.5, -3.0)]
    )
    def test_threshold_form(self, a, tau, expected_b):
        np.testing.assert_allclose(ItemParams(a=a, b=expected_b).tau, tau, atol=1e-12)

    @pytest.mark.parametrize("a,b", [(0.3, -3.0), (1.0, 0.0), (2.0, 3.0), (0.5, -1.7)])
    def test_parametrizations_consistent(self, a, b):
        p = ItemParams(a=a, b=b)
        assert abs(p.tau + p.a * p.b) <= 1e-12

    def test_zero_discrimination_rejected(self):
        with pytest.raises(ValueError):
            ItemParams(a=0.0, b=1.0)

    @pytest.mark.parametrize("a,b", [(math.inf, 0.0), (1.0, math.nan)])
    def test_nonfinite_rejected(self, a, b):
        with pytest.raises(ValueError):
            ItemParams(a=a, b=b)


class TestIrf:
    def test_logit_zero(self):
        assert irf(ItemParams(a=1, b=0), 0.0) == 0.5

    def test_theta_at_difficulty(self):
        assert irf(ItemParams(a=2, b=1), 1.0) == 0.5

    def test_log_three(self):
        np.testing.assert_allclose(irf(ItemParams(a=1, b=0), math.log(3)), 0.75, rtol=1e-14)

    def test_extreme_arguments_do_not_overflow(self):
        p = ItemParams(a=1, b=0)
        assert irf(p, 800.0) == 1.0
        assert irf(p, -800.0) == 0.0

    def test_monotone_in_theta(self):
        p = ItemParams(a=0.7, b=-0.4)
        values = [irf(p, t) for t in np.linspace(-6, 6, 61)]
        assert all(x < y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("a,b", [(0.3, -3.0), (1.0, 0.0), (2.0, 3.0)])
    @pytest.mark.parametrize("theta", [-2.5, 0.0, 1.25])
    def test_symmetry_about_difficulty(self, a, b, theta):
        p = ItemParams(a=a, b=b)
        assert abs(irf(p, theta) + irf(p, 2 * b - theta) - 1.0) <= 1e-12

    def test_nonfinite_theta_rejected(self):
        with pytest.raises(ValueError):
            irf(ItemParams(a=1, b=0), math.inf)


class TestIrfGrad:
    def test_at_logit_zero(self):
        da, db = irf_grad(ItemParams(a=1, b=0), 0.0)
        assert da == 0.0
        assert db == -0.25

    def test_at_difficulty(self):
        da, db = irf_grad(ItemParams(a=2, b=1), 1.0)
        assert da == 0.0
        assert db == -0.5

    def test_log_three(self):
        da, db = irf_grad(ItemParams(a=1, b=0), math.log(3))
        np.testing.assert_allclose(da, math.log(3) * 0.1875, rtol=1e-13)
        np.testing.assert_allclose(db, -0.1875, rtol=1e-13)

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("b", [-3.0, 0.0, 3.0])
    def test_matches_finite_differences(self, a, b):
        """Central differences of the response probability, h=1e-6.

        Differences in the saturated tail are taken through the mirror
        identity irf(-a, b, theta) = 1 - irf(a, b, theta) so the oracle
        keeps full relative precision on both sides of the curve.
        """
        for theta in range(-4, 5):
            da, db = irf_grad(ItemParams(a=a, b=b), theta)
            fd_a = central_difference(a, b, theta, "a")
            fd_b = central_difference(a, b, theta, "b")
            assert abs(fd_a - da) <= 1e-6 * max(abs(da), 1e-8)
            assert abs(fd_b - db) <= 1e-6 * max(abs(db), 1e-8)
