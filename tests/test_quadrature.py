"""Tests for the Gauss-Hermite quadrature grids."""
import math

import numpy as np
import pytest

from emirt.quadrature import MAX_POINTS, hermite_rule, normal_grid

SQRT_PI = math.sqrt(math.pi)


class TestHermiteRule:
    def test_one_point(self):
        """Symmetry forces the single root to 0 with the full mass."""
        nodes, weights = hermite_rule(1)
        np.testing.assert_allclose(nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(weights, [SQRT_PI], rtol=1e-14)

    def test_two_points_closed_form(self):
        # roots of H2(x) = 4x^2 - 2
        root = math.sqrt(0.5)
        nodes, weights = hermite_rule(2)
        np.testing.assert_allclose(nodes, [-root, root], rtol=1e-14)
        np.testing.assert_allclose(weights, [SQRT_PI / 2, SQRT_PI / 2], rtol=1e-14)

    def test_three_points_closed_form(self):
        # roots of H3(x) = 8x^3 - 12x
        root = math.sqrt(1.5)
        nodes, weights = hermite_rule(3)
        np.testing.assert_allclose(nodes, [-root, 0.0, root], rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(
            weights, [SQRT_PI / 6, 2 * SQRT_PI / 3, SQRT_PI / 6], rtol=1e-13
        )

    @pytest.mark.parametrize("n", range(1, MAX_POINTS + 1))
    def test_invariants_all_orders(self, n):
        nodes, weights = hermite_rule(n)
        assert len(nodes) == len(weights) == n
        assert (np.diff(nodes) > 0).all()
        assert (weights > 0).all()
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-12)
        np.testing.assert_allclose(weights.sum(), SQRT_PI, atol=1e-10)

    @pytest.mark.parametrize("n", [5, 17, 30, 50])
    def test_matches_numpy_hermgauss(self, n):
        """Independent cross-check against numpy's own Hermite rule."""
        nodes, weights = hermite_rule(n)
        ref_nodes, ref_weights = np.polynomial.hermite.hermgauss(n)
        np.testing.assert_allclose(nodes, ref_nodes, atol=1e-10)
        np.testing.assert_allclose(weights, ref_weights, atol=1e-12)

    @pytest.mark.parametrize("n", [0, -1, 51, 1000])
    def test_invalid_order(self, n):
        with pytest.raises(ValueError, match="order"):
            hermite_rule(n)


class TestNormalGrid:
    def test_two_point_grid(self):
        grid = normal_grid(2)
        np.testing.assert_allclose(grid.nodes, [-1.0, 1.0], rtol=1e-14)
        np.testing.assert_allclose(grid.weights, [0.5, 0.5], rtol=1e-15)

    def test_one_point_grid(self):
        grid = normal_grid(1)
        np.testing.assert_allclose(grid.nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(grid.weights, [1.0], rtol=0)

    def test_three_point_grid(self):
        grid = normal_grid(3)
        np.testing.assert_allclose(grid.nodes, [-math.sqrt(3), 0, math.sqrt(3)], rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(grid.weights, [1 / 6, 2 / 3, 1 / 6], rtol=1e-13)

    @pytest.mark.parametrize("n", range(1, MAX_POINTS + 1))
    def test_weight_normalization_and_symmetry(self, n):
        grid = normal_grid(n)
        assert grid.size == n
        np.testing.assert_allclose(grid.weights.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(grid.nodes, -grid.nodes[::-1], atol=1e-12)
        assert (grid.weights > 0).all()

    @pytest.mark.parametrize("n", range(1, MAX_POINTS + 1))
    def test_standard_normal_moments(self, n):
        """The grid must integrate low moments of N(0,1) exactly."""
        grid = normal_grid(n)
        np.testing.assert_allclose(grid.weights @ grid.nodes, 0.0, atol=1e-12)
        if n >= 2:
            np.testing.assert_allclose(grid.weights @ grid.nodes**2, 1.0, atol=1e-10)
        if n >= 3:
            np.testing.assert_allclose(grid.weights @ grid.nodes**4, 3.0, atol=1e-9)

    def test_propagates_invalid_order(self):
        with pytest.raises(ValueError):
            normal_grid(0)

    @pytest.mark.parametrize("n", [1, 4, MAX_POINTS])
    def test_grid_is_built_once_and_stays_read_only(self, n):
        grid = normal_grid(n)
        assert normal_grid(n) is grid
        for arr in (grid.nodes, grid.weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(AttributeError):
            grid.nodes = np.zeros(n)
