"""Tests for the Newton-Raphson reference estimator."""
import itertools
import math

import numpy as np
import pytest

from emirt import em_nr
from emirt.em_nr import _information, _score, fit_nr, item_score, nr_mstep
from emirt.em_ols import FitConfig, fit
from emirt.expectation import ExpectedCounts, logistic, q1, response_prob_matrix
from emirt.model import ItemParams, ModelKind, irf
from emirt.patterns import tabulate
from emirt.quadrature import QuadratureGrid, normal_grid
from emirt.simgen import generate

SIG1 = 1.0 / (1.0 + math.exp(-1.0))


def mstep_params(params, counts, grid, model):
    """nr_mstep on a list of ItemParams, returned as ItemParams."""
    a = np.array([p.a for p in params])
    b = np.array([p.b for p in params])
    return [ItemParams(a=x, b=y) for x, y in zip(*nr_mstep(a, b, counts, grid, model))]


def q1_at(a, b, counts, grid):
    return q1(response_prob_matrix(np.array([a]), np.array([b]), grid), counts)


def single_node_grid():
    return QuadratureGrid(nodes=np.array([0.0]), weights=np.array([1.0]))


class TestItemScore:
    def test_zero_at_matched_counts(self):
        p = ItemParams(a=1.3, b=-0.4)
        grid = normal_grid(3)
        nt = np.array([3.0, 9.0, 5.0])
        n1 = nt * np.array([irf(p, t) for t in grid.nodes])
        s_a, s_b = item_score(p, n1, nt, grid)
        assert abs(s_a) < 1e-9
        assert abs(s_b) < 1e-9

    def test_single_node_arithmetic(self):
        s_a, s_b = item_score(
            ItemParams(a=1, b=0), np.array([7.5]), np.array([10.0]), single_node_grid()
        )
        assert s_a == 0.0
        assert s_b == pytest.approx(-2.5)

    def test_single_node_offset_difficulty(self):
        s_a, s_b = item_score(
            ItemParams(a=1, b=-1), np.array([7.5]), np.array([10.0]), single_node_grid()
        )
        resid = 7.5 - 10.0 * SIG1
        assert s_a == pytest.approx(resid)
        assert s_b == pytest.approx(-resid)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences_of_q1(self, seed):
        rng = np.random.default_rng(seed)
        grid = normal_grid(int(rng.integers(2, 6)))
        p = ItemParams(a=float(rng.uniform(0.4, 2)), b=float(rng.uniform(-2, 2)))
        nt = rng.uniform(2, 40, grid.size)
        n1 = nt * rng.uniform(0.05, 0.95, grid.size)
        counts = ExpectedCounts(n1=n1[None, :], nt=nt)
        s_a, s_b = item_score(p, n1, nt, grid)
        h = 1e-6
        fd_a = (q1_at(p.a + h, p.b, counts, grid) - q1_at(p.a - h, p.b, counts, grid)) / (2 * h)
        fd_b = (q1_at(p.a, p.b + h, counts, grid) - q1_at(p.a, p.b - h, counts, grid)) / (2 * h)
        assert abs(fd_a - s_a) <= 1e-5 * max(abs(s_a), 1.0)
        assert abs(fd_b - s_b) <= 1e-5 * max(abs(s_b), 1.0)


def score_norm(p, n1, nt, grid):
    return math.hypot(*item_score(p, n1, nt, grid))


class TestNewtonItem:
    """The per-item Newton (IRLS) iteration inside nr_mstep."""

    @pytest.mark.parametrize("seed", range(4))
    def test_hessian_matches_central_differences_of_the_score(self, seed):
        rng = np.random.default_rng(seed)
        theta = normal_grid(int(rng.integers(2, 8))).nodes
        nt = rng.uniform(2, 40, (3, theta.size))
        n1 = nt * rng.uniform(0.05, 0.95, nt.shape)
        a, tau = rng.uniform(0.4, 2, 3), rng.uniform(-2, 2, 3)

        def prob(a, tau):
            return logistic(a[:, None] * theta + tau[:, None])

        def score(a, tau):
            return _score(prob(a, tau), n1, nt, theta)

        h = 1e-6
        da = [(x - y) / (2 * h) for x, y in zip(score(a + h, tau), score(a - h, tau))]
        dt = [(x - y) / (2 * h) for x, y in zip(score(a, tau + h), score(a, tau - h))]
        i_aa, i_at, i_tt = _information(prob(a, tau), nt, theta)
        # d(g_a)/da, d(g_tau)/da = d(g_a)/dtau, d(g_tau)/dtau against -I
        for fd, exact in ((da[0], i_aa), (da[1], i_at), (dt[0], i_at), (dt[1], i_tt)):
            np.testing.assert_allclose(-fd, exact, rtol=1e-6)

    def test_stationary_input_unchanged(self):
        p = ItemParams(a=0.9, b=0.7)
        grid = normal_grid(4)
        nt = np.array([4.0, 20.0, 20.0, 4.0])
        n1 = nt * np.array([irf(p, t) for t in grid.nodes])
        assert score_norm(p, n1, nt, grid) < em_nr.INNER_TOL
        counts = ExpectedCounts(n1=n1[None, :], nt=nt)
        (updated,) = mstep_params([p], counts, grid, ModelKind.TWO_PL)
        assert updated.a == pytest.approx(p.a, abs=1e-12)
        assert updated.b == pytest.approx(p.b, abs=1e-12)

    def test_one_pl_inverts_the_logistic(self):
        # P must equal 0.731 at the single node, so b = -logit(0.731)
        counts = ExpectedCounts(n1=np.array([[7.31]]), nt=np.array([10.0]))
        (updated,) = mstep_params(
            [ItemParams(a=1, b=0)], counts, single_node_grid(), ModelKind.ONE_PL
        )
        assert updated.a == 1.0
        assert updated.b == pytest.approx(-math.log(0.731 / 0.269), abs=1e-9)

    def test_superlinear_score_decay(self, monkeypatch):
        """The score norm falls quadratically: |s_k+1| < |s_k|^2 here."""
        p_true = ItemParams(a=1.4, b=0.6)
        grid = normal_grid(5)
        nt = np.array([5.0, 40.0, 80.0, 40.0, 5.0])
        n1 = nt * np.array([irf(p_true, t) for t in grid.nodes])
        counts = ExpectedCounts(n1=n1[None, :], nt=nt)
        norms = []
        monkeypatch.setattr(em_nr, "INNER_TOL", 1e-12)
        for steps in range(1, 6):
            monkeypatch.setattr(em_nr, "INNER_MAX_ITER", steps)
            (p,) = mstep_params([ItemParams(a=1, b=0)], counts, grid, ModelKind.TWO_PL)
            norms.append(score_norm(p, n1, nt, grid))
        tail = [n for n in norms if n > 1e-9]
        assert len(tail) >= 3
        ratios = [b / a**2 for a, b in zip(tail, tail[1:])]
        assert max(ratios) < 1.0
        assert norms[-1] < 1e-9

    @pytest.mark.parametrize("n_quads", [2, 3, 5, 8, 10])
    def test_curvature_at_one_node_stays_finite_and_unchanged(self, n_quads):
        """Mass at one node only leaves a singular Hessian: the item stays put.

        At some nodes the computed determinant rounds to a tiny positive
        number; a step along the resulting near-null direction would leave
        Q1 unchanged while moving (a, b) arbitrarily far.
        """
        grid = normal_grid(n_quads)
        p = ItemParams(a=1.3, b=-0.4)
        for node in range(n_quads):
            for share, mass in itertools.product((0.1, 0.5, 0.9), (3.0, 10.0, 77.7)):
                nt = np.zeros(n_quads)
                nt[node] = mass
                counts = ExpectedCounts(n1=share * nt[None, :], nt=nt)
                (updated,) = mstep_params([p], counts, grid, ModelKind.TWO_PL)
                assert math.isfinite(updated.a) and math.isfinite(updated.b)
                assert updated.a == pytest.approx(p.a, abs=1e-12)
                assert updated.b == pytest.approx(p.b, abs=1e-12)

    def test_items_are_solved_independently(self):
        """Items in one call match the same items solved one at a time."""
        rng = np.random.default_rng(5)
        grid = normal_grid(4)
        nt = rng.uniform(50, 400, 4)
        n1 = nt * rng.uniform(0.1, 0.9, (3, 4))
        counts = ExpectedCounts(n1=n1, nt=nt)
        start = [ItemParams(a=1.0, b=0.0)] * 3
        together = mstep_params(start, counts, grid, ModelKind.TWO_PL)
        for j in range(3):
            alone = ExpectedCounts(n1=n1[j : j + 1], nt=nt)
            (p,) = mstep_params(start[:1], alone, grid, ModelKind.TWO_PL)
            # products over a different number of rows may round differently
            assert p.a == pytest.approx(together[j].a, rel=1e-12)
            assert p.b == pytest.approx(together[j].b, rel=1e-12)


class TestFitNr:
    def test_monotone_ascent_and_convergence(self):
        truth = [ItemParams(a=1.0, b=-0.8), ItemParams(a=1.3, b=0.9)]
        data = tabulate(generate(truth, 2500, 31))
        result = fit_nr(data, FitConfig(model=ModelKind.TWO_PL))
        assert result.converged
        assert result.loglik_decreases == 0
        diffs = np.diff(result.loglik_trace)
        assert (diffs >= -1e-8).all()

    def test_fixed_point_input(self):
        matrix = [[1]] * 10 + [[0]] * 10
        data = tabulate(matrix)
        result = fit_nr(data, FitConfig(model=ModelKind.ONE_PL, n_quads=2))
        assert result.converged
        assert result.iterations == 1
        assert result.params[0].b == pytest.approx(0.0, abs=1e-9)

    def test_agrees_with_ols_on_moderate_data(self):
        truth = [ItemParams(a=1.0, b=b) for b in (-1.0, 0.0, 1.0)]
        data = tabulate(generate(truth, 4000, 77))
        nr = fit_nr(data, FitConfig(model=ModelKind.ONE_PL))
        ols = fit(data, FitConfig(model=ModelKind.ONE_PL))
        for p_nr, p_ols in zip(nr.params, ols.params):
            assert abs(p_nr.b - p_ols.b) < 0.05
        rel_gap = abs(nr.final_loglik - ols.final_loglik) / abs(nr.final_loglik)
        assert rel_gap < 1e-3

    def test_nr_loglik_not_worse_than_ols(self):
        truth = [ItemParams(a=0.9, b=0.2), ItemParams(a=1.5, b=-1.1)]
        data = tabulate(generate(truth, 3000, 13))
        nr = fit_nr(data, FitConfig(model=ModelKind.TWO_PL))
        ols = fit(data, FitConfig(model=ModelKind.TWO_PL))
        assert nr.final_loglik >= ols.final_loglik - 1e-6

    def test_recovers_the_one_pl_difficulty_grid(self):
        """Mean estimates over replications land on the generating values."""
        truth = [ItemParams(a=1.0, b=b) for b in (-3.0, -1.5, 0.0, 1.5, 3.0)]
        estimates = []
        for seed in np.random.SeedSequence(88).spawn(25):
            data = tabulate(generate(truth, 5000, seed))
            result = fit_nr(data, FitConfig(model=ModelKind.ONE_PL, n_quads=2))
            assert result.converged
            estimates.append([p.b for p in result.params])
        means = np.mean(estimates, axis=0)
        np.testing.assert_allclose(means, [-3.0, -1.5, 0.0, 1.5, 3.0], atol=0.1)

    def test_ascent_violation_is_raised(self, monkeypatch):
        """A broken M-step that regresses the likelihood must be reported."""
        truth = [ItemParams(a=1.0, b=0.3)]
        data = tabulate(generate(truth, 500, 2))

        def sabotage(a, b, counts, grid, model):
            return a, b + 3.0

        monkeypatch.setattr(em_nr, "nr_mstep", sabotage)
        with pytest.raises(
            em_nr.MonotonicityViolationError, match=r"fell from .* to .* at iteration \d+$"
        ):
            fit_nr(data, FitConfig(model=ModelKind.ONE_PL))

