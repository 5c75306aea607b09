"""Tests for the EM fit with the closed-form OLS M-step."""
import math
from dataclasses import replace

import numpy as np
import pytest

from emirt import em_ols, expectation
from emirt.em_nr import fit_nr
from emirt.em_ols import (
    DEGENERATE_SLOPE,
    B_CAP,
    DegenerateNodeError,
    FitConfig,
    fit,
    latent_responses,
    log_odds_cap,
    ols_mstep,
)
from emirt.expectation import ExpectedCounts, expected_counts
from emirt.model import A_MIN, ItemParams, ModelKind, irf
from emirt.patterns import tabulate
from emirt.quadrature import QuadratureGrid, normal_grid
from emirt.simgen import generate


def grid_at(*nodes):
    nodes = np.array(nodes, dtype=float)
    return QuadratureGrid(nodes=nodes, weights=np.full(len(nodes), 1 / len(nodes)))


class TestLatentResponses:
    def test_even_split_gives_zero(self):
        counts = ExpectedCounts(n1=np.array([[5.0]]), nt=np.array([10.0]))
        assert latent_responses(counts, eps=1e-6)[0, 0] == 0.0

    def test_three_quarters(self):
        counts = ExpectedCounts(n1=np.array([[7.5]]), nt=np.array([10.0]))
        np.testing.assert_allclose(latent_responses(counts, eps=1e-6), [[math.log(3)]], rtol=1e-14)

    def test_empty_cell_is_clamped(self):
        counts = ExpectedCounts(n1=np.array([[0.0]]), nt=np.array([10.0]))
        y = latent_responses(counts, eps=1e-6)
        np.testing.assert_allclose(y, [[math.log(1e-6 / (1 - 1e-6))]], rtol=1e-12)

    def test_empty_node_rejected(self):
        counts = ExpectedCounts(n1=np.array([[0.0, 1.0]]), nt=np.array([0.0, 2.0]))
        with pytest.raises(DegenerateNodeError) as err:
            latent_responses(counts, eps=1e-6)
        assert err.value.node_index == 0

    def test_empty_node_error_survives_pickling(self):
        """A study process sends its run's exception to the caller pickled."""
        import pickle

        err = pickle.loads(pickle.dumps(DegenerateNodeError(3)))
        assert (str(err), err.node_index) == (str(DegenerateNodeError(3)), 3)


class TestLogOddsCap:
    def test_narrow_grids_share_the_base_cap(self):
        assert log_odds_cap(normal_grid(4)) == pytest.approx(15.0)
        assert log_odds_cap(normal_grid(2)) < 15.0

    def test_cap_grows_with_grid_span(self):
        caps = [log_odds_cap(normal_grid(t)) for t in (2, 4, 8, 15)]
        assert all(x < y for x, y in zip(caps, caps[1:]))


class TestOlsMstep:
    def test_exact_line_through_two_points(self):
        a, b, degenerate = ols_mstep(np.array([[-1.0, 1.0]]), grid_at(-1, 1), ModelKind.TWO_PL)
        assert a[0] == pytest.approx(1.0)
        assert b[0] == pytest.approx(0.0)
        assert degenerate.tolist() == [False]

    def test_exact_line_with_intercept(self):
        a, b, _ = ols_mstep(np.array([[0.0, 2.0]]), grid_at(-1, 1), ModelKind.TWO_PL)
        assert a[0] == pytest.approx(1.0)
        assert -a[0] * b[0] == pytest.approx(1.0)
        assert b[0] == pytest.approx(-1.0)

    def test_three_point_slope(self):
        a, b, _ = ols_mstep(np.array([[-2.0, 0.0, 2.0]]), grid_at(-1, 0, 1), ModelKind.TWO_PL)
        assert a[0] == pytest.approx(2.0)
        assert b[0] == pytest.approx(0.0)

    def test_one_pl_intercept_only(self):
        a, b, degenerate = ols_mstep(np.array([[0.3, 2.1]]), grid_at(-1, 1), ModelKind.ONE_PL)
        assert a[0] == 1.0
        assert b[0] == pytest.approx(-1.2)
        assert degenerate.tolist() == [False]

    @pytest.mark.parametrize("seed", range(5))
    def test_recovers_affine_rows_exactly(self, seed):
        rng = np.random.default_rng(seed)
        grid = normal_grid(int(rng.integers(2, 8)))
        slopes = rng.uniform(-2.5, 2.5, 3)
        slopes[np.abs(slopes) < 0.05] = 0.5
        intercepts = rng.uniform(-3, 3, 3)
        y = slopes[:, None] * grid.nodes[None, :] + intercepts[:, None]
        a, b, _ = ols_mstep(y, grid, ModelKind.TWO_PL)
        np.testing.assert_allclose(a, slopes, atol=1e-12)
        np.testing.assert_allclose(-a * b, intercepts, atol=1e-12)

    def test_flat_row_is_flagged(self):
        y = np.array([[1.3, 1.3, 1.3]])
        a, b, degenerate = ols_mstep(y, grid_at(-1, 0, 1), ModelKind.TWO_PL)
        assert degenerate.tolist() == [True]
        assert a[0] == A_MIN
        assert b[0] == math.copysign(B_CAP, 1.3)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_per_item_loop(self, seed):
        """The vectorised step gives the floats of the per-item loop it
        replaced, with and without degenerate rows (a zero slope, a tiny one)."""
        rng = np.random.default_rng(seed)
        grid = normal_grid(int(rng.integers(2, 9)))
        y = rng.uniform(-6, 6, (6, grid.size))
        if seed % 2:
            y[1] = 2.5  # zero slope
            y[2] = -1.0 + 1e-9 * grid.nodes  # slope far below A_MIN
        a, b, degenerate = ols_mstep(y, grid, ModelKind.TWO_PL)

        theta_bar = grid.nodes.mean()
        y_bar = y.mean(axis=1)
        centered = grid.nodes - theta_bar
        slopes = (y - y_bar[:, None]) @ centered / float(centered @ centered)
        taus = y_bar - slopes * theta_bar
        want = []
        for a_hat, tau_hat in zip(slopes, taus):
            if abs(a_hat) < A_MIN:
                want.append((float(a_hat) or A_MIN, math.copysign(B_CAP, tau_hat), True))
            else:
                want.append((float(a_hat), float(-tau_hat / a_hat), False))
        assert list(zip(a.tolist(), b.tolist(), degenerate.tolist())) == want
        assert degenerate.any() == bool(seed % 2)

    def test_two_pl_needs_two_nodes(self):
        with pytest.raises(ValueError):
            ols_mstep(np.array([[1.0]]), grid_at(0), ModelKind.TWO_PL)


class TestMstepFixedPoint:
    @pytest.mark.parametrize("seed", range(4))
    def test_matched_proportions_return_input(self, seed):
        """Counts lying exactly on the response curve reproduce the parameters."""
        rng = np.random.default_rng(seed)
        grid = normal_grid(4)
        params = [
            ItemParams(a=float(rng.uniform(0.4, 2)), b=float(rng.uniform(-2, 2)))
            for _ in range(3)
        ]
        nt = rng.uniform(5, 50, grid.size)
        n1 = np.array([[nt[t] * irf(p, grid.nodes[t]) for t in range(grid.size)] for p in params])
        y = latent_responses(ExpectedCounts(n1=n1, nt=nt), eps=1e-6)
        a, b, _ = ols_mstep(y, grid, ModelKind.TWO_PL)
        np.testing.assert_allclose(a, [p.a for p in params], atol=1e-9)
        np.testing.assert_allclose(b, [p.b for p in params], atol=1e-9)


class TestFit:
    def test_fixed_point_converges_immediately(self):
        """A perfectly balanced single item sits at the EM fixed point."""
        matrix = [[1]] * 10 + [[0]] * 10
        data = tabulate(matrix)
        for model in (ModelKind.ONE_PL, ModelKind.TWO_PL):
            result = fit(data, FitConfig(model=model, n_quads=2))
            assert result.converged
            assert result.iterations == 1
            assert result.max_delta_trace[0] <= 1e-12
            assert result.params[0].a == pytest.approx(1.0, abs=1e-12)
            assert result.params[0].b == pytest.approx(0.0, abs=1e-12)

    def test_default_quadrature_counts(self):
        assert FitConfig(model=ModelKind.ONE_PL).resolved_quads == 2
        assert FitConfig(model=ModelKind.TWO_PL).resolved_quads == 4

    def test_recovers_moderate_items(self):
        truth = [ItemParams(a=1.0, b=-1.0), ItemParams(a=1.0, b=0.5)]
        data = tabulate(generate(truth, 4000, 99))
        result = fit(data, FitConfig(model=ModelKind.ONE_PL))
        assert result.converged
        assert abs(result.params[0].b + 1.0) < 0.15
        assert abs(result.params[1].b - 0.5) < 0.15

    def test_trace_lengths(self):
        truth = [ItemParams(a=1.2, b=0.3)]
        data = tabulate(generate(truth, 500, 3))
        result = fit(data, FitConfig(model=ModelKind.TWO_PL))
        assert len(result.loglik_trace) == result.iterations + 1
        assert len(result.max_delta_trace) == result.iterations
        assert len(result.phi_max_trace) == result.iterations
        if result.converged:
            assert result.max_delta_trace[-1] < 1e-4

    def test_bit_identical_reruns(self):
        truth = [ItemParams(a=0.8, b=-0.6), ItemParams(a=1.4, b=1.1)]
        data = tabulate(generate(truth, 1500, 21))
        cfg = FitConfig(model=ModelKind.TWO_PL)
        first = fit(data, cfg)
        second = fit(data, cfg)
        assert first.loglik_trace == second.loglik_trace
        assert first.max_delta_trace == second.max_delta_trace
        assert [(p.a, p.b) for p in first.params] == [(p.a, p.b) for p in second.params]

    def test_phi_shrinks_on_well_conditioned_data(self):
        truth = [ItemParams(a=1.0, b=b) for b in (-1.0, 0.0, 1.0)]
        data = tabulate(generate(truth, 3000, 17))
        result = fit(data, FitConfig(model=ModelKind.ONE_PL))
        assert result.phi_max_trace[-1] <= result.phi_max_trace[0]

    def test_nonconvergence_is_reported_not_raised(self):
        truth = [ItemParams(a=1.0, b=0.4)]
        data = tabulate(generate(truth, 800, 5))
        result = fit(data, FitConfig(model=ModelKind.ONE_PL, max_iter=1, tol=1e-12))
        assert not result.converged
        assert result.iterations == 1

    def test_degenerate_item_is_flagged(self):
        """An unanswerable item drives its slope to zero and gets flagged."""
        rng = np.random.default_rng(1)
        good = rng.integers(0, 2, size=(200, 1))
        matrix = np.hstack([good, np.zeros((200, 1), dtype=int)])
        with pytest.warns(UserWarning):
            data = tabulate(matrix)
        result = fit(data, FitConfig(model=ModelKind.TWO_PL, n_quads=4))
        assert DEGENERATE_SLOPE in result.flags[1]
        assert abs(result.params[1].b) == B_CAP


ESTIMATORS = {"ols": fit, "nr": fit_nr}


class TestLoglikReuse:
    """The trace's log-likelihoods come from the E-step's normaliser."""

    @pytest.mark.parametrize("model", [ModelKind.ONE_PL, ModelKind.TWO_PL])
    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_trace_equals_observed_loglik_at_every_visited_set(self, estimator, model):
        truth = [ItemParams(a=0.7, b=-1.2), ItemParams(a=1.3, b=0.2), ItemParams(a=1.8, b=1.0)]
        data = tabulate(generate(truth, 900, 31))
        fitter = ESTIMATORS[estimator]
        cfg = FitConfig(model=model, n_quads=5)
        result = fitter(data, cfg)
        assert result.iterations > 2
        # the loop is deterministic: the fit stopped after k iterations ends at the kth set
        start = [ItemParams(a=1.0, b=0.0)] * data.n_items
        visited = [start] + [
            fitter(data, replace(cfg, max_iter=k)).params for k in range(1, result.iterations)
        ] + [result.params]
        assert len(visited) == len(result.loglik_trace)
        grid = normal_grid(cfg.resolved_quads)
        for ll, params in zip(result.loglik_trace, visited):
            prob = expectation.response_prob_matrix(
                np.array([p.a for p in params]), np.array([p.b for p in params]), grid
            )
            stack = expectation.PatternStack.of([data])
            assert [ll] == expectation.observed_loglik(stack, prob[None], grid)

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_one_posterior_per_visited_set(self, estimator, monkeypatch):
        calls = {"posterior": 0, "observed_loglik": 0}

        def counted(name):
            original = getattr(expectation, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(expectation, name, counted(name))
        truth = [ItemParams(a=1.0, b=-0.5), ItemParams(a=1.0, b=0.8)]
        data = tabulate(generate(truth, 600, 8))
        fitter = ESTIMATORS[estimator]
        result = fitter(data, FitConfig(model=ModelKind.ONE_PL))
        assert calls == {"posterior": result.iterations + 1, "observed_loglik": 0}


    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_one_probability_matrix_per_visited_set(self, estimator, monkeypatch):
        calls = 0
        original = expectation.response_prob_matrix

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(expectation, "response_prob_matrix", counted)
        truth = [ItemParams(a=0.8, b=-0.5), ItemParams(a=1.4, b=0.8)]
        data = tabulate(generate(truth, 600, 8))
        fitter = ESTIMATORS[estimator]
        result = fitter(data, FitConfig(model=ModelKind.TWO_PL))
        assert result.iterations > 2
        assert calls == result.iterations + 1


ONE_PL_TRUTH = [ItemParams(a=1.0, b=b) for b in (-1.0, 0.0, 1.0)]
TWO_PL_TRUTH = [ItemParams(a=0.8, b=-1.0), ItemParams(a=1.2, b=0.0), ItemParams(a=1.5, b=1.0)]


def constant_item_matrix():
    """Two ordinary items and a third that every person solved."""
    return np.hstack([generate(TWO_PL_TRUTH[:2], 400, 11), np.ones((400, 1), dtype=int)])


# (model, node count or None for the default, responses) -> expected
# (converged, iterations, flags) per estimator, as the per-item ItemParams
# loop before the array core gave them.
DEG = [DEGENERATE_SLOPE]
EDGE_CASES = {
    "1pl_one_node": (
        ModelKind.ONE_PL, 1, lambda: generate(ONE_PL_TRUTH, 500, 3),
        {"ols": (True, 2, [[], [], []]), "nr": (True, 2, [[], [], []])},
    ),
    "1pl_fifty_nodes": (
        ModelKind.ONE_PL, 50, lambda: generate(ONE_PL_TRUTH, 500, 3),
        {"ols": (True, 5, [[], [], []]), "nr": (True, 7, [[], [], []])},
    ),
    "2pl_fifty_nodes": (
        ModelKind.TWO_PL, 50, lambda: generate(TWO_PL_TRUTH, 500, 4),
        {"ols": (True, 91, [[], [], []]), "nr": (False, 500, [[], [], []])},
    ),
    "1pl_one_person": (
        ModelKind.ONE_PL, None, lambda: [[1, 0, 1]],
        {"ols": (True, 2, [[], [], []]), "nr": (True, 2, [[], [], []])},
    ),
    "2pl_one_person": (
        ModelKind.TWO_PL, None, lambda: [[1, 0, 1]],
        {"ols": (True, 2, [DEG, DEG, DEG]), "nr": (False, 500, [[], [], []])},
    ),
    "1pl_constant_item": (
        ModelKind.ONE_PL, None, constant_item_matrix,
        {"ols": (True, 10, [[], [], []]), "nr": (False, 500, [[], [], []])},
    ),
    "2pl_constant_item": (
        ModelKind.TWO_PL, None, constant_item_matrix,
        {"ols": (True, 28, [[], [], DEG]), "nr": (False, 500, [[], [], []])},
    ),
}


class TestEdgeInputs:
    """Extreme node counts, one person and a constant item, both estimators."""

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_outcome(self, case, estimator):
        model, n_quads, responses, expected = EDGE_CASES[case]
        data = tabulate(responses())
        fitter = ESTIMATORS[estimator]
        result = fitter(data, FitConfig(model=model, n_quads=n_quads))
        assert (result.converged, result.iterations, result.flags) == expected[estimator]
        assert all(math.isfinite(p.a) and math.isfinite(p.b) for p in result.params)

    @pytest.mark.parametrize(
        "param, value, message",
        [("a", math.nan, r"must be finite, got a=nan, b="),
         ("b", math.nan, r"must be finite, got a=.*, b=nan"),
         ("b", -math.inf, r"must be finite, got a=.*, b=-inf"),
         ("a", 0.0, "discrimination must be nonzero")],
    )
    def test_bad_estimate_raises_at_its_iteration(self, monkeypatch, param, value, message):
        """An M-step that yields a non-finite or zero estimate stops the fit
        with ItemParams' error in that iteration."""
        original = em_ols.ols_mstep
        calls = []

        def breaks_on_third_call(y, grid, model):
            a, b, degenerate = original(y, grid, model)
            calls.append(None)
            if len(calls) == 3:
                {"a": a, "b": b}[param][..., 1] = value  # item 1 of every fit
            return a, b, degenerate

        monkeypatch.setattr(em_ols, "ols_mstep", breaks_on_third_call)
        data = tabulate(generate(TWO_PL_TRUTH, 300, 2))
        with pytest.raises(ValueError, match=message):
            fit(data, FitConfig(model=ModelKind.TWO_PL))
        assert len(calls) == 3


class TestFitConfigValidation:
    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValueError):
            FitConfig(model=ModelKind.ONE_PL, max_iter=0)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            FitConfig(model=ModelKind.ONE_PL, tol=0.0)

    def test_rejects_single_node_two_pl(self):
        with pytest.raises(ValueError):
            FitConfig(model=ModelKind.TWO_PL, n_quads=1)

    @pytest.mark.parametrize("model", [ModelKind.ONE_PL, ModelKind.TWO_PL])
    @pytest.mark.parametrize("n_quads", [0, 51])
    def test_rejects_node_count_out_of_range(self, model, n_quads):
        with pytest.raises(ValueError, match="quadrature point count"):
            FitConfig(model=model, n_quads=n_quads)

    def test_accepts_the_node_count_range(self):
        assert FitConfig(model=ModelKind.ONE_PL, n_quads=1).resolved_quads == 1
        assert FitConfig(model=ModelKind.TWO_PL, n_quads=50).resolved_quads == 50
