"""Tests for the E-step quantities."""
import math
import multiprocessing
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from emirt import em_nr, em_ols, expectation
from emirt.em_ols import FitConfig
from emirt.expectation import (
    ExpectedCounts,
    PatternStack,
    PosteriorUnderflowError,
    expected_counts,
    observed_loglik,
    phi_residuals,
    posterior,
    q1,
    response_prob_matrix,
)
from emirt.model import ItemParams, ModelKind, irf
from emirt.patterns import PatternData, tabulate
from emirt.quadrature import MAX_POINTS, QuadratureGrid, normal_grid
from emirt.simgen import generate

SIG1 = 1.0 / (1.0 + math.exp(-1.0))  # 0.731058...


def prob_of(params, grid):
    """The clamped (J, T) response probability matrix of an ItemParams list."""
    a = np.array([p.a for p in params])
    b = np.array([p.b for p in params])
    return response_prob_matrix(a, b, grid)


def table_posterior(data, prob, grid):
    """posterior on data's own stack: (post, loglik or PosteriorUnderflowError)."""
    post, (loglik,) = posterior(PatternStack.of([data]), prob[None], grid)
    return post, loglik


def table_counts(data, post):
    """expected_counts on data's own stack: its fit's (J, T) and (T,) counts."""
    counts = expected_counts(PatternStack.of([data]), post)
    return ExpectedCounts(n1=counts.n1[0], nt=counts.nt[0])


def table_loglik(data, prob, grid):
    """observed_loglik on data's own stack: its loglik or PosteriorUnderflowError."""
    (loglik,) = observed_loglik(PatternStack.of([data]), prob[None], grid)
    return loglik


def loglik_at(data, params, grid):
    return table_posterior(data, prob_of(params, grid), grid)[1]


def posterior_at(data, params, grid):
    return table_posterior(data, prob_of(params, grid), grid)[0]


def two_point_grid():
    return QuadratureGrid(nodes=np.array([-1.0, 1.0]), weights=np.array([0.5, 0.5]))


def random_instance(seed, max_items=4, max_nodes=5):
    rng = np.random.default_rng(seed)
    n_items = int(rng.integers(1, max_items + 1))
    params = [
        ItemParams(a=float(rng.uniform(0.3, 2.0)), b=float(rng.uniform(-2.5, 2.5)))
        for _ in range(n_items)
    ]
    matrix = rng.integers(0, 2, size=(int(rng.integers(2, 60)), n_items))
    grid = normal_grid(int(rng.integers(1, max_nodes + 1)))
    return params, matrix, grid


def one_node_grid(node):
    """All prior mass at one node, so the log-likelihood is log P(X | node)."""
    return QuadratureGrid(nodes=np.array([node]), weights=np.array([1.0]))


class TestPatternLikelihoods:
    def test_single_item_at_zero(self):
        data = tabulate([[1]])
        ll = loglik_at(data, [ItemParams(a=1, b=0)], normal_grid(1))
        np.testing.assert_allclose(ll, math.log(0.5), rtol=1e-14)

    def test_independent_items_at_their_difficulty(self):
        with pytest.warns(UserWarning):
            data = tabulate([[1, 1]])
        ll = loglik_at(
            data, [ItemParams(a=1.3, b=0), ItemParams(a=0.7, b=0)], normal_grid(1)
        )
        np.testing.assert_allclose(ll, math.log(0.25), rtol=1e-12)

    def test_single_item_at_one(self):
        data = tabulate([[1]])
        ll = loglik_at(data, [ItemParams(a=1, b=0)], one_node_grid(1.0))
        np.testing.assert_allclose(ll, math.log(SIG1), rtol=1e-12)

    def test_wrong_param_count(self):
        data = tabulate([[1, 0]])
        with pytest.raises(ValueError):
            loglik_at(data, [ItemParams(a=1, b=0)], normal_grid(2))

    def test_matrix_without_its_fit_axis_is_rejected(self):
        """A stack takes an (R, J, T) stack of matrices, never one (J, T) matrix."""
        data = tabulate([[1, 0], [0, 1]])
        grid = normal_grid(2)
        prob = prob_of([ItemParams(a=1, b=0)] * 2, grid)
        with pytest.raises(ValueError, match=r"shape \(1, 2, 2\), got \(2, 2\)"):
            posterior(PatternStack.of([data]), prob, grid)


class TestPosterior:
    def test_two_node_example(self):
        data = tabulate([[1]])
        post = posterior_at(data, [ItemParams(a=1, b=0)], two_point_grid())
        np.testing.assert_allclose(post, [[1 - SIG1, SIG1]], rtol=1e-10)

    def test_mirrored_pattern(self):
        data = tabulate([[0]])
        post = posterior_at(data, [ItemParams(a=1, b=0)], two_point_grid())
        np.testing.assert_allclose(post, [[SIG1, 1 - SIG1]], rtol=1e-10)

    def test_single_node_is_certain(self):
        data = tabulate([[1, 0], [0, 1]])
        post = posterior_at(
            data, [ItemParams(a=1, b=0), ItemParams(a=1, b=1)], normal_grid(1)
        )
        np.testing.assert_allclose(post, np.ones((2, 1)))

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_sum_to_one(self, seed):
        params, matrix, grid = random_instance(seed)
        data = tabulate(matrix)
        post = posterior_at(data, params, grid)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-10)
        assert ((post >= 0) & (post <= 1)).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_loglik_is_the_observed_loglik(self, seed):
        params, matrix, grid = random_instance(seed)
        data = tabulate(matrix)
        prob = prob_of(params, grid)
        _, ll = table_posterior(data, prob, grid)
        assert ll == table_loglik(data, prob, grid)

    def test_underflow_is_reported(self):
        data = tabulate([[1]])
        dead_grid = QuadratureGrid(nodes=np.array([0.0]), weights=np.array([0.0]))
        err = loglik_at(data, [ItemParams(a=1, b=0)], dead_grid)
        assert isinstance(err, PosteriorUnderflowError) and err.pattern_index == 0

    def test_posterior_and_observed_loglik_return_the_same_error(self):
        """A non-finite pattern is one PosteriorUnderflowError in either
        function's list, naming the pattern; neither raises nor gives nan."""
        data = tabulate(generate(two_pl_truth(5), 300, 3))
        x = data.patterns.astype(np.float64)
        x[4, 2] = np.nan
        broken = PatternData(patterns=x, freqs=data.freqs)
        grid = normal_grid(4)
        prob = prob_of(two_pl_truth(5), grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors = [table_posterior(broken, prob, grid)[1], table_loglik(broken, prob, grid)]
        for err in errors:
            assert isinstance(err, PosteriorUnderflowError) and err.pattern_index == 4
        assert str(errors[0]) == str(errors[1])

    def test_underflow_error_survives_pickling(self):
        """A study process sends its run's exception to the caller pickled."""
        import pickle

        err = pickle.loads(pickle.dumps(PosteriorUnderflowError(3)))
        assert (str(err), err.pattern_index) == (str(PosteriorUnderflowError(3)), 3)


class TestExpectedCounts:
    def test_single_pattern_scales_posterior(self):
        data = tabulate([[1]] * 10)
        counts = table_counts(data, np.array([[0.25, 0.75]]))
        np.testing.assert_allclose(counts.n1, [[2.5, 7.5]])
        np.testing.assert_allclose(counts.nt, [2.5, 7.5])

    def test_two_patterns_uniform_posterior(self):
        data = tabulate([[1]] * 4 + [[0]] * 6)
        counts = table_counts(data, np.full((2, 2), 0.5))
        np.testing.assert_allclose(counts.nt, [5.0, 5.0])
        np.testing.assert_allclose(counts.n1, [[2.0, 2.0]])

    def test_composes_with_posterior(self):
        data = tabulate([[1]])
        post = posterior_at(data, [ItemParams(a=1, b=0)], two_point_grid())
        counts = table_counts(data, post)
        np.testing.assert_allclose(counts.n1, [[1 - SIG1, SIG1]], rtol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_conservation(self, seed):
        params, matrix, grid = random_instance(seed)
        data = tabulate(matrix)
        counts = table_counts(data, posterior_at(data, params, grid))
        np.testing.assert_allclose(counts.nt.sum(), data.n_persons, atol=1e-8)
        np.testing.assert_allclose(
            counts.n1.sum(axis=1),
            data.patterns.T.astype(float) @ data.freqs,
            atol=1e-8,
        )
        assert (counts.n1 <= counts.nt[None, :] + 1e-12).all()
        assert (counts.n1 >= -1e-12).all()


class TestObservedLoglik:
    def test_single_node(self):
        data = tabulate([[1]])
        grid = normal_grid(1)
        ll = table_loglik(data, prob_of([ItemParams(a=1, b=0)], grid), grid)
        np.testing.assert_allclose(ll, math.log(0.5), rtol=1e-12)

    def test_frequency_scaling(self):
        data = tabulate([[1], [1]])
        grid = normal_grid(1)
        ll = table_loglik(data, prob_of([ItemParams(a=1, b=0)], grid), grid)
        np.testing.assert_allclose(ll, 2 * math.log(0.5), rtol=1e-12)

    def test_symmetric_mixture(self):
        data = tabulate([[1]])
        grid = two_point_grid()
        ll = table_loglik(data, prob_of([ItemParams(a=1, b=0)], grid), grid)
        np.testing.assert_allclose(ll, math.log(0.5), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_brute_force_enumeration(self, seed):
        """Direct product-space evaluation of the marginal likelihood."""
        params, matrix, grid = random_instance(seed, max_items=3, max_nodes=3)
        data = tabulate(matrix)
        expected = 0.0
        for pattern, freq in zip(data.patterns, data.freqs):
            mixture = 0.0
            for node, weight in zip(grid.nodes, grid.weights):
                prob = 1.0
                for x, p in zip(pattern, params):
                    prob *= irf(p, node) if x else 1.0 - irf(p, node)
                mixture += prob * weight
            expected += freq * math.log(mixture)
        got = table_loglik(data, prob_of(params, grid), grid)
        np.testing.assert_allclose(got, expected, atol=1e-10)


class TestQ1:
    def test_zero_counts(self):
        counts = ExpectedCounts(n1=np.zeros((1, 1)), nt=np.zeros(1))
        assert q1(prob_of([ItemParams(a=1, b=0)], normal_grid(1)), counts) == 0.0

    def test_single_cell(self):
        # P(b such that irf = 0.3 at theta=0) = logit(0.3)
        b = -math.log(0.3 / 0.7)
        counts = ExpectedCounts(n1=np.array([[3.0]]), nt=np.array([10.0]))
        value = q1(prob_of([ItemParams(a=1, b=b)], normal_grid(1)), counts)
        np.testing.assert_allclose(value, 3 * math.log(0.3) + 7 * math.log(0.7), rtol=1e-12)

    def test_fair_coin_entropy(self):
        # a so small the response curve is flat at one half
        counts = ExpectedCounts(n1=np.array([[3.0, 2.0]]), nt=np.array([6.0, 4.0]))
        value = q1(prob_of([ItemParams(a=1e-12, b=0)], two_point_grid()), counts)
        np.testing.assert_allclose(value, 10 * math.log(0.5), rtol=1e-9)


class TestPhiResiduals:
    def test_zero_at_matched_proportions(self):
        p = ItemParams(a=1, b=0.4)
        grid = two_point_grid()
        nt = np.array([7.0, 9.0])
        n1 = nt * np.array([irf(p, t) for t in grid.nodes])
        phi = phi_residuals(prob_of([p], grid), ExpectedCounts(n1=n1[None, :], nt=nt))
        np.testing.assert_allclose(phi, 0.0, atol=1e-9)

    def test_positive_residual(self):
        counts = ExpectedCounts(n1=np.array([[7.5]]), nt=np.array([10.0]))
        phi = phi_residuals(prob_of([ItemParams(a=1, b=0)], normal_grid(1)), counts)
        np.testing.assert_allclose(phi, [[10.0]], rtol=1e-12)

    def test_negative_residual(self):
        counts = ExpectedCounts(n1=np.array([[2.5]]), nt=np.array([10.0]))
        phi = phi_residuals(prob_of([ItemParams(a=1, b=0)], normal_grid(1)), counts)
        np.testing.assert_allclose(phi, [[-10.0]], rtol=1e-12)



# Relative tolerance of a multi-block E-step against the whole-table
# formulas.  BLAS sums a (rows, J) x (J, T) product in an order that depends
# on the row count, so splitting the table into blocks moves log joints by
# a few ulps of their magnitude, and the count sums add block by block.
BLOCK_RTOL = 1e-12


def reference_estep(data, prob, grid):
    """Posterior, log-likelihood, N1 and N_t from the whole-table formulas."""
    x = data.patterns.astype(np.float64)
    log_joint = x @ np.log(prob) + (1.0 - x) @ np.log1p(-prob) + np.log(grid.weights)[None, :]
    peak = np.maximum.reduce(log_joint, axis=1, keepdims=True)
    norm = (peak + np.log(np.add.reduce(np.exp(log_joint - peak), axis=1, keepdims=True))).ravel()
    post = np.exp(log_joint - norm[:, None])
    freqs = data.freqs.astype(np.float64)
    return post, float(freqs @ norm), (x.T * freqs[None, :]) @ post, freqs @ post


def two_pl_truth(n_items):
    return [
        ItemParams(a=a, b=b)
        for a, b in zip(np.linspace(0.5, 2.0, n_items), np.linspace(-2.5, 2.5, n_items))
    ]


@pytest.fixture(scope="module")
def wide_data():
    """30 items, 10,000 persons: more than two default blocks of distinct patterns."""
    data = tabulate(generate(two_pl_truth(30), 10_000, 21))
    assert data.n_patterns > 2 * expectation.BLOCK_ROWS
    return data


def wide_instance(data, n_quads):
    """The wide table with a perturbed truth's probability matrix on an n_quads grid."""
    truth = two_pl_truth(30)
    grid = normal_grid(n_quads)
    a = np.array([p.a for p in truth]) * 0.9
    b = np.array([p.b for p in truth]) + 0.1
    return data, response_prob_matrix(a, b, grid), grid


@pytest.fixture(scope="module")
def wide_table(wide_data):
    return wide_instance(wide_data, 10)


# Node counts on both sides of numpy's pairwise summation, which sums a
# contiguous run of 8 or more values in another order than a shorter one.
# T = 10 keeps the case's plain id.
NODE_COUNTS = (4, 7, 8, 10, 21)
# The blocked E-step's ones-row operand at the fewest and the most nodes too.
EDGE_NODE_COUNTS = NODE_COUNTS + (1, 2, MAX_POINTS)


def node_count_cases(*ids, node_counts=NODE_COUNTS):
    """(id value, T) parameters for every id value and node count."""
    return [
        pytest.param(value, n_quads, id=f"{value}" if n_quads == 10 else f"{value}-T{n_quads}")
        for value in ids
        for n_quads in node_counts
    ]


@pytest.fixture(scope="module")
def helper_thread():
    """A one-thread pool that helps the caller, whatever the machine's core count."""
    with ThreadPoolExecutor(1) as pool:
        yield pool


def one_table_estep(data, prob, grid):
    """estep on data's own stack: (loglik or PosteriorUnderflowError, N1, N_t)."""
    (loglik,), counts = expectation.estep(PatternStack.of([data]), prob[None], grid)
    return loglik, counts.n1[0], counts.nt[0]


def run_blocks_on(pool, monkeypatch, helpers=1):
    """Share multi-block E-steps with helpers of pool's threads, or run them inline when pool is None."""
    monkeypatch.setattr(expectation, "_pool", pool)
    monkeypatch.setattr(expectation, "_helpers", 0 if pool is None else helpers)


def fit_repr(result):
    """Everything a fit reports, as one string: equal strings mean identical fits."""
    return repr(
        (result.params, result.loglik_trace, result.max_delta_trace, result.phi_max_trace,
         result.flags, result.iterations, result.converged, result.loglik_decreases)
    )


class TestBlockedEStep:
    @pytest.mark.parametrize(
        "block_rows, n_quads",
        node_count_cases(1, 7, expectation.BLOCK_ROWS, node_counts=EDGE_NODE_COUNTS),
    )
    def test_matches_whole_table_formulas(self, wide_data, block_rows, n_quads, monkeypatch):
        monkeypatch.setattr(expectation, "BLOCK_ROWS", block_rows)
        data, prob, grid = wide_instance(wide_data, n_quads)
        _, ref_ll, ref_n1, ref_nt = reference_estep(data, prob, grid)
        ll, n1, nt = one_table_estep(data, prob, grid)
        np.testing.assert_allclose(ll, ref_ll, rtol=BLOCK_RTOL)
        np.testing.assert_allclose(n1, ref_n1, rtol=BLOCK_RTOL)
        np.testing.assert_allclose(nt, ref_nt, rtol=BLOCK_RTOL)

    def test_only_estep_takes_a_table_over_block_rows(self, wide_table, monkeypatch):
        """The whole-table forms refuse a table one row past BLOCK_ROWS and
        give the whole-table formulas' bits on a table of BLOCK_ROWS rows."""
        monkeypatch.setattr(expectation, "BLOCK_ROWS", 7)
        data, prob, grid = wide_table
        longer = PatternData(patterns=data.patterns[:8], freqs=data.freqs[:8])
        for call in (
            lambda: table_posterior(longer, prob, grid),
            lambda: table_counts(longer, np.full((8, grid.size), 1.0 / grid.size)),
            lambda: table_loglik(longer, prob, grid),
        ):
            with pytest.raises(ValueError, match="estep"):
                call()
        exact = PatternData(patterns=data.patterns[:7], freqs=data.freqs[:7])
        ref_post, ref_ll, ref_n1, ref_nt = reference_estep(exact, prob, grid)
        post, ll = table_posterior(exact, prob, grid)
        counts = table_counts(exact, post)
        assert np.array_equal(post, ref_post) and ll == ref_ll
        assert np.array_equal(counts.n1, ref_n1) and np.array_equal(counts.nt, ref_nt)
        assert table_loglik(exact, prob, grid) == ref_ll
        ll, n1, nt = one_table_estep(exact, prob, grid)
        assert ll == ref_ll and np.array_equal(n1, ref_n1) and np.array_equal(nt, ref_nt)

    def test_one_block_is_bit_identical(self, wide_table, monkeypatch):
        data, prob, grid = wide_table
        monkeypatch.setattr(expectation, "BLOCK_ROWS", data.n_patterns)
        ref_post, ref_ll, ref_n1, ref_nt = reference_estep(data, prob, grid)
        post, ll = table_posterior(data, prob, grid)
        counts = table_counts(data, post)
        assert np.array_equal(post, ref_post) and ll == ref_ll
        assert np.array_equal(counts.n1, ref_n1) and np.array_equal(counts.nt, ref_nt)
        assert table_loglik(data, prob, grid) == ref_ll

    @pytest.mark.parametrize("seed", range(4))
    def test_small_table_is_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        data = tabulate(generate(two_pl_truth(12), 5000, seed))
        assert data.n_patterns <= expectation.BLOCK_ROWS
        grid = normal_grid(int(rng.integers(2, 12)))
        prob = response_prob_matrix(rng.uniform(0.3, 2.5, 12), rng.uniform(-3, 3, 12), grid)
        ref_post, ref_ll, ref_n1, ref_nt = reference_estep(data, prob, grid)
        post, ll = table_posterior(data, prob, grid)
        counts = table_counts(data, post)
        assert np.array_equal(post, ref_post) and ll == ref_ll
        assert np.array_equal(counts.n1, ref_n1) and np.array_equal(counts.nt, ref_nt)

    @pytest.mark.parametrize("block_rows, index", [(7, 17), (expectation.BLOCK_ROWS, 4101)])
    def test_underflow_reports_the_global_pattern_index(
        self, wide_table, block_rows, index, helper_thread, monkeypatch
    ):
        """A pattern in the third block whose likelihood p**1e307 is zero at every node.

        estep's np.errstate covers the blocks on the helper thread too: no
        block warns, and the fit's loglik is the error naming the pattern.
        """
        assert index // block_rows == 2
        monkeypatch.setattr(expectation, "BLOCK_ROWS", block_rows)
        run_blocks_on(helper_thread, monkeypatch)
        data, _, grid = wide_table
        x = data.patterns.astype(np.float64)
        x[index, 0] = 1e307
        doomed = PatternData(patterns=x, freqs=data.freqs)
        prob = response_prob_matrix(np.ones(30), np.full(30, 40.0), grid)  # P clamped to 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                err = one_table_estep(doomed, prob, grid)[0]
        assert isinstance(err, PosteriorUnderflowError) and err.pattern_index == index

    # OLS stays at T = 6.  Its M-step's log-odds log(N1 / (N_t - N1)) cancel
    # near the outer nodes and amplify the blocks' ulps: on this table an OLS
    # fit at T = 10 moves by up to 1e-9 relative between block sizes (1.5e-10
    # with row-major blocks too), and at T = 21 it raises on NaN estimates at
    # every block size.  A directly accumulated N0 (ROADMAP item 3) would
    # remove that.
    @pytest.mark.parametrize("fit_fn, n_quads", [
        pytest.param(em_ols.fit, 6, id="ols"),
        pytest.param(em_nr.fit_nr, 6, id="nr"),
        pytest.param(em_nr.fit_nr, 10, id="nr-T10"),
        pytest.param(em_nr.fit_nr, 21, id="nr-T21"),
    ])
    def test_fits_do_not_depend_on_the_block_size(self, fit_fn, n_quads, monkeypatch):
        """A one-block fit runs row-major and a 7-row-block fit node-major."""
        data = tabulate(generate(two_pl_truth(12), 3000, 4))
        assert data.n_patterns > 7
        cfg = FitConfig(model=ModelKind.TWO_PL, n_quads=n_quads)
        whole = fit_fn(data, cfg)
        monkeypatch.setattr(expectation, "BLOCK_ROWS", 7)
        blocked = fit_fn(data, cfg)
        assert blocked.iterations == whole.iterations
        assert blocked.converged == whole.converged
        for got, want in zip(blocked.params, whole.params):
            np.testing.assert_allclose([got.a, got.b], [want.a, want.b], rtol=BLOCK_RTOL)
        np.testing.assert_allclose(blocked.loglik_trace, whole.loglik_trace, rtol=BLOCK_RTOL)


class TestEStep:
    """The EM loop's one E-step call per stack, whichever kernel the stack runs."""

    @pytest.mark.parametrize(
        "n_quads",
        [pytest.param(n, id="stack" if n == 10 else f"stack-T{n}") for n in NODE_COUNTS],
    )
    def test_loop_gives_the_posterior_and_counts_pair(self, n_quads, monkeypatch):
        """Each of the loop's E-steps gives, bit for bit, the log-likelihoods of
        posterior and the counts of expected_counts on its posterior.

        The loop runs one one-block stack of three tables of different lengths.
        """
        tables = [tabulate(generate(two_pl_truth(30), n, seed)) for seed, n in enumerate((40, 90, 200))]
        assert len({data.n_patterns for data in tables}) == 3
        estep = expectation.estep
        seen = []

        def recording(stack, prob, grid):
            out = estep(stack, prob, grid)
            seen.append((stack, prob, grid, out))
            return out

        monkeypatch.setattr(expectation, "estep", recording)
        # both estimators run this loop; OLS raises on NaN estimates at T = 21 (see above)
        lockstep = em_ols.fit_lockstep if n_quads < 14 else em_nr.fit_nr_lockstep
        lockstep(tables, FitConfig(model=ModelKind.TWO_PL, n_quads=n_quads, max_iter=2))
        assert len(seen) == 3
        for stack, prob, grid, (logliks, counts) in seen:
            assert len(stack.tables) == len(tables)
            want_post, want_logliks = posterior(stack, prob, grid)
            want = expected_counts(stack, want_post)
            assert logliks == want_logliks
            assert np.array_equal(counts.n1, want.n1) and np.array_equal(counts.nt, want.nt)

    @pytest.mark.parametrize("block_rows, index", [(7, 17), (expectation.BLOCK_ROWS, 4101)])
    def test_underflow_in_a_fit_reports_the_global_pattern_index(
        self, wide_table, block_rows, index, helper_thread, monkeypatch
    ):
        """A pattern in the third block whose normaliser is not finite at the start.

        The fit starts at a = 1, b = 0, where log P - log(1 - P) is the node
        itself, so 1e308 times it overflows at the outer nodes.  The loop's
        own pass raises: posterior is never called.
        """
        assert index // block_rows == 2
        monkeypatch.setattr(expectation, "BLOCK_ROWS", block_rows)
        run_blocks_on(helper_thread, monkeypatch)
        data = wide_table[0]
        x = data.patterns.astype(np.float64)
        x[index, 0] = 1e308
        doomed = PatternData(patterns=x, freqs=data.freqs)

        def no_posterior(*args):
            raise AssertionError("the loop called posterior")

        monkeypatch.setattr(expectation, "posterior", no_posterior)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PosteriorUnderflowError) as err, np.errstate(over="ignore"):
                em_ols.fit(doomed, FitConfig(model=ModelKind.TWO_PL, n_quads=10))
        assert err.value.pattern_index == index


def _fit_in_child(data, cfg, conn):
    conn.send(fit_repr(em_ols.fit(data, cfg)))
    conn.close()


class TestThreadCount:
    """The E-step's blocks give the same bits on the thread pool as inline."""

    @pytest.mark.parametrize(
        "block_rows, n_quads",
        node_count_cases(7, expectation.BLOCK_ROWS, node_counts=EDGE_NODE_COUNTS),
    )
    def test_estep_is_identical_on_pool_and_inline(
        self, wide_data, block_rows, n_quads, helper_thread, monkeypatch
    ):
        monkeypatch.setattr(expectation, "BLOCK_ROWS", block_rows)
        data, prob, grid = wide_instance(wide_data, n_quads)
        results = []
        for pool in (helper_thread, None):
            run_blocks_on(pool, monkeypatch)
            results.append(one_table_estep(data, prob, grid))
        (ll_p, n1_p, nt_p), (ll_i, n1_i, nt_i) = results
        assert ll_p == ll_i
        assert np.array_equal(n1_p, n1_i) and np.array_equal(nt_p, nt_i)

    def test_estep_is_identical_on_three_helpers_and_inline(self, wide_data, monkeypatch):
        """Four threads at once on 7-row blocks: the blocks overlap, the bits do not move."""
        monkeypatch.setattr(expectation, "BLOCK_ROWS", 7)
        data, prob, grid = wide_instance(wide_data, 10)
        with ThreadPoolExecutor(3) as pool:
            run_blocks_on(pool, monkeypatch, helpers=3)
            ll_p, n1_p, nt_p = one_table_estep(data, prob, grid)
        run_blocks_on(None, monkeypatch)
        ll_i, n1_i, nt_i = one_table_estep(data, prob, grid)
        assert ll_p == ll_i
        assert np.array_equal(n1_p, n1_i) and np.array_equal(nt_p, nt_i)

    @pytest.mark.parametrize("fit_fn", [em_ols.fit, em_nr.fit_nr], ids=["ols", "nr"])
    def test_fits_are_identical_on_pool_and_inline(self, wide_table, fit_fn, helper_thread, monkeypatch):
        data = wide_table[0]
        assert data.n_patterns > expectation.BLOCK_ROWS
        cfg = FitConfig(model=ModelKind.TWO_PL, n_quads=6)
        run_blocks_on(helper_thread, monkeypatch)
        pooled = fit_fn(data, cfg)
        run_blocks_on(None, monkeypatch)
        assert fit_repr(pooled) == fit_repr(fit_fn(data, cfg))

    def test_blocks_run_under_the_callers_error_state(self, helper_thread, monkeypatch):
        monkeypatch.setattr(expectation, "BLOCK_ROWS", 1)
        run_blocks_on(helper_thread, monkeypatch)
        seen = []

        def block(rows):
            time.sleep(0.002)  # long enough for the helper to take blocks too
            seen.append((threading.get_ident(), np.geterr()["over"]))
            return rows.start

        with np.errstate(over="raise"):
            assert expectation._map_blocks(block, 20) == list(range(20))
        assert len(seen) == 20
        assert {err for _, err in seen} == {"raise"}
        assert len({thread for thread, _ in seen}) == 2  # the caller and the helper

    def test_a_helpers_error_reaches_the_caller(self, helper_thread, monkeypatch):
        monkeypatch.setattr(expectation, "BLOCK_ROWS", 1)
        run_blocks_on(helper_thread, monkeypatch)
        caller = threading.get_ident()

        def block(rows):
            time.sleep(0.002)  # long enough for the helper to take blocks too
            if threading.get_ident() != caller:
                raise MemoryError("on the helper")

        with pytest.raises(MemoryError, match="on the helper"):
            expectation._map_blocks(block, 20)

    def test_every_block_runs_once_under_contention(self, monkeypatch):
        """More threads than cores and a short switch interval: no block is lost or repeated."""
        monkeypatch.setattr(expectation, "BLOCK_ROWS", 1)
        ran = []

        def block(rows):
            time.sleep(0)  # lets another thread run
            ran.append(rows.start)
            return rows.start

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                monkeypatch.setattr(expectation, "_pool", pool)
                monkeypatch.setattr(expectation, "_helpers", 4)
                for _ in range(5):
                    ran.clear()
                    assert expectation._map_blocks(block, 3000) == list(range(3000))
                    assert sorted(ran) == list(range(3000))
        finally:
            sys.setswitchinterval(interval)

    def test_only_block_kernels_run_on_pool_threads(self, wide_table, monkeypatch):
        """No traced or counted emirt function runs off the calling thread.

        In each multi-block call the caller's blocks wait until the helper
        has taken a block, so the helper runs the block kernel of one fit
        iteration's two E-steps.
        """
        data, _, grid = wide_table
        caller = threading.get_ident()
        helper_took_a_block = threading.Event()
        map_blocks = expectation._map_blocks

        def clearing(*args):
            helper_took_a_block.clear()
            return map_blocks(*args)

        def waiting_for_the_helper(kernel):
            def block(rows, *args):
                if threading.get_ident() == caller:
                    assert helper_took_a_block.wait(30), "the helper took no block"
                else:
                    helper_took_a_block.set()
                return kernel(rows, *args)

            return block

        monkeypatch.setattr(expectation, "_map_blocks", clearing)
        monkeypatch.setattr(expectation, "_estep_block", waiting_for_the_helper(expectation._estep_block))
        estep_calls = []
        estep = expectation.estep

        def counted(*args, **kwargs):
            estep_calls.append(args)
            return estep(*args, **kwargs)

        monkeypatch.setattr(expectation, "estep", counted)
        called = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_globals.get("__name__", "").startswith("emirt"):
                called.add(frame.f_code.co_name)

        threading.setprofile(profile)
        try:
            with ThreadPoolExecutor(1) as pool:  # its thread starts under the profiler
                run_blocks_on(pool, monkeypatch)
                em_ols.fit(data, FitConfig(model=ModelKind.TWO_PL, n_quads=grid.size, max_iter=1))
        finally:
            threading.setprofile(None)
        assert len(estep_calls) == 2
        assert called == {"work_through_blocks", "_estep_block"}

    def test_forked_child_does_not_reuse_the_pool(self, wide_table, helper_thread, monkeypatch):
        """A multi-block fit in the parent, then the same fit in a forked child."""
        data = wide_table[0]
        cfg = FitConfig(model=ModelKind.TWO_PL, n_quads=4, max_iter=20)
        run_blocks_on(helper_thread, monkeypatch)
        here = fit_repr(em_ols.fit(data, cfg))  # the pool's thread is running now
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_fit_in_child, args=(data, cfg, sender))
        child.start()
        try:
            assert receiver.poll(60), "the fit in the forked child did not finish"
            assert receiver.recv() == here
        finally:
            child.kill()
            child.join()
