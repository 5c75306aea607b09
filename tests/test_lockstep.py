"""Lockstep EM: R fits in one loop, each bit-identical to the same fit run alone."""
import warnings

import numpy as np
import pytest

from emirt import em_nr, em_ols, expectation
from emirt.em_ols import FitConfig, FitResult
from emirt.expectation import PosteriorUnderflowError
from emirt.model import ItemParams, ModelKind
from emirt.patterns import PatternData, tabulate
from emirt.quadrature import normal_grid
from emirt.simgen import DEFAULT_TRUE_A, DEFAULT_TRUE_B, generate

# estimator -> (one fit, lockstep fits)
ENGINES = {"ols": (em_ols.fit, em_ols.fit_lockstep), "nr": (em_nr.fit_nr, em_nr.fit_nr_lockstep)}
TRUTH = {
    ModelKind.ONE_PL: [ItemParams(a=1.0, b=b) for b in DEFAULT_TRUE_B],
    ModelKind.TWO_PL: [ItemParams(a=a, b=b) for a, b in zip(DEFAULT_TRUE_A, DEFAULT_TRUE_B)],
}


def outcome_repr(outcome):
    """Everything a fit reports, or its error, as one string: equal strings mean identical fits."""
    if isinstance(outcome, Exception):
        return repr((type(outcome), str(outcome)))
    return repr(
        (outcome.params, outcome.loglik_trace, outcome.max_delta_trace, outcome.phi_max_trace,
         outcome.flags, outcome.iterations, outcome.converged, outcome.loglik_decreases)
    )


def table_rows(lengths):
    """The slices of a stack's rows that hold each of its tables, in order."""
    ends = np.cumsum([0, *lengths]).tolist()
    return [slice(start, end) for start, end in zip(ends, ends[1:])]


def one_at_a_time(fit_fn, tables, cfg):
    outcomes = []
    for data in tables:
        try:
            outcomes.append(fit_fn(data, cfg))
        except Exception as exc:  # the lockstep reports a fit's error as its outcome
            outcomes.append(exc)
    return outcomes


@pytest.fixture(scope="module")
def tables():
    return {
        model: [tabulate(generate(truth, 1000, seed)) for seed in range(5)]
        for model, truth in TRUTH.items()
    }


# T >= 8 is where a (R*J, T) product, unlike the stacked (R, J, T) one,
# would round some rows differently from the one-fit (J, T) product.
@pytest.mark.parametrize("n_quads", [2, 4, 8, 15])
@pytest.mark.parametrize("model", [ModelKind.ONE_PL, ModelKind.TWO_PL], ids=["1pl", "2pl"])
@pytest.mark.parametrize("estimator", sorted(ENGINES))
def test_lockstep_fits_are_bit_identical_to_fits_alone(tables, estimator, model, n_quads):
    fit_fn, lockstep = ENGINES[estimator]
    cfg = FitConfig(model=model, n_quads=n_quads, max_iter=100)  # 2PL NR at T=2 runs to the cap
    alone = one_at_a_time(fit_fn, tables[model], cfg)
    together = lockstep(tables[model], cfg)
    assert [outcome_repr(o) for o in together] == [outcome_repr(o) for o in alone]


def nan_pattern_table(data, index=0):
    """data with a NaN response in pattern index: the fit raises at its first E-step."""
    x = data.patterns.astype(np.float64)
    x[index, 0] = np.nan
    return PatternData(patterns=x, freqs=data.freqs)


@pytest.mark.parametrize("estimator", sorted(ENGINES))
def test_raising_and_capped_fits_leave_the_others_unaffected(estimator):
    """The T=15 sweep cell of study seed 107, and a table that fails at once.

    Replication 0's OLS fit raises ItemParams' ValueError at iteration 10;
    at max_iter=50 some fits stop at the cap and the others converge.
    """
    fit_fn, lockstep = ENGINES[estimator]
    seeds = np.random.SeedSequence(107).spawn(10)
    cell = [tabulate(generate(TRUTH[ModelKind.TWO_PL], 5000, seed)) for seed in seeds]
    batch = [*cell[:5], nan_pattern_table(cell[5]), *cell[5:]]
    cfg = FitConfig(model=ModelKind.TWO_PL, n_quads=15, max_iter=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # NaN estimates fail without numpy noise
        alone = one_at_a_time(fit_fn, batch, cfg)
        together = lockstep(batch, cfg)
    assert [outcome_repr(o) for o in together] == [outcome_repr(o) for o in alone]

    raised = [o for o in together if isinstance(o, Exception)]
    assert len(raised) == sum(isinstance(o, Exception) for o in alone)
    assert isinstance(together[5], PosteriorUnderflowError)
    if estimator == "ols":
        assert isinstance(together[0], ValueError) and "must be finite" in str(together[0])
    fits = [o for o in together if isinstance(o, FitResult)]
    assert any(f.converged for f in fits)
    assert any(not f.converged and f.iterations == cfg.max_iter for f in fits)


@pytest.mark.parametrize("block_rows", [7, expectation.BLOCK_ROWS])
@pytest.mark.parametrize("model", [ModelKind.ONE_PL, ModelKind.TWO_PL], ids=["1pl", "2pl"])
@pytest.mark.parametrize("estimator", sorted(ENGINES))
def test_tables_of_very_different_lengths(estimator, model, block_rows, monkeypatch):
    """3 persons beside 5000, and a NaN copy of a 5000-person table.

    The copy is as long as its table, so they share a stack at 2048 rows
    per block.  At 7 rows per block every long table is a stack of its own
    and spans several blocks, and the copy, with its NaN in pattern 17,
    fails in its third block.
    """
    monkeypatch.setattr(expectation, "BLOCK_ROWS", block_rows)
    fit_fn, lockstep = ENGINES[estimator]
    sizes = (3, 5000, 40, 5000)
    batch = [tabulate(generate(TRUTH[model], n, seed)) for seed, n in enumerate(sizes)]
    batch.insert(2, nan_pattern_table(batch[1], index=17))
    assert batch[0].n_patterns <= 3 and batch[1].n_patterns > 3 * 7
    cfg = FitConfig(model=model, n_quads=8, max_iter=15)
    alone = one_at_a_time(fit_fn, batch, cfg)
    together = lockstep(batch, cfg)
    assert [outcome_repr(o) for o in together] == [outcome_repr(o) for o in alone]
    assert together[2].pattern_index == alone[2].pattern_index == 17


@pytest.mark.parametrize("estimator", sorted(ENGINES))
def test_twenty_item_tables_of_different_lengths(estimator):
    """A BLAS product can round a row differently with the rows in the call.

    OpenBLAS does so for 20 items at T = 10 (for 2, 3, 7, 10, ... rows
    against 2048), so a fit's pattern products must cover its own rows
    only, as they do in a stack of tables of one length.
    """
    fit_fn, lockstep = ENGINES[estimator]
    rng = np.random.default_rng(5)
    truth = [ItemParams(a=a, b=b) for a, b in zip(rng.uniform(0.7, 1.6, 20), rng.uniform(-1.5, 1.5, 20))]
    batch = [tabulate(generate(truth, n, seed)) for seed, n in enumerate((7, 150, 40, 10, 300, 3))]
    cfg = FitConfig(model=ModelKind.TWO_PL, n_quads=10, max_iter=10)
    alone = one_at_a_time(fit_fn, batch, cfg)
    together = lockstep(batch, cfg)
    assert [outcome_repr(o) for o in together] == [outcome_repr(o) for o in alone]


def same_tables(got, want):
    """Whether got and want list the same table objects, in order."""
    return [id(data) for data in got] == [id(data) for data in want]


@pytest.mark.parametrize("estimator", sorted(ENGINES))
def test_one_stacked_estep_per_iteration(tables, estimator, monkeypatch):
    """One posterior and one expected_counts call per iteration, on one stack of the live fits.

    Identical tables, or the fixture's tables of 22, 23 and 25 patterns:
    whatever their number and lengths, the live fits share one stack,
    shortest table first, and the counts call takes the posterior's stack.
    """
    _, lockstep = ENGINES[estimator]
    calls = []
    for name in ("posterior", "expected_counts"):
        def counted(stack, *args, name=name, original=getattr(expectation, name)):
            calls.append((name, stack))
            return original(stack, *args)

        monkeypatch.setattr(expectation, name, counted)
    cfg = FitConfig(model=ModelKind.TWO_PL, n_quads=4, max_iter=100)
    one = tables[ModelKind.TWO_PL][0]
    assert {data.n_patterns for data in tables[ModelKind.TWO_PL]} == {22, 23, 25}
    for n_fits in (1, 3, 5):
        for batch in ([one] * n_fits, tables[ModelKind.TWO_PL][:n_fits]):
            calls.clear()
            outcomes = lockstep(batch, cfg)
            names, stacks = zip(*calls)
            assert names == ("posterior", "expected_counts") * (1 + max(o.iterations for o in outcomes))
            assert all(p is c for p, c in zip(stacks[::2], stacks[1::2]))  # counts of the same stack
            for k, stack in enumerate(stacks[::2]):
                live = [data for data, o in zip(batch, outcomes) if o.iterations >= k]
                assert same_tables(stack.tables, sorted(live, key=lambda data: data.n_patterns))


@pytest.mark.parametrize("model", [ModelKind.ONE_PL, ModelKind.TWO_PL], ids=["1pl", "2pl"])
@pytest.mark.parametrize("estimator", sorted(ENGINES))
def test_one_block_stacks_never_map_blocks(tables, estimator, model, monkeypatch):
    """Study-size tables of several lengths run every E-step with no block plumbing.

    _map_blocks serves only tables over BLOCK_ROWS rows: with it raising,
    the lockstep fits of one one-block stack still complete, unchanged.
    """
    _, lockstep = ENGINES[estimator]
    batch = [*tables[model], tabulate(generate(TRUTH[model], 5000, 7))]
    assert len({data.n_patterns for data in batch}) > 2
    cfg = FitConfig(model=model, n_quads=10, max_iter=100)
    want = lockstep(batch, cfg)

    def no_blocks(*args):
        raise AssertionError("a one-block stack reached _map_blocks")

    monkeypatch.setattr(expectation, "_map_blocks", no_blocks)
    got = lockstep(batch, cfg)
    assert all(isinstance(o, FitResult) for o in got)
    assert [outcome_repr(o) for o in got] == [outcome_repr(o) for o in want]


@pytest.mark.parametrize("estimator", sorted(ENGINES))
def test_stacks_hold_at_most_block_rows(estimator, monkeypatch):
    """Fits whose tables stack past BLOCK_ROWS rows are split over several E-step calls.

    At 40 rows per block, the three 3-person tables (at most 9 rows) and
    the shorter 1000-person table (22 patterns) share a stack, shortest
    first, and the longer one (25 patterns) has a call of its own.  The
    fits stay bit-identical.
    """
    monkeypatch.setattr(expectation, "BLOCK_ROWS", 40)
    fit_fn, lockstep = ENGINES[estimator]
    sizes = (3, 3, 1000, 1000, 3)
    batch = [tabulate(generate(TRUTH[ModelKind.TWO_PL], n, seed)) for seed, n in enumerate(sizes)]
    assert [data.n_patterns for data in batch] == [3, 3, 22, 25, 3]
    original = expectation.posterior
    stacks = []

    def counted(stack, prob, grid):
        stacks.append(stack)
        assert len(stack.tables) == 1 or stack.n_patterns <= 40
        return original(stack, prob, grid)

    monkeypatch.setattr(expectation, "posterior", counted)
    cfg = FitConfig(model=ModelKind.TWO_PL, n_quads=5, max_iter=30)
    together = lockstep(batch, cfg)
    assert same_tables(stacks[0].tables, [batch[0], batch[1], batch[4], batch[2]])
    assert [len(run) for run in (stacks[0].runs, stacks[1].runs)] == [2, 1]
    assert same_tables(stacks[1].tables, [batch[3]])
    monkeypatch.setattr(expectation, "posterior", original)
    alone = one_at_a_time(fit_fn, batch, cfg)
    assert [outcome_repr(o) for o in together] == [outcome_repr(o) for o in alone]


@pytest.mark.parametrize("estimator", sorted(ENGINES))
def test_compaction_restacks_the_live_tables(estimator, monkeypatch):
    """When fits leave, the live tables are split into stacks afresh.

    At 38 rows per block the eight 300-person tables (17 to 21 patterns)
    make five stacks.  Fits leave at different iterations, and the last
    fits, from different stacks, then share one: each iteration's E-step
    calls take the stacks of PatternStack.split on that iteration's live
    tables, and the fits stay bit-identical.
    """
    monkeypatch.setattr(expectation, "BLOCK_ROWS", 38)
    fit_fn, lockstep = ENGINES[estimator]
    batch = [tabulate(generate(TRUTH[ModelKind.ONE_PL], 300, seed)) for seed in range(8)]
    estep = expectation.estep
    stacks = []

    def recording(stack, prob, grid):
        stacks.append(stack)
        return estep(stack, prob, grid)

    monkeypatch.setattr(expectation, "estep", recording)
    cfg = FitConfig(model=ModelKind.ONE_PL, n_quads=4)
    together = lockstep(batch, cfg)
    monkeypatch.setattr(expectation, "estep", estep)
    assert len({o.iterations for o in together}) > 2
    assert [outcome_repr(o) for o in together] == [outcome_repr(o) for o in one_at_a_time(fit_fn, batch, cfg)]
    want = []
    for k in range(1 + max(o.iterations for o in together)):
        live = sorted((data for data, o in zip(batch, together) if o.iterations >= k),
                      key=lambda data: data.n_patterns)
        want += expectation.PatternStack.split(live)
    assert [[id(data) for data in stack.tables] for stack in stacks] == [
        [id(data) for data in stack.tables] for stack in want
    ]


def test_split_stacks_consecutive_tables_within_block_rows(monkeypatch):
    """At 5 rows per block a stack holds neighbouring tables of any lengths, 5 rows at most.

    Five 1-row tables fill a stack; the sixth and two 2-row tables fill the
    next, in two runs; the third 2-row table and the 1-row table after it
    make a third, and the 7-row table, longer than a block, stands alone
    with no float operands.
    """
    monkeypatch.setattr(expectation, "BLOCK_ROWS", 5)
    full = tabulate(generate(TRUTH[ModelKind.ONE_PL], 300, 0))
    lengths = (1, 1, 1, 1, 1, 1, 2, 2, 2, 1, 7)
    batch = [PatternData(full.patterns[-n:], full.freqs[-n:] + k) for k, n in enumerate(lengths)]
    stacks = expectation.PatternStack.split(batch)
    assert [len(stack.tables) for stack in stacks] == [5, 3, 2, 1]
    assert [stack.n_patterns for stack in stacks] == [5, 5, 3, 7]
    assert [[run.shape[:2] for run in stack.runs] for stack in stacks] == [
        [(5, 1)], [(1, 1), (2, 2)], [(1, 2), (1, 1)], [(1, 7)]
    ]
    assert [data for stack in stacks for data in stack.tables] == batch
    for stack in stacks:
        assert stack.patterns.shape == (stack.n_patterns, stack.n_items)
        assert stack.float_freqs.shape == (stack.n_patterns,)
        for data, rows in zip(stack.tables, table_rows([d.n_patterns for d in stack.tables])):
            assert np.array_equal(stack.patterns[rows], data.patterns)
            assert np.array_equal(stack.float_freqs[rows], data.float_freqs)
            if stack.operands is not None:
                x, x_c, xf = (operand[rows] for operand in stack.operands)
                assert np.array_equal(x, data.patterns) and np.array_equal(x_c, 1 - data.patterns)
                assert np.array_equal(xf, data.patterns * data.float_freqs[:, None])
        for run in stack.runs:
            n_fits, n, _ = run.shape
            assert {data.n_patterns for data in stack.tables[run.fits]} == {n}
            assert run.rows.stop - run.rows.start == n_fits * n == (run.fits.stop - run.fits.start) * n
            assert np.array_equal(run.freqs[:, 0], stack.float_freqs[run.rows].reshape(n_fits, n))
            if stack.operands is None:
                assert run.x is run.x_c is run.xf_t is None
                continue
            for view, operand in zip((run.x, run.x_c, run.xf_t.swapaxes(-1, -2)), stack.operands):
                assert np.shares_memory(view, operand)
                assert np.array_equal(view, operand[run.rows].reshape(n_fits, n, -1))
    assert stacks[-1].operands is None
    assert np.shares_memory(stacks[-1].patterns, batch[-1].patterns)  # one table: a view
    assert expectation.PatternStack.split([]) == []


@pytest.mark.parametrize("n_quads", [4, 10, 21])
@pytest.mark.parametrize("n_items", [5, 20, 30])
def test_stacked_counts_and_logliks_are_each_tables_own(n_items, n_quads):
    """A stack gives every table the counts and log-likelihood of a call on it alone.

    Four tables of three lengths, each at its own parameters; the third has
    a NaN response in pattern 6, so its likelihood underflows.  It gets its
    own PosteriorUnderflowError, and the other tables' posteriors, counts
    and log-likelihoods equal expected_counts and observed_loglik on each
    table alone, bit for bit, as they do in stacks without it, of two and
    of three lengths, and in a stack out of length order.
    """
    rng = np.random.default_rng(n_items * 100 + n_quads)
    truth = [ItemParams(a=a, b=b)
             for a, b in zip(rng.uniform(0.7, 1.6, n_items), rng.uniform(-1.5, 1.5, n_items))]
    batch = [tabulate(generate(truth, 400, seed)) for seed in range(4)]
    n = min(data.n_patterns for data in batch)
    lengths = (n - 4, n - 1, n - 1, n)
    batch = [PatternData(data.patterns[:m], data.freqs[:m]) for data, m in zip(batch, lengths)]
    batch[2] = nan_pattern_table(batch[2], index=6)
    grid = normal_grid(n_quads)
    a, b = rng.uniform(0.5, 2.0, (4, n_items)), rng.uniform(-2.0, 2.0, (4, n_items))
    prob = expectation.response_prob_matrix(a, b, grid)

    def stacked(fits, n_lengths):
        stack = expectation.PatternStack.of([batch[r] for r in fits])
        assert len(stack.runs) == n_lengths
        post, logliks = expectation.posterior(stack, prob[fits], grid)
        assert post.shape == (sum(lengths[r] for r in fits), n_quads)
        counts = expectation.expected_counts(stack, post)
        rows = table_rows([lengths[r] for r in fits])
        return {
            r: (logliks[k], [post[rows[k]], counts.n1[k], counts.nt[k]])
            for k, r in enumerate(fits)
        }

    together = stacked([0, 1, 2, 3], 3)
    error = together[2][0]
    assert isinstance(error, PosteriorUnderflowError) and error.pattern_index == 6
    others = [stacked([0, 1, 3], 3), stacked([1, 3], 2), stacked([3, 0, 1], 3)]
    for r in (0, 1, 3):
        post, loglik = expectation.posterior(batch[r], prob[r], grid)
        counts = expectation.expected_counts(batch[r], post)
        assert loglik == expectation.observed_loglik(batch[r], prob[r], grid)
        for got_loglik, got_arrays in [together[r]] + [s[r] for s in others if r in s]:
            assert got_loglik == loglik
            for got, want in zip(got_arrays, [post, counts.n1, counts.nt]):
                assert np.array_equal(got, want)


def test_one_table_lockstep_is_the_fit():
    data = tabulate(generate(TRUTH[ModelKind.TWO_PL], 2000, 3))
    cfg = FitConfig(model=ModelKind.TWO_PL, n_quads=6)
    (outcome,) = em_ols.fit_lockstep([data], cfg)
    assert outcome_repr(outcome) == outcome_repr(em_ols.fit(data, cfg))
    assert em_ols.fit_lockstep([], cfg) == []


def test_fit_reraises_the_error_of_its_fit():
    data = nan_pattern_table(tabulate(generate(TRUTH[ModelKind.ONE_PL], 500, 1)))
    with pytest.raises(PosteriorUnderflowError) as err:
        em_nr.fit_nr(data, FitConfig(model=ModelKind.ONE_PL))
    assert err.value.pattern_index == 0


def test_tables_must_share_their_items():
    tables = [tabulate(generate(TRUTH[ModelKind.ONE_PL][:n], 300, 0)) for n in (3, 4)]
    with pytest.raises(ValueError, match="same items"):
        em_ols.fit_lockstep(tables, FitConfig(model=ModelKind.ONE_PL))
