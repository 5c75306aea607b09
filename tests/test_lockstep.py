"""Lockstep EM: R fits in one loop, each bit-identical to the same fit run alone."""
import numpy as np
import pytest

from emirt import em_nr, em_ols
from emirt.em_ols import FitConfig, FitResult
from emirt.expectation import PosteriorUnderflowError
from emirt.model import ItemParams, ModelKind
from emirt.patterns import PatternData, tabulate
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


def nan_pattern_table(data):
    """data with a NaN response in its first pattern: the fit raises at its first E-step."""
    x = data.patterns.astype(np.float64)
    x[0, 0] = np.nan
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
