"""Properties that hold by construction, checked on both EM estimators.

Each property holds for the maximum-likelihood estimates, which exist only
when no item's slope runs off to infinity.  Fits that did not converge or
that produced an outlying estimate (where the likelihood is still rising
along a ridge and the reported point is wherever the EM happened to stop)
are discarded with `assume`, so every example that counts is a well-posed
fit.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from emirt.em_nr import fit_nr
from emirt.em_ols import FitConfig, fit
from emirt.model import ItemParams, ModelKind
from emirt.patterns import tabulate
from emirt.simgen import generate, is_outlier

ESTIMATORS = {"ols": fit, "nr": fit_nr}
CASES = [(e, m) for e in ESTIMATORS for m in ModelKind]
CASE_IDS = [f"{e}-{m.value}" for e, m in CASES]

PROPERTY_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def designs(draw, model):
    """A simulated response matrix and the number of quadrature nodes."""
    n_items = draw(st.integers(2, 4))
    bs = draw(st.lists(st.floats(-1.5, 1.5), min_size=n_items, max_size=n_items))
    if model is ModelKind.ONE_PL:
        a_s = [1.0] * n_items
    else:
        a_s = draw(st.lists(st.floats(0.5, 2.0), min_size=n_items, max_size=n_items))
    truth = [ItemParams(a=a, b=b) for a, b in zip(a_s, bs)]
    n_persons = draw(st.integers(300, 1500))
    seed = draw(st.integers(0, 2**32 - 1))
    n_quads = draw(st.integers(2, 6))
    return generate(truth, n_persons, seed), n_quads


def run(estimator, model, matrix, n_quads):
    return ESTIMATORS[estimator](tabulate(matrix), FitConfig(model=model, n_quads=n_quads))


def estimates(result):
    return (
        np.array([p.a for p in result.params]),
        np.array([p.b for p in result.params]),
    )


def fitted_well_posed(estimator, model, matrix, n_quads):
    result = run(estimator, model, matrix, n_quads)
    assume(result.converged)
    assume(not any(is_outlier(p, model) for p in result.params))
    return result


@pytest.mark.parametrize("estimator,model", CASES, ids=CASE_IDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_reverse_coding_negates_difficulties(estimator, model, data):
    """x -> 1 - x gives b -> -b with a unchanged, on the symmetric grid.

    Reverse coding mirrors the latent trait, and the node grid and its
    weights are exactly symmetric, so the two fits follow mirrored paths.
    Tolerance 1e-9: they differ only by summation-order rounding, carried
    through the EM iterations (the largest gap measured over 120 seeded
    designs was 7e-13).
    """
    matrix, n_quads = data.draw(designs(model))
    base = fitted_well_posed(estimator, model, matrix, n_quads)
    mirrored = run(estimator, model, 1 - matrix, n_quads)
    a0, b0 = estimates(base)
    a1, b1 = estimates(mirrored)
    assert mirrored.iterations == base.iterations
    np.testing.assert_allclose(a1, a0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(b1, -b0, rtol=0, atol=1e-9)


@pytest.mark.parametrize("estimator,model", CASES, ids=CASE_IDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_permuting_items_permutes_estimates(estimator, model, data):
    """Reordering the columns reorders the estimates and nothing else.

    Tolerance 1e-9: tabulation sorts the patterns differently and the
    matrix products add the items in another order, so the fits differ by
    rounding only (the largest gap measured over 120 seeded designs was
    4e-13).
    """
    matrix, n_quads = data.draw(designs(model))
    order = data.draw(st.permutations(range(matrix.shape[1])))
    base = fitted_well_posed(estimator, model, matrix, n_quads)
    permuted = run(estimator, model, matrix[:, order], n_quads)
    a0, b0 = estimates(base)
    a1, b1 = estimates(permuted)
    assert permuted.iterations == base.iterations
    np.testing.assert_allclose(a1, a0[order], rtol=0, atol=1e-9)
    np.testing.assert_allclose(b1, b0[order], rtol=0, atol=1e-9)


@pytest.mark.parametrize("estimator,model", CASES, ids=CASE_IDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_doubling_every_frequency_leaves_estimates(estimator, model, data):
    """Duplicating every person doubles all counts; estimates stay put.

    OLS: exact.  Doubling is exact in binary floating point, the latent
    log-odds are count ratios, and the fit takes the identical path.
    NR: tolerance 1e-7.  Its inner loop stops on an absolute score norm
    (inner_tol = 1e-8) and doubling doubles the score, so an item may take
    one more or one fewer Newton step per M-step.  The estimates then move
    within the M-step's solve precision, amplified by slow EM convergence
    (3e-10 measured over 120 seeded designs; the same inner_tol moves a
    340-iteration fit by 7e-8).
    """
    matrix, n_quads = data.draw(designs(model))
    base = fitted_well_posed(estimator, model, matrix, n_quads)
    doubled = run(estimator, model, np.vstack([matrix, matrix]), n_quads)
    a0, b0 = estimates(base)
    a1, b1 = estimates(doubled)
    if estimator == "ols":
        assert doubled.iterations == base.iterations
        np.testing.assert_array_equal(a1, a0)
        np.testing.assert_array_equal(b1, b0)
    else:
        np.testing.assert_allclose(a1, a0, rtol=0, atol=1e-7)
        np.testing.assert_allclose(b1, b0, rtol=0, atol=1e-7)
