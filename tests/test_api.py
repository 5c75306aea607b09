"""Tests of the package's public and traced names."""
import dataclasses
import importlib
from pathlib import Path

import emirt
from emirt import em_ols, simgen
from emirt.em_ols import FitConfig
from emirt.model import ItemParams, ModelKind
from emirt.patterns import tabulate
from emirt.simgen import DEFAULT_TRUE_A, DEFAULT_TRUE_B, StudyDesign, generate

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_exported_name_resolves():
    missing = [name for name in emirt.__all__ if not hasattr(emirt, name)]
    assert missing == []


def test_fit_config_holds_the_four_fit_settings():
    names = [f.name for f in dataclasses.fields(FitConfig)]
    assert names == ["model", "n_quads", "max_iter", "tol"]


def test_traced_names_exist(monkeypatch):
    """Every (module, attribute) the benchmark tracer wraps is still defined."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    names = [entry[:2] for entry in tracing.SPANNED + tracing.COUNTED]
    assert names and all(module.startswith("emirt.") for module, _ in names)
    missing = [
        (module, attr)
        for module, attr in names
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_tracer_observes_ragged_lockstep_fits_and_a_study(tmp_path, monkeypatch):
    """The benchmark tracer's wrappers and observers run on what the E-step is now handed.

    A tracer on a temporary spool wraps a lockstep fit of tables of five
    lengths and a 2-rep study.  An observer that raised inside the lockstep
    would become the fits' outcome, so the traced fits must equal the
    untraced ones, and the study must count no failure.
    """
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    truth = tuple(ItemParams(a=a, b=b) for a, b in zip(DEFAULT_TRUE_A, DEFAULT_TRUE_B))
    tables = [tabulate(generate(truth, n, seed)) for seed, n in enumerate((30, 300, 60, 300, 1000))]
    assert len({data.n_patterns for data in tables}) == 5
    cfg = FitConfig(model=ModelKind.TWO_PL, n_quads=4, max_iter=20)
    design = StudyDesign(true_params=truth, n_persons=300, reps=2, model=ModelKind.TWO_PL,
                         t_list=(3,), seed=5)
    untraced = em_ols.fit_lockstep(tables, cfg)

    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        traced = em_ols.fit_lockstep(tables, cfg)
        summary = simgen.replicate_study(design, estimators=("ols", "nr"))
    finally:
        tracer.uninstall()

    assert [repr(vars(o)) for o in traced] == [repr(vars(o)) for o in untraced]
    assert summary.failures == 0
    extras = {}
    for _, _, name, _, _, extra in tracer.spans:
        extras.setdefault(name, []).append(extra)
    assert extras["expectation.posterior"]
    assert len(extras["expectation.expected_counts"]) == len(extras["expectation.posterior"])
    for name in ("expectation.posterior", "expectation.expected_counts"):
        for n_patterns, n_items, n_quads in extras[name]:
            assert n_patterns > 0 and n_items == len(truth) and n_quads in (3, 4)
