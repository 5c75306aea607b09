"""Tests of the package's public and traced names."""
import dataclasses
import importlib
from pathlib import Path

import emirt
from emirt.em_ols import FitConfig

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
