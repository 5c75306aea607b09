"""Span tracing of emirt's public functions, installed from outside the program.

Each traced function is replaced, at the module attribute its callers
resolve, by a wrapper that records a span (id, parent id, name, start, end,
and a small observation of its arguments or result).  A few functions that
run tens of thousands of times per fit are only counted.  Spans are kept in
memory; a forked pool worker writes its spans to a spool file at the end of
each replication, and the parent reads them back, so the trace covers the
work done in the workers.

Ids are (pid, n) pairs, so they are unique across processes; a worker
inherits the open span stack at the fork, so its replication spans point at
the parent's `replicate_study` span.  `time.perf_counter` is the system-wide
monotonic clock on Linux, so spans from different processes share one time
axis.  This relies on the `fork` start method, which `Tracer.install` checks.
"""
from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import statistics
import time
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path


def _rows(args, kwargs, result):
    return result.shape[0]


def _pattern_shape(args, kwargs, result):
    return [result.n_patterns, result.n_persons]


def _workers(args, kwargs, result):
    return kwargs.get("workers") or 1


def _estep_shape(args, kwargs, result):
    data, _, grid = args[:3]
    return [data.n_patterns, data.n_items, grid.size]


def _counts_shape(args, kwargs, result):
    data, post = args[:2]
    return [data.n_patterns, data.n_items, post.shape[1]]


def _fit_outcome(args, kwargs, result):
    return [result.iterations, bool(result.converged), result.loglik_decreases]


def _n_items(args, kwargs, result):
    return len(args[0])


# (module, attribute the caller resolves, span name, observer)
SPANNED = (
    ("emirt.cli", "load_response_csv", "patterns.load_response_csv", _rows),
    ("emirt.cli", "tabulate", "patterns.tabulate", _pattern_shape),
    ("emirt.simgen", "tabulate", "patterns.tabulate", _pattern_shape),
    ("emirt.simgen", "generate", "simgen.generate", None),
    ("emirt.simgen", "replicate_study", "simgen.replicate_study", _workers),
    ("emirt.simgen", "_run_replication", "simgen.replication", None),
    ("emirt.em_ols", "normal_grid", "quadrature.normal_grid", None),
    ("emirt.expectation", "posterior", "expectation.posterior", _estep_shape),
    ("emirt.expectation", "observed_loglik", "expectation.observed_loglik", _estep_shape),
    ("emirt.expectation", "expected_counts", "expectation.expected_counts", _counts_shape),
    ("emirt.expectation", "phi_residuals", "expectation.phi_residuals", None),
    ("emirt.em_ols", "fit", "em_ols.fit", _fit_outcome),
    ("emirt.em_ols", "latent_responses", "em_ols.latent_responses", None),
    ("emirt.em_ols", "ols_mstep", "em_ols.ols_mstep", None),
    ("emirt.em_nr", "fit_nr", "em_nr.fit_nr", _fit_outcome),
    ("emirt.em_nr", "nr_mstep", "em_nr.nr_mstep", _n_items),
)
COUNTED = (
    ("emirt.em_nr", "item_score", "em_nr.item_score"),
    ("emirt.expectation", "q1", "expectation.q1"),
)
# A worker writes its spans out when this span ends: the pool's unit of work.
FLUSH_SPAN = "simgen.replication"


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stack: list[list[int]] = []
        self._next = 0
        self._saved: list[tuple] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        # Keep the open stack (parent ids) but not the parent's finished spans.
        self.pid = os.getpid()
        self.spans = []
        self.counts = Counter()

    def call(self, name, fn, *args, observe=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span named name."""
        self._next += 1
        sid = [self.pid, self._next]
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(sid, parent, name, start, None)
            raise
        self._close(sid, parent, name, start, None)
        if observe is not None:
            self.spans[-1][5] = observe(args, kwargs, result)
        return result

    def _close(self, sid, parent, name, start, extra):
        end = time.perf_counter()
        self.stack.pop()
        self.spans.append([sid, parent, name, start, end, extra])
        if name == FLUSH_SPAN and self.pid != self.owner:
            self._flush()

    def _spanned(self, name, fn, observe):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, observe=observe, **kwargs)

        return wrapper

    def _counted(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        if multiprocessing.get_start_method() != "fork":
            raise RuntimeError("tracing pool workers needs the 'fork' start method")
        for module, attr, name, observe in SPANNED:
            self._patch(module, attr, lambda fn: self._spanned(name, fn, observe))
        for module, attr, name in COUNTED:
            self._patch(module, attr, lambda fn: self._counted(name, fn))

    def _patch(self, module, attr, make_wrapper):
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make_wrapper(original))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _flush(self):
        with open(self.spool_dir / f"{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
        self.spans = []
        self.counts = Counter()

    def collect_spool(self):
        """Merge what pool workers wrote into this process's records."""
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                self.spans.extend(record["spans"])
                self.counts.update(record["counts"])
            path.unlink()


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            children[tuple(parent)].append((start, end))
    return [
        (end - start) - _covered(children.get(tuple(sid), ()), start, end)
        for sid, _, _, start, end, _ in spans
    ]


# Per-call E-step work computed from the array shapes (P patterns, J items,
# T nodes), not measured: a pattern log-likelihood pass is two (P,J)x(J,T)
# products reading the (P,J) float table and its complement and writing the
# (P,T) result; expected_counts is (T,) + (J,P)x(P,T) products reading the
# (P,J) weighted table and the (P,T) posterior.
def _estep_work(name, p, j, t):
    if name == "expectation.expected_counts":
        return 2 * p * t * (j + 1), 8 * (p * j + p * t)
    return 4 * p * j * t, 8 * (2 * p * j + p * t)


LAYER_UNITS = {
    "patterns.load_response_csv.s": "s",
    "patterns.load_response_csv.rows_per_s": "1/s",
    "patterns.tabulate.s": "s",
    "patterns.tabulate.calls": "count",
    "patterns.tabulate.distinct_ratio": "ratio",
    "simgen.generate.s": "s",
    "simgen.generate.calls": "count",
    "simgen.replicate_study.self_s": "s",
    "simgen.pool.efficiency": "ratio",
    "simgen.failures": "count",
    "quadrature.normal_grid.s": "s",
    "quadrature.normal_grid.calls": "count",
    "expectation.posterior.s": "s",
    "expectation.posterior.calls": "count",
    "expectation.expected_counts.s": "s",
    "expectation.observed_loglik.s": "s",
    "expectation.observed_loglik.calls": "count",
    "expectation.phi_residuals.s": "s",
    "expectation.passes_per_iter": "ratio",
    "expectation.flop": "flop",
    "expectation.bytes": "B",
    "expectation.gflop_per_s": "Gflop/s",
    "em_ols.fit.calls": "count",
    "em_ols.fit.s": "s",
    "em_ols.fit.iterations": "count",
    "em_ols.fit.us_per_iter": "us",
    "em_ols.fit.nonconverged": "count",
    "em_ols.fit.loglik_decreases": "count",
    "em_ols.mstep.s": "s",
    "em_ols.loop.self_s": "s",
    "em_nr.fit_nr.calls": "count",
    "em_nr.fit_nr.s": "s",
    "em_nr.fit_nr.iterations": "count",
    "em_nr.fit_nr.nonconverged": "count",
    "em_nr.nr_mstep.s": "s",
    "em_nr.nr_mstep.us_per_item": "us",
    "em_nr.item_score.calls": "count",
    "expectation.q1.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_frac": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


ESTEP = ("expectation.posterior", "expectation.observed_loglik", "expectation.expected_counts")


def layer_metrics(spans, counts, n_ops, pair_ratios, output_bytes, failures):
    """Per-layer metrics over n_ops traced ops.

    Times and counts are totals divided by n_ops (per workload run); ratios
    are taken over the totals, except the tracing overhead, which is the
    median over ops of traced ÷ untraced wall time (pair_ratios), less 1.  `.s` is self time, except for the fit spans,
    whose `.s` is inclusive and whose self time is `em_ols.loop.self_s`.
    """
    self_s, total_s, calls = Counter(), Counter(), Counter()
    extras = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        name, start, end, extra = span[2:6]
        self_s[name] += own
        total_s[name] += end - start
        calls[name] += 1
        if extra is not None:
            extras[name].append(extra)

    ols, nr = extras["em_ols.fit"], extras["em_nr.fit_nr"]
    iterations = sum(e[0] for e in ols) + sum(e[0] for e in nr)
    flop = work_bytes = 0
    for name in ESTEP:
        for shape in extras[name]:
            f, b = _estep_work(name, *shape)
            flop, work_bytes = flop + f, work_bytes + b
    # Pool capacity: each replicate_study span's wall time times its workers.
    capacity = sum(
        (s[4] - s[3]) * (s[5] or 1) for s in spans if s[2] == "simgen.replicate_study"
    )
    patterns = extras["patterns.tabulate"]

    totals = {
        "patterns.load_response_csv.s": self_s["patterns.load_response_csv"],
        "patterns.tabulate.s": self_s["patterns.tabulate"],
        "patterns.tabulate.calls": calls["patterns.tabulate"],
        "simgen.generate.s": self_s["simgen.generate"],
        "simgen.generate.calls": calls["simgen.generate"],
        "simgen.replicate_study.self_s": self_s["simgen.replicate_study"],
        "simgen.failures": failures,
        "quadrature.normal_grid.s": self_s["quadrature.normal_grid"],
        "quadrature.normal_grid.calls": calls["quadrature.normal_grid"],
        "expectation.posterior.s": self_s["expectation.posterior"],
        "expectation.posterior.calls": calls["expectation.posterior"],
        "expectation.expected_counts.s": self_s["expectation.expected_counts"],
        "expectation.observed_loglik.s": self_s["expectation.observed_loglik"],
        "expectation.observed_loglik.calls": calls["expectation.observed_loglik"],
        "expectation.phi_residuals.s": self_s["expectation.phi_residuals"],
        "expectation.flop": flop,
        "expectation.bytes": work_bytes,
        "em_ols.fit.calls": calls["em_ols.fit"],
        "em_ols.fit.s": total_s["em_ols.fit"],
        "em_ols.fit.iterations": sum(e[0] for e in ols),
        "em_ols.fit.nonconverged": sum(1 for e in ols if not e[1]),
        "em_ols.fit.loglik_decreases": sum(e[2] for e in ols),
        "em_ols.mstep.s": self_s["em_ols.latent_responses"] + self_s["em_ols.ols_mstep"],
        "em_ols.loop.self_s": self_s["em_ols.fit"],
        "em_nr.fit_nr.calls": calls["em_nr.fit_nr"],
        "em_nr.fit_nr.s": total_s["em_nr.fit_nr"],
        "em_nr.fit_nr.iterations": sum(e[0] for e in nr),
        "em_nr.fit_nr.nonconverged": sum(1 for e in nr if not e[1]),
        "em_nr.nr_mstep.s": self_s["em_nr.nr_mstep"],
        "em_nr.item_score.calls": counts["em_nr.item_score"],
        "expectation.q1.calls": counts["expectation.q1"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.output_bytes": output_bytes,
    }
    values = {name: total / n_ops for name, total in totals.items()}
    values.update({
        "patterns.load_response_csv.rows_per_s": _ratio(
            sum(extras["patterns.load_response_csv"]), self_s["patterns.load_response_csv"]
        ),
        "patterns.tabulate.distinct_ratio": _ratio(
            sum(p for p, _ in patterns), sum(n for _, n in patterns)
        ),
        "simgen.pool.efficiency": _ratio(
            total_s["em_ols.fit"] + total_s["em_nr.fit_nr"], capacity
        ),
        "expectation.passes_per_iter": _ratio(
            calls["expectation.posterior"] + calls["expectation.observed_loglik"], iterations
        ),
        "expectation.gflop_per_s": _ratio(flop, sum(self_s[n] for n in ESTEP)) / 1e9,
        "em_ols.fit.us_per_iter": _ratio(total_s["em_ols.fit"], sum(e[0] for e in ols)) * 1e6,
        "em_nr.nr_mstep.us_per_item": _ratio(self_s["em_nr.nr_mstep"], sum(extras["em_nr.nr_mstep"])) * 1e6,
        "trace.overhead_frac": statistics.median(pair_ratios) - 1.0,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
