"""Data generation and the Monte-Carlo replication harness."""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import em_nr, em_ols
from .em_ols import DEGENERATE_SLOPE, FitConfig
from .expectation import blocks_inline, logistic
from .model import ItemParams, ModelKind
from .patterns import tabulate

# Item parameter grids used throughout the simulation studies.
DEFAULT_TRUE_B = (-3.0, -1.5, 0.0, 1.5, 3.0)
DEFAULT_TRUE_A = (0.3, 0.725, 1.15, 1.575, 2.0)
DEFAULT_QUAD_SWEEP = (2, 3, 4, 5, 8, 10, 15)

# Estimates outside these ranges count as outliers.
B_OUTLIER_LIMIT = 5.0
A_OUTLIER_LOW = 0.1
A_OUTLIER_HIGH = 3.0

ESTIMATORS = ("ols", "nr")


@dataclass(frozen=True)
class StudyDesign:
    """One Monte-Carlo study: fixed truth, sample size, and T sweep."""

    true_params: tuple[ItemParams, ...]
    n_persons: int
    reps: int
    model: ModelKind
    t_list: tuple[int, ...]
    seed: int

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.n_persons < 1:
            raise ValueError(f"n_persons must be >= 1, got {self.n_persons}")
        if not self.t_list:
            raise ValueError("t_list must be nonempty")
        for t in self.t_list:
            FitConfig(model=self.model, n_quads=t)
        if not self.true_params:
            raise ValueError("true_params must be nonempty")


@dataclass(frozen=True)
class StudyRow:
    """Aggregated estimates for one item under one estimator and node count."""

    item: int
    estimator: str
    n_quads: int
    true_a: float
    true_b: float
    mean_a: float
    mean_b: float
    rmse_a: float
    rmse_b: float
    filtered_mean_a: float
    filtered_mean_b: float
    outliers_a: int
    outliers_b: int
    outliers: int
    reps: int


@dataclass(frozen=True)
class TimingStats:
    estimator: str
    n_quads: int
    fits: int
    mean_ms: float
    min_ms: float
    max_ms: float


@dataclass(frozen=True)
class StudySummary:
    design: StudyDesign
    rows: tuple[StudyRow, ...]
    timing: tuple[TimingStats, ...]
    failures: int


@dataclass(frozen=True)
class _FitRecord:
    rep: int
    estimator: str
    n_quads: int
    wall_ms: float
    a_hat: tuple[float, ...] = ()
    b_hat: tuple[float, ...] = ()
    degenerate: tuple[bool, ...] = ()
    converged: bool = False
    error: str = ""  # set when the fit raised

    @property
    def ok(self) -> bool:
        return not self.error


def generate(
    true_params: Sequence[ItemParams], n_persons: int, seed
) -> np.ndarray:
    """Simulate an N x I response matrix under the model.

    Abilities are standard normal; given an ability, responses are
    independent Bernoulli draws with the item response probabilities.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(n_persons)
    a = np.array([p.a for p in true_params])
    b = np.array([p.b for p in true_params])
    prob = logistic(a[None, :] * (theta[:, None] - b[None, :]))
    return (rng.random(prob.shape) < prob).astype(np.uint8)


def outlier_verdicts(a, b, model: ModelKind, degenerate=False):
    """Whether discriminations a and difficulties b are outliers, elementwise.

    Difficulties with |b| >= 5 are outliers for both models; the 2PL
    additionally rejects discriminations outside (0.1, 3).  A degenerate
    OLS slope makes both parameters outliers.  Takes floats or arrays and
    returns the pair of verdicts (for a, for b) in their broadcast shape.
    """
    a_out = model is ModelKind.TWO_PL and (
        (a <= A_OUTLIER_LOW) | (a >= A_OUTLIER_HIGH)
    )
    return degenerate | a_out, degenerate | (np.abs(b) >= B_OUTLIER_LIMIT)


def is_outlier(p: ItemParams, model: ModelKind, degenerate: bool = False) -> bool:
    """Whether either parameter of an estimate is an outlier."""
    out_a, out_b = outlier_verdicts(p.a, p.b, model, degenerate)
    return bool(out_a | out_b)


def resolve_workers(flag: int | None = None) -> int:
    """Worker count: explicit flag wins, then IRT_THREADS, then 1.

    A count below 1, or an IRT_THREADS that is not an integer, raises
    ValueError naming where the value came from.
    """
    if flag is not None:
        source, value = "--workers", flag
    else:
        source, value = "IRT_THREADS", os.environ.get("IRT_THREADS")
        if not value:
            return 1
    try:
        workers = int(value)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {value!r}") from None
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    return workers


def fit_estimator(data, estimator: str, cfg: FitConfig):
    """Fit data with the named estimator ("ols" or "nr") under cfg's settings."""
    if estimator == "ols":
        return em_ols.fit(data, cfg)
    if estimator == "nr":
        return em_nr.fit_nr(data, cfg)
    raise ValueError(f"unknown estimator {estimator!r}")


def _record(rep: int, estimator: str, n_quads: int, wall_ms: float, outcome) -> _FitRecord:
    """The record of one fit, from its FitResult or the exception it raised."""
    if isinstance(outcome, Exception):
        error = f"{type(outcome).__name__}: {outcome}"
        return _FitRecord(rep, estimator, n_quads, wall_ms, error=error)
    return _FitRecord(
        rep,
        estimator,
        n_quads,
        wall_ms,
        a_hat=tuple(p.a for p in outcome.params),
        b_hat=tuple(p.b for p in outcome.params),
        degenerate=tuple(DEGENERATE_SLOPE in f for f in outcome.flags),
        converged=outcome.converged,
    )


def _run_cells(
    design: StudyDesign, estimators: tuple[str, ...], seeds, first: int = 0
) -> list[_FitRecord]:
    """The fits of replications first, first + 1, ..., one lockstep EM call per cell.

    seeds holds those replications' seeds, in order; a cell is one
    (estimator, node count) pair.  A fit's wall time is its cell's wall time
    divided by the cell's fits.
    """
    tables = [tabulate(generate(design.true_params, design.n_persons, seed)) for seed in seeds]
    records = []
    for estimator in estimators:
        fit_lockstep = {"ols": em_ols.fit_lockstep, "nr": em_nr.fit_nr_lockstep}[estimator]
        for n_quads in design.t_list:
            start = time.perf_counter()
            outcomes = fit_lockstep(tables, FitConfig(model=design.model, n_quads=n_quads))
            wall = (time.perf_counter() - start) * 1e3 / len(tables)
            records.extend(
                _record(first + i, estimator, n_quads, wall, outcome)
                for i, outcome in enumerate(outcomes)
            )
    return records


def _run_replication(run) -> list[_FitRecord]:
    """A pool task: the _run_cells fits of one contiguous run of replications."""
    return _run_cells(*run)


def _send_run(run, writer) -> None:
    """A pool process: send the records of run, or the exception it raised, to the caller."""
    with blocks_inline():
        try:
            outcome = _run_replication(run)
        except Exception as exc:
            outcome = exc
    writer.send(outcome)


def _fit_runs(runs) -> list[_FitRecord]:
    """The records of the runs, in run order, with one process fitting each run.

    The calling process fits the first run, and a process started for each
    further run sends its records back through a one-way pipe.  Every
    process runs its E-step blocks inline, since together they occupy the
    cores.  A child's exception is raised here, and so is a RuntimeError for
    a child that ended without sending.  On any error the children still
    running are terminated; every child is joined before this returns.
    """
    import multiprocessing  # loaded only for a pool

    children = []
    try:
        for run in runs[1:]:
            reader, writer = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_send_run, args=(run, writer))
            child.start()
            children.append((child, reader, run))
            # Closed before the next child starts, so that only this child holds
            # the write end, and recv reads end-of-file once it has exited.
            writer.close()
        with blocks_inline():
            records = _run_replication(runs[0])
        for _, reader, (_, _, seeds, first) in children:
            try:
                outcome = reader.recv()
            except EOFError:
                raise RuntimeError(
                    f"the process fitting replications {first}-{first + len(seeds) - 1} "
                    "ended without sending their records"
                ) from None
            if isinstance(outcome, Exception):
                raise outcome
            records.extend(outcome)
    except BaseException:
        for child, _, _ in children:
            child.terminate()
        raise
    finally:
        for child, reader, _ in children:
            child.join()
            reader.close()
    return records


def _aggregate(
    design: StudyDesign, estimators: tuple[str, ...], records: list[_FitRecord]
) -> StudySummary:
    rows: list[StudyRow] = []
    timing: list[TimingStats] = []
    failures = sum(1 for r in records if not r.ok)

    for estimator in estimators:
        for n_quads in design.t_list:
            cell = sorted(
                (
                    r
                    for r in records
                    if r.ok and r.estimator == estimator and r.n_quads == n_quads
                ),
                key=lambda r: r.rep,
            )
            walls = [
                r.wall_ms
                for r in records
                if r.estimator == estimator and r.n_quads == n_quads
            ]
            timing.append(
                TimingStats(
                    estimator=estimator,
                    n_quads=n_quads,
                    fits=len(walls),
                    mean_ms=float(np.mean(walls)) if walls else math.nan,
                    min_ms=float(np.min(walls)) if walls else math.nan,
                    max_ms=float(np.max(walls)) if walls else math.nan,
                )
            )
            for j, truth in enumerate(design.true_params):
                a_vals = np.array([r.a_hat[j] for r in cell])
                b_vals = np.array([r.b_hat[j] for r in cell])
                degenerate = np.array([r.degenerate[j] for r in cell], dtype=bool)
                out_a, out_b = outlier_verdicts(a_vals, b_vals, design.model, degenerate)
                out_mask = out_a | out_b
                kept_a = a_vals[~out_mask]
                kept_b = b_vals[~out_mask]
                rows.append(
                    StudyRow(
                        item=j + 1,
                        estimator=estimator,
                        n_quads=n_quads,
                        true_a=truth.a,
                        true_b=truth.b,
                        mean_a=float(a_vals.mean()) if len(a_vals) else math.nan,
                        mean_b=float(b_vals.mean()) if len(b_vals) else math.nan,
                        rmse_a=float(np.sqrt(np.mean((a_vals - truth.a) ** 2)))
                        if len(a_vals)
                        else math.nan,
                        rmse_b=float(np.sqrt(np.mean((b_vals - truth.b) ** 2)))
                        if len(b_vals)
                        else math.nan,
                        filtered_mean_a=float(kept_a.mean()) if len(kept_a) else math.nan,
                        filtered_mean_b=float(kept_b.mean()) if len(kept_b) else math.nan,
                        outliers_a=int(out_a.sum()),
                        outliers_b=int(out_b.sum()),
                        outliers=int(out_mask.sum()),
                        reps=len(cell),
                    )
                )

    return StudySummary(
        design=design, rows=tuple(rows), timing=tuple(timing), failures=failures
    )


def replicate_study(
    design: StudyDesign,
    estimators: Sequence[str] = ("ols",),
    workers: int | None = None,
) -> StudySummary:
    """Generate, fit, and aggregate design.reps replications.

    Per-replication seeds are spawned from the design seed, so results are
    reproducible and independent of the worker count.  Individual fit
    failures are counted, never fatal.  Each (estimator, node count) cell
    fits its replications in lockstep EM calls, whose fits are bit-identical
    to one-at-a-time fits.  With more than one worker, the replications are
    split into min(workers, reps) contiguous runs, and that many processes
    fit one run each, cell by cell: the calling process fits the first run
    and starts one process for each further run.  Every such process has
    ended when this returns or raises.
    """
    estimators = tuple(estimators)
    for est in estimators:
        if est not in ESTIMATORS:
            raise ValueError(f"unknown estimator {est!r}; expected one of {ESTIMATORS}")

    seeds = np.random.SeedSequence(design.seed).spawn(design.reps)

    n_runs = min(resolve_workers(workers), design.reps)
    if n_runs == 1:
        records = _run_cells(design, estimators, seeds)
    else:
        edges = [design.reps * k // n_runs for k in range(n_runs + 1)]
        records = _fit_runs(
            [(design, estimators, seeds[lo:hi], lo) for lo, hi in zip(edges, edges[1:])]
        )

    return _aggregate(design, estimators, records)


def quad_study(
    design: StudyDesign,
    estimators: Sequence[str] = ("ols",),
    t_sweep: Sequence[int] = DEFAULT_QUAD_SWEEP,
    workers: int | None = None,
) -> StudySummary:
    """Replication study swept over a list of quadrature point counts."""
    swept = replace(design, t_list=tuple(t_sweep))
    return replicate_study(swept, estimators=estimators, workers=workers)
