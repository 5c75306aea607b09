"""Data generation and the Monte-Carlo replication harness."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.t_list:
            raise ValueError("t_list must be nonempty")
        if len(set(self.t_list)) < len(self.t_list):
            raise ValueError(f"t_list repeats a node count: {self.t_list}")
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
    """One cell's fit count and wall time per fit.

    nonconverged counts the fits that stopped at max_iter without
    converging; the cell's means include them.
    """

    estimator: str
    n_quads: int
    fits: int
    nonconverged: int
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
    # (J, N), item-major, so that numpy's inner loops run over persons
    prob = logistic(a[:, None] * (theta[None, :] - b[:, None]))
    return (rng.random((n_persons, len(a))) < prob.T).astype(np.uint8)


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


def fit_estimator(data, estimator: str, cfg: FitConfig):
    """Fit data with the named estimator ("ols" or "nr") under cfg's settings."""
    if estimator == "ols":
        return em_ols.fit(data, cfg)
    if estimator == "nr":
        return em_nr.fit_nr(data, cfg)
    raise ValueError(f"unknown estimator {estimator!r}")


def _record(wall_ms: float, outcome) -> _FitRecord:
    """The record of one fit, from its FitResult or the exception it raised."""
    if isinstance(outcome, Exception):
        return _FitRecord(wall_ms, error=f"{type(outcome).__name__}: {outcome}")
    return _FitRecord(
        wall_ms,
        a_hat=tuple(p.a for p in outcome.params),
        b_hat=tuple(p.b for p in outcome.params),
        degenerate=tuple(DEGENERATE_SLOPE in f for f in outcome.flags),
        converged=outcome.converged,
    )


def _run_cells(design: StudyDesign, estimators: tuple[str, ...], seeds) -> dict:
    """The records of each cell, one lockstep EM call per cell.

    A cell is one (estimator, node count) pair, and its records follow seeds,
    the replications' seeds.  A fit's wall time is its cell's wall time
    divided by the cell's fits.
    """
    tables = [tabulate(generate(design.true_params, design.n_persons, seed)) for seed in seeds]
    cells = {}
    for estimator in estimators:
        fit_lockstep = {"ols": em_ols.fit_lockstep, "nr": em_nr.fit_nr_lockstep}[estimator]
        for n_quads in design.t_list:
            start = time.perf_counter()
            outcomes = fit_lockstep(tables, FitConfig(model=design.model, n_quads=n_quads))
            wall = (time.perf_counter() - start) * 1e3 / len(tables)
            cells[estimator, n_quads] = [_record(wall, outcome) for outcome in outcomes]
    return cells


def _run_replication(run) -> dict:
    """A pool task: the _run_cells records of one contiguous run of replications."""
    return _run_cells(*run)


def _send_run(run, writer) -> None:
    """A pool process: send the records of run, or the exception it raised, to the caller."""
    with blocks_inline():
        try:
            outcome = _run_replication(run)
        except Exception as exc:
            outcome = exc
    writer.send(outcome)


def _fit_runs(runs) -> dict:
    """The records of each cell over the runs, in run order, one process fitting each run.

    The calling process fits the first run, and a process started for each
    further run sends its cells back through a one-way pipe; each cell's
    records are extended by those of each later run.  Every process runs its
    E-step blocks inline, since together they occupy the cores.  A child's
    exception is raised here, and so is a RuntimeError for a child that
    ended without sending.  On any error the children still running are
    terminated; every child is joined before this returns.
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
            cells = _run_replication(runs[0])
        first = len(runs[0][2])
        for _, reader, (_, _, seeds) in children:
            try:
                outcome = reader.recv()
            except EOFError:
                raise RuntimeError(
                    f"the process fitting replications {first}-{first + len(seeds) - 1} "
                    "ended without sending their records"
                ) from None
            if isinstance(outcome, Exception):
                raise outcome
            for key, records in outcome.items():
                cells[key].extend(records)
            first += len(seeds)
    except BaseException:
        for child, _, _ in children:
            child.terminate()
        raise
    finally:
        for child, reader, _ in children:
            child.join()
            reader.close()
    return cells


def _mean(values: np.ndarray) -> float:
    """The mean of values, or nan when none are left: every fit raised or was an outlier."""
    return float(values.mean()) if len(values) else math.nan


def _aggregate(design: StudyDesign, cells: dict) -> StudySummary:
    """The study's rows and timing, reading each cell's records once, in order."""
    rows: list[StudyRow] = []
    timing: list[TimingStats] = []
    failures = 0
    for (estimator, n_quads), records in cells.items():
        walls = [r.wall_ms for r in records]
        timing.append(
            TimingStats(
                estimator=estimator,
                n_quads=n_quads,
                fits=len(walls),
                nonconverged=sum(r.ok and not r.converged for r in records),
                mean_ms=float(np.mean(walls)),
                min_ms=float(np.min(walls)),
                max_ms=float(np.max(walls)),
            )
        )
        fitted = [r for r in records if r.ok]
        failures += len(records) - len(fitted)
        # (fits, J) arrays: item j reads column j.
        shape = (len(fitted), len(design.true_params))
        a_hat = np.reshape([r.a_hat for r in fitted], shape)
        b_hat = np.reshape([r.b_hat for r in fitted], shape)
        degenerate = np.reshape(np.array([r.degenerate for r in fitted], dtype=bool), shape)
        out_a, out_b = outlier_verdicts(a_hat, b_hat, design.model, degenerate)
        out = out_a | out_b
        for j, truth in enumerate(design.true_params):
            a_vals, b_vals, kept = a_hat[:, j], b_hat[:, j], ~out[:, j]
            rows.append(
                StudyRow(
                    item=j + 1,
                    estimator=estimator,
                    n_quads=n_quads,
                    true_a=truth.a,
                    true_b=truth.b,
                    mean_a=_mean(a_vals),
                    mean_b=_mean(b_vals),
                    rmse_a=math.sqrt(_mean((a_vals - truth.a) ** 2)),
                    rmse_b=math.sqrt(_mean((b_vals - truth.b) ** 2)),
                    filtered_mean_a=_mean(a_vals[kept]),
                    filtered_mean_b=_mean(b_vals[kept]),
                    outliers_a=int(out_a[:, j].sum()),
                    outliers_b=int(out_b[:, j].sum()),
                    outliers=int(out[:, j].sum()),
                    reps=len(fitted),
                )
            )

    return StudySummary(
        design=design, rows=tuple(rows), timing=tuple(timing), failures=failures
    )


def replicate_study(
    design: StudyDesign,
    estimators: Sequence[str] = ("ols",),
    workers: int = 1,
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
    ended when this returns or raises.  A worker count below 1, or an
    empty or repeating estimator list, raises ValueError.
    """
    estimators = tuple(estimators)
    if not estimators:
        raise ValueError("estimators is empty: a study fits at least one estimator")
    for est in estimators:
        if est not in ESTIMATORS:
            raise ValueError(f"unknown estimator {est!r}; expected one of {ESTIMATORS}")
    if len(set(estimators)) < len(estimators):
        raise ValueError(f"estimators repeat an estimator: {estimators}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    seeds = np.random.SeedSequence(design.seed).spawn(design.reps)

    n_runs = min(workers, design.reps)
    if n_runs == 1:
        cells = _run_cells(design, estimators, seeds)
    else:
        edges = [design.reps * k // n_runs for k in range(n_runs + 1)]
        cells = _fit_runs(
            [(design, estimators, seeds[lo:hi]) for lo, hi in zip(edges, edges[1:])]
        )

    return _aggregate(design, cells)
