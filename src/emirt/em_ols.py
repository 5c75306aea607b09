"""EM estimation with a closed-form OLS M-step on latent log-odds.

Each iteration turns the expected per-node proportions of correct
responses into log-odds "latent responses" y_jt and regresses them on the
quadrature nodes.  The regression slope and intercept are the next
discrimination and threshold; no gradient search is involved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import expectation
from .expectation import ExpectedCounts
from .model import A_MIN, ItemParams, ModelKind
from .patterns import PatternData
from .quadrature import MAX_POINTS, QuadratureGrid, normal_grid

# The latent log-odds are clamped to a range that scales with the span of
# the node grid: |y| <= Y_CAP_BASE at the 4-node grid, proportionally wider
# for wider grids.  Tighter caps censor the sampling noise of near-empty
# cells at extreme nodes (and with it the estimator's documented
# instability); caps that ignore the grid span clip log-odds the model
# itself produces at outer nodes.
Y_CAP_BASE = 15.0
_REFERENCE_SPAN = 2.3344142183389773  # largest node of the 4-point grid


def log_odds_cap(grid: QuadratureGrid) -> float:
    """Largest latent log-odds magnitude kept at this grid.

    Proportional to the outermost node, with the one-node grid floored at
    the two-node cap so its single cell still has a usable range.
    """
    span = max(abs(grid.nodes[0]), abs(grid.nodes[-1]), 1.0)
    return Y_CAP_BASE * span / _REFERENCE_SPAN


# Sentinel difficulty magnitude reported when the slope degenerates.
B_CAP = 1e3

DEGENERATE_SLOPE = "degenerate_slope"

class DegenerateNodeError(ValueError):
    """A quadrature node received zero expected mass."""

    def __init__(self, node_index: int):
        super().__init__(f"no expected mass at quadrature node {node_index}")
        self.node_index = node_index

    def __reduce__(self):
        # rebuilt from its index, not its message, when a study process sends it
        return type(self), (self.node_index,)


@dataclass(frozen=True)
class FitConfig:
    """Settings for one EM fit."""

    model: ModelKind
    n_quads: int | None = None  # default: 2 for the 1PL, 4 for the 2PL
    max_iter: int = 500
    tol: float = 1e-4

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.n_quads is not None and not 1 <= self.n_quads <= MAX_POINTS:
            raise ValueError(
                f"quadrature point count must be in 1..{MAX_POINTS}, got {self.n_quads}"
            )
        if self.model is ModelKind.TWO_PL and self.resolved_quads < 2:
            raise ValueError("the 2PL needs at least 2 quadrature points")

    @property
    def resolved_quads(self) -> int:
        if self.n_quads is not None:
            return self.n_quads
        return 2 if self.model is ModelKind.ONE_PL else 4


@dataclass
class FitResult:
    """Outcome of one EM fit; params are its final (a, b) as ItemParams.

    The EM core runs R fits in lockstep on (R, J) parameter arrays; each
    fit's FitResult holds its own row of them and its own traces, count and
    flags, exactly as if it had been fitted alone.  loglik_trace has one
    entry per visited parameter set (iterations + 1); max_delta_trace and
    phi_max_trace have one entry per iteration.  flags collects per-item
    conditions such as a degenerate OLS slope.
    """

    params: list[ItemParams]
    iterations: int
    converged: bool
    loglik_trace: list[float]
    max_delta_trace: list[float]
    phi_max_trace: list[float]
    flags: list[list[str]] = field(default_factory=list)
    loglik_decreases: int = 0

    @property
    def final_loglik(self) -> float:
        return self.loglik_trace[-1]

    @property
    def final_phi_max(self) -> float:
        return self.phi_max_trace[-1] if self.phi_max_trace else math.nan


def latent_responses(counts: ExpectedCounts, eps: float) -> np.ndarray:
    """Log-odds y = logit(N1 / N_t), the proportions clamped to [eps, 1 - eps].

    Works over leading axes: n1 of shape (J, T) or (R, J, T) gives y of
    that shape.  A node with no expected mass gives NaN log-odds; the OLS
    M-step reports it as its fit's DegenerateNodeError.
    """
    prop = counts.n1 / counts.nt[..., None, :]
    prop = np.minimum(np.maximum(prop, eps), 1.0 - eps)  # np.clip, without its dispatch
    return np.log(prop / (1.0 - prop))


def ols_mstep(
    y: np.ndarray, grid: QuadratureGrid, model: ModelKind
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form regression of the latent log-odds y on the quadrature nodes.

    2PL: a_j is the OLS slope of y_j on theta (unweighted over nodes),
    tau_j the intercept, and b_j = -tau_j / a_j.  1PL: the slope is pinned
    at one, leaving the intercept-only estimate tau_j = mean(y_j) - mean(theta).

    Returns the new (a, b) arrays and a per-item boolean array marking
    slopes too close to zero to invert; those items get the sentinel
    difficulty ±B_CAP (and a = A_MIN where the slope is exactly zero).
    A (J, T) y gives (J,) arrays, and an (R, J, T) stack of R fits' y
    gives (R, J) arrays whose rows are bit-identical to each fit's own.
    """
    theta_bar, centered, denom = grid.node_moments
    # the mean as add.reduce / count, the arithmetic of ndarray.mean
    y_bar = np.add.reduce(y, axis=-1) / y.shape[-1]

    if model is ModelKind.ONE_PL:
        tau = y_bar - theta_bar
        return np.ones_like(tau), -tau, np.zeros(tau.shape, dtype=bool)

    if grid.size < 2:
        raise ValueError("the 2PL OLS step needs at least 2 quadrature points")
    # a stacked matmul makes one product per (J, T) slice, as a single fit does
    slopes = (y - y_bar[..., None]) @ centered / denom
    taus = y_bar - slopes * theta_bar

    degenerate = np.abs(slopes) < A_MIN
    if not degenerate.any():
        return slopes, -taus / slopes, degenerate
    a = np.where(slopes == 0.0, A_MIN, slopes)
    b = np.divide(-taus, slopes, out=np.copysign(B_CAP, taus), where=~degenerate)
    return a, b, degenerate


def _item_params(a: np.ndarray, b: np.ndarray) -> list[ItemParams]:
    return [ItemParams(a=a_j, b=b_j) for a_j, b_j in zip(a.tolist(), b.tolist())]


def _run_em(
    datas: Sequence[PatternData],
    cfg: FitConfig,
    make_mstep,
    ascent_error: type[Exception] | None,
) -> list[FitResult | Exception]:
    """EM loop shared by the OLS and Newton-Raphson M-steps, over R fits in lockstep.

    Fits each of the R tables in datas under cfg, every fit from a = 1,
    b = 0.  The fits' parameters are (R, J) float64 arrays a and b, and the
    M-step, the probability matrices and the phi residuals each run once
    per iteration on the stacked (R, J, T) arrays.  The fits are ordered by
    table length, and PatternStack.split puts neighbouring fits into
    stacks of at most BLOCK_ROWS rows in all, whatever their tables'
    lengths: once at the start, and again from the live tables whenever
    fits leave.  So all fits of small tables share one stack and a larger
    table is a stack of its own.  The E-step of an iteration is one
    expectation.estep call per stack: it gives every fit of the stack its
    log-likelihood, or its PosteriorUnderflowError, and its counts, each
    bit-identical to those of the fit run alone.  An error of a stacked
    call itself is the outcome of each of its fits.

    make_mstep(grid, model) returns mstep(a, b, counts) -> (new_a, new_b,
    degenerate, empty) over the stacked arrays: degenerate (R, J) marks
    items to flag DEGENERATE_SLOPE, and empty (R, T) marks the nodes that
    M-step cannot take.  The M-step is one call per iteration, also when
    fits fail: _checked_mstep gives each fit its error or None, the error
    being the one that fit raises alone, and the error is the fit's
    outcome, as for the E-step.  An error of the stacked call itself is
    the outcome of every live fit.  A log-likelihood decrease raises
    ascent_error unless it is None.  Each visited parameter set gets one
    clamped probability matrix, shared by its phi residuals and its
    E-step, and one pattern likelihood pass, whose normaliser gives the
    observed log-likelihood.

    Each fit keeps its own iteration count, traces, flags and
    loglik_decreases, and leaves the lockstep when it converges, reaches
    cfg.max_iter or raises; the remaining fits' rows are kept, their
    stacks rebuilt, and they go on unaffected.  Returns, per table, its
    FitResult or the exception its fit raised.
    """
    grid = normal_grid(cfg.resolved_quads)
    mstep = make_mstep(grid, cfg.model)
    if not datas:
        return []
    n_fits = len(datas)
    n_items = datas[0].n_items
    if any(data.n_items != n_items for data in datas):
        raise ValueError("fits in lockstep need tables with the same items")
    # a live fit's outcome is its FitResult, replaced by its error if it raises
    outcomes: list[FitResult | Exception] = [FitResult([], 0, False, [], [], []) for _ in datas]

    # The live fits' indices into datas, and their rows of the stacked arrays.
    # Ordered by table length: tables of one length are neighbours in a stack
    # and share their pattern products' calls, and short tables share stacks.
    live = sorted(range(n_fits), key=lambda r: datas[r].n_patterns)
    stacks = expectation.PatternStack.split([datas[r] for r in live])
    a = np.ones((n_fits, n_items))
    b = np.zeros((n_fits, n_items))
    flagged = np.zeros((n_fits, n_items), dtype=bool)
    counts = ExpectedCounts(
        n1=np.empty((n_fits, n_items, grid.size)), nt=np.empty((n_fits, grid.size))
    )
    converged = stop = [False] * n_fits
    prob = expectation.response_prob_matrix(a, b, grid)
    iteration = 0

    while True:
        gone = []  # positions in live of the fits that leave the lockstep
        end = 0
        for stack in stacks:
            start, end = end, end + len(stack.tables)
            try:
                logliks, stack_counts = expectation.estep(stack, prob[start:end], grid)
            except Exception as exc:  # an error of a stacked call is the outcome of its fits
                for i in range(start, end):
                    outcomes[live[i]] = exc
                    gone.append(i)
                continue
            counts.n1[start:end], counts.nt[start:end] = stack_counts.n1, stack_counts.nt
            for i, ll in enumerate(logliks, start):
                r = live[i]
                fit = outcomes[r]
                if isinstance(ll, Exception):  # a fit's error is its outcome, never the others'
                    outcomes[r] = ll
                    gone.append(i)
                    continue
                if iteration and ll < fit.loglik_trace[-1] - 1e-8:
                    fit.loglik_decreases += 1
                    if ascent_error is not None:
                        outcomes[r] = ascent_error(
                            f"log-likelihood fell from {fit.loglik_trace[-1]:.10g} to {ll:.10g} "
                            f"at iteration {iteration}"
                        )
                        gone.append(i)
                        continue
                fit.loglik_trace.append(ll)
                if stop[i]:
                    fit.params = _item_params(a[i], b[i])
                    fit.flags = [[DEGENERATE_SLOPE] if f else [] for f in flagged[i]]
                    fit.iterations = iteration
                    fit.converged = converged[i]
                    gone.append(i)
        if len(gone) == len(live):
            break
        if gone:
            live, stacks, counts, a, b, flagged = _compact(gone, live, datas, counts, a, b, flagged)
        iteration += 1

        try:
            a, b, degenerate, deltas, errors = _checked_mstep(mstep, a, b, counts)
        except Exception as exc:  # an error of the stacked call is the outcome of every live fit
            errors = [exc] * len(live)
        gone = [i for i, exc in enumerate(errors) if exc is not None]
        for i in gone:  # a fit's error is its outcome, never the others'
            outcomes[live[i]] = errors[i]
        if len(gone) == len(live):
            break
        flagged |= degenerate
        if gone:
            live, stacks, counts, a, b, flagged, deltas = _compact(
                gone, live, datas, counts, a, b, flagged, deltas
            )

        prob = expectation.response_prob_matrix(a, b, grid)
        phi = expectation.phi_residuals(prob, counts)
        deltas = deltas.tolist()
        for r, d, phi_max in zip(live, deltas, np.abs(phi).max(axis=(1, 2)).tolist()):
            outcomes[r].max_delta_trace.append(d)
            outcomes[r].phi_max_trace.append(phi_max)

        converged = [d < cfg.tol for d in deltas]
        stop = converged if iteration < cfg.max_iter else [True] * len(live)

    return outcomes


def _checked_mstep(mstep, a, b, counts) -> tuple:
    """mstep(a, b, counts), each fit's largest parameter change, and each fit's error or None.

    A fit's error is DegenerateNodeError for the first node the M-step
    marks empty, else ItemParams' ValueError for its first non-finite or
    zero estimate: the error of the same fit run alone.  The check is one
    vectorised test of all fits; only a failing M-step looks at each fit.
    """
    new_a, new_b, degenerate, empty = mstep(a, b, counts)
    # np.maximum and max keep NaN; a finite delta from finite (a, b) means finite estimates
    deltas = np.maximum(np.abs(new_a - a), np.abs(new_b - b)).max(axis=-1)
    errors = [None] * len(deltas)
    if not (np.isfinite(deltas).all() and new_a.all() and not empty.any()):
        for i, (node_empty, a_i, b_i) in enumerate(zip(empty, new_a, new_b)):
            if node_empty.any():
                errors[i] = DegenerateNodeError(int(node_empty.argmax()))
                continue
            try:
                _item_params(a_i, b_i)
            except ValueError as exc:
                errors[i] = exc
    return new_a, new_b, degenerate, deltas, errors


def _compact(
    gone: list[int], live: list[int], datas: Sequence[PatternData],
    counts: ExpectedCounts, *arrays: np.ndarray,
) -> list:
    """live without the positions in gone, the stacks of its tables, and the
    counts and the rows of each stacked array without those positions."""
    keep = np.ones(len(live), dtype=bool)
    keep[gone] = False
    live = [r for r, k in zip(live, keep.tolist()) if k]
    stacks = expectation.PatternStack.split([datas[r] for r in live])
    counts = ExpectedCounts(n1=counts.n1[keep], nt=counts.nt[keep])
    return [live, stacks, counts, *(x[keep] for x in arrays)]


def _one_fit(outcomes: list[FitResult | Exception]) -> FitResult:
    """The result of a one-fit lockstep, raising the fit's error if it raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _make_ols_mstep(grid: QuadratureGrid, model: ModelKind):
    eps = 1.0 / (1.0 + math.exp(log_odds_cap(grid)))

    # An empty node or a non-finite y makes the fit's estimates non-finite, and
    # _checked_mstep turns them into the fit's error: numpy's warnings on the way are noise.
    @np.errstate(divide="ignore", invalid="ignore")
    def mstep(a, b, counts):
        return (*ols_mstep(latent_responses(counts, eps=eps), grid, model), counts.nt <= 0)

    return mstep


def fit(data: PatternData, cfg: FitConfig) -> FitResult:
    """Estimate item parameters by EM with the OLS M-step.

    Stops when the largest absolute change over all item parameters drops
    below cfg.tol, or after cfg.max_iter iterations (converged=False, not
    an error).  The observed log-likelihood is recorded at every visited
    parameter set; decreases are counted but not treated as failures since
    the plug-in M-step is not an exact Q maximizer.
    """
    return _one_fit(_run_em([data], cfg, _make_ols_mstep, ascent_error=None))


def fit_lockstep(datas: Sequence[PatternData], cfg: FitConfig) -> list[FitResult | Exception]:
    """fit on every table in datas, run in lockstep.

    Returns, per table, the FitResult that fit would return, bit for bit,
    or the exception it would raise.
    """
    return _run_em(datas, cfg, _make_ols_mstep, ascent_error=None)
