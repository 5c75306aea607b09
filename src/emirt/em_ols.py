"""EM estimation with a closed-form OLS M-step on latent log-odds.

Each iteration turns the expected per-node proportions of correct
responses into log-odds "latent responses" y_jt and regresses them on the
quadrature nodes.  The regression slope and intercept are the next
discrimination and threshold; no gradient search is involved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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

# Iteration callback: (iteration, params, posterior, counts) -> None.  The EM
# core works on (a, b) arrays and builds the ItemParams list only for it.
IterationCallback = Callable[[int, list[ItemParams], np.ndarray, ExpectedCounts], None]


class DegenerateNodeError(ValueError):
    """A quadrature node received zero expected mass."""

    def __init__(self, node_index: int):
        super().__init__(f"no expected mass at quadrature node {node_index}")
        self.node_index = node_index


@dataclass(frozen=True)
class LatentResponseTable:
    """Log-odds of expected correct proportions per item and node.

    clamped marks cells where the proportion clamp was active, i.e. the
    log-odds value is a saturated ±log_odds_cap rather than a measurement.
    """

    y: np.ndarray
    clamped: np.ndarray


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
    """Outcome of an EM fit; params are the EM core's final (a, b) arrays as ItemParams.

    loglik_trace has one entry per visited parameter set (iterations + 1);
    max_delta_trace and phi_max_trace have one entry per iteration.
    flags collects per-item conditions such as a degenerate OLS slope.
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


def latent_responses(counts: ExpectedCounts, eps: float) -> LatentResponseTable:
    """Log-odds y_jt = logit(N1_jt / N_t) with the proportion clamp applied."""
    if (counts.nt <= 0).any():
        raise DegenerateNodeError(int(np.argmax(counts.nt <= 0)))
    prop = counts.n1 / counts.nt[None, :]
    clamped = (prop < eps) | (prop > 1.0 - eps)
    prop = np.minimum(np.maximum(prop, eps), 1.0 - eps)  # np.clip, without its dispatch
    return LatentResponseTable(y=np.log(prop / (1.0 - prop)), clamped=clamped)


def ols_mstep(
    table: LatentResponseTable, grid: QuadratureGrid, model: ModelKind
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form regression of latent responses on the quadrature nodes.

    2PL: a_j is the OLS slope of y_j on theta (unweighted over nodes),
    tau_j the intercept, and b_j = -tau_j / a_j.  1PL: the slope is pinned
    at one, leaving the intercept-only estimate tau_j = mean(y_j) - mean(theta).

    Returns the new (a, b) arrays and a per-item boolean array marking
    slopes too close to zero to invert; those items get the sentinel
    difficulty ±B_CAP (and a = A_MIN where the slope is exactly zero).
    """
    # means as add.reduce / count, the arithmetic of ndarray.mean
    theta = grid.nodes
    theta_bar = np.add.reduce(theta) / theta.size
    y_bar = np.add.reduce(table.y, axis=1) / table.y.shape[1]

    if model is ModelKind.ONE_PL:
        tau = y_bar - theta_bar
        return np.ones_like(tau), -tau, np.zeros(len(tau), dtype=bool)

    if grid.size < 2:
        raise ValueError("the 2PL OLS step needs at least 2 quadrature points")
    centered = theta - theta_bar
    denom = float(centered @ centered)
    slopes = (table.y - y_bar[:, None]) @ centered / denom
    taus = y_bar - slopes * theta_bar

    degenerate = np.abs(slopes) < A_MIN
    if not degenerate.any():
        return slopes, -taus / slopes, degenerate
    a = np.where(slopes == 0.0, A_MIN, slopes)
    b = np.divide(-taus, slopes, out=np.copysign(B_CAP, taus), where=~degenerate)
    return a, b, degenerate


def _check_params(a: np.ndarray, b: np.ndarray) -> None:
    """Raise the ValueError of ItemParams for the first item it rejects."""
    ok = np.isfinite(a) & np.isfinite(b) & (a != 0.0)
    if not ok.all():
        j = int(np.argmin(ok))
        ItemParams(a=a[j], b=b[j])


def _item_params(a: np.ndarray, b: np.ndarray) -> list[ItemParams]:
    return [ItemParams(a=a_j, b=b_j) for a_j, b_j in zip(a.tolist(), b.tolist())]


def _run_em(
    data: PatternData,
    cfg: FitConfig,
    make_mstep,
    ascent_error: type[Exception] | None,
    callback: IterationCallback | None = None,
) -> FitResult:
    """Generic EM loop shared by the OLS and Newton-Raphson M-steps.

    Works on (J,) float64 arrays a and b.  make_mstep(grid) returns
    mstep(a, b, counts) -> (new_a, new_b, degenerate), the last marking
    items to flag DEGENERATE_SLOPE; a non-finite or zero estimate raises
    ItemParams' ValueError.  A log-likelihood decrease raises ascent_error
    unless it is None.  The fit starts at a = 1, b = 0.  Each visited
    parameter set gets one clamped probability matrix, shared by its phi
    residuals and its E-step, and one pattern likelihood pass, whose
    normaliser gives the observed log-likelihood.
    """
    grid = normal_grid(cfg.resolved_quads)
    mstep = make_mstep(grid)
    a = np.ones(data.n_items)
    b = np.zeros(data.n_items)
    flagged = np.zeros(data.n_items, dtype=bool)

    prob = expectation.response_prob_matrix(a, b, grid)
    post, ll = expectation.posterior(data, prob, grid)
    loglik_trace = [ll]
    max_delta_trace: list[float] = []
    phi_max_trace: list[float] = []
    decreases = 0
    converged = False
    iterations = 0

    for iteration in range(1, cfg.max_iter + 1):
        counts = expectation.expected_counts(data, post)
        if callback is not None:
            callback(iteration, _item_params(a, b), post, counts)
        del post  # the next posterior allocates its own (P, T) table

        new_a, new_b, degenerate = mstep(a, b, counts)
        # np.maximum keeps NaN; a finite delta from finite (a, b) means finite estimates
        delta = float(np.maximum(np.abs(new_a - a).max(), np.abs(new_b - b).max()))
        if not (math.isfinite(delta) and new_a.all()):
            _check_params(new_a, new_b)
        flagged |= degenerate

        prob = expectation.response_prob_matrix(new_a, new_b, grid)
        phi = expectation.phi_residuals(prob, counts)
        phi_max_trace.append(float(np.abs(phi).max()))
        max_delta_trace.append(delta)

        post, ll = expectation.posterior(data, prob, grid)
        if ll < loglik_trace[-1] - 1e-8:
            decreases += 1
            if ascent_error is not None:
                raise ascent_error(
                    f"log-likelihood fell from {loglik_trace[-1]:.10g} to {ll:.10g} "
                    f"at iteration {iteration}"
                )
        loglik_trace.append(ll)

        a, b = new_a, new_b
        iterations = iteration
        if delta < cfg.tol:
            converged = True
            break

    return FitResult(
        params=_item_params(a, b),
        iterations=iterations,
        converged=converged,
        loglik_trace=loglik_trace,
        max_delta_trace=max_delta_trace,
        phi_max_trace=phi_max_trace,
        flags=[[DEGENERATE_SLOPE] if f else [] for f in flagged],
        loglik_decreases=decreases,
    )


def fit(
    data: PatternData, cfg: FitConfig, callback: IterationCallback | None = None
) -> FitResult:
    """Estimate item parameters by EM with the OLS M-step.

    Stops when the largest absolute change over all item parameters drops
    below cfg.tol, or after cfg.max_iter iterations (converged=False, not
    an error).  The observed log-likelihood is recorded at every visited
    parameter set; decreases are counted but not treated as failures since
    the plug-in M-step is not an exact Q maximizer.
    """

    def make_mstep(grid):
        eps = 1.0 / (1.0 + math.exp(log_odds_cap(grid)))

        def mstep(a, b, counts):
            return ols_mstep(latent_responses(counts, eps=eps), grid, cfg.model)

        return mstep

    return _run_em(data, cfg, make_mstep, ascent_error=None, callback=callback)
