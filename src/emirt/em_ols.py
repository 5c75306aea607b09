"""EM estimation with a closed-form OLS M-step on latent log-odds.

Each iteration turns the expected per-node proportions of correct
responses into log-odds "latent responses" y_jt and regresses them on the
quadrature nodes.  The regression slope and intercept are the next
discrimination and threshold; no gradient search is involved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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


EPS_Y = 1.0 / (1.0 + math.exp(Y_CAP_BASE))
# Sentinel difficulty magnitude reported when the slope degenerates.
B_CAP = 1e3

DEGENERATE_SLOPE = "degenerate_slope"

# Iteration callback: (iteration, params, posterior, counts) -> None
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
    log-odds value is a saturated ±logit(EPS_Y) rather than a measurement.
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
    start_a: float = 1.0
    start_b: float = 0.0

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
    """Outcome of an EM fit.

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


def latent_responses(
    counts: ExpectedCounts, eps: float | None = None
) -> LatentResponseTable:
    """Log-odds y_jt = logit(N1_jt / N_t) with the proportion clamp applied."""
    if eps is None:
        eps = EPS_Y
    if np.any(counts.nt <= 0):
        raise DegenerateNodeError(int(np.argmax(counts.nt <= 0)))
    prop = counts.n1 / counts.nt[None, :]
    clamped = (prop < eps) | (prop > 1.0 - eps)
    prop = np.clip(prop, eps, 1.0 - eps)
    return LatentResponseTable(y=np.log(prop / (1.0 - prop)), clamped=clamped)


def ols_mstep(
    table: LatentResponseTable, grid: QuadratureGrid, model: ModelKind
) -> tuple[list[ItemParams], list[bool]]:
    """Closed-form regression of latent responses on the quadrature nodes.

    2PL: a_j is the OLS slope of y_j on theta (unweighted over nodes),
    tau_j the intercept, and b_j = -tau_j / a_j.  1PL: the slope is pinned
    at one, leaving the intercept-only estimate tau_j = mean(y_j) - mean(theta).

    Returns the new parameters and a per-item flag marking slopes too close
    to zero to invert; those items get the sentinel difficulty ±B_CAP.
    """
    theta = grid.nodes
    theta_bar = theta.mean()
    y_bar = table.y.mean(axis=1)

    if model is ModelKind.ONE_PL:
        tau = y_bar - theta_bar
        return [ItemParams(a=1.0, b=float(-t)) for t in tau], [False] * len(tau)

    if grid.size < 2:
        raise ValueError("the 2PL OLS step needs at least 2 quadrature points")
    centered = theta - theta_bar
    denom = float(centered @ centered)
    slopes = (table.y - y_bar[:, None]) @ centered / denom
    taus = y_bar - slopes * theta_bar

    params: list[ItemParams] = []
    degenerate: list[bool] = []
    for a_hat, tau_hat in zip(slopes, taus):
        if abs(a_hat) < A_MIN:
            params.append(ItemParams(a=float(a_hat) or A_MIN, b=math.copysign(B_CAP, tau_hat)))
            degenerate.append(True)
        else:
            params.append(ItemParams(a=float(a_hat), b=float(-tau_hat / a_hat)))
            degenerate.append(False)
    return params, degenerate


def _start_params(data: PatternData, cfg: FitConfig) -> list[ItemParams]:
    a0 = 1.0 if cfg.model is ModelKind.ONE_PL else cfg.start_a
    return [ItemParams(a=a0, b=cfg.start_b) for _ in range(data.n_items)]


def _max_param_delta(old: Sequence[ItemParams], new: Sequence[ItemParams]) -> float:
    return max(
        max(abs(n.a - o.a), abs(n.b - o.b)) for o, n in zip(old, new)
    )


def _run_em(
    data: PatternData,
    cfg: FitConfig,
    mstep,
    enforce_ascent,
    callback: IterationCallback | None = None,
) -> FitResult:
    """Generic EM loop shared by the OLS and Newton-Raphson M-steps.

    mstep(params, counts, grid) must return (new_params, per_item_flags);
    enforce_ascent(ll_old, ll_new, iteration) may raise when the trace
    regresses.  Each visited parameter set gets exactly one pattern
    likelihood pass: posterior() returns the observed log-likelihood with
    the posterior, so the pass after an M-step records that iteration's
    log-likelihood and feeds the next E-step.
    """
    grid = normal_grid(cfg.resolved_quads)
    params = _start_params(data, cfg)
    flags: list[set[str]] = [set() for _ in params]

    post, ll = expectation.posterior(data, params, grid)
    loglik_trace = [ll]
    max_delta_trace: list[float] = []
    phi_max_trace: list[float] = []
    decreases = 0
    converged = False
    iterations = 0

    for iteration in range(1, cfg.max_iter + 1):
        counts = expectation.expected_counts(data, post)
        if callback is not None:
            callback(iteration, params, post, counts)

        new_params, item_flags = mstep(params, counts, grid)
        for item_flagset, new_flags in zip(flags, item_flags):
            item_flagset.update(new_flags)

        phi = expectation.phi_residuals(new_params, counts, grid)
        phi_max_trace.append(float(np.abs(phi).max()))

        delta = _max_param_delta(params, new_params)
        max_delta_trace.append(delta)

        post, ll = expectation.posterior(data, new_params, grid)
        if ll < loglik_trace[-1] - 1e-8:
            decreases += 1
            if enforce_ascent is not None:
                enforce_ascent(loglik_trace[-1], ll, iteration)
        loglik_trace.append(ll)

        params = new_params
        iterations = iteration
        if delta < cfg.tol:
            converged = True
            break

    return FitResult(
        params=params,
        iterations=iterations,
        converged=converged,
        loglik_trace=loglik_trace,
        max_delta_trace=max_delta_trace,
        phi_max_trace=phi_max_trace,
        flags=[sorted(f) for f in flags],
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

    def mstep(params, counts, grid):
        eps = 1.0 / (1.0 + math.exp(log_odds_cap(grid)))
        table = latent_responses(counts, eps=eps)
        new_params, degenerate = ols_mstep(table, grid, cfg.model)
        return new_params, [
            {DEGENERATE_SLOPE} if d else set() for d in degenerate
        ]

    return _run_em(data, cfg, mstep, enforce_ascent=None, callback=callback)
