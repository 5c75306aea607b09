"""Reference estimator: EM whose M-step maximizes Q1 by Newton-Raphson.

Serves as the in-repo oracle for the OLS-based EM, in the EM frame of
Bock & Aitkin (1981).  With logit P = a*theta + tau, each item's part of
the expected complete-data log-likelihood is a binomial logistic
regression of the expected counts (N1_jt, N_t) on the quadrature nodes.
It is concave in (a, tau), its score and 2x2 Hessian are closed-form, and
Newton's method on it is iteratively reweighted least squares (McCullagh
& Nelder, Generalized Linear Models, 1989, ch. 4).  The M-step runs that
iteration on all items at once; no finite differences.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import expectation
from .em_ols import FitConfig, FitResult, _one_fit, _run_em
from .expectation import ExpectedCounts
from .model import ItemParams, ModelKind
from .patterns import PatternData
from .quadrature import QuadratureGrid

# A 2PL Hessian determinant at or below this fraction of I_aa * I_tautau
# is rounding noise (Cauchy-Schwarz makes the fraction 0 when all the
# curvature sits at one node), so the item counts as singular.
_DET_RTOL = 1e-14

# Inner Newton loop controls of nr_mstep.
INNER_MAX_ITER = 50
INNER_TOL = 1e-8
STEP_HALVING_MAX = 20


class MonotonicityViolationError(RuntimeError):
    """The observed log-likelihood decreased during a Newton-Raphson EM fit."""


def _score(
    prob: np.ndarray, n1: np.ndarray, nt: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-item score of Q1 in (a, tau): (sum_t r_t theta_t, sum_t r_t).

    r_t = N1_jt - N_t * P_j(theta_t) are the count residuals.  prob and n1
    are (..., J, T) and nt broadcasts against them; the scores are (..., J).
    """
    resid = n1 - nt * prob
    return resid @ theta, resid.sum(axis=-1)


def _information(
    prob: np.ndarray, nt: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-item entries (I_aa, I_atau, I_tautau) of minus the Q1 Hessian.

    -H = sum_t w_t [theta_t^2, theta_t; theta_t, 1], w_t = N_t P_t (1 - P_t).
    Shapes as in _score.
    """
    weight = nt * prob * (1.0 - prob)
    return weight @ (theta * theta), weight @ theta, weight.sum(axis=-1)


def item_score(
    p: ItemParams, n1_j: np.ndarray, nt: np.ndarray, grid: QuadratureGrid
) -> tuple[float, float]:
    """Gradient of the expected complete-data log-likelihood for one item.

    With residuals r_t = N1_jt - N_t * P_j(theta_t):
        s_a = sum_t (theta_t - b) * r_t
        s_b = -a * sum_t r_t
    """
    prob = expectation.response_prob_matrix(np.array([p.a]), np.array([p.b]), grid)
    g_a, g_tau = _score(prob, n1_j[None, :], nt, grid.nodes)
    return float(g_a[0] - p.b * g_tau[0]), float(-p.a * g_tau[0])


def nr_mstep(
    a: np.ndarray,
    b: np.ndarray,
    counts: ExpectedCounts,
    grid: QuadratureGrid,
    model: ModelKind,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton-Raphson (IRLS) maximization of every item's Q1 in (a, tau).

    Takes and returns (J,) arrays a and b with (J, T) counts, or (R, J)
    arrays with R fits' stacked counts; every item iterates on its own, so
    each fit's row is bit-identical to its one-fit call.  The 1PL keeps a
    fixed and updates tau alone.  A step that lowers an item's Q1 by more
    than the rounding noise of Q1 itself is halved, up to STEP_HALVING_MAX
    times.  An item stops after INNER_MAX_ITER steps, when its (a, b) score
    norm (b alone for the 1PL) falls below INNER_TOL, when no halved step is
    accepted, or when its Hessian is singular (curvature underflowed at
    saturated nodes).
    """
    theta, n1 = grid.nodes, counts.n1
    nt = counts.nt[..., None, :]
    n0 = nt - n1
    two_pl = model is ModelKind.TWO_PL
    tau = -a * b

    def prob_at(a, tau):
        z = a[..., None] * theta + tau[..., None]
        return expectation.clamp_prob(expectation.logistic(z))

    def item_q1(prob):
        return (n1 * np.log(prob) + n0 * np.log1p(-prob)).sum(axis=-1)

    prob = prob_at(a, tau)
    q = item_q1(prob)
    slack = 1e-13 * np.maximum(1.0, np.abs(q))
    active = np.ones(a.shape, dtype=bool)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(INNER_MAX_ITER):
            g_a, g_tau = _score(prob, n1, nt, theta)
            i_aa, i_at, i_tt = _information(prob, nt, theta)
            if two_pl:
                norm = np.hypot(g_a + tau / a * g_tau, a * g_tau)
                det = i_aa * i_tt - i_at * i_at
                # curvature at a single node leaves det at rounding level
                solvable = det > _DET_RTOL * i_aa * i_tt
                step_a = (i_tt * g_a - i_at * g_tau) / det
                step_tau = (i_aa * g_tau - i_at * g_a) / det
            else:
                norm = np.abs(a * g_tau)
                solvable = i_tt > 0
                step_a = np.zeros_like(a)
                step_tau = g_tau / i_tt
            active &= (norm >= INNER_TOL) & solvable
            if not active.any():
                break

            pending = active.copy()
            step = 1.0
            for _ in range(STEP_HALVING_MAX + 1):
                a_try = np.where(pending, a + step * step_a, a)
                tau_try = np.where(pending, tau + step * step_tau, tau)
                prob_try = prob_at(a_try, tau_try)
                q_try = item_q1(prob_try)
                accept = pending & (q_try >= q - slack) & (a_try != 0.0)
                a = np.where(accept, a_try, a)
                tau = np.where(accept, tau_try, tau)
                q = np.where(accept, np.maximum(q_try, q), q)
                np.copyto(prob, prob_try, where=accept[..., None])
                pending &= ~accept
                if not pending.any():
                    break
                step *= 0.5
            active &= ~pending  # stalled at numerical stationarity

    return a, -tau / a


def _make_nr_mstep(grid: QuadratureGrid, model: ModelKind):
    def mstep(a, b, counts):
        return (*nr_mstep(a, b, counts, grid, model), np.zeros(a.shape, dtype=bool))  # no item flags

    return mstep


def fit_nr(data: PatternData, cfg: FitConfig) -> FitResult:
    """EM fit with the Newton-Raphson M-step.

    Because each M-step cannot decrease the expected log-likelihood, the
    observed log-likelihood trace must be non-decreasing (slack 1e-8); a
    violation means the step-halving safeguard failed and raises.
    """
    return _one_fit(_run_em([data], cfg, _make_nr_mstep, MonotonicityViolationError))


def fit_nr_lockstep(datas: Sequence[PatternData], cfg: FitConfig) -> list[FitResult | Exception]:
    """fit_nr on every table in datas, run in lockstep.

    Returns, per table, the FitResult that fit_nr would return, bit for
    bit, or the exception it would raise.
    """
    return _run_em(datas, cfg, _make_nr_mstep, MonotonicityViolationError)
