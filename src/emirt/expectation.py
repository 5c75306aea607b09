"""E-step quantities: posteriors, expected counts, log-likelihoods.

All probability work happens in log space; probabilities are clamped to
[EPS_P, 1 - EPS_P] before any log or division so that extreme nodes can
never produce infinities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .patterns import PatternData
from .quadrature import QuadratureGrid

EPS_P = 1e-10


class PosteriorUnderflowError(ArithmeticError):
    """A pattern's mixture likelihood underflowed to zero at every node."""

    def __init__(self, pattern_index: int):
        super().__init__(
            f"posterior normalization underflowed for pattern {pattern_index}"
        )
        self.pattern_index = pattern_index


@dataclass(frozen=True)
class ExpectedCounts:
    """Posterior-weighted response counts per item and quadrature node.

    n1 : (J, T) expected number of correct responses
    nt : (T,)  expected number of persons at each node
    """

    n1: np.ndarray
    nt: np.ndarray


def logistic(z: np.ndarray) -> np.ndarray:
    """Elementwise exp(z) / (1 + exp(z)), overflow-safe for either sign of z.

    1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) otherwise, so
    the exponential never exceeds one.
    """
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def clamp_prob(prob: np.ndarray) -> np.ndarray:
    """np.clip(prob, EPS_P, 1 - EPS_P) without np.clip's Python-level dispatch."""
    return np.minimum(np.maximum(prob, EPS_P), 1.0 - EPS_P)


def response_prob_matrix(a: np.ndarray, b: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Clamped P_j(theta_t) for discriminations a and difficulties b, shape (J, T)."""
    z = a[:, None] * (grid.nodes[None, :] - b[:, None])
    return clamp_prob(logistic(z))


def _pattern_logliks(data: PatternData, prob: np.ndarray) -> np.ndarray:
    """log P(X | theta_t) for every pattern X and node t, shape (P, T)."""
    if len(prob) != data.n_items:
        raise ValueError(f"expected {data.n_items} item parameters, got {len(prob)}")
    log_p = np.log(prob)
    log_q = np.log1p(-prob)
    x = data.float_patterns
    return x @ log_p + (1.0 - x) @ log_q


def _logsumexp_rows(m: np.ndarray) -> np.ndarray:
    peak = np.maximum.reduce(m, axis=1, keepdims=True)
    return (peak + np.log(np.add.reduce(np.exp(m - peak), axis=1, keepdims=True))).ravel()


def posterior(
    data: PatternData, prob: np.ndarray, grid: QuadratureGrid
) -> tuple[np.ndarray, float]:
    """Posterior P(theta_t | X) over nodes and the observed log-likelihood.

    prob is the clamped (J, T) response_prob_matrix of the parameter set.
    Returns (post, loglik).  post has one row per pattern, normalized with
    log-sum-exp so that each row sums to one.  The row normalizers are the
    pattern log-likelihoods log sum_t P(X|theta_t) A_t, so their
    frequency-weighted sum is the observed log-likelihood, bit-identical
    to observed_loglik at the same parameters.  Raises
    PosteriorUnderflowError when a pattern's likelihood underflows.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_joint = _pattern_logliks(data, prob) + np.log(grid.weights)[None, :]
        norm = _logsumexp_rows(log_joint)
        loglik = float(data.freqs @ norm)
    # norms of clamped probabilities are far from overflow: the sum is finite iff all are
    if not math.isfinite(loglik):
        raise PosteriorUnderflowError(int(np.argmin(np.isfinite(norm))))
    return np.exp(log_joint - norm[:, None]), loglik


def expected_counts(data: PatternData, post: np.ndarray) -> ExpectedCounts:
    """Expected per-node counts N1_jt and N_t from a posterior table."""
    freqs = data.freqs.astype(np.float64)
    nt = freqs @ post
    weighted = data.float_patterns.T * freqs[None, :]
    n1 = weighted @ post
    return ExpectedCounts(n1=n1, nt=nt)


def observed_loglik(data: PatternData, prob: np.ndarray, grid: QuadratureGrid) -> float:
    """Marginal log-likelihood sum_X N_X log sum_t P(X|theta_t) A_t.

    The EM loop takes this value from posterior(); this function computes
    it on its own and is the reference the fit traces are tested against.
    """
    log_joint = _pattern_logliks(data, prob) + np.log(grid.weights)[None, :]
    return float(data.freqs @ _logsumexp_rows(log_joint))


def q1(prob: np.ndarray, counts: ExpectedCounts) -> float:
    """Item-parameter part of the expected complete-data log-likelihood.

    prob is the clamped (J, T) response_prob_matrix of the parameter set.
    """
    return float(
        np.sum(counts.n1 * np.log(prob))
        + np.sum((counts.nt[None, :] - counts.n1) * np.log1p(-prob))
    )


def phi_residuals(prob: np.ndarray, counts: ExpectedCounts) -> np.ndarray:
    """Per-item, per-node stationarity residuals N1/P - N0/(1-P).

    prob is the clamped (J, T) response_prob_matrix of the parameter set.
    The residuals approach zero at the marginal maximum likelihood
    solution, so the matrix doubles as a convergence diagnostic.
    """
    n0 = counts.nt[None, :] - counts.n1
    return counts.n1 / prob - n0 / (1.0 - prob)

