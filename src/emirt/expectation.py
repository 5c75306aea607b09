"""E-step quantities: posteriors, expected counts, log-likelihoods.

All probability work happens in log space; probabilities are clamped to
[EPS_P, 1 - EPS_P] before any log or division so that extreme nodes can
never produce infinities.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import copy_context
from dataclasses import dataclass
from typing import Sequence

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

    def __reduce__(self):
        # rebuilt from its index, not its message, when a study process sends it
        return type(self), (self.pattern_index,)


@dataclass(frozen=True)
class ExpectedCounts:
    """Posterior-weighted response counts per item and quadrature node.

    n1 : (..., J, T) expected number of correct responses
    nt : (..., T)    expected number of persons at each node

    expected_counts gives one table's (J, T) and (T,) arrays, or, for a
    PatternStack of R equally long tables, (R, J, T) and (R, T) arrays
    whose slices are each table's own; the lockstep EM loop gathers the
    stacks' counts along a leading replication axis.
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
    """Clamped P_j(theta_t) for discriminations a and difficulties b.

    a and b have shape (J,), or (R, J) for R fits; the result has shape
    (J, T) or (R, J, T), and each fit's (J, T) slice is bit-identical to
    the matrix of its own (J,) arrays.
    """
    z = a[..., None] * (grid.nodes - b[..., None])
    return clamp_prob(logistic(z))


# Rows of the pattern table per E-step block.  A block of 2048 x 30 float64
# patterns, its complement and its (2048, T) intermediates stay within a
# 2 MiB L2 cache; a table of at most BLOCK_ROWS patterns is one block.  A
# PatternStack of several tables holds at most BLOCK_ROWS rows in all, so
# it is one block too, and its posterior is no larger than one block's.
BLOCK_ROWS = 2048

# The caller and _helpers pool threads work through the blocks of a larger
# table together; numpy's matmul, exp, log and reductions release the GIL.
# _helpers is one less than the cores this process may use, set on first
# use; the pool is created when it is first needed.
_helpers: int | None = None
_pool: ThreadPoolExecutor | None = None


@contextmanager
def blocks_inline():
    """Run every E-step block on the calling thread inside the with block.

    The processes of a study pool fit under it: together they already
    occupy the cores.  _helpers is restored on exit.
    """
    global _helpers
    saved, _helpers = _helpers, 0
    try:
        yield
    finally:
        _helpers = saved


def _forget_pool() -> None:
    global _pool
    _pool = None


# Threads do not survive fork: a child that reused the parent's pool would hang.
if hasattr(os, "register_at_fork"):  # platforms without it do not fork
    os.register_at_fork(after_in_child=_forget_pool)


def _usable_cores() -> int:
    """Cores in this process's affinity mask, or all cores where there is no mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(block, n_rows: int, *args) -> Sequence:
    """[block(rows, *args) for every row block of an n_rows table], in block order.

    A table of one block runs inline.  The blocks of a larger one are
    handed out in order, one at a time, to the caller and up to _helpers
    pool threads, each helper running under a copy of the caller's context
    so that numpy's error state covers its blocks.  Blocks write disjoint
    rows and the results are kept in block order, so every result is the
    same at any thread count.
    """
    global _helpers, _pool
    if n_rows <= BLOCK_ROWS:
        return (block(slice(0, n_rows), *args),)
    starts = range(0, n_rows, BLOCK_ROWS)
    results = [None] * len(starts)
    todo = enumerate(starts)
    lock = threading.Lock()  # each block is taken by one thread

    def work_through_blocks() -> None:
        while True:
            with lock:
                i, start = next(todo, (None, 0))
            if i is None:
                return
            results[i] = block(slice(start, start + BLOCK_ROWS), *args)

    if _helpers is None:
        _helpers = _usable_cores() - 1
    if _helpers and _pool is None:
        _pool = ThreadPoolExecutor(_helpers, thread_name_prefix="emirt-estep")
    helpers = [
        _pool.submit(copy_context().run, work_through_blocks)
        for _ in range(min(_helpers, len(starts) - 1))
    ]
    try:
        work_through_blocks()
    finally:
        for helper in helpers:
            helper.result()  # waits, and re-raises a helper's error
    return results


@dataclass(frozen=True)
class PatternStack:
    """The equally long pattern tables of R fits, stacked for one E-step call.

    tables      : the R tables, in fit order, of P rows each
    patterns    : (R, P, I) array; slice r is tables[r]'s patterns
    float_freqs : (R, P) float64 array; row r is tables[r]'s frequencies

    n_patterns, n_items and float_freqs read as a table's do, so
    expected_counts takes either.  A one-table stack is a view of its
    table's own arrays.  tables is a list: a study sweep peaked 0.8 MB
    higher when select built a tuple from a generator instead.
    """

    tables: list[PatternData]
    patterns: np.ndarray
    float_freqs: np.ndarray

    @classmethod
    def of(cls, tables: Sequence[PatternData]) -> PatternStack:
        """The stack of tables, which have the same items and the same number of rows."""
        tables = list(tables)
        if len(tables) == 1:
            return cls(tables, tables[0].patterns[None], tables[0].float_freqs[None])
        return cls(
            tables,
            np.stack([data.patterns for data in tables]),
            np.stack([data.float_freqs for data in tables]),
        )

    @classmethod
    def split(cls, tables: Sequence[PatternData]) -> list[PatternStack]:
        """The stacks of consecutive groups of tables, in order.

        A group holds neighbouring tables of one length P, as many as fill
        R * P <= BLOCK_ROWS; a longer table is a group of its own.  So the
        E-step's memory is that of a one-table fit, at any number of fits,
        and every stacked product or sum runs over its fits' own rows.
        """
        groups: list[list[PatternData]] = []
        for data in tables:
            n = data.n_patterns
            if groups and groups[-1][0].n_patterns == n and (len(groups[-1]) + 1) * n <= BLOCK_ROWS:
                groups[-1].append(data)
            else:
                groups.append([data])
        return [cls.of(group) for group in groups]

    @property
    def n_patterns(self) -> int:
        """P, the rows of each table."""
        return self.patterns.shape[1]

    @property
    def n_items(self) -> int:
        return self.patterns.shape[2]

    def select(self, keep: np.ndarray) -> PatternStack:
        """The stack of the tables where keep is true."""
        if keep.all():
            return self
        tables = [data for data, k in zip(self.tables, keep.tolist()) if k]
        return PatternStack(tables, self.patterns[keep], self.float_freqs[keep])


def _normalise_block(rows, patterns, log_p, log_q, log_w, norm, post) -> None:
    """Write one row block's log normalisers into norm and, given post, its posterior.

    patterns is an (R, P, I) stack, log_p and log_q its (R, I, T) logs and
    norm (R, P, 1); the block is the same rows of every slice, and all of
    its work is row-local.  A stacked matmul makes one product per slice,
    over that table's rows of the block, as a one-table call does.
    """
    x_b = patterns[:, rows].astype(np.float64)
    log_joint = x_b @ log_p
    log_joint += (1.0 - x_b) @ log_q
    log_joint += log_w
    peak = np.maximum.reduce(log_joint, axis=-1, keepdims=True)
    norm_b = norm[:, rows]
    np.add(peak, np.log(np.add.reduce(np.exp(log_joint - peak), axis=-1, keepdims=True)),
           out=norm_b)
    if post is not None:
        log_joint -= norm_b
        np.exp(log_joint, out=post[:, rows])


def _log_normalisers(
    stack: PatternStack, prob: np.ndarray, grid: QuadratureGrid, post: np.ndarray | None = None
) -> np.ndarray:
    """log sum_t P(X|theta_t) A_t for every row X of the stack, shape (R, P, 1).

    prob is the (R, J, T) stack of the tables' probability matrices.  Works
    over row blocks of the stack: each block's log joint
    log P(X|theta_t) + log A_t is reduced with log-sum-exp, and, when an
    (R, P, T) post is given, normalised into its rows of post.
    """
    n_fits, n_rows, n_items = stack.patterns.shape
    if prob.shape[1] != n_items:
        raise ValueError(f"expected {n_items} item parameters, got {prob.shape[1]}")
    norm = np.empty((n_fits, n_rows, 1))
    _map_blocks(
        _normalise_block, n_rows,
        stack.patterns, np.log(prob), np.log1p(-prob), grid.log_weights, norm, post,
    )
    return norm


def posterior(data: PatternData | PatternStack, prob: np.ndarray, grid: QuadratureGrid) -> tuple:
    """Posterior P(theta_t | X) over nodes and the observed log-likelihood.

    For one table, prob is the clamped (J, T) response_prob_matrix of the
    parameter set.  Returns (post, loglik).  post has one row per pattern,
    normalized with log-sum-exp so that each row sums to one.  The row
    normalizers are the pattern log-likelihoods log sum_t P(X|theta_t) A_t,
    so their frequency-weighted sum is the observed log-likelihood,
    bit-identical to observed_loglik at the same parameters.  Raises
    PosteriorUnderflowError when a pattern's likelihood underflows.

    For a PatternStack of R equally long tables, prob is the (R, J, T)
    stack of their matrices.  Returns (post, logliks): post is (R, P, T),
    and logliks[r] is fit r's log-likelihood or its
    PosteriorUnderflowError.  Every step, the log-likelihoods' one stacked
    (R, 1, P) @ (R, P, 1) product included, makes one call per slice over
    that table's own rows, so every fit gets the values of a call on its
    table alone, bit for bit.
    """
    stack = data if isinstance(data, PatternStack) else PatternStack.of([data])
    prob = prob if stack is data else prob[None]
    post = np.empty((*stack.patterns.shape[:2], grid.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = _log_normalisers(stack, prob, grid, post)
        sums = (stack.float_freqs[:, None, :] @ norm)[:, 0, 0].tolist()
    # norms of clamped probabilities are far from overflow: a sum is finite iff all its terms are
    logliks = [
        s if math.isfinite(s) else PosteriorUnderflowError(int(np.argmin(np.isfinite(norm[r]))))
        for r, s in enumerate(sums)
    ]
    if stack is data:
        return post, logliks
    (loglik,) = logliks
    if isinstance(loglik, PosteriorUnderflowError):
        raise loglik
    return post[0], loglik


def _count_block(rows, patterns, freqs, post) -> tuple[np.ndarray, np.ndarray]:
    """One row block's (N_t, N1_jt) partial counts, of a table or of each table of a stack."""
    f_b, post_b = freqs[..., None, rows], post[..., rows, :]
    return (f_b @ post_b)[..., 0, :], (patterns[..., rows, :].swapaxes(-1, -2) * f_b) @ post_b


def expected_counts(data: PatternData | PatternStack, post: np.ndarray) -> ExpectedCounts:
    """Expected per-node counts N1_jt and N_t from a posterior table.

    A table and its (P, T) posterior give (J, T) and (T,) counts.  A
    PatternStack of R tables and its (R, P, T) posterior give (R, J, T)
    and (R, T), each fit's slice that of a call on its table alone, bit
    for bit.  The first row block gives the counts, and each further block
    adds its own, in block order.
    """
    parts = _map_blocks(_count_block, data.n_patterns, data.patterns, data.float_freqs, post)
    nt, n1 = parts[0]
    for nt_b, n1_b in parts[1:]:
        nt += nt_b
        n1 += n1_b
    return ExpectedCounts(n1=n1, nt=nt)


def observed_loglik(data: PatternData, prob: np.ndarray, grid: QuadratureGrid) -> float:
    """Marginal log-likelihood sum_X N_X log sum_t P(X|theta_t) A_t.

    The EM loop takes this value from posterior(); this function computes
    it on its own and is the reference the fit traces are tested against.
    """
    norm = _log_normalisers(PatternStack.of([data]), prob[None], grid)
    return float(data.float_freqs @ norm[0, :, 0])


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

    prob is the clamped (J, T) response_prob_matrix of the parameter set,
    or the (R, J, T) stack of R fits' matrices with their stacked counts;
    the result has prob's shape.  The residuals approach zero at the
    marginal maximum likelihood solution, so the matrix doubles as a
    convergence diagnostic.
    """
    n0 = counts.nt[..., None, :] - counts.n1
    return counts.n1 / prob - n0 / (1.0 - prob)

