"""E-step quantities: posteriors, expected counts, log-likelihoods.

All probability work happens in log space; probabilities are clamped to
[EPS_P, 1 - EPS_P] before any log or division so that extreme nodes can
never produce infinities.
"""
from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import copy_context
from dataclasses import dataclass
from functools import cached_property
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

    expected_counts gives one fit's (J, T) and (T,) arrays, summed over that
    fit's own patterns only; the lockstep EM loop stacks R fits' counts
    along a leading replication axis.  The posteriors they come from are
    stacked, but the counts are not: a zero-padded (P_max,) @
    (P_max, T) product for nt moved fits by up to 6.0e-4 at T = 15.
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
    """The pattern tables of R fits, stacked for one E-step call.

    tables   : the R tables, in fit order
    patterns : (R, P_max, I) array; slice r holds the P_r rows of tables[r],
               then zero rows up to P_max, the longest table's row count
    runs     : (fits, n) for each run of neighbouring tables of n rows

    n_patterns and n_items read as a table's do.  A one-table stack is a
    view of its table's own array.  tables is a list: a study sweep peaked
    0.8 MB higher when select built a tuple from a generator instead.
    """

    tables: list[PatternData]
    patterns: np.ndarray

    @classmethod
    def of(cls, tables: Sequence[PatternData]) -> PatternStack:
        """The stack of tables, which have the same items."""
        tables = list(tables)
        if len(tables) == 1:
            return cls(tables, tables[0].patterns[None])
        patterns = np.zeros(
            (len(tables), max(data.n_patterns for data in tables), tables[0].n_items),
            dtype=np.result_type(*(data.patterns for data in tables)),
        )
        for rows, data in zip(patterns, tables):
            rows[: data.n_patterns] = data.patterns
        return cls(tables, patterns)

    @classmethod
    def split(cls, tables: Sequence[PatternData]) -> list[PatternStack]:
        """The stacks of consecutive groups of tables, in order.

        A group grows while its R tables, padded to its longest table's
        P_max rows, fill R * P_max <= BLOCK_ROWS; a longer table is a group
        of its own.  So the E-step's memory is that of a one-table fit, at
        any number of fits.
        """
        groups, group, longest = [], [], 0
        for data in tables:
            if group and (len(group) + 1) * max(longest, data.n_patterns) > BLOCK_ROWS:
                groups.append(group)
                group, longest = [], 0
            group.append(data)
            longest = max(longest, data.n_patterns)
        return [cls.of(group) for group in groups + [group] if group]

    @cached_property
    def runs(self) -> list[tuple[slice, int]]:
        """(fits, n) for each run of neighbouring tables of n rows, in order.

        Built once per stack: grouping in each E-step call cost about 10 us.
        """
        runs, end = [], 0
        for n, tables in itertools.groupby(data.n_patterns for data in self.tables):
            start, end = end, end + len(list(tables))
            runs.append((slice(start, end), n))
        return runs

    @property
    def n_patterns(self) -> int:
        """P_max, the rows of each table's slice."""
        return self.patterns.shape[1]

    @property
    def n_items(self) -> int:
        return self.patterns.shape[2]

    def select(self, keep: np.ndarray) -> PatternStack:
        """The stack of the tables where keep is true, padded to the longest of them."""
        if keep.all():
            return self
        tables = [data for data, k in zip(self.tables, keep.tolist()) if k]
        return PatternStack(tables, self.patterns[keep, : max(data.n_patterns for data in tables)])


def _normalise_block(rows, patterns, runs, log_p, log_q, log_w, norm, post) -> None:
    """Write one row block's log normalisers into norm and, given post, its posterior.

    patterns is an (R, P, I) stack, log_p and log_q its (R, I, T) logs and
    norm (R, P, 1); the block is the same rows of every slice, and all of
    its work is row-local.  runs are (fits, n) pairs: the slice of
    neighbouring fits whose tables have n rows.  Their pattern products
    are one call over their own rows of the block only, and padding rows
    get a zero log joint: OpenBLAS can round a row of a product
    differently with the number of rows in the call (at 20 items and
    T = 10), so a product over zero-padded rows would not be the table's
    own.
    """
    x_b = patterns[:, rows].astype(np.float64)
    if len(runs) == 1:  # equally long tables, as one table is: no padding rows
        log_joint = x_b @ log_p
        log_joint += (1.0 - x_b) @ log_q
    else:
        log_joint = np.zeros((*x_b.shape[:2], log_w.size))
        for fits, n in runs:
            x = x_b[fits, : max(n - rows.start, 0)]
            product = x @ log_p[fits]
            product += (1.0 - x) @ log_q[fits]
            log_joint[fits, : x.shape[1]] = product
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
    """log sum_t P(X|theta_t) A_t for every row X of the stack, shape (R, P_max, 1).

    prob is the (R, J, T) stack of the tables' probability matrices.  Works
    over row blocks of the stack: each block's log joint
    log P(X|theta_t) + log A_t is reduced with log-sum-exp, and, when an
    (R, P_max, T) post is given, normalised into its rows of post.
    """
    n_fits, n_rows, n_items = stack.patterns.shape
    if prob.shape[1] != n_items:
        raise ValueError(f"expected {n_items} item parameters, got {prob.shape[1]}")
    norm = np.empty((n_fits, n_rows, 1))
    _map_blocks(
        _normalise_block, n_rows,
        stack.patterns, stack.runs, np.log(prob), np.log1p(-prob), grid.log_weights, norm, post,
    )
    return norm


def _loglik(data: PatternData, norm: np.ndarray) -> float | PosteriorUnderflowError:
    """data's observed log-likelihood from the (P_max, 1) normalisers of its slice.

    Sums over data's own rows only.  Or, when a pattern's likelihood
    underflowed, the error naming it.
    """
    norm = norm[: data.n_patterns, 0]
    loglik = float(data.float_freqs @ norm)
    # norms of clamped probabilities are far from overflow: the sum is finite iff all are
    if math.isfinite(loglik):
        return loglik
    return PosteriorUnderflowError(int(np.argmin(np.isfinite(norm))))


def posterior(data: PatternData | PatternStack, prob: np.ndarray, grid: QuadratureGrid) -> tuple:
    """Posterior P(theta_t | X) over nodes and the observed log-likelihood.

    For one table, prob is the clamped (J, T) response_prob_matrix of the
    parameter set.  Returns (post, loglik).  post has one row per pattern,
    normalized with log-sum-exp so that each row sums to one.  The row
    normalizers are the pattern log-likelihoods log sum_t P(X|theta_t) A_t,
    so their frequency-weighted sum is the observed log-likelihood,
    bit-identical to observed_loglik at the same parameters.  Raises
    PosteriorUnderflowError when a pattern's likelihood underflows.

    For a PatternStack of R fits, prob is the (R, J, T) stack of their
    matrices.  The log-sum-exp and exp run once over the stacked row
    blocks, and the pattern products once per run of tables of one length,
    over their own rows; PatternStack.split bounds a stack's size.
    Returns (post, logliks): post is
    (R, P_max, T), valid in the first P_r rows of slice r, and logliks[r]
    is fit r's log-likelihood or its PosteriorUnderflowError.  Each
    log-likelihood sums over its own fit's rows only, so every fit gets
    the values of a call on its table alone, bit for bit.  No reduction
    over patterns is stacked: a sum over zero-padded rows rounds
    differently, as a stacked N_t did (by up to 6.0e-4 at T = 15).
    """
    stack = data if isinstance(data, PatternStack) else PatternStack.of([data])
    prob = prob if stack is data else prob[None]
    post = np.empty((*stack.patterns.shape[:2], grid.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = _log_normalisers(stack, prob, grid, post)
        logliks = list(map(_loglik, stack.tables, norm))
    if stack is data:
        return post, logliks
    (loglik,) = logliks
    if isinstance(loglik, PosteriorUnderflowError):
        raise loglik
    return post[0], loglik


def _count_block(rows, patterns, freqs, post) -> tuple[np.ndarray, np.ndarray]:
    """One row block's (N_t, N1_jt) partial counts."""
    f_b, post_b = freqs[rows], post[rows]
    return f_b @ post_b, (patterns[rows].T * f_b) @ post_b


def expected_counts(data: PatternData, post: np.ndarray) -> ExpectedCounts:
    """Expected per-node counts N1_jt and N_t from a posterior table.

    The first row block of the pattern table gives the counts, and each
    further block adds its own, in block order.
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

