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
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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
    PatternStack of R tables, (R, J, T) and (R, T) arrays whose slices are
    each table's own; the lockstep EM loop gathers the stacks' counts
    along a leading replication axis.
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
# patterns and its (2048, T) intermediates stay within a 2 MiB L2 cache; a
# table of at most BLOCK_ROWS patterns is one block.  A PatternStack of
# several tables holds at most BLOCK_ROWS rows in all, so it is one block
# too, and its posterior is no larger than one block's.  The blocks of a
# larger table run through one fused kernel (_estep_block): one product,
# one exp, and the counts taken while the block is in cache.  A one-block
# stack keeps the two-product row-major arithmetic, bit for bit, so that
# every study CSV stays byte-identical until the reference is re-recorded.
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


class Run(NamedTuple):
    """Neighbouring tables of one length P in a PatternStack, and views of their rows.

    fits and rows are the slices of the k tables and of their rows in the
    stack, and shape is (k, P, -1).  freqs is the (k, 1, P) view of their
    frequencies; x, x_c and xf_t are the (k, P, I), (k, P, I) and (k, I, P)
    views of the stack's operands, or None for a stack without them.
    """

    fits: slice
    rows: slice
    shape: tuple[int, int, int]
    freqs: np.ndarray
    x: np.ndarray | None
    x_c: np.ndarray | None
    xf_t: np.ndarray | None


@dataclass(frozen=True, eq=False)
class PatternStack:
    """The pattern tables of R fits, their rows stacked for one E-step call.

    tables      : the R tables, in fit order
    patterns    : (rows, I) array of the tables' patterns, table after table
    float_freqs : (rows,) float64 array of their frequencies
    operands    : x, 1 - x and the f-weighted x, the (rows, I) float64
                  operands of a stack of at most BLOCK_ROWS rows, built
                  once; None for a longer table, whose blocks build theirs
    runs        : a Run per run of neighbouring tables of one length, in order

    n_patterns (the rows in all), n_items and float_freqs read as a
    table's do.  A one-table stack holds its table's own arrays.  tables is
    a list: a study sweep peaked 0.8 MB higher when select built a tuple
    from a generator instead.
    """

    tables: list[PatternData]
    patterns: np.ndarray
    float_freqs: np.ndarray
    operands: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(init=False)
    runs: list[Run] = field(init=False)

    def __post_init__(self):
        operands = None
        if len(self.patterns) <= BLOCK_ROWS:
            x = self.patterns.astype(np.float64)
            operands = (x, 1.0 - x, x * self.float_freqs[:, None])
        runs = []
        fit = row = 0
        for n, group in itertools.groupby(data.n_patterns for data in self.tables):
            k = sum(1 for _ in group)
            rows = slice(row, row + k * n)
            views = [None] * 3
            if operands is not None:
                x, x_c, xf = (operand[rows].reshape(k, n, -1) for operand in operands)
                views = [x, x_c, xf.swapaxes(-1, -2)]
            freqs = self.float_freqs[rows].reshape(k, 1, n)
            runs.append(Run(slice(fit, fit + k), rows, (k, n, -1), freqs, *views))
            fit, row = fit + k, row + k * n
        object.__setattr__(self, "operands", operands)
        object.__setattr__(self, "runs", runs)

    @classmethod
    def of(cls, tables: Sequence[PatternData]) -> PatternStack:
        """The stack of tables, which have the same items."""
        tables = list(tables)
        if len(tables) == 1:
            return cls(tables, tables[0].patterns, tables[0].float_freqs)
        return cls(
            tables,
            np.concatenate([data.patterns for data in tables]),
            np.concatenate([data.float_freqs for data in tables]),
        )

    @classmethod
    def split(cls, tables: Sequence[PatternData]) -> list[PatternStack]:
        """The stacks of consecutive groups of tables, in order.

        A group holds neighbouring tables, as many as fill at most
        BLOCK_ROWS rows in all; a longer table is a group of its own.  So
        an E-step call's buffers are those of a one-table fit, at any
        number of fits.  Tables ordered by length make the fewest runs.
        """
        groups: list[list[PatternData]] = []
        rows = 0
        for data in tables:
            n = data.n_patterns
            if groups and rows + n <= BLOCK_ROWS:
                groups[-1].append(data)
                rows += n
            else:
                groups.append([data])
                rows = n
        return [cls.of(group) for group in groups]

    @property
    def n_patterns(self) -> int:
        """The rows of all of the tables."""
        return self.patterns.shape[0]

    @property
    def n_items(self) -> int:
        return self.patterns.shape[1]

    def rows_of(self, k: int) -> slice:
        """The rows of tables[k]."""
        start = sum(data.n_patterns for data in self.tables[:k])
        return slice(start, start + self.tables[k].n_patterns)

    def select(self, keep: np.ndarray) -> PatternStack:
        """The stack of the tables where keep is true."""
        if keep.all():
            return self
        tables = [data for data, k in zip(self.tables, keep.tolist()) if k]
        rows = np.repeat(keep, [data.n_patterns for data in self.tables])
        return PatternStack(tables, self.patterns[rows], self.float_freqs[rows])


def _normalise_block(rows, stack, log_p, log_q, log_w, norm, post) -> None:
    """Write a one-block stack's log normalisers into norm and, given post, its posterior.

    log_p and log_q are the (R, I, T) logs of the stack's R probability
    matrices, norm is (rows, 1) and post (rows, T).  Each of the stack's
    runs makes each log-joint product with one stacked matmul into the
    (rows, T) buffers: it makes one product per table, over that table's
    own rows, as a one-table call does.  The rest is row-local and runs
    once over all of the rows, reducing over the short node axis of each
    row.  This keeps the two-product form x log P + (1 - x) log(1 - P):
    _estep_block's one product rounds differently, and every study CSV
    must stay byte-identical until the benchmark's reference is
    re-recorded (ROADMAP item 3).
    """
    log_joint = np.empty((len(stack.patterns), log_p.shape[-1]))
    # the second product can go into post, which the exp below overwrites
    part = np.empty_like(log_joint) if post is None else post
    for run in stack.runs:
        np.matmul(run.x, log_p[run.fits], out=log_joint[run.rows].reshape(run.shape))
        np.matmul(run.x_c, log_q[run.fits], out=part[run.rows].reshape(run.shape))
    log_joint += part
    log_joint += log_w
    peak = np.maximum.reduce(log_joint, axis=-1, keepdims=True)
    norm_b = norm[rows]
    np.add(peak, np.log(np.add.reduce(np.exp(log_joint - peak), axis=-1, keepdims=True)),
           out=norm_b)
    if post is not None:
        log_joint -= norm_b
        np.exp(log_joint, out=post[rows])


def _estep_block(rows, stack, log_odds, base, norm, post, count):
    """One pass over a row block of a table larger than BLOCK_ROWS.

    log_odds is the table's (I, T) log P - log(1 - P) and base the (T, 1)
    sum over items of log(1 - P) plus the log weights, so that the block's
    (T, rows) log joint x log P + (1 - x) log(1 - P) + log A is one product
    plus base.  The block works node-major: its peak and sums reduce over
    contiguous rows, about ten times faster at T = 10 than over each row's
    T nodes.  One in-place exp of the log joint less its peak gives the
    sums, and norm[rows] = peak + log(sums).  Given post or count, the
    block is divided by its sums into its posterior, written to the (T, P)
    buffer behind post when there is one; given count, it is weighted by
    the frequencies in place, and the block's (1, T) N_t and (1, I, T) N1
    are returned as _count_block would take them from that posterior.
    """
    x_b = stack.patterns[rows].astype(np.float64)
    block = log_odds.T @ x_b.T
    block += base
    peak = np.maximum.reduce(block, axis=0)
    block -= peak
    np.exp(block, out=block)
    sums = np.add.reduce(block, axis=0)
    np.add(peak, np.log(sums), out=norm[rows, 0])
    if post is not None or count:
        block /= sums
    if post is not None:
        post.T[:, rows] = block
    if count:
        block *= stack.float_freqs[rows]
        return _node_major_counts(x_b, block)


def _node_major_counts(x_b, weighted) -> tuple[np.ndarray, np.ndarray]:
    """The (1, T) N_t and (1, I, T) N1 of a block's float rows and its C-ordered
    (T, rows) frequency-weighted posterior."""
    return np.add.reduce(weighted, axis=1)[None], (x_b.T @ weighted.T)[None]


def _blocks_pass(stack, prob, grid, post=None, count=False) -> tuple:
    """_estep_block over every block of a one-table stack: (norm, counts or None).

    prob is the stack's (1, J, T) probability matrix; norm is (rows, 1),
    and counts, given count, the (1, J, T) and (1, T) ExpectedCounts.
    """
    log_p, log_q = np.log(prob[0]), np.log1p(-prob[0])
    base = (np.add.reduce(log_q, axis=0) + grid.log_weights)[:, None]
    norm = np.empty((stack.n_patterns, 1))
    parts = _map_blocks(_estep_block, stack.n_patterns, stack, log_p - log_q, base, norm, post, count)
    return norm, _sum_counts(parts) if count else None


def _log_normalisers(
    stack: PatternStack, prob: np.ndarray, grid: QuadratureGrid, post: np.ndarray | None = None
) -> np.ndarray:
    """log sum_t P(X|theta_t) A_t for every row X of the stack, shape (rows, 1).

    prob is the (R, J, T) stack of the tables' probability matrices, whose
    logs are taken once here.  Each block's log joint log P(X|theta_t) +
    log A_t is reduced with log-sum-exp, and, when a (rows, T) post is
    given, normalised into its rows of post: by _normalise_block for a
    one-block stack, and by _estep_block for a larger table.
    """
    if prob.shape[1] != stack.n_items:
        raise ValueError(f"expected {stack.n_items} item parameters, got {prob.shape[1]}")
    if stack.operands is None:
        return _blocks_pass(stack, prob, grid, post)[0]
    norm = np.empty((stack.n_patterns, 1))
    _map_blocks(
        _normalise_block, stack.n_patterns,
        stack, np.log(prob), np.log1p(-prob), grid.log_weights, norm, post,
    )
    return norm


def _logliks(stack: PatternStack, norm: np.ndarray) -> list:
    """Each fit's log-likelihood f . norm, or its PosteriorUnderflowError: one
    stacked product per run of equally long tables."""
    logliks = []
    for run in stack.runs:
        norms = norm[run.rows].reshape(run.shape)
        sums = run.freqs @ norms
        # norms of clamped probabilities are far from overflow: a sum is finite iff all its terms are
        logliks += [
            s if math.isfinite(s) else PosteriorUnderflowError(int(np.argmin(np.isfinite(n))))
            for s, n in zip(sums[:, 0, 0].tolist(), norms)
        ]
    return logliks


def posterior(data: PatternData | PatternStack, prob: np.ndarray, grid: QuadratureGrid) -> tuple:
    """Posterior P(theta_t | X) over nodes and the observed log-likelihood.

    For one table, prob is the clamped (J, T) response_prob_matrix of the
    parameter set.  Returns (post, loglik).  post has one row per pattern,
    normalized with log-sum-exp so that each row sums to one.  The row
    normalizers are the pattern log-likelihoods log sum_t P(X|theta_t) A_t,
    so their frequency-weighted sum is the observed log-likelihood,
    bit-identical to observed_loglik at the same parameters.  Raises
    PosteriorUnderflowError when a pattern's likelihood underflows.

    For a PatternStack of R tables of any lengths, prob is the (R, J, T)
    stack of their matrices.  Returns (post, logliks): post is (rows, T),
    table r's posterior in its rows_of(r), and logliks[r] is fit r's
    log-likelihood or its PosteriorUnderflowError.  The log-joint products
    and the log-likelihoods' sums make one stacked call per run of equally
    long tables, one product per table over its own rows; the rest is
    row-local and runs once over the stack.  So every fit gets the values
    of a call on its table alone, bit for bit.

    A table of more than BLOCK_ROWS patterns runs the kernel of
    fused_estep, which writes its posterior node-major into a (T, P)
    buffer: post is that buffer's transpose, the same (P, T) posterior by
    value, read column-major in memory, and bit-identical to the one
    fused_estep gives.
    """
    stack = data if isinstance(data, PatternStack) else PatternStack.of([data])
    prob = prob if stack is data else prob[None]
    if stack.operands is None:  # written node-major by _estep_block
        post = np.empty((grid.size, stack.n_patterns)).T
    else:
        post = np.empty((stack.n_patterns, grid.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        logliks = _logliks(stack, _log_normalisers(stack, prob, grid, post))
    if stack is data:
        return post, logliks
    (loglik,) = logliks
    if isinstance(loglik, PosteriorUnderflowError):
        raise loglik
    return post, loglik


def fused_estep(stack: PatternStack, prob: np.ndarray, grid: QuadratureGrid,
                keep_post: bool = False) -> tuple:
    """posterior and expected_counts of a table larger than BLOCK_ROWS, in one pass.

    stack is the one-table stack of such a table and prob its (1, J, T)
    probability matrix.  Returns (post, logliks, counts): the post and
    logliks of posterior(stack, prob, grid) and the counts of
    expected_counts on that post, bit for bit, with post None unless
    keep_post is true.  Each block runs _estep_block once, converting its
    float rows once.
    """
    post = np.empty((grid.size, stack.n_patterns)).T if keep_post else None
    with np.errstate(divide="ignore", invalid="ignore"):
        norm, counts = _blocks_pass(stack, prob, grid, post, count=True)
        return post, _logliks(stack, norm), counts


def _count_block(rows, stack, post) -> tuple[np.ndarray, np.ndarray]:
    """One row block's partial (R, T) N_t and (R, I, T) N1_jt for the stack's R tables.

    A one-block stack makes one stacked product per run for each count.  A
    longer table reads its block node-major, as the (T, rows) post.T[:, rows]
    that posterior wrote, and counts it as _estep_block does.
    """
    if stack.operands is None:
        # a C-ordered product, whatever post's layout, so the sums add in one order
        weighted = np.multiply(post.T[:, rows], stack.float_freqs[rows], order="C")
        return _node_major_counts(stack.patterns[rows].astype(np.float64), weighted)
    nt = np.empty((len(stack.tables), post.shape[1]))
    n1 = np.empty((len(stack.tables), stack.patterns.shape[1], post.shape[1]))
    for run in stack.runs:
        post_r = post[run.rows].reshape(run.shape)
        nt[run.fits] = (run.freqs @ post_r)[:, 0]
        np.matmul(run.xf_t, post_r, out=n1[run.fits])
    return nt, n1


def _sum_counts(parts: Sequence) -> ExpectedCounts:
    """The first block's (nt, n1) plus each further block's, in block order."""
    nt, n1 = parts[0]
    for nt_b, n1_b in parts[1:]:
        nt += nt_b
        n1 += n1_b
    return ExpectedCounts(n1=n1, nt=nt)


def expected_counts(data: PatternData | PatternStack, post: np.ndarray) -> ExpectedCounts:
    """Expected per-node counts N1_jt and N_t from a posterior table.

    A table and its (P, T) posterior give (J, T) and (T,) counts.  A
    PatternStack of R tables and its (rows, T) posterior give (R, J, T)
    and (R, T), each fit's slice that of a call on its table alone, bit
    for bit: each count is one stacked product per run of equally long
    tables.  The first row block gives the counts, and each further block
    adds its own, in block order.
    """
    stack = data if isinstance(data, PatternStack) else PatternStack.of([data])
    counts = _sum_counts(_map_blocks(_count_block, stack.n_patterns, stack, post))
    if stack is data:
        return counts
    return ExpectedCounts(n1=counts.n1[0], nt=counts.nt[0])


def observed_loglik(data: PatternData, prob: np.ndarray, grid: QuadratureGrid) -> float:
    """Marginal log-likelihood sum_X N_X log sum_t P(X|theta_t) A_t.

    The EM loop takes this value from posterior(); this function computes
    it on its own and is the reference the fit traces are tested against.
    """
    norm = _log_normalisers(PatternStack.of([data]), prob[None], grid)
    return float(data.float_freqs @ norm[:, 0])


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

