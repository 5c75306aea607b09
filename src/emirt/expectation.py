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

    For a PatternStack of R tables, expected_counts and estep give (R, J, T)
    and (R, T) arrays whose slices are each table's own; the lockstep EM
    loop gathers the stacks' counts along a leading replication axis.
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
# too, and its posterior is no larger than one block's.  Only estep takes
# a larger table; its blocks run through one fused kernel (_estep_block):
# two np.dot products of the block's patterns and a row of ones, one exp
# and one scaling pass, with the counts taken while the block is in cache
# and no posterior kept.  A one-block stack keeps the two-product
# row-major arithmetic, bit for bit, so that every study CSV stays
# byte-identical until the reference is re-recorded.
BLOCK_ROWS = 2048

# The caller and _helpers pool threads work through the blocks of a larger
# table together.  np.dot, exp, log and the reductions release the GIL, so
# the blocks overlap.  matmul (@) holds it on the counts product's
# transposed operands: a pure-Python thread ran at half its idle rate
# beside it, and at 0.95-1.03 beside np.dot on the same operands.
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

    The blocks of a table over BLOCK_ROWS rows are handed out in order, one
    at a time, to the caller and up to _helpers pool threads, each helper
    running under a copy of the caller's context so that numpy's error
    state covers its blocks.  Blocks write disjoint rows and the results
    are kept in block order, so every result is the same at any thread
    count.
    """
    global _helpers, _pool
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
    table's do.  A one-table stack holds its table's own arrays.
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


def _one_block(stack: PatternStack) -> None:
    """Raise ValueError for a stack over BLOCK_ROWS rows: only estep takes it."""
    if stack.operands is None:
        raise ValueError(
            f"a table of {stack.n_patterns} patterns spans several blocks of {BLOCK_ROWS} rows; "
            "only estep takes it"
        )


def _log_normalisers(stack, prob, grid, post=None) -> np.ndarray:
    """A one-block stack's (rows, 1) log normalisers log sum_t P(X|theta_t) A_t;
    given a (rows, T) post, its posterior too.

    prob is the (R, J, T) stack of the tables' probability matrices, whose
    logs are taken once here.  Each of the stack's runs makes each
    log-joint product with one stacked matmul into the (rows, T) buffers:
    it makes one product per table, over that table's own rows, as a
    one-table call does.  The rest is row-local and runs once over all of
    the rows.  Each row's peak is taken node-major, over a contiguous
    (T, rows) copy, several times faster than along its few nodes and
    exact in any order; the log-sum-exp sum stays on the row-major node
    axis, whose summation order is numpy's.  This keeps
    the two-product form x log P + (1 - x) log(1 - P): _estep_block's one
    product rounds differently, and every study CSV must stay
    byte-identical until the benchmark's reference is re-recorded
    (ROADMAP item 3).
    """
    want = (len(stack.tables), stack.n_items, grid.size)
    if prob.shape != want:
        raise ValueError(f"expected probabilities of shape {want}, got {prob.shape}")
    log_p, log_q = np.log(prob), np.log1p(-prob)
    log_joint = np.empty((len(stack.patterns), log_p.shape[-1]))
    # the second product can go into post, which the exp below overwrites
    part = np.empty_like(log_joint) if post is None else post
    for run in stack.runs:
        np.matmul(run.x, log_p[run.fits], out=log_joint[run.rows].reshape(run.shape))
        np.matmul(run.x_c, log_q[run.fits], out=part[run.rows].reshape(run.shape))
    log_joint += part
    log_joint += grid.log_weights
    peak = np.maximum.reduce(log_joint.T.copy(), axis=0)[:, None]
    norm = peak + np.log(np.add.reduce(np.exp(log_joint - peak), axis=-1, keepdims=True))
    if post is not None:
        log_joint -= norm
        np.exp(log_joint, out=post)
    return norm


def _estep_block(rows, stack, weights, norm):
    """One pass over a row block of a table larger than BLOCK_ROWS: its counts.

    The block's float operand is its (I + 1, rows) patterns with a last row
    of ones, and weights is the table's (I + 1, T): log P - log(1 - P) per
    item and, last, the sum over items of log(1 - P) plus the log weights.
    So one product gives the block's (T, rows) log joint
    x log P + (1 - x) log(1 - P) + log A.  The block works node-major: its
    peak and sums reduce over contiguous rows, about ten times faster at
    T = 10 than over each row's T nodes.  One in-place exp of the log joint
    less its peak gives the sums, and norm[rows] = peak + log(sums).  One
    in-place scaling by the frequencies over the sums turns the block into
    its frequency-weighted posterior, and the second product returns its
    (I + 1, T) counts: N1 per item and, from the ones row, N_t.  Both
    products are np.dot, which releases the GIL (see _helpers).
    """
    patterns = stack.patterns[rows]
    operand = np.empty((len(weights), len(patterns)))
    operand[:-1] = patterns.T
    operand[-1] = 1.0
    block = np.dot(weights.T, operand)
    peak = np.maximum.reduce(block, axis=0)
    block -= peak
    np.exp(block, out=block)
    sums = np.add.reduce(block, axis=0)
    np.add(peak, np.log(sums), out=norm[rows, 0])
    block *= stack.float_freqs[rows] / sums
    return np.dot(operand, block.T)


def _blocks_pass(stack, prob, grid) -> tuple[np.ndarray, ExpectedCounts]:
    """_estep_block over every block of a one-table stack: (norm, counts).

    prob is the stack's (1, J, T) probability matrix, from which the
    blocks' (J + 1, T) weights are made once.  norm is (rows, 1), and
    counts the (1, J, T) and (1, T) ExpectedCounts: the first block's, plus
    each further block's, in block order.
    """
    log_p, log_q = np.log(prob[0]), np.log1p(-prob[0])
    weights = np.vstack((log_p - log_q, np.add.reduce(log_q, axis=0) + grid.log_weights))
    norm = np.empty((stack.n_patterns, 1))
    counts, *rest = _map_blocks(_estep_block, stack.n_patterns, stack, weights, norm)
    for counts_b in rest:
        counts += counts_b
    return norm, ExpectedCounts(n1=counts[None, :-1], nt=counts[None, -1])


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


def posterior(stack: PatternStack, prob: np.ndarray, grid: QuadratureGrid) -> tuple:
    """Posterior P(theta_t | X) over nodes and each fit's observed log-likelihood.

    prob is the (R, J, T) stack of the R tables' clamped
    response_prob_matrix.  Returns (post, logliks): post is (rows, T), each
    row normalized by its pattern log-likelihood log sum_t P(X|theta_t) A_t,
    and logliks[r] is fit r's frequency-weighted sum of those, or its
    PosteriorUnderflowError.  Each run of equally long tables makes one
    stacked call per product and sum, one product per table over its own
    rows, so every fit gets the values of its one-table stack, bit for bit.
    A stack over BLOCK_ROWS rows raises ValueError: only estep takes it,
    through its block kernel, which rounds differently.
    """
    _one_block(stack)
    post = np.empty((stack.n_patterns, grid.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        return post, _logliks(stack, _log_normalisers(stack, prob, grid, post))


def estep(stack: PatternStack, prob: np.ndarray, grid: QuadratureGrid) -> tuple:
    """One E-step of a stack: each fit's log-likelihood and the counts.

    prob is the (R, J, T) stack of the R tables' probability matrices.
    Returns (logliks, counts).  A one-block stack gives the logliks of
    posterior(stack, prob, grid) and the counts of expected_counts on its
    post, bit for bit.  A table larger than BLOCK_ROWS makes one pass per
    block and keeps no posterior: each block runs _estep_block once, which
    builds the block's float operand once and makes two np.dot products,
    one exp and one scaling pass.  Its values agree with the whole-table
    formulas to about 1e-12 relative, at any thread count bit for bit.
    """
    if stack.operands is not None:
        post, logliks = posterior(stack, prob, grid)
        return logliks, expected_counts(stack, post)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm, counts = _blocks_pass(stack, prob, grid)
        return _logliks(stack, norm), counts


def expected_counts(stack: PatternStack, post: np.ndarray) -> ExpectedCounts:
    """Expected counts N1 (R, J, T) and N_t (R, T) from a stack's (rows, T) posterior.

    Each count is one stacked product per run of equally long tables, so
    each fit's slice is that of its one-table stack, bit for bit.  A stack
    over BLOCK_ROWS rows raises ValueError: only estep takes it.
    """
    _one_block(stack)
    nt = np.empty((len(stack.tables), post.shape[1]))
    n1 = np.empty((len(stack.tables), stack.n_items, post.shape[1]))
    for run in stack.runs:
        post_r = post[run.rows].reshape(run.shape)
        nt[run.fits] = (run.freqs @ post_r)[:, 0]
        np.matmul(run.xf_t, post_r, out=n1[run.fits])
    return ExpectedCounts(n1=n1, nt=nt)


def observed_loglik(stack: PatternStack, prob: np.ndarray, grid: QuadratureGrid) -> list:
    """The logliks of posterior(stack, prob, grid), without a posterior.

    Each is a fit's sum_X N_X log sum_t P(X|theta_t) A_t or its
    PosteriorUnderflowError.  The EM loop takes them from estep; this is
    the reference the fit traces are tested against.  A stack over
    BLOCK_ROWS rows raises ValueError: only estep takes it.
    """
    _one_block(stack)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _logliks(stack, _log_normalisers(stack, prob, grid))


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

