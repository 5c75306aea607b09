"""Gauss-Hermite quadrature grids for a standard normal latent trait."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

MAX_POINTS = 50


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and probability weights approximating integration against N(0, 1).

    Nodes are strictly ascending and symmetric about zero; weights are
    positive and sum to one.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def log_weights(self) -> np.ndarray:
        """log(weights) as a read-only array, built once per grid; -inf for a zero weight."""
        with np.errstate(divide="ignore"):
            log_w = np.log(self.weights)
        log_w.setflags(write=False)
        return log_w

    @cached_property
    def node_moments(self) -> tuple[np.float64, np.ndarray, float]:
        """(mean, nodes - mean, sum of squared deviations) of the unweighted nodes.

        The regressor of the OLS M-step, built once per grid; the centred
        nodes are read-only.
        """
        # the mean as add.reduce / count, the arithmetic of ndarray.mean
        mean = np.add.reduce(self.nodes) / self.nodes.size
        centered = self.nodes - mean
        centered.setflags(write=False)
        return mean, centered, float(centered @ centered)


def hermite_rule(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Return abscissae and weights of the n-point Gauss-Hermite rule.

    The rule integrates against the weight function exp(-x^2), i.e. the
    abscissae are the roots of the physicists' Hermite polynomial H_n and
    the weights sum to sqrt(pi).

    Nodes and weights are computed by eigen-decomposition of the symmetric
    tridiagonal Jacobi matrix (Golub-Welsch), which is stable for every
    supported order.

    Parameters
    ----------
    n_points : int
        Quadrature order, 1 <= n_points <= 50.

    Returns
    -------
    nodes, weights : ndarray
        Ascending abscissae and the matching weights.
    """
    if not 1 <= n_points <= MAX_POINTS:
        raise ValueError(
            f"quadrature order must be in 1..{MAX_POINTS}, got {n_points}"
        )

    # Jacobi matrix for Hermite polynomials: zero diagonal, off-diagonal sqrt(i/2)
    off = np.sqrt(np.arange(1, n_points) / 2.0)
    nodes, eigvecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))  # ascending
    weights = math.sqrt(math.pi) * eigvecs[0] ** 2

    # enforce exact symmetry (eigh leaves O(1e-15) asymmetry)
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    if n_points % 2 == 1:
        nodes[n_points // 2] = 0.0

    return nodes, weights


@cache
def normal_grid(n_points: int) -> QuadratureGrid:
    """Rescale the Gauss-Hermite rule into a grid for a standard normal trait.

    The change of variables x = theta / sqrt(2) maps the exp(-x^2) weight
    onto the N(0, 1) density: nodes scale by sqrt(2) and weights by
    1/sqrt(pi).  Weights are renormalized to sum to exactly one so that
    downstream count conservation is drift-free.  The grid is built once
    per point count and shared: it is frozen and its arrays are read-only.
    """
    raw_nodes, raw_weights = hermite_rule(n_points)
    nodes = raw_nodes * math.sqrt(2.0)
    weights = raw_weights / math.sqrt(math.pi)
    weights = weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureGrid(nodes=nodes, weights=weights)
