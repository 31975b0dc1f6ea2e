"""Fixed Gauss-Legendre rules: composite in log scale, and collapsed on a simplex."""

from functools import lru_cache

import numpy as np

__all__ = ["composite_gl_log", "ordered_simplex_gl"]


@lru_cache(maxsize=8)
def _leggauss(points):
    """numpy's Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Cached: the solve behind them takes ~0.2 ms at 8 nodes and ~0.1 s at
    a thousand.
    """
    x, w = np.polynomial.legendre.leggauss(points)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def composite_gl_log(log_f, a, b, points=32, panels=16):
    """log of the integral of exp(log_f) over [a, b]; integrand must be >= 0.

    The terms are summed by a max-shifted logsumexp that holds the largest
    terms out of the sum and adds them back through log1p (the arithmetic
    of scipy's logsumexp from scipy 1.15 on); an integrand that is zero at
    every node gives -inf.
    """
    x, w = _leggauss(points)
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    weights = (halfs[:, None] * w[None, :]).ravel()
    terms = log_f(nodes) + np.log(weights)
    top = np.max(terms)
    if top == -np.inf:
        return -np.inf
    at_top = terms == top
    shifted = np.exp(terms - top)
    shifted[at_top] = 0.0
    count = np.count_nonzero(at_top)
    return float(np.log1p(np.sum(shifted) / count) + np.log(count) + top)


def ordered_simplex_gl(k, points, a=0.0, b=1.0):
    """Collapsed Gauss-Legendre rule on the ordered simplex a <= t_1 <= ... <= t_k <= b.

    With u in [0, 1]^k and h = b - a, t_k = a + h u_1, t_(k-1) = a + h u_1 u_2,
    ..., t_1 = a + h u_1 ... u_k; the Jacobian is h^k prod_j u_j^(k-j), and
    each u_j takes the ``points``-node rule.  Returns the nodes, shape
    (k, points^k) with row i holding t_(i+1), and their weights; the first
    axis u_1 varies slowest.  k = 0 gives one node of weight 1.
    """
    x, w = _leggauss(points)
    u, wu = 0.5 * (1.0 + x), 0.5 * w
    h = b - a
    partial, prods = np.ones(1), []  # u_1 ... u_j on the nodes so far
    weights = np.full(1, float(h) ** k)
    for j in range(1, k + 1):
        prods = [np.repeat(q, points) for q in prods]
        partial = np.outer(partial, u).ravel()
        prods.append(partial)
        weights = np.outer(weights, wu * u ** (k - j)).ravel()
    nodes = np.array(prods[::-1]).reshape(k, points**k)
    return a + h * nodes, weights

