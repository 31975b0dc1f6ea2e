"""Composite Gauss-Legendre quadrature in log scale."""

import numpy as np

__all__ = ["composite_gl_log"]


def composite_gl_log(log_f, a, b, points=32, panels=16):
    """log of the integral of exp(log_f) over [a, b]; integrand must be >= 0.

    The terms are summed by a max-shifted logsumexp that holds the largest
    terms out of the sum and adds them back through log1p (the arithmetic
    of scipy's logsumexp from scipy 1.15 on); an integrand that is zero at
    every node gives -inf.
    """
    x, w = np.polynomial.legendre.leggauss(points)
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
