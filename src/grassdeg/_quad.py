"""Composite Gauss-Legendre quadrature in log scale."""

import numpy as np
from scipy.special import logsumexp

__all__ = ["composite_gl_log"]


def composite_gl_log(log_f, a, b, points=32, panels=16):
    """log of the integral of exp(log_f) over [a, b]; integrand must be >= 0."""
    x, w = np.polynomial.legendre.leggauss(points)
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    weights = (halfs[:, None] * w[None, :]).ravel()
    return float(logsumexp(log_f(nodes) + np.log(weights)))
