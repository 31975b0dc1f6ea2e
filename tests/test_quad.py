import math

import numpy as np
import pytest
from scipy.special import logsumexp

from grassdeg._quad import composite_gl_log


def scipy_composite_gl_log(log_f, a, b, points, panels):
    """The same nodes and weights, summed by scipy's logsumexp (the oracle)."""
    x, w = np.polynomial.legendre.leggauss(points)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    nodes = (0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    return float(logsumexp(log_f(nodes) + np.log(weights)))


def one_dead_node(t):
    out = np.log1p(t * t)
    out[5] = -np.inf
    return out


@pytest.mark.parametrize(
    "log_f, a, b",
    [
        (lambda t: np.log1p(t * t), 0.0, 1.0),
        (lambda t: 40.0 * np.log(np.sin(t)), 0.0, math.pi / 4.0),
        (lambda t: np.zeros_like(t), -1.0, 1.0),  # ties at the largest term
        (one_dead_node, 0.0, 2.0),
    ],
)
@pytest.mark.parametrize("points, panels", [(8, 16), (32, 32)])
def test_composite_gl_log_matches_scipy_logsumexp(log_f, a, b, points, panels):
    assert composite_gl_log(log_f, a, b, points, panels) == scipy_composite_gl_log(
        log_f, a, b, points, panels)


def test_composite_gl_log_of_zero_integrand_is_minus_inf():
    value = composite_gl_log(lambda t: np.full_like(t, -np.inf), 0.0, 1.0)
    assert value == -math.inf

