import math

import numpy as np
import pytest
from scipy.special import logsumexp

from grassdeg._quad import composite_gl_log, ordered_simplex_gl


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


@pytest.mark.parametrize("lam", [1.0, 10.0, 1e2, 1e3, 1e4])
def test_composite_gl_log_resolves_a_sharp_peak(lam):
    # exp(-lam t^2) on [0, 1] narrows to width 1/sqrt(lam) at the endpoint;
    # its integral is sqrt(pi) erf(sqrt(lam)) / (2 sqrt(lam))
    exact = math.sqrt(math.pi) * math.erf(math.sqrt(lam)) / (2.0 * math.sqrt(lam))
    got = math.exp(composite_gl_log(lambda t: -lam * t * t, 0.0, 1.0,
                                    points=32, panels=32))
    assert math.isclose(got, exact, rel_tol=1e-12)


def test_composite_gl_log_of_zero_integrand_is_minus_inf():
    value = composite_gl_log(lambda t: np.full_like(t, -np.inf), 0.0, 1.0)
    assert value == -math.inf


def test_ordered_simplex_rule_integrates_monomials():
    # on 0 <= t1 <= t2 <= t3 <= 1, t1 t2^2 t3 integrates to 1/70, and the
    # weights sum to the simplex volume h^k / k!
    t, w = ordered_simplex_gl(3, 4)
    assert t.shape == (3, 64) and np.all(np.diff(t, axis=0) >= 0.0)
    assert math.isclose(np.sum(w * t[0] * t[1] ** 2 * t[2]), 1.0 / 70.0,
                        rel_tol=1e-14)
    for k in range(4):
        t, w = ordered_simplex_gl(k, 5, 0.5, 2.0)
        assert t.shape == (k, 5**k)
        assert math.isclose(w.sum(), 1.5**k / math.factorial(k), rel_tol=1e-14)
        assert np.all((t >= 0.5) & (t <= 2.0))
