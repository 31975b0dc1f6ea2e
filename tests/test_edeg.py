import math

import pytest

from grassdeg.edeg import (
    edeg_general,
    edeg_lines_quadrature,
    edeg_upper_bound_log,
    epsilon_k,
    log_edeg_leading,
    log_edeg_lines_asymptotic,
)
from grassdeg.geomlin import RngStream
from grassdeg.specfun import LogValue

from conftest import EDEG24


# ------------------------------------------------------------ line counts


def test_lines_quadrature_reference_values():
    # n = 3 is the planted anchor of the whole package
    r3 = edeg_lines_quadrature(3)
    assert math.isclose(float(r3.value), EDEG24, rel_tol=1e-13)
    assert r3.method == "quadrature"
    r4 = edeg_lines_quadrature(4)
    assert math.isclose(float(r4.value), 3.431903106407481, rel_tol=1e-13)
    r10 = edeg_lines_quadrature(10)
    assert math.isclose(float(r10.value), 434.01543760689935, rel_tol=1e-9)


def test_lines_quadrature_rejects_small_n():
    with pytest.raises(ValueError):
        edeg_lines_quadrature(2)


def test_lines_error_estimate_is_tight():
    r = edeg_lines_quadrature(3)
    assert 0.0 <= r.stderr < 1e-6


def test_lines_switch_to_log_scale_at_large_n():
    small = edeg_lines_quadrature(17)  # N = 32 > 30
    assert isinstance(small.value, LogValue)
    below = edeg_lines_quadrature(16)  # N = 30: still direct
    assert isinstance(below.value, float)
    # the log-scale value continues the direct sequence smoothly: the step
    # n -> n+1 multiplies by roughly (pi/2)^2 for large n
    step = small.value.log_magnitude - math.log(float(below.value))
    assert abs(step - 2.0 * math.log(math.pi / 2.0)) < 0.2


def test_lines_asymptotic_values():
    assert math.isclose(
        math.exp(log_edeg_lines_asymptotic(3)), 1.3220646267053828, rel_tol=1e-12
    )
    for n in (3, 10, 50):
        direct = 8.0 / (3.0 * math.pi**2.5 * math.sqrt(n)) * (math.pi**2 / 4.0) ** n
        assert math.isclose(
            math.exp(log_edeg_lines_asymptotic(n)), direct, rel_tol=1e-12
        )


def test_lines_ratio_to_asymptotic_shrinks():
    ratios = []
    for n in (3, 10, 20):
        quad = edeg_lines_quadrature(n)
        log_quad = (
            quad.value.log_magnitude
            if isinstance(quad.value, LogValue)
            else math.log(float(quad.value))
        )
        ratios.append(math.exp(log_quad - log_edeg_lines_asymptotic(n)))
    assert math.isclose(ratios[0], 1.305708, rel_tol=1e-5)
    assert math.isclose(ratios[1], 1.076499, rel_tol=1e-5)
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


# ------------------------------------------------------------ edeg_general


def test_general_routes_through_the_small_side():
    for n in (3, 4):
        assert edeg_lines_quadrature(n) == edeg_general(2, n + 1)
    a = edeg_general(3, 5)
    b = edeg_general(2, 5)
    assert a.value == b.value and a.stderr == b.stderr


def test_general_matches_lines_in_log_scale():
    a = edeg_general(2, 18)
    assert isinstance(a.value, LogValue)
    assert edeg_lines_quadrature(17) == a


def test_general_error_estimate_is_positive_at_every_resolution():
    for points in (8, 16, 32):
        r = edeg_general(2, 4, quad_points=points)
        assert r.stderr > 0.0
        assert math.isclose(float(r.value), EDEG24, rel_tol=1e-7)


def test_general_quadrature_makes_two_passes(monkeypatch):
    import grassdeg.zonoid as zonoid

    calls = []
    inner = zonoid.composite_gl_log

    def counted(*args, **kwargs):
        calls.append(kwargs.get("panels"))
        return inner(*args, **kwargs)

    monkeypatch.setattr(zonoid, "composite_gl_log", counted)
    edeg_general(2, 4)
    assert calls == [16, 32]


def test_general_vitale_route_unbiased_for_trivial_case():
    r = edeg_general(1, 7, method="zonoid_vitale", rng=RngStream(60, 0),
                     samples=200_000)
    assert r.method == "zonoid_mc"
    assert abs(float(r.value) - 1.0) < 4.0 * r.stderr + 1e-9


def test_general_vitale_matches_quadrature():
    mcres = edeg_general(2, 4, method="zonoid_vitale", rng=RngStream(60, 1),
                         samples=300_000)
    quad = edeg_general(2, 4)
    assert abs(float(mcres.value) - float(quad.value)) < 4.0 * mcres.stderr


def test_general_method_validation():
    with pytest.raises(ValueError):
        edeg_general(2, 4, method="dartboard")
    with pytest.raises(ValueError):
        edeg_general(3, 6, method="zonoid_quadrature")  # min(k, n-k) = 3
    with pytest.raises(ValueError):
        edeg_general(2, 4, method="zonoid_vitale")  # rng/samples missing
    with pytest.raises(ValueError, match="km > 36 not supported"):
        edeg_general(5, 13, method="zonoid_vitale", rng=RngStream(0, 0),
                     samples=10)  # N = 40 > 36, refused by the rank-one kernel
    for points in (0, 257):  # outside 1..MAX_QUAD_POINTS
        with pytest.raises(ValueError, match="quad_points"):
            edeg_general(2, 4, quad_points=points)


# ----------------------------------------------------------------- bounds


def test_upper_bound_closed_form_24():
    assert math.isclose(
        edeg_upper_bound_log(2, 4).exp(), 3.0 * math.pi**4 / 128.0, rel_tol=1e-12
    )


def test_upper_bound_dominates_quadrature():
    for n in (4, 5, 6):
        val = float(edeg_general(2, n).value)
        assert val < edeg_upper_bound_log(2, n).exp()


def test_upper_bound_overflow_handoff():
    # N = 1996: the value overflows a double, its log does not
    bound = edeg_upper_bound_log(2, 1000)
    with pytest.raises(OverflowError, match="log_magnitude"):
        bound.exp()
    assert 700.0 < bound.log_magnitude < math.inf


def test_epsilon_sequence():
    assert math.isclose(epsilon_k(2), 1.3029922589446408, rel_tol=1e-12)
    values = [epsilon_k(k) for k in range(2, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        epsilon_k(1)


def test_log_leading_term_matches_its_definition():
    from grassdeg.specfun import log_gamma

    for k, n in ((2, 10), (3, 12), (2, 40)):
        per_entry = (
            0.5 * math.log(math.pi) + log_gamma((k + 1) / 2.0) - log_gamma(k / 2.0)
        )
        assert math.isclose(log_edeg_leading(k, n), k * n * per_entry, rel_tol=1e-12)
