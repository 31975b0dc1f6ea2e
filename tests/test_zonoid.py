import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.interpolate import PchipInterpolator

from grassdeg import zonoid
from grassdeg.geomlin import RngStream
from grassdeg.zonoid import (
    RadialProfile2,
    ZonoidDescriptor,
    build_radial_profile_2,
    g_k,
    q_k,
    radial_D,
    radial_duality_2,
    radius_R,
    support_C,
    vol_C_quadrature,
    vol_C_quadrature_log,
    vol_C_vitale_mc,
    vol_ball,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)
QUARTER_PI = math.pi / 4.0

positive = st.floats(min_value=0.05, max_value=3.0)


# ------------------------------------------------------------------- g_k


def test_g_closed_orbit_values():
    assert math.isclose(g_k(1, np.array([2.0])), 2.0 * math.sqrt(2.0 / math.pi),
                        rel_tol=1e-14)
    assert math.isclose(g_k(2, np.array([1.0, 1.0])), math.sqrt(math.pi / 2.0),
                        rel_tol=1e-12)
    assert math.isclose(g_k(2, np.array([1.0, 0.0])), math.sqrt(2.0 / math.pi),
                        rel_tol=1e-12)


@given(positive, positive, st.floats(min_value=0.1, max_value=4.0))
def test_g2_homogeneous(s1, s2, c):
    sig = np.array([s1, s2])
    assert math.isclose(g_k(2, c * sig), c * g_k(2, sig), rel_tol=1e-10)


@given(positive, positive)
def test_g2_permutation_invariant(s1, s2):
    a = g_k(2, np.array([s1, s2]))
    b = g_k(2, np.array([s2, s1]))
    assert math.isclose(a, b, rel_tol=1e-12)


@given(positive, positive, positive, positive)
def test_g2_triangle_inequality(a1, a2, b1, b2):
    x = np.array([a1, a2])
    y = np.array([b1, b2])
    assert g_k(2, x + y) <= g_k(2, x) + g_k(2, y) + 1e-12


def test_g_closed_unavailable_for_k3():
    with pytest.raises(ValueError):
        g_k(3, np.array([1.0, 0.5, 0.2]))


def test_g2_mc_matches_closed():
    sig = np.array([1.3, 0.4])
    closed = g_k(2, sig)
    est = g_k(2, sig, method="mc", rng=RngStream(5, 0), samples=200_000)
    assert abs(est.value - closed) < 4.0 * est.stderr + 1e-9
    assert est.n_samples == 200_000


# ----------------------------------------------------- support function


def test_support_depends_on_singular_values_only():
    desc = ZonoidDescriptor(k=2, m=3)
    X = RngStream(6, 0).standard_normal((2, 3))
    base = support_C(desc, X)
    # rotate on both sides: same singular values
    cu, su = math.cos(0.4), math.sin(0.4)
    U = np.array([[cu, -su], [su, cu]])
    V, _ = np.linalg.qr(RngStream(6, 1).standard_normal((3, 3)))
    assert math.isclose(support_C(desc, U @ X @ V.T), base, rel_tol=1e-10)


@given(st.floats(min_value=0.1, max_value=4.0))
def test_support_homogeneous(c):
    desc = ZonoidDescriptor(k=2, m=2)
    X = np.array([[1.0, 0.2], [-0.3, 0.8]])
    assert math.isclose(support_C(desc, c * X), c * support_C(desc, X), rel_tol=1e-10)


def test_support_rejects_wrong_shape():
    with pytest.raises(ValueError):
        support_C(ZonoidDescriptor(k=2, m=3), np.ones((2, 2)))


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ZonoidDescriptor(k=0, m=2)
    with pytest.raises(ValueError):
        ZonoidDescriptor(k=3, m=2)  # m < k


# --------------------------------------------------------- h and its grad


@given(positive, positive)
def test_euler_relation_for_h(s1, s2):
    h = g_k(2, np.array([s1, s2])) / SQRT_2PI
    d1, d2 = zonoid._grad_h2(s1, s2)
    assert math.isclose(s1 * d1 + s2 * d2, h, rel_tol=1e-8)


def test_gradient_at_orbit_direction():
    c = math.cos(math.pi / 4.0)
    d1, d2 = zonoid._grad_h2(c, c)
    assert math.isclose(d1, 0.25, rel_tol=1e-10)
    assert math.isclose(d2, 0.25, rel_tol=1e-10)


def test_analytic_gradient_matches_finite_differences():
    for t in np.linspace(0.05, math.pi / 2 - 0.05, 25):
        a = zonoid._grad_h2(math.cos(t), math.sin(t))
        b = zonoid._grad_h2_numeric(math.cos(t), math.sin(t))
        assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) < 1e-6


# ----------------------------------------------------------- the profile


def test_profile_endpoint_is_exact(profile2):
    assert profile2.knots[-1] == (math.pi / 4.0, radius_R(2))
    assert math.isclose(profile2.radius(math.pi / 4.0) ** 2, 0.125, abs_tol=1e-12)


def test_profile_folds_the_other_half(profile2):
    for t in (0.1, 0.3, 0.6, 0.75):
        assert math.isclose(
            profile2.radius(t), profile2.radius(math.pi / 2.0 - t), rel_tol=1e-13
        )


def test_profile_rejects_angles_outside_range(profile2):
    with pytest.raises(ValueError):
        profile2.radius(-0.2)
    with pytest.raises(ValueError):
        profile2.radius(math.pi / 2.0 + 0.2)


def test_radial_strictly_below_cap_off_orbit(profile2):
    R2 = radius_R(2)
    for t in np.linspace(0.0, math.pi / 4.0 - 0.01, 100):
        assert profile2.radius(t) < R2 - 1e-6


def test_max_radial_equals_max_support(profile2):
    ts = np.linspace(0.0, math.pi / 4.0, 2001)
    max_radial = float(np.max(profile2.radius(ts)))
    max_support = max(
        g_k(2, np.array([math.cos(t), math.sin(t)])) / SQRT_2PI for t in ts
    )
    R2 = radius_R(2)
    assert abs(max_radial - R2) < 1e-6
    assert abs(max_support - R2) < 1e-6
    assert abs(max_radial - max_support) < 1e-6


def test_axis_value_matches_closed_form(profile2):
    # r(0) = h(e_1) = rho_1 / sqrt(2 pi) = 1/pi, pinned as an exact knot
    assert math.isclose(profile2.radius(0.0), 1.0 / math.pi, rel_tol=1e-12)


def scipy_pchip(knots):
    """scipy's PCHIP on the knots a RadialProfile2 interpolates (the oracle)."""
    theta = np.array([t for t, _ in knots])
    r = np.array([v for _, v in knots])
    if theta[0] == 0.0:  # the profile's mirror across theta = 0
        theta = np.concatenate([-theta[3:0:-1], theta])
        r = np.concatenate([r[3:0:-1], r])
    return PchipInterpolator(theta, r, extrapolate=False)


def test_default_profile_is_bit_identical_to_scipy_pchip(profile2):
    knots = np.array([t for t, _ in profile2.knots])
    ts = np.concatenate([np.linspace(0.0, math.pi / 2.0, 100_001), knots,
                         math.pi / 2.0 - knots])
    folded = np.where(ts > QUARTER_PI, math.pi / 2.0 - ts, ts)
    assert np.array_equal(profile2.radius(ts), scipy_pchip(profile2.knots)(folded))


R2 = radius_R(2)
radii = st.one_of(st.sampled_from([0.12, 0.2, 0.3, 0.34, R2]),
                  st.floats(min_value=0.05, max_value=R2))


@st.composite
def knot_sets(draw):
    """Valid profile knots: monotone, non-monotone or with flat cells."""
    count = draw(st.integers(min_value=4, max_value=12))
    widths = draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                           min_size=count - 1, max_size=count - 1))
    start = draw(st.sampled_from([0.0, 0.05, 0.3]))
    theta = start + (QUARTER_PI - start) * np.cumsum([0.0] + widths) / sum(widths)
    theta[-1] = QUARTER_PI
    r = draw(st.lists(radii, min_size=count - 1, max_size=count - 1)) + [R2]
    return [(float(t), float(v)) for t, v in zip(theta, r)]


# the right end slope flips sign and is zeroed; the left end overshoots
# three secants and is capped (the two branches of _pchip_end_slope)
ZEROED_END = [(0.1, 0.2), (0.3, 0.21), (0.5, 0.35), (QUARTER_PI, R2)]
CAPPED_END = [(0.1, 0.2), (0.4, 0.3), (0.41, 0.25), (QUARTER_PI, R2)]


@given(knot_sets())
@example(ZEROED_END)
@example(CAPPED_END)
def test_profile_matches_scipy_pchip_on_random_knots(knots):
    profile = RadialProfile2(knots=knots)
    theta = np.array([t for t, _ in knots])
    ts = np.concatenate([theta, 0.5 * (theta[:-1] + theta[1:]),
                         np.linspace(theta[0], QUARTER_PI, 257)])
    np.testing.assert_allclose(profile.radius(ts), scipy_pchip(knots)(ts),
                               rtol=1e-13, atol=0.0)


def test_profile_roundtrip(tmp_path, profile2):
    path = tmp_path / "profile.json"
    profile2.save(path)
    back = RadialProfile2.load(path)
    ts = np.linspace(0.0, math.pi / 4.0, 557)
    assert np.array_equal(profile2.radius(ts), back.radius(ts))


def test_profile_load_rejects_other_versions(tmp_path, profile2):
    path = tmp_path / "profile.json"
    profile2.save(path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        RadialProfile2.load(path)


def test_profile_validation():
    R2 = radius_R(2)
    with pytest.raises(ValueError):
        RadialProfile2(knots=[(0.1, 0.32), (0.2, 0.33)])  # too few
    with pytest.raises(ValueError):
        RadialProfile2(  # not increasing
            knots=[(0.3, 0.33), (0.2, 0.34), (0.5, 0.35), (math.pi / 4, R2)]
        )
    with pytest.raises(ValueError):
        RadialProfile2(  # wrong endpoint
            knots=[(0.1, 0.32), (0.2, 0.33), (0.3, 0.335), (0.6, 0.34)]
        )


def test_builder_rejects_small_grid_and_bad_mode():
    with pytest.raises(ValueError):
        build_radial_profile_2(32)
    with pytest.raises(ValueError):
        build_radial_profile_2(128, differentiation="symbolic")


def test_builder_aborts_on_inconsistent_gradient(monkeypatch):
    monkeypatch.setattr(zonoid, "_grad_h2", lambda c, s: (1.0, 1.0))
    with pytest.raises(RuntimeError, match="not strictly increasing"):
        build_radial_profile_2(64)


def test_numeric_differentiation_reproduces_profile():
    numeric = build_radial_profile_2(128, differentiation="numeric")
    analytic = build_radial_profile_2(128, differentiation="analytic")
    ts = np.linspace(0.0, math.pi / 4.0, 301)
    assert np.max(np.abs(numeric.radius(ts) - analytic.radius(ts))) < 1e-7


# ------------------------------------------------------------ radial_D


def test_radial_k1_is_constant():
    assert math.isclose(radial_D(1, np.array([1.0])), 1.0 / math.pi, rel_tol=1e-14)


def test_radial_k2_requires_profile():
    with pytest.raises(ValueError):
        radial_D(2, np.array([1.0, 0.0]))


def test_radial_rejects_non_unit_input(profile2):
    with pytest.raises(ValueError):
        radial_D(2, np.array([1.0, 1.0]), profile=profile2)
    with pytest.raises(ValueError):
        radial_D(2, np.array([1.0, 0.0, 0.0]), profile=profile2)


def test_radial_k2_orbit_value(profile2):
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert math.isclose(radial_D(2, u, profile=profile2), radius_R(2), abs_tol=1e-9)


def test_duality_agreement_at_pi_over_8(profile2):
    t = math.pi / 8.0
    sig = np.array([math.cos(t), math.sin(t)])
    via_profile = radial_D(2, sig, profile=profile2)
    via_duality = radial_duality_2(sig)
    assert abs(via_profile - via_duality) < 1e-4


def test_duality_agreement_on_a_small_grid(profile2):
    for t in (0.05, 0.2, 0.55, 0.7):
        sig = np.array([math.cos(t), math.sin(t)])
        assert abs(radial_D(2, sig, profile=profile2) - radial_duality_2(sig)) < 1e-4


def test_radial_k3_orbit_direction():
    u = np.ones(3) / math.sqrt(3.0)
    val = radial_D(3, u, rng=RngStream(19, 0), samples=40_000)
    assert abs(val - radius_R(3)) < 5e-3


def test_radial_k3_generic_direction_below_cap():
    v = np.array([0.8, 0.5, math.sqrt(1.0 - 0.64 - 0.25)])
    val = radial_D(3, v, rng=RngStream(19, 1), samples=40_000)
    assert 0.0 < val < radius_R(3)


def test_radial_k4_default_stream():
    val = radial_D(4, np.ones(4) / 2.0)
    assert abs(val - radius_R(4)) < 5e-3


# ------------------------------------------------------------- volumes


def test_vol_ball_values():
    assert math.isclose(vol_ball(2, 2), 0.0771062843835109, rel_tol=1e-12)
    assert math.isclose(vol_ball(2, 2), math.pi**2 * radius_R(2) ** 4 / 2.0,
                        rel_tol=1e-13)
    assert math.isclose(vol_ball(1, 2), math.pi * radius_R(1) ** 2, rel_tol=1e-13)


def test_vol_quadrature_closes_the_lines_identity(profile2):
    # |C(2,2)| * |G(2,4)| * 4!/2^4 reproduces the direct quadrature value
    from grassdeg.edeg import edeg_lines_quadrature
    from grassdeg.specfun import vol_grassmann_real

    vol = vol_C_quadrature(2, profile2)
    assembled = vol * vol_grassmann_real(2, 4) * math.factorial(4) / 2.0**4
    direct = float(edeg_lines_quadrature(3).value)
    assert math.isclose(assembled, direct, rel_tol=1e-9)


def test_vol_quadrature_log_consistency(profile2):
    for m in (2, 3, 8):
        direct = vol_C_quadrature(m, profile2)
        logged, log_error = vol_C_quadrature_log(m, profile2)
        assert math.isclose(logged.log_magnitude, math.log(direct), rel_tol=1e-12)
        assert 0.0 < log_error < 1e-8


def test_vol_quadrature_validation(profile2):
    with pytest.raises(ValueError):
        vol_C_quadrature(1, profile2)
    with pytest.raises(TypeError):
        vol_C_quadrature(3, profile=None)


def test_volume_gap_to_ball_grows_like_log_m(profile2):
    # |log vol_C(2,m) - log vol_ball(2,m)| / log m stays clearly bounded
    for m in (4, 8, 16, 32, 64):
        gap = abs(
            vol_C_quadrature_log(m, profile2)[0].log_magnitude
            - math.log(vol_ball(2, m))
        )
        assert gap / math.log(m) < 5.0


def test_vitale_volume_matches_quadrature(profile2):
    for m, samples, stream in ((2, 300_000, 0), (3, 300_000, 1)):
        est = vol_C_vitale_mc(2, m, RngStream(31, stream), samples)
        ref = vol_C_quadrature(m, profile2)
        assert abs(est.value - ref) < 4.0 * est.stderr + 1e-12


def test_vitale_volume_input_limits():
    with pytest.raises(ValueError):
        vol_C_vitale_mc(5, 8, RngStream(0, 0), 100)  # km > 36
    with pytest.raises(ValueError):
        vol_C_vitale_mc(2, 2, RngStream(0, 0), 0)


# ---------------------------------------------------------------- p, q


def test_q_pole_is_reported():
    with pytest.raises(ValueError):
        q_k(np.array([1.0, 0.0]))


def test_q_vandermonde_value():
    sig = np.array([2.0, 1.0])
    # (2*1)^{-2} * |4 - 1| = 3/4
    assert math.isclose(q_k(sig), 0.75, rel_tol=1e-13)


def test_p_is_plain_coordinate_product():
    assert math.isclose(zonoid.p_k(np.array([2.0, -3.0])), 6.0, rel_tol=1e-14)
