import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import elliprg

from grassdeg import mc, zonoid
from grassdeg.geomlin import RngStream, small_det
from grassdeg.mc import CHUNK, alpha_complex_mc, alpha_mc, run_kernel
from grassdeg.specfun import elliptic_E, rho
from grassdeg.zonoid import (
    RadialProfile2,
    build_radial_profile_2,
    g_k,
    radial_D,
    radius_R,
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
    for s in (2.0, -0.3, 1e-9, 7.5e4):  # k = 1: the half-normal mean
        assert math.isclose(g_k(1, np.array([s])), abs(s) * math.sqrt(2.0 / math.pi),
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


def test_g2_matches_the_elliptic_form():
    sig = RngStream(7, 0).generator.uniform(0.0, 3.0, (500, 2))
    sig[:4] = [[1.0, 1e-9], [1e-9, 1.0], [2.0, 0.0], [1.0, 1.0 - 1e-12]]
    for s1, s2 in sig:
        assert math.isclose(g_k(2, np.array([s1, s2])), h2(s1, s2) * SQRT_2PI,
                            rel_tol=1e-14)


def test_g3_matches_carlson_rg():
    # E|diag(sigma) z| = 2 sqrt(2/pi) R_G(sigma_1^2, sigma_2^2, sigma_3^2)
    sig = RngStream(7, 1).generator.uniform(0.0, 3.0, (500, 3))
    sig[:5] = [[1.0, 1e-9, 1e-9], [1.0, 0.0, 0.3], [1e-9, 1.0, 2e-9],
               [1.0, 1e-5, 1e-7], [0.0, 0.0, 4.0]]
    for s in sig:
        oracle = 2.0 * math.sqrt(2.0 / math.pi) * elliprg(*(s * s))
        assert math.isclose(g_k(3, s), oracle, rel_tol=1e-14), s


def test_g_of_zero_and_input_validation():
    assert g_k(3, np.zeros(3)) == 0.0
    with pytest.raises(ValueError):
        g_k(3, np.ones(2))
    with pytest.raises(ValueError):
        g_k(2, np.array([1.0, math.inf]))


# --------------------------------------------------------- h and its grad


def h2(x, y):
    """h = g_2 / sqrt(2 pi) on the open quadrant, elementwise:
    max(x, y) E(1 - (min/max)^2) / pi."""
    a, b = np.maximum(x, y), np.minimum(x, y)
    return a * elliptic_E(1.0 - (b / a) ** 2) / math.pi


def grad_h2_numeric(sigma1, sigma2):
    """Central-difference gradient of h, the oracle of the analytic path."""
    step = 1e-6 * np.hypot(sigma1, sigma2)
    return (
        (h2(sigma1 + step, sigma2) - h2(sigma1 - step, sigma2)) / (2.0 * step),
        (h2(sigma1, sigma2 + step) - h2(sigma1, sigma2 - step)) / (2.0 * step),
    )


def radial_duality_2(sigma, grid_size=4096):
    """k = 2 radial value by direct duality minimization with exact h.

    Independent of the profile pipeline: minimizes h(tau)/<sigma, tau> over a
    fine angle grid and polishes with golden-section search.
    """
    u = np.abs(np.asarray(sigma, dtype=float))

    def objective(phi):
        c, s = np.cos(phi), np.sin(phi)
        dot = u[0] * c + u[1] * s
        return np.where(dot > 1e-12, h2(c, s) / np.maximum(dot, 1e-12), np.inf)

    phis = np.linspace(0.0, math.pi / 2.0, grid_size)
    j = int(np.argmin(objective(phis)))
    a = phis[max(j - 1, 0)]
    b = phis[min(j + 1, grid_size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return float(min(fc, fd))


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
    t = np.linspace(0.05, math.pi / 2 - 0.05, 25)
    a = zonoid._grad_h2(np.cos(t), np.sin(t))
    b = grad_h2_numeric(np.cos(t), np.sin(t))
    assert np.max(np.abs(np.subtract(a, b))) < 1e-6


def test_integral_gradient_matches_the_analytic_k2_gradient():
    t = np.concatenate([np.linspace(1e-3, math.pi / 2 - 1e-3, 201),
                        [math.pi / 4.0]])
    c, s = np.cos(t), np.sin(t)
    analytic = np.stack(zonoid._grad_h2(c, s), axis=1)
    integral = np.array([zonoid._support_data(np.array(p))[1] for p in zip(c, s)])
    assert np.max(np.abs(integral - analytic)) < 1e-13


def test_analytic_gradient_keeps_its_digits_near_the_axes():
    # E and K read the complement x = (min/max)^2 itself: 1 - s would keep
    # only the digits of s, and none of x below 1e-16
    near = np.geomspace(1e-9, 1e-2, 15)
    for t in (near, math.pi / 2.0 - near):
        c, s = np.cos(t), np.sin(t)
        analytic = np.stack(zonoid._grad_h2(c, s), axis=1)
        integral = np.array([zonoid._support_data(np.array(p))[1]
                             for p in zip(c, s)])
        np.testing.assert_allclose(analytic, integral, rtol=4e-15, atol=0.0)


def test_support_hessian_matches_gradient_differences():
    tau = np.array([0.8, 0.5, 0.3, 1e-3])
    value, grad, hess = zonoid._support_data(tau)
    assert math.isclose(grad @ tau, value, rel_tol=1e-14)  # Euler: h is 1-homogeneous
    assert np.max(np.abs(hess @ tau)) < 1e-14  # and grad h 0-homogeneous
    assert np.max(np.abs(hess - hess.T)) < 1e-15
    step = 1e-6
    for j in range(4):
        e = np.eye(4)[j] * step
        numeric = (zonoid._support_data(tau + e)[1]
                   - zonoid._support_data(tau - e)[1]) / (2.0 * step)
        assert np.max(np.abs(numeric - hess[j])) < 1e-7 * max(1.0, abs(hess[j, j]))


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


def test_radius_agrees_across_profile_grids():
    # the grid only seeds the solve: r is the same, to rounding, at every
    # size, down to the two closed-form knots alone
    ts = np.array([1e-9, 1e-7, 1e-4, 0.01, 0.2, math.pi / 8.0, 0.7,
                   QUARTER_PI - 1e-6, QUARTER_PI])
    ends = RadialProfile2(phi=[0.0, QUARTER_PI])
    radii = [build_radial_profile_2(g).radius(ts)
             for g in (64, 4096, zonoid.MAX_GRID_SIZE)] + [ends.radius(ts)]
    for other in radii[1:]:
        np.testing.assert_allclose(other, radii[0], rtol=1e-15, atol=0.0)
    oracle = [radial_duality_2([math.cos(t), math.sin(t)]) for t in ts]
    np.testing.assert_allclose(radii[0], oracle, rtol=1e-14, atol=0.0)


def test_gradient_map_slope_is_the_derivative_of_its_angle():
    phi = np.linspace(0.01, QUARTER_PI - 0.01, 50)
    step = 1e-6
    numeric = (zonoid._gradient_map(phi + step)[0]
               - zonoid._gradient_map(phi - step)[0]) / (2.0 * step)
    np.testing.assert_allclose(zonoid._gradient_map(phi)[2], numeric, rtol=1e-8)
    # within ulps of pi/4 h' / sin(4 phi) is rounding noise, of either
    # sign: the slope is held at or above its least value, 1/2
    slope = zonoid._gradient_map(QUARTER_PI + np.arange(-2000, 2001) * 2.0**-53)[2]
    assert np.all(np.isfinite(slope)) and slope.min() == 0.5


def test_radius_solve_failure_is_a_runtime_error(monkeypatch):
    # a constant gradient puts every boundary point at theta = pi/4
    profile = build_radial_profile_2(64)
    monkeypatch.setattr(zonoid, "_grad_h2",
                        lambda c, s: (np.ones_like(c), np.ones_like(c)))
    with pytest.raises(RuntimeError, match="radial solve not converged"):
        profile.radius(0.3)


def test_profile_validation():
    profile = RadialProfile2(phi=[0.0, 0.1, QUARTER_PI])
    theta, r, _ = zonoid._gradient_map(np.array([0.1]))
    assert profile.knots == [(0.0, 1.0 / math.pi), (float(theta[0]), float(r[0])),
                             (QUARTER_PI, radius_R(2))]
    with pytest.raises(TypeError):  # the knots follow from phi
        RadialProfile2(phi=[0.0, QUARTER_PI], knots=profile.knots)
    with pytest.raises(ValueError):  # too few
        RadialProfile2(phi=[0.0])
    with pytest.raises(ValueError):  # phi not increasing
        RadialProfile2(phi=[0.0, 0.9, 0.5, QUARTER_PI])
    with pytest.raises(ValueError):  # off the axis
        RadialProfile2(phi=[0.05, 0.1, QUARTER_PI])
    with pytest.raises(ValueError):  # short of the orbit direction
        RadialProfile2(phi=[0.0, 0.1, 0.7])


def test_builder_rejects_grid_outside_bounds():
    for grid in (32, 63, zonoid.MAX_GRID_SIZE + 1, 10**9):
        with pytest.raises(ValueError, match="grid_size"):
            build_radial_profile_2(grid)
    assert len(build_radial_profile_2(zonoid.MAX_GRID_SIZE).knots) > 2070


def test_builder_aborts_on_inconsistent_gradient(monkeypatch):
    monkeypatch.setattr(zonoid, "_grad_h2",
                        lambda c, s: (np.ones_like(c), np.ones_like(c)))
    with pytest.raises(RuntimeError, match="not strictly increasing"):
        build_radial_profile_2(64)


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
    assert math.isclose(via_profile, via_duality, rel_tol=1e-14)


def test_duality_agreement_on_a_small_grid(profile2):
    for t in (0.05, 0.2, 0.55, 0.7):
        sig = np.array([math.cos(t), math.sin(t)])
        assert math.isclose(radial_D(2, sig, profile=profile2), radial_duality_2(sig),
                            rel_tol=1e-14)


def test_radial_k3_orbit_direction():
    u = np.ones(3) / math.sqrt(3.0)
    assert math.isclose(radial_D(3, u), radius_R(3), rel_tol=1e-13)


def test_radial_k3_axis_is_one_over_pi():
    assert math.isclose(radial_D(3, np.array([0.0, -1.0, 0.0])), 1.0 / math.pi,
                        rel_tol=1e-13)


def test_radial_k3_generic_direction_below_cap():
    v = np.array([0.8, 0.5, math.sqrt(1.0 - 0.64 - 0.25)])
    val = radial_D(3, v)
    assert 0.0 < val < radius_R(3)
    assert math.isclose(val, 0.354314243334527, rel_tol=1e-13)


def test_radial_k3_in_a_coordinate_plane_is_the_k2_value():
    for t in (0.2, 0.55):
        sig = np.array([math.cos(t), 0.0, math.sin(t)])
        assert math.isclose(radial_D(3, sig), radial_duality_2(sig[[0, 2]]),
                            rel_tol=1e-12)


def test_radial_k4_orbit_direction():
    assert math.isclose(radial_D(4, np.ones(4) / 2.0), radius_R(4), rel_tol=1e-13)


def test_radial_newton_failure_is_a_runtime_error(monkeypatch):
    # a Hessian of the wrong sign turns every Newton step uphill
    def wrong_hessian(tau):
        d = tau - np.array([3.0, 0.0, 0.0])
        return float(d @ d), 2.0 * d, -2.0 * np.eye(3)

    monkeypatch.setattr(zonoid, "_support_data", wrong_hessian)
    with pytest.raises(RuntimeError, match="radial Newton"):
        radial_D(3, np.array([0.8, 0.5, math.sqrt(0.11)]))


# ------------------------------------------------------------- volumes


def test_vol_ball_values():
    assert math.isclose(vol_ball(2, 2), 0.0771062843835109, rel_tol=1e-12)
    assert math.isclose(vol_ball(2, 2), math.pi**2 * radius_R(2) ** 4 / 2.0,
                        rel_tol=1e-13)
    assert math.isclose(vol_ball(1, 2), math.pi * radius_R(1) ** 2, rel_tol=1e-13)


def test_vol_quadrature_closes_the_lines_identity(profile2):
    # |C(2,2)| * |G(2,4)| * 4!/2^4 reproduces the direct quadrature value
    from grassdeg.edeg import edeg_lines_quadrature
    from grassdeg.specfun import vol_grassmann_real_log

    vol = vol_C_quadrature(2, profile2)
    assembled = vol * vol_grassmann_real_log(2, 4).exp() * math.factorial(4) / 2.0**4
    direct = float(edeg_lines_quadrature(3).value)
    assert math.isclose(assembled, direct, rel_tol=1e-9)


def test_vol_quadrature_matches_the_converged_references(profile2):
    # the converged values of log|C(2, m)|: an error in r enters them
    # multiplied by 2m, and the panel-doubling stderr cannot see it
    assert math.isclose(vol_C_quadrature_log(2, profile2).value.log_magnitude,
                        -2.8421314970035, rel_tol=0.0, abs_tol=1e-13)
    with pytest.warns(UserWarning, match="panel doubling"):
        est = vol_C_quadrature_log(99_999, profile2)
    assert abs(est.value.log_magnitude - -1144758.3453068193) <= est.stderr


def test_vol_quadrature_log_consistency(profile2):
    for m in (2, 3, 8):
        direct = vol_C_quadrature(m, profile2)
        logged = vol_C_quadrature_log(m, profile2)
        assert math.isclose(logged.value.log_magnitude, math.log(direct), rel_tol=1e-12)
        assert 0.0 < logged.stderr < 1e-8


def test_vol_quadrature_validation(profile2):
    with pytest.raises(ValueError):
        vol_C_quadrature(1, profile2)
    with pytest.raises(TypeError):
        vol_C_quadrature(3, profile=None)


def test_volume_gap_to_ball_grows_like_log_m(profile2):
    # |log vol_C(2,m) - log vol_ball(2,m)| / log m stays clearly bounded
    for m in (4, 8, 16, 32, 64):
        gap = abs(
            vol_C_quadrature_log(m, profile2).value.log_magnitude
            - math.log(vol_ball(2, m))
        )
        assert gap / math.log(m) < 5.0


def test_vitale_volume_matches_quadrature(profile2):
    for m, samples, stream in ((2, 300_000, 0), (3, 300_000, 1)):
        est = vol_C_vitale_mc(2, m, RngStream(31, stream), samples)
        ref = vol_C_quadrature(m, profile2)
        assert abs(est.value - ref) < 4.0 * est.stderr + 1e-12


def rank_one_draws(k, m, gen, count):
    """One chunk's Gaussian x_i, y_i, read as the rank-one kernel reads them.

    Up to km = 4 all x_i, then all y_i; above, one samples-major row of x_i
    and y_i per draw, which its sub-batches read in turn.
    """
    n = k * m
    if n <= 4:
        return gen.standard_normal((count, n, k)), gen.standard_normal((count, n, m))
    xy = gen.standard_normal((count, n, k + m))
    return xy[:, :, :k], xy[:, :, k:]


def rank_one_dets(x, y):
    """det M of every draw from the raw vectors, rows vec(x_i y_i^T)."""
    count, n, _ = x.shape
    return small_det((x[:, :, :, None] * y[:, :, None, :]).reshape(count, n, n))


def broadcast_alpha(k, m, rng, samples):
    """alpha by the draw-major (count, n, k, m) row build, km <= 4."""

    def kernel(gen, count):
        x, y = rank_one_draws(k, m, gen, count)
        x /= np.linalg.norm(x, axis=2, keepdims=True)
        y /= np.linalg.norm(y, axis=2, keepdims=True)
        det = rank_one_dets(x, y)
        good = det != 0.0
        return np.abs(det[good]), int(count - good.sum())

    return run_kernel(kernel, rng, samples, method="alpha-mc")


def radius_constant(k, m):
    """(rho_k rho_m)^(km) / (km)!: the Vitale volume over alpha."""
    return (rho(k) * rho(m)) ** (k * m) / math.factorial(k * m)


def test_vitale_volume_rows_match_the_broadcast_build():
    # the volume's rows are alpha's; same products, same cofactor arithmetic:
    # equal to the last bit; (2, 2) takes the polar kernel instead
    for k, m in ((1, 3), (1, 4)):
        rng = RngStream(31, k * 10 + m)
        assert alpha_mc(k, m, rng, 40_000) == broadcast_alpha(k, m, rng, 40_000)
    est = vol_C_vitale_mc(2, 2, RngStream(31, 0), 50_000)
    assert (est.value, est.stderr) == (0.05847756555675962, 0.00023004390331032466)


def test_vitale_volume_is_alpha_times_the_radius_constant():
    for k, m in ((1, 3), (2, 2), (2, 3), (3, 3)):
        rng = RngStream(38, k * 10 + m)
        want = alpha_mc(k, m, rng, 20_000).scaled(radius_constant(k, m),
                                                  method="vitale-volume-mc")
        assert vol_C_vitale_mc(k, m, rng, 20_000) == want


def test_unit_draws_times_the_radii_are_the_gaussian_determinants():
    # column i of the Gaussian M is |x_i| |y_i| times the unit one, draw by
    # draw: what lets the volume integrate the radii exactly
    for k, m in ((1, 3), (1, 4), (2, 3), (3, 3)):
        values, degenerate = mc._rank_one_det_kernel(k, m)(
            RngStream(37, k * 10 + m).generator, CHUNK)
        x, y = rank_one_draws(k, m, RngStream(37, k * 10 + m).generator, CHUNK)
        radii = np.prod(np.linalg.norm(x, axis=2) * np.linalg.norm(y, axis=2), axis=1)
        assert degenerate == 0
        np.testing.assert_allclose(values * radii, np.abs(rank_one_dets(x, y)),
                                   rtol=1e-10)


def test_vitale_volume_33_matches_the_k3_radial_integral():
    # log|C(3,3)| = -8.4113092 by the k = 3 radial integral over the normal
    # (24 x 48 Gauss-Legendre nodes, agreeing with 32 x 64 to 2e-13)
    est = vol_C_vitale_mc(3, 3, RngStream(39, 0), 200_000, workers=2)
    ref = math.exp(-8.4113092)
    assert est.stderr / est.value < 0.005
    assert abs(est.value - ref) < 3.0 * est.stderr


def test_polar_kernel_matches_quadrature():
    # alpha(2, 2) = E|det M| over Gaussians / rho_2^8 = 24 |C(2, 2)| / rho_2^8
    ref = vol_C_quadrature(2, zonoid.default_profile())
    for route, scale, stream in ((vol_C_vitale_mc, 1.0, 0),
                                 (alpha_mc, 24.0 / (math.pi / 2.0) ** 4, 1)):
        est = route(2, 2, RngStream(35, stream), 1_000_000)
        assert est.degenerate_count == 0
        assert abs(est.value - scale * ref) < 3.0 * est.stderr, route.__name__


def test_polar_kernel_takes_six_uniforms_per_draw():
    gen = RngStream(36, 0).generator
    mc._rank_one_det_kernel(2, 2)(gen, 1000)
    after = RngStream(36, 0).generator
    after.random(6 * 1000)
    assert gen.random() == after.random()


def gram_alpha(k, m, rng, samples, complex_=False):
    """alpha through the Gram determinant, on the rank-one kernel's draws.

    For M with rows vec(x_i y_i^T), det((X X^*) o (Y Y^*)) = |det M|^2: its
    root is a draw of alpha over R, itself a draw over C.  Every draw of a
    chunk at once, at any km.
    """
    n = k * m
    parts = 2 if complex_ else 1  # a complex number is (real, imaginary)

    def unit(z):
        z = z.view(complex) if complex_ else z
        return z / np.linalg.norm(z, axis=2, keepdims=True)

    def kernel(gen, count):
        if n <= 4:  # all x_i, then all y_i
            x = gen.standard_normal((count, n, parts * k))
            y = gen.standard_normal((count, n, parts * m))
        else:  # one samples-major row of x_i and y_i per draw
            x, y = np.split(gen.standard_normal((count, n, parts * (k + m))),
                            [parts * k], axis=2)
        x, y = unit(x), unit(y)
        gram = np.matmul(x, np.conj(x.transpose(0, 2, 1)))
        gram *= np.matmul(y, np.conj(y.transpose(0, 2, 1)))
        det = small_det(gram).real
        return (det if complex_ else np.sqrt(np.clip(det, 0.0, None))), 0

    return run_kernel(kernel, rng, samples)


def test_alpha_is_the_gram_formula_on_the_same_draws():
    # cofactors of M against the Gram determinant, km <= 4; real (2, 2)
    # takes the polar kernel instead
    for k, m in ((2, 2), (1, 3), (1, 4)):
        rng = RngStream(32, k * 10 + m)
        for route, complex_ in ((alpha_mc, False), (alpha_complex_mc, True)):
            if (k, m) == (2, 2) and not complex_:
                continue
            want = gram_alpha(k, m, rng, 40_000, complex_)
            got = route(k, m, rng, 40_000)
            assert math.isclose(got.value, want.value, rel_tol=1e-12)
            assert math.isclose(got.stderr, want.stderr, rel_tol=1e-9)
            assert got.degenerate_count == 0


def test_vitale_volume_sub_batches_read_the_whole_chunk_draws(monkeypatch):
    for k, m in ((1, 5), (2, 3), (3, 3)):
        rng = RngStream(33, k * 10 + m)
        pairs = [(alpha_mc, gram_alpha),
                 (alpha_complex_mc, lambda *a: gram_alpha(*a, complex_=True))]
        for route, oracle in pairs:
            want = oracle(k, m, rng, CHUNK + 5000)
            got = route(k, m, rng, CHUNK + 5000)
            assert math.isclose(got.value, want.value, rel_tol=1e-12)
            assert math.isclose(got.stderr, want.stderr, rel_tol=1e-9)
            assert got.degenerate_count == want.degenerate_count
    # 1000 draws of the model's n(k + m) + n^2 + 8 doubles at (3, 3)
    default = [route(3, 3, RngStream(33, 0), CHUNK + 5000)
               for route in (vol_C_vitale_mc, alpha_complex_mc)]
    monkeypatch.setattr(mc, "_BATCH_BYTES", 1000 * 8 * (9 * 6 + 81 + 8))
    assert mc._vitale_rows(3, 3) == 1000  # uneven sub-batches in both chunks
    assert mc._vitale_rows(3, 3, itemsize=16) == 500
    assert [route(3, 3, RngStream(33, 0), CHUNK + 5000)
            for route in (vol_C_vitale_mc, alpha_complex_mc)] == default


def test_vitale_volume_chunk_memory_is_bounded():
    # one chunk held a whole (16384, km, km) array at once: 48.5 MiB for the
    # volume at km = 16, 378 MiB for alpha at km = 36, 208 MiB over C at 16
    for route, k, m in ((vol_C_vitale_mc, 4, 4), (alpha_mc, 6, 6),
                        (alpha_complex_mc, 4, 4)):
        tracemalloc.start()
        try:
            est = route(k, m, RngStream(34, 0), CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_samples == CHUNK
        assert peak < 1.25 * mc._BATCH_BYTES, (route.__name__, peak)


def test_vitale_volume_input_limits():
    with pytest.raises(ValueError):
        vol_C_vitale_mc(5, 8, RngStream(0, 0), 100)  # km > 36
    with pytest.raises(ValueError):
        vol_C_vitale_mc(2, 2, RngStream(0, 0), 0)
