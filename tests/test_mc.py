import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

from grassdeg import mc
from grassdeg.geomlin import RngStream
from grassdeg.mc import (
    CHUNK,
    StreamingStats,
    alpha_complex_exact,
    alpha_complex_mc,
    alpha_mc,
    density_gof,
    density_normalization,
    density_pdf,
    edeg24_integral,
    integration_formula_check,
    run_kernel,
    schubert_ratio_exact,
    schubert_ratio_mc,
    vitale_check,
    vitale_closed_form,
)

EDEG24 = 1.726231248998883  # pinned by the n=3 quadrature, used as a loose anchor


# -------------------------------------------------------- streaming stats

floats_list = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=40
)


@given(floats_list)
def test_stats_push_equals_from_values(xs):
    a = StreamingStats()
    for x in xs:
        a.push(x)
    b = StreamingStats.from_values(np.asarray(xs))
    assert a.count == b.count
    assert math.isclose(a.mean, b.mean, rel_tol=1e-12, abs_tol=1e-9)
    assert math.isclose(a.m2, b.m2, rel_tol=1e-9, abs_tol=1e-6)


@given(floats_list, floats_list, floats_list)
def test_stats_merge_is_associative(xs, ys, zs):
    sx = StreamingStats.from_values(np.asarray(xs))
    sy = StreamingStats.from_values(np.asarray(ys))
    sz = StreamingStats.from_values(np.asarray(zs))
    left = sx.merge(sy).merge(sz)
    right = sx.merge(sy.merge(sz))
    whole = StreamingStats.from_values(np.asarray(xs + ys + zs))
    for probe in (left, right):
        assert probe.count == whole.count
        assert math.isclose(probe.mean, whole.mean, rel_tol=1e-10, abs_tol=1e-8)
        assert math.isclose(probe.m2, whole.m2, rel_tol=1e-10, abs_tol=1e-5)


@given(floats_list)
def test_stats_merge_permutation_independent(xs):
    mid = len(xs) // 2
    a = StreamingStats.from_values(np.asarray(xs[:mid]))
    b = StreamingStats.from_values(np.asarray(xs[mid:]))
    ab = a.merge(b)
    ba = b.merge(a)
    assert ab.count == ba.count
    assert math.isclose(ab.mean, ba.mean, rel_tol=1e-10, abs_tol=1e-9)
    assert math.isclose(ab.m2, ba.m2, rel_tol=1e-10, abs_tol=1e-6)


def test_stats_variance_matches_numpy():
    xs = RngStream(1, 0).standard_normal(1000)
    s = StreamingStats.from_values(xs)
    assert math.isclose(s.variance, float(np.var(xs, ddof=1)), rel_tol=1e-12)
    assert math.isclose(
        s.stderr_of_mean, float(np.std(xs, ddof=1)) / math.sqrt(1000), rel_tol=1e-12
    )


def test_stats_stderr_degenerate_counts():
    s = StreamingStats()
    s.push(1.0)
    assert s.stderr_of_mean == math.inf


def test_estimate_scaling():
    est = mc.Estimate(value=2.0, stderr=0.5, n_samples=10, seed=1, method="mc",
                      degenerate_count=3)
    scaled = est.scaled(4.0, method="quadrupled")
    assert scaled.value == 8.0
    assert scaled.stderr == 2.0
    assert scaled.method == "quadrupled"
    assert scaled.degenerate_count == 3


# ------------------------------------------------------------ run_kernel


def _unit_kernel(gen, count):
    return gen.standard_normal(count), 0


def test_kernel_runs_are_reproducible():
    a = run_kernel(_unit_kernel, RngStream(2, 0), 50_000)
    b = run_kernel(_unit_kernel, RngStream(2, 0), 50_000)
    assert a == b


@pytest.mark.parametrize("samples", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
def test_kernel_worker_count_is_invisible(samples):
    one = run_kernel(_unit_kernel, RngStream(2, 1), samples)
    eight = run_kernel(_unit_kernel, RngStream(2, 1), samples, workers=8)
    assert one == eight
    assert one.n_samples == samples


def test_kernel_input_validation():
    with pytest.raises(ValueError):
        run_kernel(_unit_kernel, RngStream(0, 0), 0)
    with pytest.raises(TypeError):
        run_kernel(_unit_kernel, np.random.default_rng(0), 100)
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_kernel(_unit_kernel, RngStream(0, 0), 100, workers=workers)


# ------------------------------------------------------------------ alpha


def test_alpha22_near_its_known_value():
    est = alpha_mc(2, 2, RngStream(40, 0), 200_000)
    assert abs(est.value - 0.2298) < max(4.0 * est.stderr, 5e-4)


def test_alpha_is_symmetric_in_distribution():
    a = alpha_mc(1, 2, RngStream(41, 0), 150_000)
    b = alpha_mc(2, 1, RngStream(41, 1), 150_000)
    assert abs(a.value - b.value) < 3.0 * math.hypot(a.stderr, b.stderr)


def test_alpha_dimension_cap():
    with pytest.raises(ValueError):
        alpha_mc(6, 7, RngStream(0, 0), 10)


def test_alpha_complex_exact_values():
    assert alpha_complex_exact(1, 1) == Fraction(1, 1)
    assert alpha_complex_exact(2, 2) == Fraction(3, 32)
    assert alpha_complex_exact(1, 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        alpha_complex_exact(4, 6)  # km > 20


def test_alpha_complex_mc_consistent_with_exact():
    est = alpha_complex_mc(1, 2, RngStream(42, 0), 150_000)
    assert abs(est.value - 0.5) < 4.0 * est.stderr


# -------------------------------------------------------- periodic integral


def test_integral_quadrature_refines_toward_the_anchor():
    coarse = edeg24_integral(mode="quadrature", points_per_dim=12)
    fine = edeg24_integral(mode="quadrature", points_per_dim=24)
    assert abs(coarse.value - EDEG24) < 0.015
    assert abs(fine.value - EDEG24) < 0.003
    assert abs(fine.value - EDEG24) < abs(coarse.value - EDEG24)
    assert fine.n_samples == 24**6


def test_integral_quadrature_point_cap():
    with pytest.raises(ValueError):
        edeg24_integral(mode="quadrature", points_per_dim=25)


def test_integral_mode_validation():
    with pytest.raises(ValueError):
        edeg24_integral(mode="trapezoid")
    with pytest.raises(ValueError):
        edeg24_integral(mode="mc")  # rng/samples missing


def test_integral_mc_agrees_and_is_deterministic():
    a = edeg24_integral(mode="mc", rng=RngStream(43, 0), samples=200_000)
    b = edeg24_integral(mode="mc", rng=RngStream(43, 0), samples=200_000, workers=8)
    assert a == b
    assert abs(a.value - EDEG24) < 4.0 * a.stderr


# ---------------------------------------------------------- schubert ratio


def test_schubert_exact_closed_forms():
    assert math.isclose(schubert_ratio_exact(2, 4), math.pi / 4.0, rel_tol=1e-12)
    assert math.isclose(schubert_ratio_exact(2, 5), 1.0, rel_tol=1e-12)
    assert math.isclose(schubert_ratio_exact(3, 6), 4.0 / math.pi, rel_tol=1e-12)
    assert math.isclose(
        schubert_ratio_exact(3, 5), schubert_ratio_exact(2, 5), rel_tol=1e-14
    )


def test_schubert_mc_validation():
    r = RngStream(0, 0)
    with pytest.raises(ValueError):
        schubert_ratio_mc(2, 4, eps=0.0, delta=0.01, rng=r, samples=10)
    with pytest.raises(ValueError):
        schubert_ratio_mc(2, 4, eps=0.02, delta=0.01, rng=r, samples=10)
    with pytest.raises(ValueError):
        schubert_ratio_mc(2, 4, eps=0.01, delta=1.6, rng=r, samples=10)


def test_schubert_mc_duality_is_exact():
    a = schubert_ratio_mc(2, 5, eps=0.03, delta=0.03, rng=RngStream(44, 0),
                          samples=40_000)
    b = schubert_ratio_mc(3, 5, eps=0.03, delta=0.03, rng=RngStream(44, 0),
                          samples=40_000)
    assert a == b


def _finite_eps_ratio(eps, delta):
    # the quantity the estimator actually targets, by direct 2-d quadrature
    prob, err = dblquad(
        lambda t2, t1: density_pdf(2, 2, 4, np.array([t1, t2])),
        0.0, eps, delta, math.pi / 2.0, epsabs=1e-12, epsrel=1e-11,
    )
    assert err < 1e-9
    return prob / (2.0 * eps)


def test_schubert_window_refines_monotonically():
    exact = schubert_ratio_exact(2, 4)
    gaps = [abs(_finite_eps_ratio(e, e) - exact) for e in (0.04, 0.02, 0.01)]
    assert gaps[0] > gaps[1] > gaps[2]
    # and the MC estimator tracks the finite-window value it targets
    est = schubert_ratio_mc(2, 4, eps=0.04, delta=0.04, rng=RngStream(45, 0),
                            samples=400_000)
    assert abs(est.value - _finite_eps_ratio(0.04, 0.04)) < 4.0 * est.stderr


# ----------------------------------------------------------------- density


@given(
    st.floats(min_value=0.01, max_value=1.5),
    st.floats(min_value=0.01, max_value=1.5),
)
def test_density_pdf_nonnegative(a, b):
    lo, hi = sorted((a, b))
    if hi - lo < 1e-9:
        return
    assert density_pdf(2, 2, 4, np.array([lo, hi])) >= 0.0


def test_density_pdf_vanishes_at_coincident_angles():
    for t in (0.2, 0.7, 1.3):
        assert density_pdf(2, 2, 4, np.array([t, t])) == 0.0


def test_density_pdf_validation():
    with pytest.raises(ValueError):
        density_pdf(2, 2, 4, np.array([0.8, 0.2]))  # not ascending
    with pytest.raises(ValueError):
        density_pdf(2, 2, 4, np.array([0.2, 1.8]))  # beyond pi/2
    with pytest.raises(ValueError):
        density_pdf(2, 1, 4, np.array([0.2, 0.8]))  # k > l
    with pytest.raises(ValueError):
        density_pdf(2, 3, 4, np.array([0.2, 0.8]))  # k + l > n


def test_density_pdf_2_2_4_closed_form():
    for t1, t2 in ((0.2, 0.9), (0.1, 1.2), (0.5, 0.6)):
        expect = 2.0 * (math.cos(t1) ** 2 - math.cos(t2) ** 2)
        assert math.isclose(
            density_pdf(2, 2, 4, np.array([t1, t2])), expect, rel_tol=1e-12
        )


def test_density_normalization_simplest_case():
    assert abs(density_normalization(1, 1, 2) - 1.0) < 1e-9


def _gof_expected_loop(k, l, n, bins):
    # the per-node loop the vectorized _gof_expected replaced, kept as its oracle
    pdf_sym = mc._density_symmetrized(k, l, n)
    edges = np.linspace(0.0, math.pi / 2.0, bins + 1)
    x8, w8 = np.polynomial.legendre.leggauss(8)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = mids[:, None] + half * x8[None, :]
    weights = half * w8
    if k == 1:
        return np.array([sum(weights[a] * pdf_sym(nodes[b, a]) for a in range(8))
                         for b in range(bins)])
    prob = np.zeros((bins, bins))
    for b1 in range(bins):
        for b2 in range(b1, bins):
            acc = 0.0
            for a1 in range(8):
                t1 = nodes[b1, a1]
                for a2 in range(8):
                    t2 = nodes[b2, a2]
                    if t1 <= t2:
                        acc += weights[a1] * weights[a2] * 2.0 * pdf_sym(t1, t2)
            prob[b1, b2] = acc
    return prob


@pytest.mark.parametrize("k, l, n, bins", [(2, 2, 4, 30), (2, 3, 6, 7), (1, 1, 2, 30),
                                           (1, 2, 5, 11)])
def test_gof_expected_matches_the_loop(k, l, n, bins):
    fast = mc._gof_expected(k, l, n, bins)
    slow = _gof_expected_loop(k, l, n, bins)
    assert fast.shape == slow.shape
    assert np.max(np.abs(fast - slow)) <= 1e-15
    if k == 2:
        assert np.all(np.tril(fast, -1) == 0.0)  # below the diagonal t1 > t2


def test_density_gof_is_deterministic_and_small():
    a = density_gof(2, 2, 4, RngStream(46, 0), 100_000)
    b = density_gof(2, 2, 4, RngStream(46, 0), 100_000, workers=8)
    assert a == b
    assert 0.0 < a < 0.1


# ------------------------------------------------------------------ vitale


def test_vitale_closed_forms():
    assert math.isclose(vitale_closed_form(1), math.sqrt(2.0 / math.pi), rel_tol=1e-13)
    assert math.isclose(vitale_closed_form(2), 1.0, rel_tol=1e-13)
    assert math.isclose(vitale_closed_form(3), 1.5957691216057308, rel_tol=1e-12)


def test_vitale_mc_consistent():
    for d, stream in ((1, 0), (2, 1)):
        est = vitale_check(d, RngStream(47, stream), 100_000)
        assert abs(est.value - vitale_closed_form(d)) < 4.0 * est.stderr


def test_vitale_dimension_cap():
    with pytest.raises(ValueError):
        vitale_check(13, RngStream(0, 0), 10)


# ------------------------------------------- invariant-integration formula


def test_integration_formula_constant_function():
    est, rhs = integration_formula_check(
        2, 3, "one", RngStream(48, 0), 50_000
    )
    assert est.stderr == 0.0
    assert math.isclose(est.value, math.pi**3, rel_tol=1e-12)  # area of S^5
    assert math.isclose(rhs, est.value, rel_tol=1e-7)


def test_integration_formula_moment_functions(profile2):
    for fid, stream in (("p2sq", 0), ("r2pow", 1)):
        est, rhs = integration_formula_check(2, 3, fid, RngStream(49, stream), 150_000)
        assert abs(est.value - rhs) < 4.0 * est.stderr + 1e-9


def test_integration_formula_validation():
    r = RngStream(0, 0)
    with pytest.raises(ValueError):
        integration_formula_check(2, 3, "cubes", r, 10)
    with pytest.raises(ValueError):
        integration_formula_check(3, 3, "one", r, 10)
    with pytest.raises(ValueError):
        integration_formula_check(2, 1, "one", r, 10)
    with pytest.raises(ValueError):
        integration_formula_check(2, 9, "one", r, 10)
