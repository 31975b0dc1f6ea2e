"""End-to-end acceptance gate.

Each test checks one numbered shipping criterion, appends a one-line
PASS/FAIL verdict to the terminal summary, and enforces the runtime budget
it was given.  Monte Carlo runs use pinned seeds, so every verdict here is
reproducible bit for bit.
"""

import math
import time
from fractions import Fraction

from grassdeg import edeg, incidence, mc, specfun, zonoid
from grassdeg.geomlin import RngStream

SEED = 20250817


def _verdict(log, num, ok, budget_s, elapsed, detail):
    line = (
        f"criterion {num:2d} {'PASS' if ok else 'FAIL'}"
        f" [{elapsed:6.1f}s / {budget_s:.0f}s]  {detail}"
    )
    log.append(line)
    print(line)
    assert ok, line


def _within(a, b, tol):
    return abs(a - b) <= tol


def test_criterion_01_three_way_edeg24(criterion_log):
    t0 = time.perf_counter()
    tr = incidence.edeg24_transversal_mc(RngStream(SEED, 0), 10_000_000, workers=8)
    to = mc.edeg24_integral(mode="mc", rng=RngStream(SEED, 1), samples=10_000_000,
                            workers=8)
    quad = edeg.edeg_lines_quadrature(3)
    qv, qerr = float(quad.value), quad.stderr
    elapsed = time.perf_counter() - t0

    in_window = all(_within(v, 1.7262, 0.005) for v in (tr.value, to.value, qv))
    pairs = (
        (tr.value, to.value, math.hypot(tr.stderr, to.stderr)),
        (tr.value, qv, math.hypot(tr.stderr, qerr)),
        (to.value, qv, math.hypot(to.stderr, qerr)),
    )
    agree = all(abs(a - b) <= 3.0 * s for a, b, s in pairs)
    ok = in_window and agree and elapsed <= 300.0
    _verdict(
        criterion_log, 1, ok, 300.0, elapsed,
        f"transversal {tr.value:.6f}±{tr.stderr:.2e}, "
        f"torus {to.value:.9f}±{to.stderr:.2e}, quadrature {qv:.9f}; "
        f"all in 1.7262±0.005 and pairwise within 3σ",
    )


def test_criterion_02_zonoid_pipeline_closure(criterion_log):
    t0 = time.perf_counter()
    vol = zonoid.vol_C_quadrature(2, zonoid.default_profile())
    assembled = (vol * specfun.vol_grassmann_real_log(2, 4).exp()
                 * math.factorial(4) / 2.0**4)
    tr = incidence.edeg24_transversal_mc(RngStream(SEED, 2), 1_000_000, workers=8)
    elapsed = time.perf_counter() - t0
    gap = abs(assembled - tr.value)
    ok = gap < 0.01 and elapsed <= 60.0
    _verdict(
        criterion_log, 2, ok, 60.0, elapsed,
        f"vol_C(2,2)·|G(2,4)|·4!/2⁴ = {assembled:.6f} vs "
        f"transversal MC {tr.value:.6f} (gap {gap:.2e} < 0.01)",
    )


def test_criterion_03_schubert_ratio(criterion_log):
    t0 = time.perf_counter()
    exact24 = mc.schubert_ratio_exact(2, 4)
    closed_ok = math.isclose(exact24, math.pi / 4.0, rel_tol=1e-12)
    est24 = mc.schubert_ratio_mc(2, 4, eps=0.01, delta=0.01,
                                 rng=RngStream(SEED, 3), samples=10_000_000,
                                 workers=8)
    est25 = mc.schubert_ratio_mc(2, 5, eps=0.01, delta=0.01,
                                 rng=RngStream(SEED, 4), samples=2_000_000,
                                 workers=8)
    est36 = mc.schubert_ratio_mc(3, 6, eps=0.01, delta=0.01,
                                 rng=RngStream(SEED, 5), samples=2_000_000,
                                 workers=8)
    elapsed = time.perf_counter() - t0
    rel = [
        abs(est24.value - exact24) / exact24,
        abs(est25.value - mc.schubert_ratio_exact(2, 5)) / mc.schubert_ratio_exact(2, 5),
        abs(est36.value - mc.schubert_ratio_exact(3, 6)) / mc.schubert_ratio_exact(3, 6),
    ]
    ok = closed_ok and all(r < 0.05 for r in rel) and elapsed <= 300.0
    _verdict(
        criterion_log, 3, ok, 300.0, elapsed,
        f"(2,4)=π/4 exact; MC rel errors {rel[0]:.4f}, {rel[1]:.4f}, {rel[2]:.4f} "
        f"all < 0.05",
    )


def test_criterion_04_density_suite(criterion_log):
    t0 = time.perf_counter()
    norms = {
        (1, 1, 2): mc.density_normalization(1, 1, 2).value,
        (2, 2, 4): mc.density_normalization(2, 2, 4).value,
        (2, 3, 5): mc.density_normalization(2, 3, 5).value,
    }
    norm_ok = all(abs(v - 1.0) < 1e-6 for v in norms.values())
    gof = mc.density_gof(2, 2, 4, RngStream(SEED, 1), 1_000_000, workers=8)
    elapsed = time.perf_counter() - t0
    ok = norm_ok and gof < 0.02 and elapsed <= 180.0
    _verdict(
        criterion_log, 4, ok, 180.0, elapsed,
        f"normalizations off by ≤ {max(abs(v - 1.0) for v in norms.values()):.1e}; "
        f"gof L1 = {gof:.4f} < 0.02 at 10^6 samples",
    )


def test_criterion_05_complex_cross_checks(criterion_log):
    t0 = time.perf_counter()
    est = mc.alpha_complex_mc(2, 2, RngStream(SEED, 6), 400_000, workers=8)
    target = float(Fraction(3, 32))
    mc_ok = abs(est.value - target) <= 3.0 * est.stderr

    def catalan(m):
        return math.comb(2 * m, m) // (m + 1)

    cat_ok = all(
        specfun.deg_grassmann_complex(2, n) == catalan(n - 2) for n in range(3, 15)
    )
    deg_ok = specfun.deg_grassmann_complex(2, 4) == 2
    elapsed = time.perf_counter() - t0
    ok = mc_ok and cat_ok and deg_ok and elapsed <= 60.0
    _verdict(
        criterion_log, 5, ok, 60.0, elapsed,
        f"alpha_C(2,2) = {est.value:.5f}±{est.stderr:.5f} vs 3/32 = {target:.5f} "
        f"(|Δ| = {abs(est.value - target) / est.stderr:.2f}σ); Catalan row ok; "
        f"deg(2,4) = 2",
    )


def test_criterion_06_radial_profile(criterion_log):
    t0 = time.perf_counter()
    prof = zonoid.default_profile()
    r2_sq = prof.radius(math.pi / 4.0) ** 2
    endpoint_ok = abs(r2_sq - 0.125) < 1e-6
    coeffs = []
    for delta in (0.05, 0.02):
        r_sq = prof.radius(math.pi / 4.0 - delta) ** 2
        coeffs.append((r_sq - 0.125) / delta**2)
    taylor_ok = all(abs(c + 0.125) < 1e-2 for c in coeffs)
    elapsed = time.perf_counter() - t0
    ok = endpoint_ok and taylor_ok and elapsed <= 10.0
    _verdict(
        criterion_log, 6, ok, 10.0, elapsed,
        f"r(π/4)² = {r2_sq:.9f} (=1/8 ± 1e-6); second Taylor coefficient "
        f"{coeffs[0]:+.5f}, {coeffs[1]:+.5f} vs -1/8 ± 1e-2",
    )


def test_criterion_07_lines_asymptotics(criterion_log):
    t0 = time.perf_counter()

    def log_quad(n):
        r = edeg.edeg_lines_quadrature(n)
        v = r.value
        return v.log_magnitude if hasattr(v, "log_magnitude") else math.log(float(v))

    ratios = {
        n: math.exp(log_quad(n) - edeg.log_edeg_lines_asymptotic(n))
        for n in (10, 20, 50)
    }
    window_ok = 0.95 <= ratios[50] <= 1.05
    monotone_ok = ratios[10] > ratios[20] > ratios[50] > 1.0
    slope_lo = (log_quad(20) - log_quad(10)) / 10.0
    slope_hi = (log_quad(40) - log_quad(20)) / 20.0
    target = 2.0 * math.log(math.pi / 2.0)
    slope_ok = abs(slope_lo - target) < 0.1 and abs(slope_hi - target) < 0.1
    elapsed = time.perf_counter() - t0
    ok = window_ok and monotone_ok and slope_ok and elapsed <= 60.0
    _verdict(
        criterion_log, 7, ok, 60.0, elapsed,
        f"quad/asym ratios {ratios[10]:.4f} > {ratios[20]:.4f} > {ratios[50]:.4f} "
        f"→ 1; log-slopes {slope_lo:.4f}, {slope_hi:.4f} within 0.1 of "
        f"2·log(π/2) = {target:.4f}",
    )


def test_criterion_08_bounds(criterion_log):
    t0 = time.perf_counter()
    checks = []
    for k, n in ((2, 4), (2, 5)):
        val = float(edeg.edeg_general(k, n).value)
        checks.append(val <= edeg.edeg_upper_bound_log(k, n).exp())
    est36 = edeg.edeg_general(3, 6, method="zonoid_vitale", rng=RngStream(SEED, 7),
                              samples=200_000)
    bound36 = edeg.edeg_upper_bound_log(3, 6).exp()
    checks.append(float(est36.value) <= bound36 + 3.0 * est36.stderr)
    eps_seq = [edeg.epsilon_k(k) for k in range(2, 51)]
    eps_ok = all(a > b for a, b in zip(eps_seq, eps_seq[1:]))
    eps2_ok = abs(eps_seq[0] - 1.30) < 0.01
    elapsed = time.perf_counter() - t0
    ok = all(checks) and eps_ok and eps2_ok and elapsed <= 10.0
    _verdict(
        criterion_log, 8, ok, 10.0, elapsed,
        f"edeg ≤ bound for (2,4), (2,5), (3,6) [latter {float(est36.value):.3f}"
        f"±{est36.stderr:.3f} vs {bound36:.3f}]; ε_k strictly decreasing on 2..50, "
        f"ε_2 = {eps_seq[0]:.4f}",
    )


def test_criterion_09_rig_product_law(criterion_log):
    t0 = time.perf_counter()
    base = incidence.edeg24_transversal_mc(RngStream(SEED, 8), 1_000_000, workers=8)
    results = {}
    for r, mult, stream in (((2, 1, 1, 1), 2.0, 9), ((2, 2, 1, 1), 4.0, 10)):
        est = incidence.rig_union_of_lines_mc(r, RngStream(SEED, stream), 1_000_000,
                                              workers=8)
        gap = abs(est.value - mult * base.value)
        spread = math.hypot(est.stderr, mult * base.stderr)
        results[r] = (est.value, gap, spread, gap <= 3.0 * spread)
    elapsed = time.perf_counter() - t0
    ok = all(v[3] for v in results.values()) and elapsed <= 300.0
    d2 = results[(2, 1, 1, 1)]
    d4 = results[(2, 2, 1, 1)]
    _verdict(
        criterion_log, 9, ok, 300.0, elapsed,
        f"(2,1,1,1): {d2[0]:.4f} vs 2×base (|Δ| = {d2[1] / d2[2]:.2f}σ); "
        f"(2,2,1,1): {d4[0]:.4f} vs 4×base (|Δ| = {d4[1] / d4[2]:.2f}σ)",
    )


def test_criterion_10_vitale_identities(criterion_log):
    t0 = time.perf_counter()
    sigmas = []
    for d, stream in ((1, 11), (2, 12), (3, 13)):
        est = mc.vitale_check(d, RngStream(SEED, stream), 300_000, workers=8)
        sigmas.append(abs(est.value - mc.vitale_closed_form(d)) / est.stderr)
    elapsed = time.perf_counter() - t0
    ok = all(s <= 3.0 for s in sigmas) and elapsed <= 60.0
    _verdict(
        criterion_log, 10, ok, 60.0, elapsed,
        f"d = 1, 2, 3 deviations {sigmas[0]:.2f}σ, {sigmas[1]:.2f}σ, "
        f"{sigmas[2]:.2f}σ (all ≤ 3σ)",
    )


def test_criterion_11_worker_count_determinism(criterion_log):
    t0 = time.perf_counter()
    runs = {
        "transversal": lambda w: incidence.edeg24_transversal_mc(
            RngStream(SEED, 0), 1_000_000, workers=w
        ),
        "torus": lambda w: mc.edeg24_integral(
            mode="mc", rng=RngStream(SEED, 1), samples=1_000_000, workers=w
        ),
        "schubert": lambda w: mc.schubert_ratio_mc(
            2, 4, eps=0.01, delta=0.01, rng=RngStream(SEED, 3), samples=1_000_000,
            workers=w
        ),
        "gof": lambda w: mc.density_gof(
            2, 2, 4, RngStream(SEED, 1), 200_000, workers=w
        ),
        "alpha_complex": lambda w: mc.alpha_complex_mc(
            2, 2, RngStream(SEED, 6), 200_000, workers=w
        ),
        "rig": lambda w: incidence.rig_union_of_lines_mc(
            (2, 1, 1, 1), RngStream(SEED, 9), 100_000, workers=w
        ),
        "vitale": lambda w: mc.vitale_check(3, RngStream(SEED, 13), 200_000, workers=w),
        "vitale-volume": lambda w: zonoid.vol_C_vitale_mc(
            2, 2, RngStream(SEED, 14), 200_000, workers=w
        ),
    }
    mismatched = [name for name, fn in runs.items() if fn(1) != fn(8)]
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    _verdict(
        criterion_log, 11, ok, 300.0, elapsed,
        "1-worker and 8-worker runs byte-identical for every estimator family"
        if ok
        else f"mismatch in: {', '.join(mismatched)}",
    )
