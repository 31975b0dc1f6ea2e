import contextlib
import importlib.util
import itertools
import math
import os
import pathlib
import threading
import tracemalloc
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import dblquad
from scipy.stats import ks_2samp

from grassdeg import mc
from grassdeg.geomlin import (
    RngStream,
    det3,
    g24_angles_from_heights,
    half_angle_sin_cos,
    small_det,
)
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
    run_kernel,
    schubert_ratio_exact,
    schubert_ratio_mc,
    vitale_check,
    vitale_closed_form,
)
from grassdeg.zonoid import vol_C_vitale_mc

from conftest import EDEG24

ROOT = pathlib.Path(__file__).resolve().parent.parent


# -------------------------------------------------------- streaming stats

floats_list = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=40
)


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
    xs = RngStream(1, 0).generator.standard_normal(1000)
    s = StreamingStats.from_values(xs)
    assert math.isclose(s.variance, float(np.var(xs, ddof=1)), rel_tol=1e-12)
    assert math.isclose(
        s.stderr_of_mean, float(np.std(xs, ddof=1)) / math.sqrt(1000), rel_tol=1e-12
    )


def test_stats_stderr_degenerate_counts():
    s = StreamingStats.from_values([1.0])
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


def test_kernel_threads_bounded_by_chunks_and_cores(monkeypatch):
    requested = []

    class SerialPool:
        def __init__(self, max_workers, thread_name_prefix=""):
            requested.append(max_workers)

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(mc, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(mc, "_POOLS", {})  # no pool made by an earlier test
    est = run_kernel(_unit_kernel, RngStream(2, 3), 3 * CHUNK, workers=10**6)
    assert all(w <= min(3, os.cpu_count()) for w in requested)
    assert est == run_kernel(_unit_kernel, RngStream(2, 3), 3 * CHUNK)


def test_kernel_pool_threads_are_reused():
    # fresh threads per call would each take a malloc arena (see mc._POOLS)
    seen = []

    def kernel(gen, count):
        seen.append(threading.current_thread())
        return gen.standard_normal(count), 0

    pools = []
    for stream in (4, 5):
        seen.clear()
        run_kernel(kernel, RngStream(2, stream), 4 * CHUNK, workers=2)
        pool = mc._POOLS.get(2)  # None on one core: the caller runs every chunk
        pools.append(pool)
        threads = set(pool._threads) if pool else {threading.current_thread()}
        assert set(seen) <= threads
    assert pools[0] is pools[1]


def test_kernel_nested_in_a_worker_runs_serially():
    inner = []

    def outer(gen, count):
        # every worker of the shared pool is busy here; waiting on it would hang
        inner.append(run_kernel(_unit_kernel, RngStream(3, 1), 2 * CHUNK, workers=2))
        return gen.standard_normal(count), 0

    run_kernel(outer, RngStream(3, 2), 2 * CHUNK, workers=2)
    assert inner == [run_kernel(_unit_kernel, RngStream(3, 1), 2 * CHUNK)] * 2


def test_runner_memory_does_not_grow_with_samples():
    # 4096 chunks of a kernel that does no work: a runner that makes every
    # job, future or chunk result before folding peaks near 1 MiB at
    # workers=1 and 7 MiB at workers=2
    empty = np.empty(0)

    def kernel(gen, count):
        return empty, 0

    for workers in (1, 2):
        # the pool and its threads are made before tracing starts
        run_kernel(kernel, RngStream(6, 0), 4 * CHUNK, workers=workers)
        tracemalloc.start()
        try:
            est = run_kernel(kernel, RngStream(6, 1), 4096 * CHUNK, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_samples == 4096 * CHUNK
        assert peak < 0.25 * 2**20, (workers, peak)


def test_kernel_error_reaches_the_caller():
    calls = []
    lock = threading.Lock()

    def kernel(gen, count):
        with lock:
            calls.append(count)
            third = len(calls) == 3
        if third:
            raise ArithmeticError("chunk failed")
        return gen.standard_normal(count), 0

    for workers in (1, 2):
        calls.clear()
        with pytest.raises(ArithmeticError, match="chunk failed"):
            run_kernel(kernel, RngStream(6, 2), 64 * CHUNK, workers=workers)
        # the chunks queued behind the failure are never run
        assert len(calls) <= 3 + 2 * workers


def test_kernel_input_validation():
    with pytest.raises(ValueError):
        run_kernel(_unit_kernel, RngStream(0, 0), 0)
    with pytest.raises(TypeError):
        run_kernel(_unit_kernel, np.random.default_rng(0), 100)
    for samples in (1000.5, 100.0, True, None):
        with pytest.raises(TypeError, match="samples must be an integer"):
            run_kernel(_unit_kernel, RngStream(0, 0), samples)
    assert run_kernel(_unit_kernel, RngStream(0, 0), np.int64(3)).n_samples == 3
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_kernel(_unit_kernel, RngStream(0, 0), 100, workers=workers)


# ------------------------------------------------------------- workspace


def _data_pointer(array):
    return array.__array_interface__["data"][0]


def test_warm_torus_and_polar_calls_allocate_no_chunk_arrays():
    # chunks that allocate their temporaries peak at megabytes of 128 KiB
    # arrays; in the workspace a warm call holds its returned values and
    # small masks
    calls = (lambda: edeg24_integral(rng=RngStream(47, 0), samples=262_144),
             lambda: vol_C_vitale_mc(2, 2, RngStream(47, 1), 131_072))
    for call in calls:
        call()  # grows the workspace and caches the lattice block
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak


def test_pool_threads_keep_their_own_workspace(monkeypatch):
    pool = mc._pool(2)
    both = threading.Barrier(2, timeout=30)

    def take(_):
        # the largest need of a torus chunk (12 rows of at most 2.5 CHUNK
        # lattice points), so no kernel below grows the buffer
        with mc._workspace(30 * CHUNK) as buf:
            both.wait()  # both threads hold a buffer at once
            return threading.get_ident(), _data_pointer(buf)

    first = dict(pool.map(take, range(2)))
    assert len(first) == 2 and len(set(first.values())) == 2
    assert dict(pool.map(take, range(2))) == first
    # and in the kernels, call after call
    seen = []
    workspace = mc._workspace

    @contextlib.contextmanager
    def spy(size):
        with workspace(size) as buf:
            seen.append((threading.get_ident(), _data_pointer(buf)))
            yield buf

    monkeypatch.setattr(mc, "_workspace", spy)
    for stream in range(2):
        edeg24_integral(rng=RngStream(47, stream), samples=262_144, workers=2)
        vol_C_vitale_mc(2, 2, RngStream(47, stream), 4 * CHUNK, workers=2)
    pointers = {}
    for thread, pointer in seen:
        pointers.setdefault(thread, set()).add(pointer)
    assert all(pointers[thread] == {first[thread]} for thread in first
               if thread in pointers)
    assert all(len(p) == 1 for p in pointers.values())


def test_workspace_is_never_shared_with_a_result_or_a_nested_call():
    # the rule of mc._workspace: what a chunk returns is a new array, and a
    # call inside a chunk's block, in the same thread, gets its own buffer
    values, _ = mc._rank_one_det_kernel(2, 2)(RngStream(48, 0).generator, CHUNK)
    assert not np.shares_memory(values, mc._WORKSPACES.buf)
    want = vol_C_vitale_mc(2, 2, RngStream(48, 1), 2 * CHUNK)
    with mc._workspace(CHUNK) as outer:
        outer.fill(1.0)
        with mc._workspace(CHUNK) as inner:
            assert not np.shares_memory(inner, outer)
        assert vol_C_vitale_mc(2, 2, RngStream(48, 1), 2 * CHUNK) == want
        means = mc._lattice_means(37, 5, RngStream(48, 2).generator.random((4, 4)))
        assert (outer == 1.0).all()
    assert not np.shares_memory(means, mc._WORKSPACES.buf)
    # no chunk needs more; a larger request is not kept
    big = StreamingStats.from_values(np.ones(mc._WORKSPACE_DOUBLES + 1))
    assert (big.count, big.m2) == (mc._WORKSPACE_DOUBLES + 1, 0.0)
    assert mc._WORKSPACES.buf.size <= mc._WORKSPACE_DOUBLES


# ------------------------------------------------------------------ alpha


def test_alpha22_near_its_known_value():
    est = alpha_mc(2, 2, RngStream(40, 0), 200_000)
    assert abs(est.value - 0.2298) < max(4.0 * est.stderr, 5e-4)


def test_polar_det_is_the_rank_one_determinant():
    # rows vec(x y^T) of unit x, y at angles a = (u + v) / 2, b = (v - u) / 2
    u, v = np.random.default_rng(8).uniform(0.0, 2.0 * math.pi, (2, 4, 2000))
    u[0] = v[0] = 0.0
    angles = np.concatenate([u[1:], v[1:]])
    det = mc._polar_det(np.sin(angles), np.cos(angles), np.empty((4, 2000)))
    a, b = (u + v) / 2.0, (v - u) / 2.0
    rows = np.stack([np.cos(a) * np.cos(b), np.cos(a) * np.sin(b),
                     np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)])
    want = small_det(rows.transpose(2, 1, 0))
    np.testing.assert_allclose(np.abs(det) / 4.0, np.abs(want), rtol=1e-12)


def test_polar_kernel_worker_count_is_invisible():
    for route in (alpha_mc, vol_C_vitale_mc):
        one = route(2, 2, RngStream(42, 0), 3 * CHUNK + 17)
        assert route(2, 2, RngStream(42, 0), 3 * CHUNK + 17, workers=8) == one


@pytest.mark.parametrize("k, m, draws", [
    (1, 3, 200_000), (1, 4, 200_000), (2, 2, 400_000), (2, 3, 200_000),
    (3, 3, 200_000), (4, 5, 100_000),
])
def test_rank_one_det_second_moment_is_exact(k, m, draws):
    # the columns vec(x_i y_i^T) are independent with E c c^T = I / N, so
    # E det(M)^2 = N! det(I / N) = N! / N^N, N = km: the 3x3 and 4x4
    # cofactors, the polar (2, 2) kernel and slogdet above km = 4
    kernel = mc._rank_one_det_kernel(k, m)

    def squared(gen, count):
        values, degenerate = kernel(gen, count)
        return np.concatenate([values**2, np.zeros(degenerate)]), 0

    est = run_kernel(squared, RngStream(73, 10 * k + m), draws)
    n = k * m
    assert abs(est.value - math.factorial(n) / n**n) < 4.0 * est.stderr


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


def test_integral_mode_validation():
    with pytest.raises(ValueError):
        edeg24_integral(mode="trapezoid")
    with pytest.raises(ValueError):
        edeg24_integral(mode="mc")  # rng/samples missing
    with pytest.raises(TypeError, match="samples must be an integer, got 1000.5"):
        edeg24_integral(mode="mc", rng=RngStream(0, 0), samples=1000.5)


def test_integral_mc_agrees_and_is_deterministic():
    # N = 13781 takes two whole shifts per chunk, N = 27581 > CHUNK one,
    # and N = 77951 > 2.5 CHUNK two slices of each shift
    for samples in (200_000, 400_000, 1_100_000):
        a = edeg24_integral(mode="mc", rng=RngStream(43, 0), samples=samples)
        b = edeg24_integral(mode="mc", rng=RngStream(43, 0), samples=samples,
                            workers=8)
        assert a == b
        assert a.method == "edeg24-torus-lattice"
        assert abs(a.value - EDEG24) < 4.0 * a.stderr


def test_lattice_plan_covers_the_samples():
    sizes = [n for n, *_ in mc._KOROBOV]
    top = sizes[-1]
    for samples in (1, 16 * 37, 16 * 37 + 1, 262_144, 10_000_000, 16 * top,
                    16 * top + 1, 10**9):
        n, _, shifts = mc._lattice_plan(samples)
        if samples <= 16 * top:
            assert shifts == 16
            assert n == min(m for m in sizes if 16 * m >= samples), samples
        else:  # above the table: its largest lattice, more shifts
            assert n == top and shifts == -(-samples // top), samples
    assert mc._lattice_plan(262_144)[:2] == (16411, 5254)
    est = edeg24_integral(mode="mc", rng=RngStream(46, 0), samples=50_000)
    assert est.n_samples == 16 * mc._lattice_plan(50_000)[0] >= 50_000


def _korobov_tool():
    spec = importlib.util.spec_from_file_location(
        "korobov_table", ROOT / "tools" / "korobov_table.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_korobov_table_entry_recomputes():
    # N of entry j is the first prime >= 2^(j/4), and a is a unit other than 1
    tool = _korobov_tool()
    assert len(mc._KOROBOV) == len(tool.J_RANGE) == 61
    for j, (n, a, _) in zip(tool.J_RANGE, mc._KOROBOV):
        assert n == tool.lattice_size(j) and math.gcd(a, n) == 1 and 1 < a < n, j
    assert mc._KOROBOV[0][0] == 37 and mc._KOROBOV[-1][0] == 1_048_583


def test_korobov_table_search_reproduces_the_small_entries():
    # the whole two-stage search, every multiplier, for N <= 257 (the tool's
    # --check does the same)
    tool = _korobov_tool()
    for j, (n, a, score) in zip(tool.J_RANGE, mc._KOROBOV):
        if j > tool.CHECK_SEARCH_J:
            break
        found_n, found_a, found_score = tool.search(j)
        assert (found_n, found_a) == (n, a), j
        assert math.isclose(found_score, score, rel_tol=tool.SCORE_RTOL), j


def test_korobov_table_variances_recompute_and_stay_near_one_scale():
    # the stored shift variance V of every lattice up to 2^16 points, on
    # the tool's own shifts (the tool's --check does them all)
    tool = _korobov_tool()
    for j, (n, a, score) in zip(tool.J_RANGE, mc._KOROBOV):
        if n <= 2**16:
            assert math.isclose(tool.shift_variance(j, n, a), score,
                                rel_tol=tool.SCORE_RTOL), n
    # sqrt(V) N drifts from ~0.35 at N = 37 to ~0.04 at 2^20, so no entry
    # is judged against the whole table: none exceeds twice the median of
    # the entries within four rows of it.
    scaled = [math.sqrt(score) * n for n, _, score in mc._KOROBOV]
    for i, value in enumerate(scaled):
        near = scaled[max(0, i - 4):i + 5]
        assert value <= 2.0 * float(np.median(near)), mc._KOROBOV[i][0]


def _chunk_rows(n, a, delta, monkeypatch):
    """The (sin, cos) rows that ``_lattice_means`` hands the integrand.

    Each is (4, shifts, n); above 2.5 CHUNK ``delta`` holds one shift, whose
    slices are joined along the points.
    """
    seen = []

    def record(sin, cos, work):
        seen.append((sin.copy(), cos.copy()))
        return np.zeros(sin.shape[1:])

    with monkeypatch.context() as patch:
        patch.setattr(mc, "_torus_third_pair_mean", record)
        mc._lattice_means(n, a, delta)
    axis = 1 if n <= mc._LATTICE_CHUNK_POINTS else 2
    return (np.concatenate([sin for sin, _ in seen], axis=axis),
            np.concatenate([cos for _, cos in seen], axis=axis))


def _half_angle_lattice_means(n, a, delta):
    """Shift means by explicit angles: 2 pi frac(k z / N + delta), wrapped
    into [0, 2 pi), then sin and cos from the tangent of the half angle."""
    z = np.array([pow(a, d, n) for d in range(4)])
    k = np.arange(n)
    sums = np.zeros(len(delta))
    for start in range(0, n, CHUNK):
        points = (k[start:start + CHUNK, None] * z % n / n)[None, :, :]
        angles = ((points + delta[:, None, :]) % 1.0 * (2.0 * math.pi)).transpose(2, 0, 1)
        sin, cos = half_angle_sin_cos(0.5 * angles)
        sums += mc._torus_third_pair_mean(sin, cos).sum(axis=1)
    return sums / n


def test_lattice_integrates_fourier_modes_exactly(monkeypatch):
    # a shifted rank-1 rule averages exp(2 pi i h.x) to 0, the exact
    # integral, unless h.z = 0 mod N, where it gives exp(2 pi i h.delta);
    # exp(i h.theta) is the product of (cos + i sin)^h_d of the chunk rows.
    # The sliced lattice exercises the offset of a chunk that starts at k0 > 0.
    for n, a, *_ in (mc._KOROBOV[0], mc._KOROBOV[42]):
        assert n in (37, 46349)
        z = np.array([pow(a, d, n) for d in range(4)])
        span = shifts = 3 if n <= CHUNK else 1
        delta = np.random.default_rng(8).random((shifts, 4))
        sin, cos = _chunk_rows(n, a, delta, monkeypatch)
        assert sin.shape == cos.shape == (4, len(delta), n)
        # on the unit circle to rounding; sin^2 + cos^2 - 1 itself rounds
        # to 5.6e-16 on these points, by angle addition or half-angle tangent
        assert np.abs(np.hypot(sin, cos) - 1.0).max() <= 4e-16
        unit = cos + 1j * sin
        powers = {h: unit**h for h in range(-span, span + 1)}
        h = np.array(list(itertools.product(range(-span, span + 1), repeat=4)))
        h = h[np.any(h != 0, axis=1)]
        mean = np.array([np.prod([powers[hd][d] for d, hd in enumerate(row)], axis=0)
                         .mean(axis=1) for row in h])
        on_dual = h @ z % n == 0
        assert np.abs(mean[~on_dual]).max() < 1e-13, n
        if n <= CHUNK:
            assert 0 < on_dual.sum() < len(h)
            phase = np.exp(2j * math.pi * (h[on_dual] @ delta.T))
            assert np.abs(mean[on_dual] - phase).max() < 1e-13


def test_angle_addition_chunks_match_half_angle_chunks():
    # the same lattice points and shifts through explicit angles: N = 8209
    # holds four shifts per chunk, N = 23173 one, and N = 46349 slices each
    # shift in two
    for n, a, *_ in (mc._KOROBOV[32], mc._KOROBOV[38], mc._KOROBOV[42]):
        assert n in (8209, 23173, 46349)
        delta = np.random.default_rng(n).random((4, 4))
        got = mc._lattice_means(n, a, delta)
        want = _half_angle_lattice_means(n, a, delta)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_lattice_chunks_cover_every_point_once_within_two_chunks():
    most = mc._LATTICE_CHUNK_POINTS
    for n, *_ in mc._KOROBOV:
        for shifts in (1, 4, 16, 17):
            plan = mc._lattice_chunks(n, shifts)
            # in fold order, each shift's points once, from 0 to N
            reached = [0] * shifts
            for i0, i1, k0, count in plan:
                assert 0 < (i1 - i0) * count <= most, (n, shifts)
                for i in range(i0, i1):
                    assert reached[i] == k0 and not any(reached[i + 1:])
                    reached[i] = k0 + count
            assert reached == [n] * shifts, (n, shifts)
            if n <= most:  # whole shifts, as many as fit
                assert all(k0 == 0 and count == n for _, _, k0, count in plan)
                assert plan[0][1] == min(shifts, most // n)
            else:  # equal slices of one shift
                counts = {count for _, _, _, count in plan}
                assert max(counts) - min(counts) <= 1
    # the benchmark's 16 shifts of N = 16411: 8 chunks of two shifts
    plan = mc._lattice_chunks(16411, 16)
    assert len(plan) == 8 and plan[0] == (0, 2, 0, 16411)
    # a torus chunk's 12 rows fit the workspace
    assert 12 * most <= mc._WORKSPACE_DOUBLES


def _one_shift_means(n, a, delta):
    """Shift means one shift at a time, in slices of at most CHUNK points,
    by the same angle addition as the chunks of ``_lattice_means``."""
    z = [pow(a, d, n) for d in range(4)]
    block_sin, block_cos = mc._lattice_sin_cos(n, a)
    means = []
    for shift in delta:
        total = 0.0
        for k0 in range(0, n, CHUNK):
            count = min(CHUNK, n - k0)
            k0z = np.array([k0 * zd % n for zd in z])
            phase = ((shift + k0z / n) % 1.0 * (2.0 * math.pi))[:, None]
            s, c = np.sin(phase), np.cos(phase)
            sin = block_sin[:, :count] * c + block_cos[:, :count] * s
            cos = block_cos[:, :count] * c - block_sin[:, :count] * s
            total += mc._torus_third_pair_mean(sin, cos).sum()
        means.append(total / n)
    return np.array(means)


def test_lattice_means_match_one_shift_at_a_time():
    # up to N = CHUNK the oracle's slices are whole shifts, so only the
    # batching of shifts into chunks differs and the means agree bit for
    # bit; above it both sum the same points in other orders
    for index in (0, 32, 33, 38, 40, 41, 42):
        n, a, *_ = mc._KOROBOV[index]
        delta = np.random.default_rng(index).random((7, 4))
        for workers in (1, 2):
            got = mc._lattice_means(n, a, delta, workers)
            want = _one_shift_means(n, a, delta)
            if n <= CHUNK:
                assert np.array_equal(got, want), n
            else:
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_torus_integral_value_is_pinned():
    # the one-shift-at-a-time oracle on the call's own 16 shifts of
    # N = 16411, whose slices of CHUNK points sum each shift in another order
    est = edeg24_integral(rng=RngStream(5, 1), samples=262_144)
    n, a, shifts = mc._lattice_plan(262_144)
    delta = RngStream(5, 1).substream(0).generator.random((shifts, 4))
    oracle = _one_shift_means(n, a, delta).mean()
    assert math.isclose(est.value, oracle, rel_tol=1e-14)
    assert math.isclose(est.value, 1.7262306647968788, rel_tol=1e-14)


def test_torus_stderr_is_calibrated():
    # z against the exact value over 200 streams of the benchmark's size:
    # with 16 shifts z is Student's t on 15 degrees of freedom, sd 1.07
    z = np.array([(est.value - EDEG24) / est.stderr for est in (
        edeg24_integral(rng=RngStream(50, stream), samples=262_144, workers=2)
        for stream in range(200))])
    assert 0.8 <= z.std() <= 1.2, z.std()
    assert abs(z.mean()) <= 3.0 * z.std() / math.sqrt(len(z)), z.mean()


def plain_conditional_mc(rng, samples):
    """The conditional torus integrand at uniform draws of the four angles."""

    def kernel(gen, count):
        angles = gen.uniform(0.0, 2.0 * math.pi, (4, count))
        return mc._torus_third_pair_mean(np.sin(angles), np.cos(angles)), 0

    return run_kernel(kernel, rng, samples)


def test_lattice_shift_means_match_plain_draws():
    # random shifts make each shift's mean unbiased: many shifts of a small
    # lattice, whose own error is large, average to the integral
    n, a, *_ = mc._KOROBOV[8]
    shifts = 4096
    means = mc._lattice_means(n, a, RngStream(45, 0).generator.random((shifts, 4)))
    lattice = StreamingStats.from_values(means)
    plain = plain_conditional_mc(RngStream(45, 1), shifts * n)
    assert abs(lattice.mean - plain.value) <= 3.0 * math.hypot(
        lattice.stderr_of_mean, plain.stderr)


def _torus_rows_by_sines(t, s):
    return np.sin(t) * np.sin(s), np.cos(t) * np.sin(s), np.sin(t) * np.cos(s)


def plain_torus_mc(rng, samples, workers=1):
    """The six-angle torus kernel: |det3| at uniform draws of every angle."""

    def kernel(gen, count):
        t = gen.uniform(0.0, 2.0 * math.pi, (count, 3))
        s = gen.uniform(0.0, 2.0 * math.pi, (count, 3))
        a, b, c = _torus_rows_by_sines(t, s)
        rows = [(a[:, i], b[:, i], c[:, i]) for i in range(3)]
        return np.abs(det3(*rows)) * mc._TORUS_PREFACTOR, 0

    return run_kernel(kernel, rng, samples, workers=workers)


def test_half_angle_sin_cos_match_numpy():
    angle = np.concatenate([
        [0.0, math.pi / 2.0, math.pi, 1.5 * math.pi, np.nextafter(2.0 * math.pi, 0.0)],
        np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, 200_000)])
    sin, cos = half_angle_sin_cos(0.5 * angle)
    assert np.abs(sin - np.sin(angle)).max() <= 2.3e-16
    assert np.abs(cos - np.cos(angle)).max() <= 2.3e-16
    out = (np.empty_like(angle), np.empty_like(angle))
    got = half_angle_sin_cos(0.5 * angle, out=out)
    assert got[0] is out[0] and got[1] is out[1]
    assert np.array_equal(out[0], sin) and np.array_equal(out[1], cos)
    half = 0.5 * angle  # in place, sine over the half angles
    got = half_angle_sin_cos(half, out=(half, out[1]), work=np.empty_like(angle))
    assert got[0] is half
    assert np.array_equal(half, sin) and np.array_equal(out[1], cos)


def test_torus_conditional_value_is_the_mean_over_the_third_pair():
    # brute force: |det3| on a midpoint grid over (t3, s3); near-kinks in
    # t3 (a small eigenvalue) need the finer axis there
    t, s = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, (2, 2, 6))
    angles = np.concatenate([t, s])
    conditional = mc._torus_third_pair_mean(np.sin(angles), np.cos(angles))
    work = np.empty((12, 6))  # the chunks' call: sin and cos in the work rows
    work[0:4], work[4:8] = np.sin(angles), np.cos(angles)
    in_place = mc._torus_third_pair_mean(work[0:4], work[4:8], work)
    assert np.array_equal(in_place, conditional)
    nt, ns = 4096, 1024
    grid_t = (np.arange(nt) + 0.5) * (2.0 * math.pi / nt)
    grid_s = (np.arange(ns) + 0.5) * (2.0 * math.pi / ns)
    for i in range(t.shape[1]):
        first = _torus_rows_by_sines(t[0, i], s[0, i])
        second = _torus_rows_by_sines(t[1, i], s[1, i])
        total = 0.0
        for block in np.split(grid_t, 8):  # bounds the temporaries
            third = _torus_rows_by_sines(block[:, None], grid_s[None, :])
            total += np.abs(det3(first, second, third)).sum()
        brute = total / (nt * ns) * mc._TORUS_PREFACTOR
        assert math.isclose(conditional[i], brute, rel_tol=1e-6), i


def test_torus_conditional_value_is_zero_for_parallel_rows():
    # equal pairs give r1 = r2; (0, 0) gives the zero row
    t = np.array([[0.3, 0.0, 1.0], [0.3, 2.0, 1.0 + 1e-9]])
    s = np.array([[1.1, 0.0, 2.0], [1.1, 0.7, 2.0]])
    angles = np.concatenate([t, s])
    with np.errstate(all="raise"):
        value = mc._torus_third_pair_mean(np.sin(angles), np.cos(angles))
    assert value[0] == 0.0 and value[1] == 0.0
    assert 0.0 < value[2] < 1e-6


def test_torus_conditional_mc_beats_the_six_angle_oracle():
    samples = 200_000
    plain = plain_torus_mc(RngStream(44, 0), samples)
    conditional = edeg24_integral(mode="mc", rng=RngStream(44, 1), samples=samples)
    assert conditional.stderr <= 0.01 * plain.stderr
    assert abs(conditional.value - plain.value) <= 3.0 * math.hypot(
        conditional.stderr, plain.stderr)
    assert abs(plain.value - EDEG24) < 4.0 * plain.stderr


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


def whole_chunk_jacobi_angles(gen, count, n, k, j):
    """``mc._jacobi_angles`` without sub-batches, every draw of a chunk at
    once: the bidiagonal B of the Jacobi matrix model built entry by entry,
    and its singular values from numpy's SVD."""
    a, b = j - k, n - j - k
    i, i1 = np.arange(k, 0, -1.0), np.arange(k - 1, 0, -1.0)
    z = gen.beta(np.concatenate([a + i, i1]) / 2.0,
                 np.concatenate([b + i, a + b + 1.0 + i1]) / 2.0,
                 size=(count, 2 * k - 1))
    c, s = np.sqrt(z[:, :k]), np.sqrt(1.0 - z[:, :k])  # c_k .. c_1
    cp, sp = np.sqrt(z[:, k:]), np.sqrt(1.0 - z[:, k:])  # c'_{k-1} .. c'_1
    bmat = np.zeros((count, k, k))
    p = np.arange(k)
    bmat[:, p, p] = c * np.concatenate([np.ones((count, 1)), sp], axis=1)
    bmat[:, p[:-1], p[1:]] = -s[:, :-1] * cp
    sv = np.linalg.svd(bmat, compute_uv=False)[:, :2]
    return np.arccos(np.clip(sv, 0.0, 1.0)).T  # descending: ascending angles


def test_frame_sub_batches_read_the_whole_chunk_draws(monkeypatch):
    # the Schubert ratio away from (2, 4) and the goodness of fit away from
    # (2, 2, 4), on a full and a partial chunk: with the default budget at
    # 1 and 8 workers, with one of 1000 draws at k = 3, and against
    # whole-chunk draws reduced by numpy's SVD.  (3, 7) bisects, (2, 3, 6)
    # takes the k = 2 roots and the other two read c_1^2 itself.
    samples = CHUNK + 3000

    def both(workers=1):
        return (schubert_ratio_mc(3, 7, 0.3, 0.5, RngStream(64, 0), samples,
                                  workers=workers),
                schubert_ratio_mc(1, 4, 0.3, 0.3, RngStream(64, 1), samples,
                                  workers=workers),
                density_gof(2, 3, 6, RngStream(64, 2), samples, workers=workers),
                density_gof(1, 2, 5, RngStream(64, 3), samples, workers=workers))

    default = both()
    assert both(workers=8) == default
    monkeypatch.setattr(mc, "_BATCH_BYTES", 1000 * 8 * (5 * 3 + 16))
    assert both() == default
    monkeypatch.setattr(mc, "_jacobi_angles", whole_chunk_jacobi_angles)
    assert both() == default


def test_frame_chunk_memory_is_bounded():
    # one chunk of 4096 draws at (k, n) = (200, 400): the whole chunk's 399
    # Betas a draw and its tridiagonals would take 40 MiB, a full chunk's
    # 160 MiB; sub-batches keep it near the budget
    tracemalloc.start()
    try:
        est = schubert_ratio_mc(200, 400, 0.3, 0.5, RngStream(65, 0), 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n_samples == 4096
    assert peak < 1.25 * mc._BATCH_BYTES, peak


def qr_svd_frame_angles(gen, count, n, k, j):
    # the two smallest principal angles of Gaussian n x k frames against
    # span(e_1, ..., e_j), from numpy's QR and SVD: shape (2, count)
    q, _ = np.linalg.qr(gen.standard_normal((count, n, k)))
    sv = np.linalg.svd(q[:, :j, :], compute_uv=False)[:, :2]
    return np.arccos(np.clip(sv, 0.0, 1.0)).T


@pytest.mark.parametrize("k, n", [(3, 6), (3, 7), (5, 10), (10, 20)])
def test_jacobi_angles_follow_the_frame_law(k, n):
    # two-sample KS of each of the two smallest angles, Jacobi model against
    # Gaussian frames, at the 1% critical value; the same test rejects the
    # model drawn for R^(n+1)
    draws, j = 50_000, n - k
    critical = math.sqrt(-0.5 * math.log(0.005)) * math.sqrt(2.0 / draws)
    frames = qr_svd_frame_angles(RngStream(66, n).generator, draws, n, k, j)
    jacobi = mc._jacobi_angles(RngStream(67, n).generator, draws, n, k, j)
    wrong = mc._jacobi_angles(RngStream(68, n).generator, draws, n + 1, k, j)
    for r in range(2):
        assert ks_2samp(jacobi[r], frames[r]).statistic < critical, r
        assert ks_2samp(wrong[r], frames[r]).statistic > critical, r


def test_jacobi_roots_agree_with_the_bisection():
    # at k = 2 the closed-form roots and the Sturm bisection of the same T
    z = RngStream(69, 0).generator.beta([2.0, 1.5, 0.5], [1.5, 1.0, 3.0],
                                        size=(100_000, 3)).T
    c2, cp2 = z[:2], z[2:]
    e2 = (1.0 - c2[:1]) * cp2
    d2 = c2 * np.stack([np.ones_like(cp2[0]), 1.0 - cp2[0]])
    bisected = mc._sturm_top_two(d2 + np.vstack([np.zeros_like(e2), e2]), d2[:1] * e2)
    roots = np.array(mc._top_cos2(z.copy(), 2))
    assert np.max(np.abs(roots - bisected)) < 2e-13


def test_sturm_bisection_matches_eigvalsh_on_edge_cases():
    # diagonal matrices (zero off-diagonals, so exact zero pivots), repeated
    # eigenvalues, the ends 0 and 1, and random tridiagonals of [0, 1]
    diags = [[0.5, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0],
             [0.0, 0.0, 0.0], [0.25, 0.75, 0.75], [0.5, 0.25, 0.5], [0.5, 0.25, 0.25]]
    diag = np.array(diags + [[0.5, 0.5, 0.5]] * 200).T
    off2 = np.zeros((2, diag.shape[1]))
    off2[:, len(diags):] = RngStream(70, 0).generator.random((2, 200)) / 16.0
    mats = np.zeros((diag.shape[1], 3, 3))
    mats[:, [0, 1, 2], [0, 1, 2]] = diag.T
    mats[:, [0, 1], [1, 2]] = mats[:, [1, 2], [0, 1]] = np.sqrt(off2.T)
    want = np.linalg.eigvalsh(mats)[:, ::-1][:, :2].T
    got = mc._sturm_top_two(diag, off2.copy())
    assert np.all((0.0 <= got) & (got <= 1.0))
    assert np.max(np.abs(got - want)) < 1e-15


@pytest.mark.parametrize("l, n", [(3, 6), (200, 400)])
def test_density_gof_off_g24_within_the_criterion_bound(l, n):
    # criterion 4 bounds the L1 by 0.02 at 10^6 samples; its sampling part
    # shrinks like 1/sqrt(samples)
    samples = 200_000
    l1 = density_gof(2, l, n, RngStream(71, n), samples)
    assert 0.0 < l1 < 0.02 * math.sqrt(1e6 / samples)


def _g24_chunk_angles(rng, index, count):
    # what a (2, 4) chunk should compute: one (2, count) uniform draw, mapped
    # to the heights 2r - 1 and then to the angles
    return g24_angles_from_heights(
        2.0 * rng.substream(index).generator.random((2, count)) - 1.0)


def test_g24_chunk_leaves_the_stream_where_two_uniforms_do():
    count = 1000
    used, fresh = RngStream(47, 0).generator, RngStream(47, 0).generator
    angles = mc._jacobi_angles(used, count, 4, 2, 2)
    heights = 2.0 * fresh.random((2, count)) - 1.0
    # the same next raw 64-bit outputs: the same point of the stream
    assert np.array_equal(used.bit_generator.random_raw(4),
                          fresh.bit_generator.random_raw(4))
    assert np.array_equal(angles, g24_angles_from_heights(heights))


def test_g24_kernels_read_two_uniforms_per_sample():
    # both (2, 4) estimators, over a full and a partial chunk, against the
    # chunks' angles recomputed from their substreams
    samples = mc.CHUNK + 5
    rng = RngStream(48, 0)
    angles = np.concatenate([_g24_chunk_angles(rng, 0, mc.CHUNK),
                             _g24_chunk_angles(rng, 1, 5)], axis=1)
    eps, delta = 0.3, 0.5
    est = schubert_ratio_mc(2, 4, eps=eps, delta=delta, rng=rng, samples=samples)
    hits = np.count_nonzero((angles[0] <= eps) & (angles[1] >= delta))
    assert est.value == pytest.approx(hits / samples / (2.0 * eps), rel=1e-12)
    idx = np.minimum((angles / (math.pi / 60.0)).astype(np.int64), 29)
    counts = np.bincount(idx[0] * 30 + idx[1], minlength=900).reshape(30, 30)
    l1 = np.abs(counts / samples - mc._gof_expected(2, 2, 4, 30)).sum()
    assert density_gof(2, 2, 4, rng, samples) == pytest.approx(l1, rel=1e-12)


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
    est = density_normalization(1, 1, 2)
    assert abs(est.value - 1.0) < 1e-9
    assert est.n_samples == 0 and est.seed == 0


def test_density_normalization_bounds_n_at_k3():
    assert abs(density_normalization(3, 3, 6).value - 1.0) < 1e-9
    assert abs(density_normalization(3, 3, 100).value - 1.0) < 1e-12
    with pytest.raises(ValueError, match="n <= 100 only, got n = 101"):
        density_normalization(3, 3, 101)
    for k in (1, 2):
        with pytest.raises(ValueError, match="n <= 1000 only, got n = 1001"):
            density_normalization(k, 3, 1001)
    with pytest.raises(ValueError, match="k <= 3"):
        density_normalization(4, 4, 8)


@pytest.mark.parametrize("k, l, n", [
    (1, 1, 2), (1, 5, 6), (1, 1, 100), (1, 1, 1000), (1, 500, 1000),
    (1, 999, 1000), (2, 2, 4), (2, 3, 5), (2, 10, 30), (2, 2, 100),
    (2, 50, 100), (2, 2, 1000), (2, 500, 1000), (2, 998, 1000), (3, 3, 6),
    (3, 3, 12), (3, 5, 20), (3, 10, 40), (3, 20, 60), (3, 3, 100),
    (3, 30, 100), (3, 47, 100), (3, 97, 100),
])
def test_density_normalization_grid(k, l, n):
    est = density_normalization(k, l, n)
    assert abs(est.value - 1.0) <= 1e-12
    assert 0.0 <= est.stderr <= 1e-8


def _gof_expected_loop(k, l, n, bins):
    # the per-node loop the vectorized _gof_expected replaced, kept as its
    # oracle: tensor Gauss-Legendre off the diagonal, and on a diagonal cell
    # the collapsed rule t2 = lo + h u, t1 = lo + h u v with Jacobian h^2 u
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
    u, wu = 0.5 * (1.0 + x8), 0.5 * w8
    width = edges[1] - edges[0]
    prob = np.zeros((bins, bins))
    for b1 in range(bins):
        acc = 0.0
        for a1 in range(8):
            t2 = edges[b1] + width * u[a1]
            for a2 in range(8):
                t1 = edges[b1] + width * u[a1] * u[a2]
                acc += width**2 * u[a1] * wu[a1] * wu[a2] * 2.0 * pdf_sym(t1, t2)
        prob[b1, b1] = acc
        for b2 in range(b1 + 1, bins):
            acc = 0.0
            for a1 in range(8):
                for a2 in range(8):
                    acc += weights[a1] * weights[a2] * 2.0 * pdf_sym(
                        nodes[b1, a1], nodes[b2, a2])
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


@pytest.mark.parametrize("k, l, n, bins", [(2, 2, 4, 30), (2, 3, 6, 7), (1, 1, 2, 30)])
def test_gof_expected_sums_to_one(k, l, n, bins):
    # the density integrates to 1 over the ordered region, so the cells do too
    assert abs(mc._gof_expected(k, l, n, bins).sum() - 1.0) < 1e-12


def test_gof_expected_is_cached_read_only():
    first = mc._gof_expected(2, 3, 6, 7)
    values = first.copy()
    second = mc._gof_expected(2, 3, 6, 7)
    assert second is first
    assert not first.flags.writeable
    assert np.array_equal(second, values)
    with pytest.raises(ValueError):
        first[0, 0] = 0.0


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


def whole_chunk_vitale_check(d, rng, samples):
    """vitale_check without sub-batches: every d x d draw of a chunk at once."""

    def kernel(gen, count):
        det = np.linalg.det(gen.standard_normal((count, d, d)))
        good = det != 0.0
        return np.abs(det[good]), int(count - good.sum())

    return run_kernel(kernel, rng, samples, method="vitale-mc")


def test_vitale_sub_batches_read_the_whole_chunk_draws(monkeypatch):
    # at d = 12 the default budget holds 7281 draws: 7281 + 7281 + 1822
    samples = CHUNK + 3000
    assert vitale_check(12, RngStream(62, 0), samples) == whole_chunk_vitale_check(
        12, RngStream(62, 0), samples)
    default = vitale_check(5, RngStream(62, 1), samples)
    monkeypatch.setattr(mc, "_BATCH_BYTES", 1000 * 8 * 5 * 5)  # 1000 draws
    small = vitale_check(5, RngStream(62, 1), samples)
    assert small == default == whole_chunk_vitale_check(5, RngStream(62, 1), samples)


def test_vitale_chunk_memory_is_bounded():
    # one whole (16384, 12, 12) chunk of Gaussians would take 18 MiB
    tracemalloc.start()
    try:
        est = vitale_check(12, RngStream(63, 0), CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n_samples == CHUNK
    assert peak < 1.25 * mc._BATCH_BYTES, peak
