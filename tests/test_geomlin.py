import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from grassdeg import mc
from grassdeg.geomlin import RngStream, g24_angles_from_heights, small_det


# ------------------------------------------------------------------ rng


def test_stream_is_reproducible():
    a = RngStream(7, 3).generator.standard_normal(100)
    b = RngStream(7, 3).generator.standard_normal(100)
    assert np.array_equal(a, b)


def test_substreams_differ_from_parent_and_each_other():
    root = RngStream(7, 0)
    s0 = root.substream(0).generator.standard_normal(64)
    s1 = root.substream(1).generator.standard_normal(64)
    s_root = RngStream(7, 0).generator.standard_normal(64)
    assert not np.array_equal(s0, s1)
    assert not np.array_equal(s0, s_root)


def test_nested_substreams_do_not_collide():
    seen = set()
    root = RngStream(11, 0)
    for i in range(4):
        child = root.substream(i)
        for j in range(4):
            draw = tuple(child.substream(j).generator.standard_normal(8).tolist())
            assert draw not in seen
            seen.add(draw)


def test_stream_canary():
    # the first draws of a stream and of a substream; a change to numpy's
    # generator or to the stream keys moves every Monte Carlo pin, and
    # shows here first
    root = RngStream(1, 0)
    child = root.substream(3)
    assert child.stream_id == 4  # 0 * 2^32 + 3 + 1
    for stream, uniforms, normals in (
        (root,
         [0.19855798020608006, 0.9191549755248278, 0.6788129364758031,
          0.4561022906222245],
         [-0.9804104528705984, 0.15384550016132556]),
        (child,
         [0.9129868933745531, 0.36727923822561426, 0.6469877110084701,
          0.6164014593536106],
         [-1.3323752965213882, 0.3802222080825534]),
    ):
        assert stream.generator.random(4).tolist() == uniforms
        assert stream.generator.standard_normal(2).tolist() == normals


def test_adjacent_substreams_look_independent():
    root = RngStream(1, 0)
    u = np.stack([root.substream(i).generator.random(4096) for i in range(64)])
    corr = np.corrcoef(u)
    np.fill_diagonal(corr, 0.0)
    assert np.abs(corr).max() < 5.0 / math.sqrt(4096)
    z = np.concatenate([root.substream(i).generator.standard_normal(4096) for i in range(64)])
    assert kstest(z, "norm").pvalue > 0.01


def test_gaussian_matrix_shape_and_determinism():
    a = RngStream(5, 1).generator.standard_normal((3, 4))
    b = RngStream(5, 1).generator.standard_normal((3, 4))
    assert a.shape == (3, 4)
    assert np.array_equal(a, b)


# ---------------------------------------------- batched closed forms vs LAPACK

EPS = np.finfo(float).eps


def _structured(rng, n, kind, complex_):
    def draw(shape):
        z = rng.generator.standard_normal(shape)
        return z + 1j * rng.generator.standard_normal(shape) if complex_ else z

    if kind == "general":
        return draw((n, n))
    if kind == "rank-one":
        return np.outer(draw(n), draw(n))
    if kind == "repeated-column":
        m = draw((n, n))
        m[:, -1] = m[:, 0]
        return m
    if kind == "zero-column":
        m = draw((n, n))
        m[:, n // 2] = 0.0
        return m
    # rows vec(x y^T) of the Vitale volume matrices of C(k, n/k), k = 2 at n = 4
    k = 2 if n == 4 else 1
    x, y = draw((n, k)), draw((n, n // k))
    return (x[:, :, None] * y[:, None, :]).reshape(n, n)


@settings(max_examples=200)
@given(
    n=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from(["general", "rank-one", "repeated-column", "zero-column",
                          "vitale-volume"]),
    complex_=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_scale=st.floats(min_value=-30.0, max_value=30.0),
)
def test_small_det_matches_lapack_within_the_hadamard_bound(n, kind, complex_, seed,
                                                            log_scale):
    m = _structured(RngStream(seed, 0), n, kind, complex_) * math.exp(log_scale)
    fast = small_det(m[None])[0]
    oracle = np.linalg.det(m)
    # |det| <= prod of column norms (Hadamard).  A cofactor expansion's rounding
    # is bounded by n^(n/2) (n+1) eps times that product; numpy's det is
    # sign * exp(log|det|), whose rounding grows with |log|det|| as well
    hadamard = float(np.prod(np.linalg.norm(m, axis=0)))
    log_term = abs(math.log(hadamard)) if hadamard > 0.0 else 0.0
    c = 2.0 * n ** (n / 2) * (n + 1) + log_term
    assert abs(fast - oracle) <= c * EPS * hadamard


def test_small_det_is_lapack_above_four_and_rejects_non_square():
    m = RngStream(7, 0).generator.standard_normal((5, 6, 6))
    assert np.array_equal(small_det(m), np.linalg.det(m))
    assert np.array_equal(small_det(m[:, :3, :3].copy() * 0.0), np.zeros(5))
    with pytest.raises(ValueError):
        small_det(np.ones((3, 2)))


def _jacobi_svd_cos2(z, k):
    # numpy's SVD of the Jacobi model's bidiagonal B, built entry by entry
    # from the draws z = (c_k^2 .. c_1^2, c'_{k-1}^2 .. c'_1^2) of each row
    c, s = np.sqrt(z[:, :k]), np.sqrt(1.0 - z[:, :k])
    cp, sp = np.sqrt(z[:, k:]), np.sqrt(1.0 - z[:, k:])
    b = np.zeros((len(z), k, k))
    p = np.arange(k)
    b[:, p, p] = c * np.concatenate([np.ones((len(z), 1)), sp], axis=1)
    b[:, p[:-1], p[1:]] = -s[:, :-1] * cp
    return np.clip(np.linalg.svd(b, compute_uv=False)[:, :2], 0.0, 1.0)


@pytest.mark.parametrize("n, k, j", [(4, 2, 2), (3, 1, 2), (5, 2, 3), (6, 2, 2)])
def test_principal_cos2_gives_the_kernels_qr_svd_flags_and_bins(n, k, j):
    # the squared principal cosines as the kernels reduce the Jacobi model
    # (mc._top_cos2), against numpy's SVD of the same bidiagonal: schubert
    # flags for eps = delta in {0.01, 0.03, 0.04} and the 30-bin gof
    # histogram index, both from the same 2^20 draws through each path
    a, b = j - k, n - j - k
    i, i1 = np.arange(k, 0, -1.0), np.arange(k - 1, 0, -1.0)
    shapes = (np.concatenate([a + i, i1]) / 2.0,
              np.concatenate([b + i, a + b + 1.0 + i1]) / 2.0)
    width = math.pi / 2.0 / 30
    stream = RngStream(8, n * 10 + k)
    for chunk in range(16):
        z = stream.substream(chunk).generator.beta(*shapes, size=(2**16, 2 * k - 1))
        slow = np.arccos(_jacobi_svd_cos2(z, k)).T  # descending: ascending angles
        fast = np.arccos(np.sqrt(np.asarray(mc._top_cos2(z.T.copy(), k))))
        assert np.max(np.abs(fast - slow)) < 1e-6
        for eps in (0.01, 0.03, 0.04):
            hit_fast, hit_slow = fast[0] <= eps, slow[0] <= eps
            if k == 2:
                hit_fast &= fast[1] >= eps
                hit_slow &= slow[1] >= eps
            assert np.array_equal(hit_fast, hit_slow)
        assert np.array_equal(np.minimum((fast / width).astype(np.int64), 29),
                              np.minimum((slow / width).astype(np.int64), 29))


def _g24_heights(g):
    # unit Pluecker vector of each frame, then the README isometry
    # p01 = (a_0 + b_0)/2, p23 = (a_0 - b_0)/2 to the heights u = a_0, v = b_0
    x, y = g[..., 0], g[..., 1]
    plucker = np.stack([x[:, i] * y[:, j] - x[:, j] * y[:, i]
                        for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))])
    plucker /= np.linalg.norm(plucker, axis=0)
    return np.clip(np.stack([plucker[0] + plucker[5], plucker[0] - plucker[5]]),
                   -1.0, 1.0)


def test_g24_heights_give_the_principal_cos2_angles_flags_and_bins():
    # the Gaussian frames the (2, 4) kernels drew before the closed form, mapped
    # to the two heights: same angles, schubert flags for eps = delta in
    # {0.01, 0.03, 0.04} and 30-bin gof indices, over 2^20 frames
    width = math.pi / 2.0 / 30
    stream = RngStream(8, 424)
    for chunk in range(16):
        g = stream.substream(chunk).generator.standard_normal((2**16, 4, 2))
        fast = g24_angles_from_heights(_g24_heights(g))
        sv = np.linalg.svd(np.linalg.qr(g)[0][:, :2, :], compute_uv=False)
        slow = np.arccos(np.clip(sv, 0.0, 1.0)).T  # descending: ascending angles
        assert np.max(np.abs(fast - slow)) < 1e-8
        for eps in (0.01, 0.03, 0.04):
            assert np.array_equal((fast[0] <= eps) & (fast[1] >= eps),
                                  (slow[0] <= eps) & (slow[1] >= eps))
        bins_fast = np.minimum((fast / width).astype(np.int64), 29)
        bins_slow = np.minimum((slow / width).astype(np.int64), 29)
        assert np.array_equal(bins_fast, bins_slow)


def test_g24_heights_of_uniform_planes_are_independent_uniforms():
    # Archimedes on each S^2 half: u and v uniform on [-1, 1], and their
    # product has P(|uv| <= t) = t - t log t, which independence gives
    u, v = _g24_heights(RngStream(9, 424).generator.standard_normal((200_000, 4, 2)))
    assert kstest(u, "uniform", args=(-1.0, 2.0)).pvalue > 1e-3
    assert kstest(v, "uniform", args=(-1.0, 2.0)).pvalue > 1e-3

    def product_cdf(w):
        a = np.abs(w)
        return 0.5 + 0.5 * np.sign(w) * (a - a * np.log(np.where(a > 0.0, a, 1.0)))

    assert kstest(u * v, product_cdf).pvalue > 1e-3


def test_g24_edge_heights_give_finite_ordered_angles():
    quarter, half = math.pi / 4.0, math.pi / 2.0
    cases = {
        (1.0, 1.0): (0.0, 0.0),  # the fixed plane itself
        (-1.0, -1.0): (0.0, 0.0),
        (1.0, -1.0): (half, half),  # its orthocomplement
        (-1.0, 1.0): (half, half),
        (0.0, 0.0): (0.0, half),
        (-0.0, 0.0): (0.0, half),
        (0.0, -0.0): (0.0, half),
        (-0.0, -0.0): (0.0, half),
    }
    for u in (1.0, -1.0):
        for v in (0.0, -0.0):
            cases[(u, v)] = cases[(v, u)] = (quarter, quarter)
    heights = np.array(list(cases)).T
    angles = g24_angles_from_heights(heights)
    assert np.all(np.isfinite(angles))
    assert np.all((0.0 <= angles[0]) & (angles[0] <= angles[1])
                  & (angles[1] <= half))
    assert np.allclose(angles.T, list(cases.values()), atol=1e-15, rtol=0.0)
    # one plane (0-d rows), and in place
    assert np.allclose(g24_angles_from_heights([1.0, 0.0]), [quarter, quarter])
    inplace = heights.copy()
    assert g24_angles_from_heights(inplace, out=inplace) is inplace
    assert np.array_equal(inplace, angles)
    with pytest.raises(ValueError):
        g24_angles_from_heights(np.zeros((3, 4)))


def masked_g24_angles(heights):
    """The angle map with sign(uv) applied by a masked negation, as before
    the map took it from the sign bit of the product."""
    h = np.asarray(heights, dtype=float)
    flip = np.signbit(h[0]) != np.signbit(h[1])
    angles = np.abs(h)
    q, high = angles[0, ...], angles[1, ...]
    p = np.maximum(q, high)
    np.minimum(q, high, out=q)
    np.negative(q, out=q, where=flip)
    np.arccos(p, out=p)
    np.arccos(q, out=q)
    np.add(q, p, out=high)
    np.subtract(q, p, out=q)
    angles *= 0.5
    return angles


def test_g24_sign_by_copysign_is_bit_identical_to_the_masked_map():
    heights = 2.0 * RngStream(10, 424).generator.random((2, 2**20)) - 1.0
    edges = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5,
             1e-160, -1e-160, 1e-200, -1e-200, 5e-324, -5e-324]
    u, v = np.meshgrid(edges, edges)  # every pair: signed zeros, +-1, and
    edge = np.stack([u.ravel(), v.ravel()])  # products that underflow to +-0
    assert (edge[0] * edge[1] == 0.0).sum() > 4 * len(edges)
    for h in (heights, edge):
        want = masked_g24_angles(h)
        got = g24_angles_from_heights(h)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        inplace = h.copy()
        g24_angles_from_heights(inplace, out=inplace)
        assert np.array_equal(inplace.view(np.int64), want.view(np.int64))
