import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grassdeg.geomlin import (
    Frame,
    RngStream,
    principal_angles,
    principal_cos2,
    sample_gaussian_matrix,
    sample_uniform_subspace,
    sigma_many,
    sigma_rel,
    singular_values,
    small_det,
    wedge_norm,
)


def frame_of(cols):
    return Frame(np.asarray(cols, dtype=float))


# ------------------------------------------------------------------ rng


def test_stream_is_reproducible():
    a = RngStream(7, 3).standard_normal(100)
    b = RngStream(7, 3).standard_normal(100)
    assert np.array_equal(a, b)


def test_substreams_differ_from_parent_and_each_other():
    root = RngStream(7, 0)
    s0 = root.substream(0).standard_normal(64)
    s1 = root.substream(1).standard_normal(64)
    s_root = RngStream(7, 0).standard_normal(64)
    assert not np.array_equal(s0, s1)
    assert not np.array_equal(s0, s_root)


def test_nested_substreams_do_not_collide():
    seen = set()
    root = RngStream(11, 0)
    for i in range(4):
        child = root.substream(i)
        for j in range(4):
            draw = tuple(child.substream(j).standard_normal(8).tolist())
            assert draw not in seen
            seen.add(draw)


# ---------------------------------------------------------------- frames


def test_frame_rejects_non_orthonormal_columns():
    with pytest.raises(ValueError):
        Frame(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_uniform_subspace_is_orthonormal():
    rng = RngStream(3, 0)
    for n, k in ((3, 1), (4, 2), (7, 3), (9, 5)):
        f = sample_uniform_subspace(rng, n, k)
        gram = f.entries.T @ f.entries
        assert np.max(np.abs(gram - np.eye(k))) < 1e-12


def test_gaussian_matrix_shape_and_determinism():
    a = sample_gaussian_matrix(RngStream(5, 1), 3, 4)
    b = sample_gaussian_matrix(RngStream(5, 1), 3, 4)
    assert a.shape == (3, 4)
    assert np.array_equal(a, b)


# -------------------------------------------------------- principal angles


def test_angles_of_subspace_with_itself_vanish():
    f = sample_uniform_subspace(RngStream(9, 0), 5, 2)
    pa = principal_angles(f, f)
    assert np.max(np.abs(pa.angles)) < 1e-7
    assert pa.zero_count() == 2


def test_angles_of_orthogonal_planes():
    A = frame_of([[1, 0], [0, 1], [0, 0], [0, 0]])
    B = frame_of([[0, 0], [0, 0], [1, 0], [0, 1]])
    pa = principal_angles(A, B)
    assert np.allclose(pa.angles, math.pi / 2.0, atol=1e-12)
    assert pa.zero_count() == 0


def test_partial_overlap_counts_one_zero():
    A = frame_of([[1, 0], [0, 1], [0, 0], [0, 0]])
    B = frame_of([[1, 0], [0, 0], [0, 1], [0, 0]])
    pa = principal_angles(A, B)
    assert pa.zero_count() == 1
    assert math.isclose(pa.angles[-1], math.pi / 2.0, rel_tol=1e-12)


def test_angles_depend_only_on_the_span():
    rng = RngStream(13, 0)
    A = sample_uniform_subspace(rng, 6, 2)
    B = sample_uniform_subspace(rng, 6, 2)
    # rotate A's basis in-place: same span, new orthonormal frame
    c, s = math.cos(0.7), math.sin(0.7)
    R = np.array([[c, -s], [s, c]])
    A2 = Frame(A.entries @ R)
    assert np.allclose(principal_angles(A, B).angles, principal_angles(A2, B).angles,
                       atol=1e-12)


def test_known_tilt_angle():
    t = 0.3
    A = frame_of([[1, 0], [0, 1], [0, 0], [0, 0]])
    B = frame_of([[math.cos(t), 0], [0, 1], [math.sin(t), 0], [0, 0]])
    pa = principal_angles(A, B)
    assert pa.zero_count() == 1
    assert math.isclose(pa.angles[-1], t, rel_tol=1e-9)


# ------------------------------------------------------------- wedge norm


def test_wedge_norm_of_orthonormal_rows_is_one():
    assert math.isclose(wedge_norm(np.eye(4)[:2]), 1.0, rel_tol=1e-14)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=0.1, max_value=5.0))
def test_wedge_norm_scales_per_vector(seed, c):
    V = RngStream(seed, 2).standard_normal((2, 5))
    assert math.isclose(wedge_norm(c * V), c**2 * wedge_norm(V), rel_tol=1e-9)


def test_wedge_norm_rejects_too_many_vectors():
    with pytest.raises(ValueError):
        wedge_norm(np.ones((3, 2)))  # three vectors cannot span in R^2


def test_wedge_norm_of_dependent_vectors_is_zero():
    V = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
    assert wedge_norm(V) == 0.0


# -------------------------------------------------------- relative position


def test_sigma_rel_of_complementary_planes():
    A = frame_of([[1, 0], [0, 1], [0, 0], [0, 0]])
    B = frame_of([[0, 0], [0, 0], [1, 0], [0, 1]])
    assert math.isclose(sigma_rel(A, B), 1.0, rel_tol=1e-14)


def test_sigma_rel_vanishes_on_overlap():
    A = frame_of([[1, 0], [0, 1], [0, 0], [0, 0]])
    B = frame_of([[1, 0], [0, 0], [0, 1], [0, 0]])
    assert sigma_rel(A, B) < 1e-12


def test_sigma_rel_equals_product_of_sines():
    rng = RngStream(21, 0)
    for _ in range(20):
        A = sample_uniform_subspace(rng, 4, 2)
        B = sample_uniform_subspace(rng, 4, 2)
        pa = principal_angles(A, B)
        expect = float(np.prod(np.sin(pa.angles)))
        assert math.isclose(sigma_rel(A, B), expect, rel_tol=0, abs_tol=1e-9)


def test_sigma_many_three_lines_in_r3():
    e = np.eye(3)
    fs = [frame_of(e[:, [i]]) for i in range(3)]
    assert math.isclose(sigma_many(*fs), 1.0, rel_tol=1e-14)


def test_sigma_many_rejects_overfull_input():
    e = np.eye(3)
    fs = [frame_of(e[:, [i]]) for i in range(3)]
    with pytest.raises(ValueError):
        sigma_many(*fs, frame_of(e[:, [0]]))


# ---------------------------------------------- batched closed forms vs LAPACK

EPS = np.finfo(float).eps


def _structured(rng, n, kind, complex_):
    def draw(shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_ else z

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
    m = RngStream(7, 0).standard_normal((5, 6, 6))
    assert np.array_equal(small_det(m), np.linalg.det(m))
    assert np.array_equal(small_det(m[:, :3, :3].copy() * 0.0), np.zeros(5))
    with pytest.raises(ValueError):
        small_det(np.ones((3, 2)))


def _cos2_oracle(g, j):
    # the QR + SVD path the kernels used before the closed form
    q, _ = np.linalg.qr(g)
    sv = np.linalg.svd(np.swapaxes(q[:, :j, :], 1, 2), compute_uv=False)
    return np.clip(sv, 0.0, 1.0)


@pytest.mark.parametrize("n, k, j", [(4, 2, 2), (3, 1, 2), (5, 2, 3), (6, 2, 2)])
def test_principal_cos2_gives_the_kernels_qr_svd_flags_and_bins(n, k, j):
    # schubert flags for eps = delta in {0.01, 0.03, 0.04} and the 30-bin gof
    # histogram index, both from the same 2^20 draws through each path
    draws = 2**20 if (n, j) in ((4, 2), (3, 2)) else 2**17
    width = math.pi / 2.0 / 30
    stream = RngStream(8, n * 10 + k)
    for chunk in range(draws // 2**16):
        g = stream.substream(chunk).standard_normal((2**16, n, k))
        fast = np.arccos(np.sqrt(principal_cos2(g, j)))
        slow = np.arccos(_cos2_oracle(g, j))  # descending svd: ascending angles
        assert np.max(np.abs(fast - slow)) < 1e-6
        for eps in (0.01, 0.03, 0.04):
            hit_fast, hit_slow = fast[:, 0] <= eps, slow[:, 0] <= eps
            if k == 2:
                hit_fast &= fast[:, 1] >= eps
                hit_slow &= slow[:, 1] >= eps
            assert np.array_equal(hit_fast, hit_slow)
        bins_fast = np.minimum((fast / width).astype(np.int64), 29)
        bins_slow = np.minimum((np.sort(slow, axis=1) / width).astype(np.int64), 29)
        assert np.array_equal(bins_fast, bins_slow)


def test_principal_cos2_three_columns_is_the_qr_svd_path():
    g = RngStream(9, 0).standard_normal((500, 6, 3))
    q, _ = np.linalg.qr(g)
    sv = np.linalg.svd(q[:, :3, :], compute_uv=False)
    assert np.array_equal(principal_cos2(g, 3), np.clip(sv**2, 0.0, 1.0))


def test_principal_cos2_degenerate_frames_stay_finite():
    e = np.eye(4)
    tilted = np.stack([e[0], (e[1] + e[2]) / math.sqrt(2.0)], axis=1)
    cases = {
        "contains e1": (np.stack([e[0], e[2]], axis=1), 2, [1.0, 0.0]),
        "contains e1, tilted": (tilted, 2, [1.0, 0.5]),
        "orthogonal to the top block": (np.stack([e[2], e[3]], axis=1), 2, [0.0, 0.0]),
        "equal to the top block (j = k)": (np.stack([e[1], e[0]], axis=1), 2,
                                           [1.0, 1.0]),
        "line orthogonal to the top block": (e[:, 3:], 3, [0.0]),
        "top block is the whole space": (np.stack([e[0], e[3]], axis=1), 4,
                                         [1.0, 1.0]),
        "fewer top rows than columns": (np.stack([e[0], e[3]], axis=1), 1, [1.0]),
    }
    for name, (g, j, expect) in cases.items():
        got = principal_cos2(g, j)
        assert np.all(np.isfinite(got)), name
        assert np.allclose(got, expect, atol=1e-15), (name, got)
    with pytest.raises(ValueError):
        principal_cos2(e[:, :2], 0)
    with pytest.raises(ValueError):
        principal_cos2(np.ones((1, 2)), 1)  # two columns in R^1


@given(
    k=st.integers(min_value=1, max_value=2),
    extra=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_scale=st.floats(min_value=-300.0, max_value=300.0),
)
@example(k=2, extra=1, seed=0, log_scale=300.0)
def test_singular_values_match_lapack(k, extra, seed, log_scale):
    x = RngStream(seed, 0).standard_normal((3, k, k + extra))
    x[2, 1 % k] = x[2, 0]  # rank one when k = 2
    x *= 10.0**log_scale
    fast = singular_values(x)
    oracle = np.linalg.svd(x, compute_uv=False)
    assert np.all(np.isfinite(fast))
    top = oracle[:, :1]
    assert np.all(np.abs(fast - oracle) <= 16.0 * EPS * top)


def test_singular_values_of_zero_and_wide_stacks():
    assert np.array_equal(singular_values(np.zeros((2, 5))), np.zeros(2))
    # equal singular values: the discriminant is a sum of squares, so no sqrt(eps)
    equal = singular_values(3.0 * np.eye(2, 3))
    assert np.allclose(equal, [3.0, 3.0], rtol=0.0, atol=4.0 * EPS)
    x = RngStream(10, 0).standard_normal((4, 3, 5))
    assert np.array_equal(singular_values(x), np.linalg.svd(x, compute_uv=False))
    with pytest.raises(ValueError):
        singular_values(np.ones((3, 2)))
