import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grassdeg.geomlin import (
    Frame,
    RngStream,
    principal_angles,
    sample_gaussian_matrix,
    sample_uniform_subspace,
    sigma_many,
    sigma_rel,
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
