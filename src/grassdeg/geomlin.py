"""Reproducible random streams and batched closed forms for the kernels.

An RNG wrapper (SFC64 keyed by a SeedSequence) makes every Monte Carlo run
reproducible from (seed, stream_id).

The batched helpers after it serve the Monte Carlo kernels, which hold
one tiny matrix per draw.  ``small_det`` expands determinants up to 4x4
elementwise, because per-matrix LAPACK calls cost more than the
arithmetic; above that size it calls ``np.linalg``, which is also its test
oracle.  ``half_angle_sin_cos`` gives the kernels sin and cos from one
tangent.  ``g24_angles_from_heights`` gives the principal angles of a
uniform 2-plane of R^4 from two uniforms, with no frame at all; at every
other size the samplers draw principal angles from the Jacobi matrix model
(``mc._jacobi_angles``), with no frame either.
"""

import numpy as np

__all__ = [
    "RngStream",
    "half_angle_sin_cos",
    "det3",
    "small_det",
    "g24_angles_from_heights",
]

_MASK64 = (1 << 64) - 1


class RngStream:
    """Random stream fully determined by (seed, stream_id).

    The generator is SFC64 seeded by ``SeedSequence(seed,
    spawn_key=(stream_id,))``.  SeedSequence hashes each distinct
    (seed, stream_id) pair into an unrelated 256-bit state, and SFC64's
    64-bit counter gives every stream a cycle of at least 2^64, so distinct
    stream ids give statistically independent streams and a fixed pair
    always replays the same draws.  ``substream(i)`` derives child stream
    ids as ``stream_id * 2^32 + i + 1`` (mod 2^64), which is collision-free
    as long as user-chosen ids and child indices stay below 2^32.
    """

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self.generator = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))))

    def substream(self, index):
        return RngStream(self.seed, (self.stream_id * (1 << 32) + index + 1) & _MASK64)

    def standard_normal(self, shape):
        return self.generator.standard_normal(shape)

    def __repr__(self):
        return "RngStream(seed=%d, stream_id=%d)" % (self.seed, self.stream_id)


# ---------------------------------------------------------------------------
# batched closed forms for the per-draw matrices of the Monte Carlo kernels
# ---------------------------------------------------------------------------


def half_angle_sin_cos(half, out=None, work=None):
    """(sin, cos) of the angle 2*half from the tangent w of ``half``.

    sin = 2w / (1 + w^2) and cos = (1 - w^2) / (1 + w^2): one tangent costs
    less than half of a sine and a cosine, and both results are within
    2.3e-16 of np.sin and np.cos for angles in [0, 2*pi).  ``out``, a pair
    of arrays, receives (sin, cos) in place of two new ones; sin may be
    ``half`` itself.  ``work``, an array like ``half``, holds 1 / (1 + w^2)
    in place of a new one.
    """
    sin, cos = (None, None) if out is None else out
    w = np.tan(half, out=sin)
    w2 = np.multiply(w, w, out=cos)
    inv = np.divide(1.0, np.add(1.0, w2, out=work), out=work)
    w *= 2.0
    w *= inv
    np.subtract(1.0, w2, out=w2)
    w2 *= inv
    return w, w2


def det3(r0, r1, r2):
    """Determinant of the 3x3 matrix with rows r0, r1, r2, by cofactors of r0.

    Each row is a triple of arrays (or scalars) that broadcast together, so
    a caller can sweep rows over a grid without stacking the matrices.
    """
    a0, a1, a2 = r0
    b0, b1, b2 = r1
    c0, c1, c2 = r2
    return a0 * (b1 * c2 - c1 * b2) + a1 * (b2 * c0 - c2 * b0) + a2 * (b0 * c1 - c0 * b1)


# Laplace expansion of a 4x4 determinant along its first two rows: the column
# pair of the top 2x2 minor, the complementary pair below, and the sign.
_LAPLACE4 = (
    ((0, 1), (2, 3), 1.0),
    ((0, 2), (1, 3), -1.0),
    ((0, 3), (1, 2), 1.0),
    ((1, 2), (0, 3), 1.0),
    ((1, 3), (0, 2), -1.0),
    ((2, 3), (0, 1), 1.0),
)


def small_det(mats):
    """Determinants of a stack of n x n matrices, real or complex.

    n <= 4 is expanded by cofactors elementwise (Laplace along the top two
    rows for n = 4); larger n calls ``np.linalg.det``.
    """
    mats = np.asarray(mats)
    n = mats.shape[-1]
    if mats.ndim < 2 or mats.shape[-2] != n:
        raise ValueError("expected a stack of square matrices")
    if n > 4:
        return np.linalg.det(mats)

    def e(i, j):
        return mats[..., i, j]

    if n == 1:
        return e(0, 0).copy()
    if n == 2:
        return e(0, 0) * e(1, 1) - e(1, 0) * e(0, 1)
    if n == 3:
        return det3(*[[e(i, j) for j in range(3)] for i in range(3)])
    total = 0.0
    for (a, b), (c, d), sign in _LAPLACE4:
        top = e(0, a) * e(1, b) - e(1, a) * e(0, b)
        bottom = e(2, c) * e(3, d) - e(3, c) * e(2, d)
        total = total + sign * top * bottom
    return total


def g24_angles_from_heights(heights, out=None):
    """Ascending principal angles of 2-planes of R^4 against span(e_1, e_2).

    G(2,4) is (S^2 x S^2)/+-1: the plane with unit Pluecker vector p is the
    pair of unit vectors a, b of R^3 with p01 = (a_0 + b_0)/2 and
    p23 = (a_0 - b_0)/2 (the isometry the incidence samplers draw lines
    by).  ``heights`` has shape (2, ...) and holds u = a_0 and v = b_0, in
    [-1, 1].  As |p01| = cos t1 cos t2 and |p23| = sin t1 sin t2,
    cos(t2 - t1) = max(|u|, |v|) = P and cos(t1 + t2) = sign(uv) min(|u|, |v|)
    = Q, so t1, t2 = (arccos Q -+ arccos P) / 2.  For a uniform 2-plane a and
    b are independent uniform points of S^2, so by Archimedes u and v are
    independent Uniform[-1, 1]: two uniforms give both angles.  Q takes the
    sign bit of the product uv by copysign: an IEEE product's sign bit is
    the XOR of its factors', for signed zeros and underflow too, so no
    masked write is needed.  Returns (t1, t2) with 0 <= t1 <= t2 <= pi/2,
    shape (2, ...); ``out``, which may be ``heights`` itself, receives them
    in place of a new array, and the map allocates two rows besides.
    """
    h = np.asarray(heights, dtype=float)
    if h.shape[:1] != (2,):
        raise ValueError("heights must have shape (2, ...)")
    sign = np.multiply(h[0], h[1])  # read before ``out`` overwrites h
    angles = np.abs(h, out=out)
    q, high = angles[0, ...], angles[1, ...]  # views, 0-d ones included
    p = np.maximum(q, high, out=np.empty_like(q))
    np.minimum(q, high, out=q)
    np.copysign(q, sign, out=q)
    np.arccos(p, out=p)
    np.arccos(q, out=q)
    np.add(q, p, out=high)
    np.subtract(q, p, out=q)
    angles *= 0.5
    return angles

