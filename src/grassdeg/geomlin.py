"""Frames, principal angles, wedge norms, and invariant random sampling.

Small dense linear algebra for subspace geometry: orthonormal frames
representing points of G(k,n), the principal angles between two subspaces,
the relative-position functional sigma, and a counter-based RNG wrapper
that makes every Monte Carlo run reproducible from (seed, stream_id).

The batched helpers at the end (``small_det``, ``principal_cos2``,
``singular_values``) serve the Monte Carlo kernels, which hold one tiny
matrix per draw: up to 4x4 and for two-column frames they are elementwise
closed forms, because per-matrix LAPACK calls cost more than the arithmetic.
Above that size they call ``np.linalg``, which is also their test oracle.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Frame",
    "PrincipalAngles",
    "RngStream",
    "sample_gaussian_matrix",
    "sample_uniform_subspace",
    "principal_angles",
    "wedge_norm",
    "sigma_rel",
    "sigma_many",
    "det3",
    "small_det",
    "principal_cos2",
    "singular_values",
]

_ORTHO_TOL = 1e-12
_ZERO_ANGLE_TOL = 1e-7  # arccos(singular value) resolves angles only to ~sqrt(eps)
_MASK64 = (1 << 64) - 1


@dataclass
class Frame:
    """Column-orthonormal n-by-k matrix representing a k-plane in R^n."""

    entries: np.ndarray
    n: int = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 2:
            raise ValueError("a frame is a 2-d array of column vectors")
        self.n, self.k = self.entries.shape
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n, got shape %s" % (self.entries.shape,))
        gram = self.entries.T @ self.entries
        if np.max(np.abs(gram - np.eye(self.k))) > _ORTHO_TOL:
            raise ValueError("columns are not orthonormal to within 1e-12")


@dataclass
class PrincipalAngles:
    """Sorted principal angles between two subspaces, each in [0, pi/2]."""

    angles: np.ndarray

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float)
        if np.any(np.diff(self.angles) < 0):
            raise ValueError("principal angles must be ascending")
        if np.any(self.angles < -1e-15) or np.any(self.angles > math.pi / 2 + 1e-12):
            raise ValueError("principal angles must lie in [0, pi/2]")

    def zero_count(self, tol=_ZERO_ANGLE_TOL):
        """Number of vanishing angles = dimension of the intersection."""
        return int(np.sum(self.angles < tol))


class RngStream:
    """Counter-based random stream fully determined by (seed, stream_id).

    Built on the Philox bit generator, so distinct stream ids give
    statistically independent streams and a fixed pair always replays the
    same draws.  ``substream(i)`` derives child stream ids as
    ``stream_id * 2^32 + i + 1`` (mod 2^64), which is collision-free as
    long as user-chosen ids and child indices stay below 2^32.
    """

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self.generator = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        )

    def substream(self, index):
        return RngStream(self.seed, (self.stream_id * (1 << 32) + index + 1) & _MASK64)

    def standard_normal(self, shape):
        return self.generator.standard_normal(shape)

    def uniform(self, low, high, shape):
        return self.generator.uniform(low, high, shape)

    def __repr__(self):
        return "RngStream(seed=%d, stream_id=%d)" % (self.seed, self.stream_id)


def sample_gaussian_matrix(rng, rows, cols):
    """Matrix with independent standard normal entries."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    return rng.standard_normal((rows, cols))


def sample_uniform_subspace(rng, n, k):
    """Uniform (O(n)-invariant) random k-plane in R^n as a Frame.

    QR of a Gaussian matrix with the R-diagonal sign convention, which
    makes the factorization unique and the draw reproducible.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    g = sample_gaussian_matrix(rng, n, k)
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return Frame(q * signs)


def principal_angles(A, B):
    """Principal angles between the spans of two frames, ascending."""
    if A.n != B.n:
        raise ValueError("frames live in different ambient dimensions")
    sv = np.linalg.svd(A.entries.T @ B.entries, compute_uv=False)
    return PrincipalAngles(np.arccos(np.clip(sv, 0.0, 1.0)))


def wedge_norm(vectors):
    """Norm of v_1 ^ ... ^ v_m = sqrt(det Gram(v_1..v_m)).

    Tiny negative determinants from roundoff are clamped to zero, so
    degenerate inputs return 0 rather than NaN.
    """
    V = np.asarray(vectors, dtype=float)
    if V.ndim != 2:
        raise ValueError("expected a list of equal-length vectors")
    m, d = V.shape
    if m > d:
        raise ValueError("cannot wedge %d vectors in dimension %d" % (m, d))
    det = float(np.linalg.det(V @ V.T))
    return math.sqrt(max(det, 0.0))


def sigma_rel(V, W):
    """Relative position of two subspaces: ||v_1^..^v_k ^ w_1^..^w_l||.

    Equals the product of the sines of the principal angles; 1 for
    orthogonal subspaces, 0 exactly when they intersect nontrivially.
    """
    return sigma_many(V, W)


def sigma_many(*frames):
    """Relative position of several subspaces: norm of the wedge of all bases."""
    if not frames:
        raise ValueError("need at least one frame")
    n = frames[0].n
    total = 0
    cols = []
    for f in frames:
        if f.n != n:
            raise ValueError("frames live in different ambient dimensions")
        total += f.k
        cols.append(f.entries.T)
    if total > n:
        raise ValueError("total dimension %d exceeds ambient %d" % (total, n))
    return wedge_norm(np.vstack(cols))


# ---------------------------------------------------------------------------
# batched closed forms for the per-draw matrices of the Monte Carlo kernels
# ---------------------------------------------------------------------------


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


def _squared_minors(u, v):
    """(r, s, (u_r v_s - u_s v_r)^2) for every pair r < s of entries of u, v."""
    n = u.shape[-1]
    for r in range(n):
        for s in range(r + 1, n):
            m = u[..., r] * v[..., s] - u[..., s] * v[..., r]
            yield r, s, m * m


def _roots_descending(det_a, mixed, det_b, disc):
    """Roots of det_a lam^2 - mixed lam + det_b = 0, larger first.

    ``disc`` is mixed^2 - 4 det_a det_b, computed by the caller in whatever
    form it has.  The larger root adds two nonnegative terms; the smaller is
    det_b over det_a times the larger (0 when both vanish), so neither
    cancels.
    """
    big = (mixed + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * det_a)
    denom = det_a * big
    small = np.divide(det_b, denom, out=np.zeros_like(big), where=denom > 0.0)
    return np.stack([big, small], axis=-1)


def principal_cos2(g, j):
    """Squared cosines of the principal angles between span(g) and span(e_1..e_j).

    ``g`` is a stack of n x k matrices of full column rank; the result has
    min(k, j) values per matrix, descending (the angles ascending), in
    [0, 1].  For k <= 2 they are the roots of det(B - lam A) = 0, with
    A = g^T g and B the same product over the first j rows of g.  det A and
    det B are sums of squared 2x2 minors (Cauchy-Binet), and so is the middle
    coefficient, 2 det B plus the squared minors with one row in the top
    block.  Only the discriminant subtracts: where the two cosines nearly
    coincide they carry an error of order sqrt(eps), on a set of draws whose
    density vanishes there.  For k >= 3 they are the squared singular values
    of the top j rows of an orthonormal basis (QR, then SVD).
    """
    g = np.asarray(g, dtype=float)
    n, k = g.shape[-2:]
    if not (1 <= k <= n and 1 <= j <= n):
        raise ValueError("need 1 <= k <= n and 1 <= j <= n")
    if k == 1:
        sq = g[..., 0] * g[..., 0]
        c2 = (sq[..., :j].sum(axis=-1) / sq.sum(axis=-1))[..., None]
    elif k == 2:
        det_a = det_b = cross = 0.0
        for r, s, m2 in _squared_minors(g[..., 0], g[..., 1]):
            det_a = det_a + m2
            if s < j:
                det_b = det_b + m2
            elif r < j:
                cross = cross + m2
        mixed = 2.0 * det_b + cross
        c2 = _roots_descending(det_a, mixed, det_b, mixed * mixed - 4.0 * det_a * det_b)
    else:
        q, _ = np.linalg.qr(g)
        c2 = np.linalg.svd(q[..., :j, :], compute_uv=False) ** 2
    return np.clip(c2[..., : min(k, j)], 0.0, 1.0)


def singular_values(x):
    """Singular values of a stack of k x m matrices with k <= m, descending.

    For k <= 2 the squares are the eigenvalues of x x^T = [[p, q], [q, r]]:
    the larger from p + r and the discriminant (p - r)^2 + 4 q^2, the smaller
    as det(x x^T) over it, with the determinant a sum of squared 2x2 minors.
    Each matrix is scaled by its largest entry first, so no square
    overflows.  k >= 3 calls ``np.linalg.svd``.
    """
    x = np.asarray(x, dtype=float)
    k, m = x.shape[-2:]
    if k > m:
        raise ValueError("need k <= m")
    if k >= 3:
        return np.linalg.svd(x, compute_uv=False)
    scale = np.abs(x).max(axis=(-2, -1))
    scale = np.where(scale > 0.0, scale, 1.0)
    y = x / scale[..., None, None]
    if k == 1:
        sv2 = (y[..., 0, :] ** 2).sum(axis=-1)[..., None]
    else:
        u, v = y[..., 0, :], y[..., 1, :]
        p, q, r = (u * u).sum(axis=-1), (u * v).sum(axis=-1), (v * v).sum(axis=-1)
        det = sum(m2 for _, _, m2 in _squared_minors(u, v))
        sv2 = _roots_descending(1.0, p + r, det, (p - r) ** 2 + 4.0 * q * q)
    return np.sqrt(sv2) * scale[..., None]
