"""Frames, principal angles, wedge norms, and invariant random sampling.

Small dense linear algebra for subspace geometry: orthonormal frames
representing points of G(k,n), the principal angles between two subspaces,
the relative-position functional sigma, and a counter-based RNG wrapper
that makes every Monte Carlo run reproducible from (seed, stream_id).
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
