"""Monte Carlo engine and cross-check estimators.

Everything random in this package funnels through ``run_kernel``: work is cut
into fixed-size chunks, chunk i draws from an independent substream derived
from the caller's RngStream, and per-chunk moments are folded left-to-right.
The worker pool only changes scheduling, never which stream produced which
chunk, so results are byte-identical for any worker count.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._quad import composite_gl_log
from .geomlin import (
    RngStream,
    det3,
    principal_cos2,
    singular_values,
    small_det,
)
from .specfun import (
    log_gamma,
    multivariate_gamma_log,
    vol_sphere_log,
)

CHUNK = 16384

__all__ = [
    "CHUNK",
    "Estimate",
    "StreamingStats",
    "run_kernel",
    "alpha_mc",
    "alpha_complex_exact",
    "alpha_complex_mc",
    "edeg24_integral",
    "schubert_ratio_exact",
    "schubert_ratio_mc",
    "density_pdf",
    "density_normalization",
    "density_gof",
    "vitale_check",
    "vitale_closed_form",
    "integration_formula_check",
]


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo (or quadrature) result with its uncertainty.

    ``value`` averages the non-degenerate draws; ``degenerate_count`` out of
    ``n_samples`` requested draws were excluded.  For quadrature-backed
    estimates ``stderr`` is a grid-refinement error proxy and ``seed`` is 0.
    """

    value: float
    stderr: float
    n_samples: int
    seed: int
    method: str
    degenerate_count: int = 0

    def scaled(self, factor, method=None):
        """Rescale value and stderr by a positive constant."""
        return Estimate(
            value=self.value * factor,
            stderr=self.stderr * abs(factor),
            n_samples=self.n_samples,
            seed=self.seed,
            method=self.method if method is None else method,
            degenerate_count=self.degenerate_count,
        )


@dataclass
class StreamingStats:
    """Count / mean / sum-of-squared-deviations accumulator.

    Supports exact pairwise merging, so chunk statistics can be combined in a
    fixed order regardless of which thread computed them.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def from_values(cls, values):
        values = np.asarray(values, dtype=float)
        n = int(values.size)
        if n == 0:
            return cls()
        mu = float(values.mean())
        return cls(count=n, mean=mu, m2=float(np.sum((values - mu) ** 2)))

    def push(self, x):
        """Add one observation (Welford update)."""
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def merge(self, other):
        """Combined statistics of the two underlying sample sets."""
        if self.count == 0:
            return StreamingStats(other.count, other.mean, other.m2)
        if other.count == 0:
            return StreamingStats(self.count, self.mean, self.m2)
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / n
        m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / n
        return StreamingStats(count=n, mean=mean, m2=m2)

    @property
    def variance(self):
        if self.count < 2:
            return float("nan")
        return self.m2 / (self.count - 1)

    @property
    def stderr_of_mean(self):
        if self.count < 2:
            return float("inf")
        return math.sqrt(max(self.m2, 0.0) / (self.count - 1) / self.count)


def _chunk_sizes(samples):
    sizes = [CHUNK] * (samples // CHUNK)
    if samples % CHUNK:
        sizes.append(samples % CHUNK)
    return sizes


def _run_chunks(fn, rng, samples, workers):
    """``fn(generator, count)`` on every chunk, results in chunk order.

    Chunk i always consumes ``rng.substream(i)``; the pool only changes
    scheduling, so the results do not depend on ``workers``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not isinstance(rng, RngStream):
        raise TypeError("rng must be an RngStream")

    def one_chunk(job):
        index, count = job
        return fn(rng.substream(index).generator, count)

    jobs = list(enumerate(_chunk_sizes(samples)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one_chunk, jobs))
    return [one_chunk(j) for j in jobs]


def run_kernel(kernel, rng, samples, workers=1, method="mc"):
    """Deterministic chunked Monte Carlo driver.

    ``kernel(generator, count)`` must return ``(values, degenerate_count)``
    where ``values`` holds the non-degenerate draws.  Chunk statistics are
    merged in index order, so the returned Estimate does not depend on
    ``workers``.
    """

    def moments(gen, count):
        values, degenerate = kernel(gen, count)
        return StreamingStats.from_values(values), int(degenerate)

    results = _run_chunks(moments, rng, samples, workers)
    total = StreamingStats()
    degenerate = 0
    for stats, bad in results:  # fixed fold order
        total = total.merge(stats)
        degenerate += bad
    return Estimate(
        value=total.mean,
        stderr=total.stderr_of_mean,
        n_samples=samples,
        seed=rng.seed,
        method=method,
        degenerate_count=degenerate,
    )


# ---------------------------------------------------------------------------
# alpha(k, m): expected absolute determinant of a matrix whose km columns are
# vec(x_i y_i^T) for independent unit-uniform x_i, y_i.  Computed through the
# Gram determinant det((X X^T) o (Y Y^T)) to stay at km x km.
# ---------------------------------------------------------------------------


def _check_alpha_dims(k, m):
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    if k * m > 36:
        raise ValueError("k*m > 36: determinant accumulation not validated there")


def alpha_mc(k, m, rng, samples, workers=1):
    """Estimate alpha(k, m) by direct simulation of unit-vector pairs."""
    _check_alpha_dims(k, m)
    n = k * m

    def kernel(gen, count):
        x = gen.standard_normal((count, n, k))
        y = gen.standard_normal((count, n, m))
        x /= np.linalg.norm(x, axis=2, keepdims=True)
        y /= np.linalg.norm(y, axis=2, keepdims=True)
        gram = np.matmul(x, np.transpose(x, (0, 2, 1)))
        gram *= np.matmul(y, np.transpose(y, (0, 2, 1)))
        det = small_det(gram)
        good = det > -1e-9
        return np.sqrt(np.clip(det[good], 0.0, None)), int(count - good.sum())

    return run_kernel(kernel, rng, samples, workers=workers, method="alpha-mc")


def alpha_complex_exact(k, m):
    """Complex analogue of alpha as an exact rational: N! / N^N, N = km."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    n = k * m
    if n > 20:
        raise ValueError("k*m > 20: use the Monte Carlo form instead")
    return Fraction(math.factorial(n), n**n)


def alpha_complex_mc(k, m, rng, samples, workers=1):
    """Monte Carlo counterpart of alpha_complex_exact, for cross-validation."""
    _check_alpha_dims(k, m)
    n = k * m

    def kernel(gen, count):
        xr = gen.standard_normal((count, n, k))
        xi = gen.standard_normal((count, n, k))
        yr = gen.standard_normal((count, n, m))
        yi = gen.standard_normal((count, n, m))
        x = xr + 1j * xi
        y = yr + 1j * yi
        x /= np.linalg.norm(x, axis=2, keepdims=True)
        y /= np.linalg.norm(y, axis=2, keepdims=True)
        gram = np.matmul(x, np.conj(np.transpose(x, (0, 2, 1))))
        gram *= np.matmul(y, np.conj(np.transpose(y, (0, 2, 1))))
        det = small_det(gram).real
        good = det > -1e-9
        return np.clip(det[good], 0.0, None), int(count - good.sum())

    return run_kernel(
        kernel, rng, samples, workers=workers, method="alpha-complex-mc"
    )


# ---------------------------------------------------------------------------
# The six-dimensional torus integral whose value is the expected number of
# real lines meeting four random lines in RP^3.
# ---------------------------------------------------------------------------

_TORUS_PREFACTOR = math.pi**6 / 128.0


def _torus_rows(t, s):
    """Row entries (sin t sin s, cos t sin s, sin t cos s) at angle pairs (t, s).

    Row i of the integrand's 3x3 matrix is these entries at (t_i, s_i); the
    determinant is transpose-invariant, so rows and columns may swap.
    """
    st, ss = np.sin(t), np.sin(s)
    return st * ss, np.cos(t) * ss, st * np.cos(s)


def edeg24_integral(
    mode="quadrature", points_per_dim=None, rng=None, samples=None, workers=1
):
    """Average line count over four random lines, via its torus integral.

    mode="quadrature" uses a midpoint rule with points_per_dim points per
    angle (<= 24; the error proxy compares against half the resolution);
    mode="mc" averages uniform draws on [0, 2*pi)^6.
    """
    if mode == "mc":
        if rng is None or samples is None:
            raise ValueError("mc mode needs rng and samples")

        def kernel(gen, count):
            t = gen.uniform(0.0, 2.0 * math.pi, (count, 3))
            s = gen.uniform(0.0, 2.0 * math.pi, (count, 3))
            a, b, c = _torus_rows(t, s)
            rows = [(a[:, i], b[:, i], c[:, i]) for i in range(3)]
            return np.abs(det3(*rows)) * _TORUS_PREFACTOR, 0

        return run_kernel(
            kernel, rng, samples, workers=workers, method="edeg24-torus-mc"
        )

    if mode != "quadrature":
        raise ValueError(f"unknown mode {mode!r}")
    if points_per_dim is None:
        points_per_dim = 16
    if not 2 <= points_per_dim <= 24:
        raise ValueError("points_per_dim must be in [2, 24]")
    coarse = max(points_per_dim // 2, 2)
    value = float(_torus_midpoint(points_per_dim))
    error = abs(value - float(_torus_midpoint(coarse)))
    return Estimate(
        value=value,
        stderr=error,
        n_samples=points_per_dim**6,
        seed=0,
        method="edeg24-quadrature",
        degenerate_count=0,
    )


def _torus_midpoint(p):
    """Midpoint rule for the torus integral at p points per dimension.

    The six angles split as three (t_i, s_i) pairs; for fixed (t_3, s_3) the
    inner four-fold integral is an outer product over the remaining pairs, so
    the sweep costs p^2 vectorized passes instead of p^6 scalar ones.
    """
    theta = (np.arange(p) + 0.5) * (2.0 * math.pi / p)
    t, s = np.meshgrid(theta, theta, indexing="ij")
    a, b, c = _torus_rows(t.ravel(), s.ravel())  # one row per (t, s) node
    first = (a[:, None], b[:, None], c[:, None])
    second = (a[None, :], b[None, :], c[None, :])
    total = 0.0
    for j in range(a.size):
        # every (first, second) pair of nodes, third row fixed at node j
        total += np.abs(det3(first, second, (a[j], b[j], c[j]))).sum()
    mean = total / float(a.size) ** 3
    return mean * _TORUS_PREFACTOR


# ---------------------------------------------------------------------------
# Schubert-variety volume ratio |Sigma(k, n)| / |G(k, n)|.
# ---------------------------------------------------------------------------


def schubert_ratio_exact(k, n):
    """Closed form of the ratio: a product of two Gamma quotients."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    m = n - k
    return math.exp(
        log_gamma((k + 1) / 2.0)
        - log_gamma(k / 2.0)
        + log_gamma((m + 1) / 2.0)
        - log_gamma(m / 2.0)
    )


def schubert_ratio_mc(k, n, eps, delta, rng, samples, workers=1):
    """Tube-volume estimate of the Schubert ratio.

    Counts uniform k-planes whose smallest principal angle to a fixed
    (n-k)-plane is <= eps while the second stays >= delta, scaled by the
    tube width 2*eps.  Requires 0 < eps <= delta < pi/2.
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if not (0.0 < eps <= delta < math.pi / 2.0):
        raise ValueError("need 0 < eps <= delta < pi/2")
    k = min(k, n - k)  # orthocomplement duality: same angles, smaller frame
    j = n - k  # fixed subspace spans the first n-k coordinates

    def kernel(gen, count):
        g = gen.standard_normal((count, n, k))
        angles = np.arccos(np.sqrt(principal_cos2(g, j)[:, :2]))  # ascending
        hit = angles[:, 0] <= eps
        if k >= 2:
            hit &= angles[:, 1] >= delta
        return hit.astype(float) / (2.0 * eps), 0

    return run_kernel(
        kernel, rng, samples, workers=workers, method="schubert-ratio-mc"
    )


# ---------------------------------------------------------------------------
# Joint density of the principal angles between a uniform k-plane and a fixed
# l-plane in R^n.
# ---------------------------------------------------------------------------


def _density_log_constant(k, l, n):
    return (
        k * math.log(2.0)
        + 0.5 * k * k * math.log(math.pi)
        + multivariate_gamma_log(k, n / 2.0)
        - multivariate_gamma_log(k, k / 2.0)
        - multivariate_gamma_log(k, l / 2.0)
        - multivariate_gamma_log(k, (n - l) / 2.0)
    )


def _check_density_dims(k, l, n):
    if not 1 <= k <= l:
        raise ValueError("need 1 <= k <= l")
    if k + l > n:
        raise ValueError("need k + l <= n")


def density_pdf(k, l, n, theta):
    """Joint density of the k ascending principal angles at ``theta``."""
    _check_density_dims(k, l, n)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (k,):
        raise ValueError(f"theta must have shape ({k},)")
    if np.any(theta < 0.0) or np.any(theta > math.pi / 2.0 + 1e-15):
        raise ValueError("angles must lie in [0, pi/2]")
    if np.any(np.diff(theta) < 0.0):
        raise ValueError("angles must be ascending")
    c = math.exp(_density_log_constant(k, l, n))
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    value = c * np.prod(cos_t ** (l - k)) * np.prod(sin_t ** (n - l - k))
    cos2 = cos_t**2
    for i in range(k):
        for j in range(i + 1, k):
            value *= cos2[i] - cos2[j]  # ascending theta => nonnegative
    return float(value)


def _density_symmetrized(k, l, n, xp=math):
    """Density extended symmetrically to the whole cube [0, pi/2]^k, over k!.

    ``xp`` supplies cos and sin: ``math`` for the scalar calls of adaptive
    quadrature, ``np`` to evaluate on broadcast grids of angles.
    """
    c = math.exp(_density_log_constant(k, l, n)) / math.factorial(k)

    def pdf_sym(*angles):
        value = c
        for t in angles:
            value = value * xp.cos(t) ** (l - k) * xp.sin(t) ** (n - l - k)
        for i in range(k):
            for j in range(i + 1, k):
                value = value * abs(xp.cos(angles[i]) ** 2 - xp.cos(angles[j]) ** 2)
        return value

    return pdf_sym


def density_normalization(k, l, n, quad_points=200):
    """Integral of the angle density; should be 1.  Supports k <= 3.

    Integrates the symmetrized density over the cube with nested adaptive
    quadrature, splitting each inner integral at the outer angles where the
    |cos^2 - cos^2| factors have kinks.
    """
    _check_density_dims(k, l, n)
    if k > 3:
        raise ValueError("normalization check implemented for k <= 3 only")
    from scipy.integrate import quad

    pdf_sym = _density_symmetrized(k, l, n)
    hi = math.pi / 2.0
    opts = dict(epsabs=1e-11, epsrel=1e-11, limit=quad_points)

    if k == 1:
        return quad(lambda t: pdf_sym(t), 0.0, hi, **opts)[0]
    if k == 2:

        def inner(t1):
            return quad(lambda t2: pdf_sym(t1, t2), 0.0, hi, points=[t1], **opts)[0]

        return quad(inner, 0.0, hi, **opts)[0]

    def inner2(t1, t2):
        pts = sorted({t1, t2})
        return quad(lambda t3: pdf_sym(t1, t2, t3), 0.0, hi, points=pts, **opts)[0]

    def inner1(t1):
        return quad(lambda t2: inner2(t1, t2), 0.0, hi, points=[t1], **opts)[0]

    return quad(inner1, 0.0, hi, **opts)[0]


def _gof_expected(k, l, n, bins):
    """Exact bin probabilities on the ordered-angle region, by per-cell GL.

    The density is evaluated on the grid of 8 Gauss-Legendre nodes per bin
    and summed per cell; for k = 2 only nodes with t1 <= t2 count, which
    leaves the cells below the diagonal at zero.  The k = 2 grid is taken
    one row of bins at a time, which keeps its temporaries at 8 x 8*bins.
    """
    pdf_sym = _density_symmetrized(k, l, n, xp=np)
    edges = np.linspace(0.0, math.pi / 2.0, bins + 1)
    x8, w8 = np.polynomial.legendre.leggauss(8)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    t = (mids[:, None] + half * x8[None, :]).ravel()  # bin-major nodes
    w = np.tile(half * w8, bins)

    if k == 1:
        return (w * pdf_sym(t)).reshape(bins, 8).sum(axis=1)
    t2, w2 = t[None, :], 2.0 * w[None, :]
    prob = np.empty((bins, bins))
    for b in range(bins):
        t1, w1 = t[8 * b : 8 * b + 8, None], w[8 * b : 8 * b + 8, None]
        cell = np.where(t1 <= t2, w1 * w2 * pdf_sym(t1, t2), 0.0)
        prob[b] = cell.reshape(8, bins, 8).sum(axis=(0, 2))
    return prob


def density_gof(k, l, n, rng, samples, bins=30, workers=1):
    """L1 distance between sampled and exact binned angle distributions.

    Samples principal angles of uniform k-planes against a fixed l-plane,
    histograms them over a bins^k grid on the ordered region, and compares
    with per-bin quadrature of the density.  Supports k <= 2.
    """
    _check_density_dims(k, l, n)
    if k > 2:
        raise ValueError("goodness-of-fit check implemented for k <= 2 only")
    width = math.pi / 2.0 / bins

    def histogram(gen, count):
        g = gen.standard_normal((count, n, k))
        angles = np.arccos(np.sqrt(principal_cos2(g, l)))  # ascending
        idx = np.minimum((angles / width).astype(np.int64), bins - 1)
        flat = idx[:, 0] if k == 1 else idx[:, 0] * bins + idx[:, 1]
        return np.bincount(flat, minlength=bins**k).reshape([bins] * k)

    counts = sum(_run_chunks(histogram, rng, samples, workers))

    expected = _gof_expected(k, l, n, bins)
    empirical = counts.astype(float) / samples
    return float(np.abs(empirical - expected).sum())


# ---------------------------------------------------------------------------
# Gaussian determinant moment check and the sphere integration formula.
# ---------------------------------------------------------------------------


def vitale_closed_form(d):
    """E|det G| for a d x d standard Gaussian matrix: d! / (2^{d/2} Gamma(1+d/2))."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return math.exp(
        log_gamma(d + 1.0) - 0.5 * d * math.log(2.0) - log_gamma(1.0 + d / 2.0)
    )

def vitale_check(d, rng, samples, workers=1):
    """Monte Carlo estimate of E|det G| for a d x d Gaussian matrix, d <= 12.

    A draw is degenerate when its determinant is exactly 0.
    """
    if not 1 <= d <= 12:
        raise ValueError("d must be in [1, 12]")

    def kernel(gen, count):
        det = small_det(gen.standard_normal((count, d, d)))
        good = det != 0.0
        return np.abs(det[good]), int(count - good.sum())

    return run_kernel(kernel, rng, samples, workers=workers, method="vitale-mc")


_TEST_FUNCTIONS = ("one", "p1sq", "p2sq", "r2pow")


def integration_formula_check(
    k, m, test_function_id, rng, samples, quad_points=32, workers=1
):
    """Both sides of the singular-value integration formula for k = 2.

    The left side is |S^{2m-1}| times a Monte Carlo average of f over the
    unit sphere of 2 x m matrices; the right side integrates f against the
    singular-value weight over the ordered sector.  Returns (Estimate, float).
    """
    if k != 2:
        raise ValueError("integration formula check is specialized to k = 2")
    if not 2 <= m <= 8:
        raise ValueError("need 2 <= m <= 8")
    if test_function_id not in _TEST_FUNCTIONS:
        raise ValueError(
            f"unknown test_function_id {test_function_id!r}; "
            f"choose from {_TEST_FUNCTIONS}"
        )

    if test_function_id == "r2pow":
        from .zonoid import default_profile

        profile = default_profile()

        def f_of_sv(s1, s2):
            return profile.radius(np.arctan2(s2, s1)) ** (2 * m)

    elif test_function_id == "one":

        def f_of_sv(s1, s2):
            return np.ones_like(s1)

    elif test_function_id == "p1sq":

        def f_of_sv(s1, s2):
            return s1**2

    else:  # p2sq

        def f_of_sv(s1, s2):
            return (s1 * s2) ** 2

    def kernel(gen, count):
        x = gen.standard_normal((count, 2, m))
        x /= np.linalg.norm(x, axis=(1, 2), keepdims=True)
        sv = singular_values(x)
        return f_of_sv(sv[:, 0], sv[:, 1]), 0

    sphere_area = vol_sphere_log(2 * m - 1).exp()
    lhs = run_kernel(
        kernel, rng, samples, workers=workers, method="sphere-mc"
    ).scaled(sphere_area)

    # |O(2)| |S(2,m)| / 2^2 times the ordered-sector integral in the angle
    # parametrization sigma = (cos t, sin t), t in [0, pi/4].
    log_o2 = 2.0 * math.log(2.0) + 2.0 * math.log(math.pi) - multivariate_gamma_log(2, 1.0)
    log_s2m = 2.0 * math.log(2.0) + m * math.log(math.pi) - multivariate_gamma_log(2, m / 2.0)
    prefactor = math.exp(log_o2 + log_s2m - 2.0 * math.log(2.0))

    def log_weighted(t):
        c, s = np.cos(t), np.sin(t)
        return (
            np.log(f_of_sv(c, s))
            + (m - 2) * (np.log(c) + np.log(s))
            + np.log(c**2 - s**2)
        )

    rhs = prefactor * math.exp(composite_gl_log(
        log_weighted, 0.0, math.pi / 4.0, points=quad_points, panels=8
    ))
    return lhs, rhs
