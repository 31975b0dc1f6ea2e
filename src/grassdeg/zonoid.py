"""Segre zonoid C(k,m) and singular-value zonoid D(k).

D(k) is the convex body in R^k whose support function is h = g_k / sqrt(2*pi),
with g_k the expected weighted norm of a standard Gaussian vector.  C(k,m) is
the O(k) x O(m)-invariant body of k x m matrices obtained by spinning D(k)
over singular-value decompositions; its volume reduces to a one-dimensional
integral of the radial function of D(2) when k = 2, which is the exact route
used for expected-degree computations.

The k = 2 radial function has no elementary closed form; it is produced once
as a RadialProfile2 (a monotone-cubic PCHIP interpolant of the gradient-map
curve of h) and cached as a small JSON document.
"""

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._quad import composite_gl_log
from .geomlin import RngStream, singular_values, small_det
from .mc import Estimate, run_kernel
from .specfun import (
    LogValue,
    elliptic_E,
    elliptic_KE,
    log_gamma,
    multivariate_gamma_log,
    rho,
)

__all__ = [
    "RadialProfile2",
    "ZonoidDescriptor",
    "g_k",
    "support_C",
    "radius_R",
    "build_radial_profile_2",
    "default_profile",
    "radial_D",
    "radial_duality_2",
    "vol_C_quadrature",
    "vol_C_quadrature_log",
    "vol_C_vitale_mc",
    "vol_ball",
    "p_k",
    "q_k",
]

_QUARTER_PI = math.pi / 4.0
_HALF_PI = math.pi / 2.0
_T_MIN = 1e-3  # gradient-map parameter kept away from the axes
MAX_QUAD_POINTS = 256  # Gauss-Legendre nodes per panel of the radial integral
PROFILE_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# support-side scalar functions
# ---------------------------------------------------------------------------


def radius_R(k):
    """Greatest radial value of D(k): rho(k) / sqrt(2*pi*k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return rho(k) / math.sqrt(2.0 * math.pi * k)


def g_k(k, sigma, method="closed", rng=None, samples=None, workers=1):
    """Expected norm E sqrt(sum sigma_i^2 z_i^2) for standard Gaussian z.

    The closed path (k = 1 via the half-normal mean, k = 2 via the complete
    elliptic integral E) is exact; for k >= 3 only the Monte Carlo path is
    available and an Estimate is returned instead of a bare float.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (k,):
        raise ValueError(f"sigma must have shape ({k},)")
    if method == "closed":
        if k == 1:
            return rho(1) * abs(float(sigma[0]))
        if k == 2:
            return _g2_closed(float(sigma[0]), float(sigma[1]))
        raise ValueError("closed form only available for k in {1, 2}; use method='mc'")
    if method != "mc":
        raise ValueError(f"unknown method {method!r}")
    if rng is None or samples is None:
        raise ValueError("mc method needs rng and samples")
    sq = sigma**2

    def kernel(gen, count):
        z = gen.standard_normal((count, k))
        return np.sqrt((z * z) @ sq), 0

    return run_kernel(kernel, rng, samples, workers=workers, method="g_k-mc")


def _g2_closed(s1, s2):
    a, b = abs(s1), abs(s2)
    if a < b:
        a, b = b, a
    if a == 0.0:
        return 0.0
    s = 1.0 - (b / a) ** 2
    return math.sqrt(2.0 / math.pi) * a * elliptic_E(s)


@dataclass(frozen=True)
class ZonoidDescriptor:
    """Shape parameters (k, m) of the Segre zonoid C(k, m), k <= m."""

    k: int
    m: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.m < self.k:
            raise ValueError("need m >= k")


def support_C(desc, X, method="closed", rng=None, samples=None, workers=1):
    """Support function of C(k, m) at the matrix X: g_k(sv(X)) / sqrt(2*pi).

    Depends on X only through its singular values.  Keyword arguments are
    forwarded to g_k, so k >= 3 requires method='mc' and returns an Estimate.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (desc.k, desc.m):
        raise ValueError(f"X must have shape ({desc.k}, {desc.m})")
    sv = singular_values(X)
    out = g_k(desc.k, sv, method=method, rng=rng, samples=samples, workers=workers)
    scale = 1.0 / math.sqrt(2.0 * math.pi)
    if isinstance(out, Estimate):
        return out.scaled(scale, method="support_C-mc")
    return out * scale


# ---------------------------------------------------------------------------
# gradient of h(sigma_1, sigma_2) = g_2(sigma) / sqrt(2*pi)
# ---------------------------------------------------------------------------


def _e_and_ek_diff_over_s(s):
    """(E(s), (E(s) - K(s)) / s); the second is stable down to s = 0, where
    it equals -pi/4.

    Near zero the difference E - K cancels catastrophically, so a power
    series in s takes over below 1e-3.  Above it one AGM sweep gives both
    integrals.
    """
    if not 0.0 <= s < 1.0:
        raise ValueError("need 0 <= s < 1")
    if s < 1e-3:
        d = 1.0
        acc = 0.0
        power = 1.0
        for n in range(1, 40):
            d *= ((2.0 * n - 1.0) / (2.0 * n)) ** 2
            term = d * (2.0 * n / (2.0 * n - 1.0)) * power
            acc += term
            power *= s
            if term < 1e-18 * acc:
                break
        return elliptic_E(s), -_HALF_PI * acc
    k, e = elliptic_KE(s)
    return e, (e - k) / s


def _grad_h2(sigma1, sigma2):
    """Analytic gradient of h(s1, s2) = sqrt(s1^2+s2^2-weighted Gaussian mean).

    Valid for sigma1, sigma2 > 0.  Writing s = 1 - (min/max)^2, the partial
    derivatives combine E(s) with (E(s) - K(s))/s; both stay finite on the
    open quadrant.
    """
    swap = sigma2 > sigma1
    a, b = (sigma2, sigma1) if swap else (sigma1, sigma2)
    if b <= 0.0 or a <= 0.0:
        raise ValueError("analytic gradient needs strictly positive entries")
    ratio = b / a
    s = 1.0 - ratio * ratio
    s = min(max(s, 0.0), 1.0 - 1e-15)
    e, dd = _e_and_ek_diff_over_s(s)
    d_major = (e + (1.0 - s) * dd) / math.pi
    d_minor = -(ratio * dd) / math.pi
    return (d_minor, d_major) if swap else (d_major, d_minor)


def _grad_h2_numeric(sigma1, sigma2):
    """Central-difference gradient of h, for cross-validating the analytic path."""
    step = 1e-6 * math.hypot(sigma1, sigma2)
    if step == 0.0:
        raise ValueError("gradient undefined at the origin")
    inv = 1.0 / math.sqrt(2.0 * math.pi)

    def h(x, y):
        return inv * _g2_closed(x, y)

    return (
        (h(sigma1 + step, sigma2) - h(sigma1 - step, sigma2)) / (2.0 * step),
        (h(sigma1, sigma2 + step) - h(sigma1, sigma2 - step)) / (2.0 * step),
    )


# ---------------------------------------------------------------------------
# the k = 2 radial profile
# ---------------------------------------------------------------------------


def _pchip_slopes(x, y):
    """Knot slopes of the PCHIP interpolant (Fritsch-Carlson, Moler's ends).

    Interior slopes are the weighted harmonic mean of the neighbouring
    secants, or 0 where the secants change sign or one vanishes; each end
    takes the one-sided three-point estimate, kept shape-preserving.  The
    arithmetic follows scipy's PchipInterpolator step for step, so the
    interpolant is bit-identical to it.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    zero = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][~zero] = 1.0 / whmean[~zero]
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _pchip_end_slope(h0, h1, m0, m1):
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@dataclass
class RadialProfile2:
    """Radial function of D(2) on the fundamental arc theta in [0, pi/4].

    ``knots`` are (theta, r) pairs with strictly increasing theta; evaluation
    outside the arc folds through the symmetry r(theta) = r(pi/2 - theta).
    Between knots the radius is the PCHIP cubic, stored per cell as the
    coefficients (c0, c1, c2, c3) of c0 s^3 + c1 s^2 + c2 s + c3 in the
    offset s from the cell's left knot (the rows of a (4, cells) array).
    Should the knots start above theta = 0, values below the first knot come
    from an even-quadratic extension (the radial function is even in theta).
    """

    knots: list
    _theta: np.ndarray = field(init=False, repr=False, compare=False)
    _coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.knots) < 4:
            raise ValueError("need at least 4 knots")
        theta = np.array([t for t, _ in self.knots], dtype=float)
        r = np.array([v for _, v in self.knots], dtype=float)
        if np.any(np.diff(theta) <= 0.0):
            raise ValueError("knot angles must be strictly increasing")
        if theta[0] < 0.0 or theta[-1] > _QUARTER_PI + 1e-12:
            raise ValueError("knot angles must lie in [0, pi/4]")
        if np.any(r <= 0.0):
            raise ValueError("radial values must be positive")
        r2 = radius_R(2)
        if abs(r[-1] - r2) > 1e-8 or abs(theta[-1] - _QUARTER_PI) > 1e-8:
            raise ValueError("profile must end at (pi/4, radius_R(2))")
        if np.any(r > r2 + 1e-12):
            raise ValueError("radial values must not exceed radius_R(2)")
        if theta[0] == 0.0:
            # r is even in theta; mirror a few knots across 0 so the
            # interpolant's derivative there vanishes instead of following a
            # one-sided estimate (the mirror cells are never evaluated).
            theta = np.concatenate([-theta[3:0:-1], theta])
            r = np.concatenate([r[3:0:-1], r])
        d = _pchip_slopes(theta, r)
        h = np.diff(theta)
        secant = np.diff(r) / h
        cubic = (d[:-1] + d[1:] - 2.0 * secant) / h
        self._theta = theta
        self._coef = np.stack(
            [cubic / h, (secant - d[:-1]) / h - cubic, d[:-1], r[:-1]]
        )

    def radius(self, theta):
        """Radial value at any angle in [0, pi/2] (scalar or array)."""
        theta = np.asarray(theta, dtype=float)
        scalar = theta.ndim == 0
        t = np.atleast_1d(theta).copy()
        if np.any(t < -1e-12) or np.any(t > _HALF_PI + 1e-12):
            raise ValueError("angle must lie in [0, pi/2]")
        np.clip(t, 0.0, _HALF_PI, out=t)
        t = np.where(t > _QUARTER_PI, _HALF_PI - t, t)  # fold the symmetric half
        t0, r0 = self.knots[0]
        t1, r1 = self.knots[1]
        # below the first knot extend with an even quadratic a + b*theta^2:
        # the radial function is symmetric in theta, so its slope at 0 is 0
        curv = (r1 - r0) / (t1 * t1 - t0 * t0)
        below = t < t0
        out = np.empty_like(t)
        out[below] = r0 + curv * (t[below] ** 2 - t0 * t0)
        out[~below] = self._cubic(t[~below])
        return float(out[0]) if scalar else out

    def _cubic(self, t):
        """The PCHIP cubic at angles t in [theta_0, pi/4]."""
        cell = np.searchsorted(self._theta, t, side="right") - 1
        np.minimum(cell, len(self._theta) - 2, out=cell)
        s = t - self._theta[cell]
        c0, c1, c2, c3 = self._coef.take(cell, axis=1)
        # c3 + c2 s + c1 s^2 + c0 s^3 summed left to right: scipy PPoly's rounding
        s2 = s * s
        out = c2 * s
        out += c3
        out += c1 * s2
        out += c0 * (s2 * s)
        return out

    def save(self, path):
        """Write the knots as a versioned JSON document (exact round-trip)."""
        doc = {
            "version": PROFILE_FORMAT_VERSION,
            "k": 2,
            "knots": [
                [float(f"{t:.17g}"), float(f"{r:.17g}")] for t, r in self.knots
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if doc.get("version") != PROFILE_FORMAT_VERSION:
            raise ValueError(f"unsupported profile version {doc.get('version')!r}")
        if doc.get("k") != 2:
            raise ValueError("profile document must have k = 2")
        knots = [(float(t), float(r)) for t, r in doc["knots"]]
        return cls(knots=knots)


def build_radial_profile_2(grid_size, differentiation="analytic"):
    """Construct the D(2) radial profile from the gradient map of h.

    Walks gamma(t) = grad h(cos t, sin t) over an odd grid on
    [t_min, pi/2 - t_min]; each point contributes the knot
    (atan2(gamma_2, gamma_1), |gamma|), and the knots with angle <= pi/4 form
    the profile.  The angle sequence must come out strictly increasing —
    a non-monotone sequence means the differentiation went wrong, and the
    build aborts with a diagnostic rather than emit a corrupt interpolant.
    """
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    if differentiation == "analytic":
        grad = _grad_h2
    elif differentiation == "numeric":
        grad = _grad_h2_numeric
    else:
        raise ValueError(f"unknown differentiation {differentiation!r}")
    count = grid_size + 1 if grid_size % 2 == 0 else grid_size  # pi/4 on-grid
    ts = np.linspace(_T_MIN, _HALF_PI - _T_MIN, count)
    # graded ramp into the axis: the gradient map expands angles there (the
    # first uniform step would leave a wide knot-free cell next to theta = 0)
    ramp = _T_MIN * 2.0 ** (-0.5 * np.arange(20, 0, -1))
    ts = np.concatenate([ramp, ts])

    # The axis value is known in closed form: the boundary normal at theta=0
    # is axis-aligned, so r(0) = h(e_1) = rho_1 / sqrt(2 pi) = 1/pi.
    knots = [(0.0, 1.0 / math.pi)]
    for t in ts:
        g1, g2 = grad(math.cos(t), math.sin(t))
        theta = math.atan2(g2, g1)
        if theta > _QUARTER_PI + 1e-12:
            break  # past the fundamental arc; symmetry covers the rest
        knots.append((theta, math.hypot(g1, g2)))

    angles = [t for t, _ in knots]
    diffs = np.diff(angles)
    if np.any(diffs <= 0.0):
        bad = int(np.argmax(diffs <= 0.0))
        raise RuntimeError(
            "gradient-map angle is not strictly increasing at knot "
            f"{bad}: theta[{bad}]={angles[bad]:.6g}, "
            f"theta[{bad + 1}]={angles[bad + 1]:.6g}; "
            f"differentiation={differentiation!r} looks inconsistent"
        )
    # pin the endpoint exactly: gamma(pi/4) = (1/4, 1/4)
    t_last, r_last = knots[-1]
    if abs(t_last - _QUARTER_PI) < 1e-9:
        knots[-1] = (_QUARTER_PI, radius_R(2))
    else:
        knots.append((_QUARTER_PI, radius_R(2)))
    return RadialProfile2(knots=knots)


_DEFAULT_PROFILE = None


def default_profile():
    """Shared 4096-point profile, built once per process."""
    global _DEFAULT_PROFILE
    if _DEFAULT_PROFILE is None:
        _DEFAULT_PROFILE = build_radial_profile_2(4096)
    return _DEFAULT_PROFILE


# ---------------------------------------------------------------------------
# radial function of D(k)
# ---------------------------------------------------------------------------


def radial_D(k, sigma, profile=None, rng=None, samples=20000):
    """Radial function of D(k) at a unit vector sigma.

    k = 1 is the constant 1/pi; k = 2 reads the supplied RadialProfile2;
    k >= 3 minimizes h(tau)/<sigma, tau> over the sphere (support-to-radial
    convex duality) with g_k evaluated on one fixed Gaussian bank, so the
    objective is smooth and descent is meaningful.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (k,):
        raise ValueError(f"sigma must have shape ({k},)")
    if abs(np.linalg.norm(sigma) - 1.0) > 1e-8:
        raise ValueError("sigma must be a unit vector")
    if k == 1:
        return radius_R(1)
    if k == 2:
        if profile is None:
            raise ValueError("k = 2 requires a RadialProfile2")
        theta = math.atan2(abs(float(sigma[1])), abs(float(sigma[0])))
        return float(profile.radius(theta))
    if rng is None:
        rng = RngStream(20240601, 0)
    return _radial_duality_mc(k, np.abs(sigma), rng, samples)


def _radial_duality_mc(k, u, rng, samples):
    z2 = rng.substream(0).generator.standard_normal((samples, k)) ** 2
    inv_sqrt2pi = 1.0 / math.sqrt(2.0 * math.pi)

    def h_of(tau):
        return float(np.sqrt(z2 @ (tau * tau)).mean()) * inv_sqrt2pi

    def grad_h(tau):
        norms = np.sqrt(z2 @ (tau * tau))
        norms = np.maximum(norms, 1e-300)
        return (z2 / norms[:, None]).mean(axis=0) * tau * inv_sqrt2pi

    def objective(tau):
        dot = float(u @ tau)
        if dot <= 1e-9:
            return math.inf
        return h_of(tau) / dot

    # coarse pass: random directions (sign-aligned with u) plus u itself
    n_grid = (2**k) * 100
    cand = rng.substream(1).generator.standard_normal((n_grid, k))
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    dots = cand @ u
    cand[dots < 0.0] *= -1.0  # h is even, so fold onto the <u, tau> > 0 side
    best_tau = u / np.linalg.norm(u)
    best_val = objective(best_tau)
    block = 256
    for start in range(0, n_grid, block):
        sub = cand[start : start + block]
        hs = np.sqrt(np.einsum("sk,bk->sb", z2, sub * sub)).mean(axis=0)
        hs *= inv_sqrt2pi
        vals = hs / np.maximum(sub @ u, 1e-9)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_tau = sub[j].copy()

    # local descent on the sphere with backtracking; the bank makes the
    # objective a fixed smooth function, so its exact gradient is available
    tau = best_tau
    value = best_val
    last_rel_drop = 0.0
    step = 0.5  # warm-started across iterations: grows while steps succeed
    for _ in range(50):
        dot = float(u @ tau)
        grad = grad_h(tau) / dot - (h_of(tau) / dot**2) * u
        grad -= (grad @ tau) * tau  # tangent component
        if float(np.linalg.norm(grad)) < 1e-7 * value:
            last_rel_drop = 0.0
            break
        improved = False
        while step > 1e-12:
            trial = tau - step * grad
            trial /= np.linalg.norm(trial)
            trial_val = objective(trial)
            if trial_val < value * (1.0 - 1e-12):
                last_rel_drop = (value - trial_val) / value
                tau, value = trial, trial_val
                improved = True
                step *= 2.0
                break
            step *= 0.5
        if not improved:
            last_rel_drop = 0.0  # at the floor of the bank's resolution
            break
    if last_rel_drop > 1e-5:
        raise RuntimeError(
            "radial minimization still descending after 50 steps "
            f"(k={k}, last value {value:.6g}, last drop {last_rel_drop:.2e})"
        )
    return value


def radial_duality_2(sigma, grid_size=4096):
    """k = 2 radial value by direct duality minimization with exact h.

    Independent of the profile pipeline: minimizes h(tau)/<sigma, tau> over a
    fine angle grid and polishes with golden-section search.  Used to
    cross-check RadialProfile2.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (2,):
        raise ValueError("sigma must have shape (2,)")
    if abs(np.linalg.norm(sigma) - 1.0) > 1e-8:
        raise ValueError("sigma must be a unit vector")
    u = np.abs(sigma)
    inv = 1.0 / math.sqrt(2.0 * math.pi)

    def objective(phi):
        tau = (math.cos(phi), math.sin(phi))
        dot = u[0] * tau[0] + u[1] * tau[1]
        if dot <= 1e-12:
            return math.inf
        return inv * _g2_closed(tau[0], tau[1]) / dot

    phis = np.linspace(0.0, _HALF_PI, grid_size)
    vals = [objective(p) for p in phis]
    j = int(np.argmin(vals))
    lo = phis[max(j - 1, 0)]
    hi = phis[min(j + 1, grid_size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return min(fc, fd)


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------


def _log_vol_C_prefactor(m):
    """log of |O(2)| |S(2,m)| / (2m * 2^2)."""
    log_o2 = 2.0 * math.log(2.0) + 2.0 * math.log(math.pi) \
        - multivariate_gamma_log(2, 1.0)
    log_s = 2.0 * math.log(2.0) + m * math.log(math.pi) \
        - multivariate_gamma_log(2, m / 2.0)
    return log_o2 + log_s - math.log(8.0 * m)


def _check_vol_c_args(m, profile):
    if m < 2:
        raise ValueError("m must be >= 2 (the weight no longer tames the "
                         "q_2 pole below that)")
    if not isinstance(profile, RadialProfile2):
        raise TypeError("profile must be a RadialProfile2")


def vol_C_quadrature_log(m, profile, quad_points=32):
    """Volume of C(2, m) by radial quadrature over the fundamental arc.

    The integrand (r(t)^2 cos t sin t)^m (cos^2 t - sin^2 t)/(cos t sin t)^2
    is summed in log scale by composite Gauss-Legendre with quad_points
    nodes per panel, on 16 and on 32 panels.  Returns (LogValue of the
    32-panel volume, |log I_32 - log I_16|); that panel-doubling difference
    is the error estimate of every quadrature route in the package.
    """
    _check_vol_c_args(m, profile)
    if not 1 <= quad_points <= MAX_QUAD_POINTS:
        raise ValueError(
            f"quad_points must be in [1, {MAX_QUAD_POINTS}], got {quad_points!r}"
        )

    def log_weighted(theta):
        c, s = np.cos(theta), np.sin(theta)
        log_r2 = 2.0 * np.log(profile.radius(theta))
        return (
            m * (log_r2 + np.log(c) + np.log(s))
            + np.log(c * c - s * s)
            - 2.0 * (np.log(c) + np.log(s))
        )

    coarse = composite_gl_log(
        log_weighted, 0.0, _QUARTER_PI, points=quad_points, panels=16
    )
    fine = composite_gl_log(
        log_weighted, 0.0, _QUARTER_PI, points=quad_points, panels=32
    )
    log_error = abs(fine - coarse)
    if log_error > 1e-8:
        warnings.warn(
            f"panel doubling moved log vol_C_quadrature({m}) by "
            f"{log_error:.2e}; raise quad_points",
            stacklevel=2,
        )
    return LogValue(_log_vol_C_prefactor(m) + fine), log_error


def vol_C_quadrature(m, profile, quad_points=32):
    """Volume of C(2, m) as a float: vol_C_quadrature_log without the log."""
    return vol_C_quadrature_log(m, profile, quad_points)[0].exp()


def vol_C_vitale_mc(k, m, rng, samples, workers=1):
    """Volume of C(k, m) as E|det M| / (km)! over rank-one Gaussian columns.

    M stacks the km vectorized products x_i y_i^T.  Up to km = 4 the
    determinant is a cofactor expansion; above that it is taken in log
    magnitude so large km cannot overflow.  A draw is degenerate when its
    determinant is exactly 0.
    """
    if k < 1 or m < k:
        raise ValueError("need 1 <= k <= m")
    n = k * m
    if n > 36:
        raise ValueError("km > 36 not supported (cost and variance blow up)")
    log_fact = log_gamma(n + 1.0)

    def kernel(gen, count):
        x = gen.standard_normal((count, n, k))
        y = gen.standard_normal((count, n, m))
        mats = (x[:, :, :, None] * y[:, :, None, :]).reshape(count, n, n)
        if n <= 4:
            det = small_det(mats)
            good = det != 0.0
            return np.abs(det[good]) / math.factorial(n), int(count - good.sum())
        sign, logab = np.linalg.slogdet(mats)
        good = sign != 0
        return np.exp(logab[good] - log_fact), int(count - good.sum())

    return run_kernel(kernel, rng, samples, workers=workers, method="vitale-volume-mc")


def vol_ball(k, m):
    """Volume of the ball of radius radius_R(k) in km dimensions."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    n = k * m
    return math.exp(
        n * math.log(radius_R(k)) + 0.5 * n * math.log(math.pi) - log_gamma(1.0 + n / 2.0)
    )


def p_k(sigma):
    """Product of the absolute coordinates."""
    sigma = np.asarray(sigma, dtype=float)
    return float(np.prod(np.abs(sigma)))


def q_k(sigma):
    """p_k(sigma)^(-k) times the absolute Vandermonde in the squares.

    Has a pole whenever a coordinate vanishes; that is reported, not returned
    as inf.
    """
    sigma = np.asarray(sigma, dtype=float)
    k = sigma.size
    if np.any(sigma == 0.0):
        raise ValueError("q_k has a pole at zero coordinates")
    value = p_k(sigma) ** (-k)
    for i in range(k):
        for j in range(i + 1, k):
            value *= abs(sigma[i] ** 2 - sigma[j] ** 2)
    return float(value)
