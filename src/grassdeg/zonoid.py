"""Segre zonoid C(k,m) and singular-value zonoid D(k).

D(k) is the convex body in R^k whose support function is h = g_k / sqrt(2*pi),
with g_k the expected weighted norm of a standard Gaussian vector.  C(k,m) is
the O(k) x O(m)-invariant body of k x m matrices obtained by spinning D(k)
over singular-value decompositions; its volume reduces to a one-dimensional
integral of the radial function of D(2) when k = 2, which is the exact route
used for expected-degree computations.

h, its gradient and its Hessian are one-dimensional integrals for every k,
evaluated by one fixed trapezoid rule to a few ulps, so the support data
and the k >= 3 radial function (Newton on the convex dual problem) are
deterministic.  The k = 2 radial function has no elementary closed form; it
is built once per process as a RadialProfile2 (a monotone-cubic PCHIP
interpolant of the gradient-map curve of h).
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._quad import composite_gl_log
from .estimate import Estimate
from .specfun import (
    LogValue,
    elliptic_KE,
    log_gamma,
    rho,
    vol_orthogonal_log,
    vol_stiefel_log,
)

__all__ = [
    "RadialProfile2",
    "g_k",
    "radius_R",
    "build_radial_profile_2",
    "default_profile",
    "radial_D",
    "vol_C_quadrature",
    "vol_C_quadrature_log",
    "vol_C_vitale_mc",
    "vol_ball",
]

_QUARTER_PI = math.pi / 4.0
_HALF_PI = math.pi / 2.0
_T_MIN = 1e-3  # gradient-map parameter kept away from the axes
MAX_QUAD_POINTS = 256  # Gauss-Legendre nodes per panel of the radial integral
MAX_GRID_SIZE = 65_536  # gradient-map grid of a profile: 16x the default's


# ---------------------------------------------------------------------------
# support-side scalar functions
# ---------------------------------------------------------------------------


def radius_R(k):
    """Greatest radial value of D(k): rho(k) / sqrt(2*pi*k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return rho(k) / math.sqrt(2.0 * math.pi * k)


# E|diag(tau) z| = (1/2 sqrt(pi)) int_0^inf (1 - P(s)) s^(-3/2) ds with
# P(s) = prod (1 + 2 s tau_i^2)^(-1/2), by the trapezoid rule in y = log s.
# With max|tau_i| = 1 the integrand is analytic in the strip |Im y| < pi, so
# the error falls like exp(-2 pi^2 / step), and the two ends lose below an
# ulp; step 0.25 leaves only rounding.  The trapezoid weights carry ds = s dy
# and the constants of h = E|diag(tau) z| / sqrt(2 pi) and of its derivatives.
_LOG_S = np.linspace(-110.0, 70.0, 721)
_S = np.exp(_LOG_S)
_TRAPEZOID = np.full(_LOG_S.size, _LOG_S[1] - _LOG_S[0])
_TRAPEZOID[[0, -1]] *= 0.5
_W_VALUE = _TRAPEZOID / (2.0 * math.pi * math.sqrt(2.0)) / np.sqrt(_S)
_W_DERIV = _TRAPEZOID / (math.pi * math.sqrt(2.0)) * np.sqrt(_S)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _support_data(tau):
    """h(tau), grad h(tau) and Hess h(tau) of D(k), for tau != 0.

    With w_j = 1/(1 + 2 s tau_j^2), differentiating under the integral gives
      d_j E|diag(tau) z| = (tau_j / sqrt(pi)) int P w_j s^(-1/2) ds,
      d_jl E|diag(tau) z| = (1/sqrt(pi)) int P s^(-1/2) (delta_jl w_j
                            - 2 s tau_j tau_l w_j w_l (1 + 2 delta_jl)) ds.
    tau is scaled to max|tau_i| = 1 first (h is 1-homogeneous), and 1 - P is
    taken as -expm1(-sum(log1p)/2): 1 - P itself cancels at small s.
    """
    scale = float(np.max(np.abs(tau)))
    t = tau / scale
    a = _S[:, None] * (2.0 * t * t)
    half_log_p = 0.5 * np.log1p(a).sum(axis=1)
    value = float(_W_VALUE @ -np.expm1(-half_log_p))
    weight = _W_DERIV * np.exp(-half_log_p)
    w = 1.0 / (1.0 + a)
    v = t * w
    hess = np.diag(weight @ (w - 2.0 * a * w * w))
    hess -= 2.0 * (v.T * (weight * _S)) @ v
    return value * scale, t * (weight @ w), hess / scale


def g_k(k, sigma):
    """Expected norm E sqrt(sum sigma_i^2 z_i^2) for standard Gaussian z.

    One 1-D integral for every k (see _support_data); the relative error is
    a few ulps.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (k,):
        raise ValueError(f"sigma must have shape ({k},)")
    if not np.all(np.isfinite(sigma)):
        raise ValueError("sigma must be finite")
    if not sigma.any():
        return 0.0
    return _support_data(sigma)[0] * _SQRT_2PI


# ---------------------------------------------------------------------------
# gradient of h(sigma_1, sigma_2) = g_2(sigma) / sqrt(2*pi)
# ---------------------------------------------------------------------------


def _e_and_ek_diff_over_s(s):
    """(E(s), (E(s) - K(s)) / s) elementwise on an array s in [0, 1); the
    second is stable down to s = 0, where it equals -pi/4.

    Near zero the difference E - K cancels catastrophically, so a power
    series in s takes over below 1e-3.
    """
    s = np.asarray(s)
    k, e = elliptic_KE(s)
    small = s < 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        dd = np.asarray((e - k) / s)
    dd[small] = -_HALF_PI * _ek_diff_series(s[small])
    return e, dd


def _ek_diff_series(s):
    # (K - E) / s * 2/pi = sum_n d_n (2n/(2n-1)) s^(n-1), with
    # d_n = prod_{j<=n} ((2j-1)/(2j))^2, summed until every element's last
    # term is below 1e-18 of its sum; the terms an element adds after that
    # are below half an ulp of its sum and leave it as it was
    d = 1.0
    acc = np.zeros_like(s)
    power = np.ones_like(s)
    for n in range(1, 40):
        d *= ((2.0 * n - 1.0) / (2.0 * n)) ** 2
        term = d * (2.0 * n / (2.0 * n - 1.0)) * power
        acc += term
        power *= s
        if (term < 1e-18 * acc).all():
            break
    return acc


def _grad_h2(sigma1, sigma2):
    """Analytic gradient of h(s1, s2) = g_2(s1, s2) / sqrt(2*pi), elementwise.

    Valid for sigma1, sigma2 > 0.  Writing s = 1 - (min/max)^2, the partial
    derivatives combine E(s) with (E(s) - K(s))/s; both stay finite on the
    open quadrant.
    """
    sigma1, sigma2 = np.asarray(sigma1, dtype=float), np.asarray(sigma2, dtype=float)
    swap = sigma2 > sigma1
    a = np.where(swap, sigma2, sigma1)
    b = np.where(swap, sigma1, sigma2)
    if np.any(b <= 0.0):
        raise ValueError("analytic gradient needs strictly positive entries")
    ratio = b / a
    s = np.clip(1.0 - ratio * ratio, 0.0, 1.0 - 1e-15)
    e, dd = _e_and_ek_diff_over_s(s)
    d_major = (e + (1.0 - s) * dd) / math.pi
    d_minor = -(ratio * dd) / math.pi
    return np.where(swap, d_minor, d_major), np.where(swap, d_major, d_minor)


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


def build_radial_profile_2(grid_size):
    """Construct the D(2) radial profile from the gradient map of h.

    Evaluates gamma(t) = grad h(cos t, sin t) on an odd grid over
    [t_min, pi/2 - t_min] in one array pass; each point gives the knot
    (atan2(gamma_2, gamma_1), |gamma|), and the knots before the first angle
    past pi/4 form the profile.  The angle sequence must come out strictly
    increasing -- a non-monotone sequence means the gradient went wrong, and
    the build aborts with a diagnostic rather than emit a corrupt
    interpolant.  grid_size lies in [64, MAX_GRID_SIZE].
    """
    if not 64 <= grid_size <= MAX_GRID_SIZE:
        raise ValueError(
            f"grid_size must be in [64, {MAX_GRID_SIZE}], got {grid_size!r}"
        )
    count = grid_size + 1 if grid_size % 2 == 0 else grid_size  # pi/4 on-grid
    ts = np.linspace(_T_MIN, _HALF_PI - _T_MIN, count)
    # graded ramp into the axis: the gradient map expands angles there (the
    # first uniform step would leave a wide knot-free cell next to theta = 0)
    ramp = _T_MIN * 2.0 ** (-0.5 * np.arange(20, 0, -1))
    ts = np.concatenate([ramp, ts])

    g1, g2 = _grad_h2(np.cos(ts), np.sin(ts))
    theta = np.arctan2(g2, g1)
    # past the fundamental arc symmetry covers the rest
    past = theta > _QUARTER_PI + 1e-12
    end = int(np.argmax(past)) if past.any() else len(ts)
    # The axis value is known in closed form: the boundary normal at theta=0
    # is axis-aligned, so r(0) = h(e_1) = rho_1 / sqrt(2 pi) = 1/pi.
    theta = np.concatenate([[0.0], theta[:end]])
    r = np.concatenate([[1.0 / math.pi], np.hypot(g1[:end], g2[:end])])

    diffs = np.diff(theta)
    if np.any(diffs <= 0.0):
        bad = int(np.argmax(diffs <= 0.0))
        raise RuntimeError(
            "gradient-map angle is not strictly increasing at knot "
            f"{bad}: theta[{bad}]={theta[bad]:.6g}, "
            f"theta[{bad + 1}]={theta[bad + 1]:.6g}; the gradient of h "
            "looks inconsistent"
        )
    knots = list(zip(theta.tolist(), r.tolist()))
    # pin the endpoint exactly: gamma(pi/4) = (1/4, 1/4)
    if abs(knots[-1][0] - _QUARTER_PI) < 1e-9:
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


def radial_D(k, sigma, profile=None):
    """Radial function of D(k) at a unit vector sigma.

    k = 1 is the constant 1/pi; k = 2 reads the supplied RadialProfile2;
    k >= 3 is min h(tau) subject to <|sigma|, tau> = 1 (support-to-radial
    convex duality), found by Newton's method on that hyperplane from
    tau = |sigma| with backtracking.  Raises RuntimeError if Newton does not
    converge.
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
    return _radial_newton(np.abs(sigma))


def _radial_newton(u):
    # columns: an orthonormal basis of the hyperplane's directions, u-perp
    basis = np.linalg.svd(u[None, :])[2][1:].T
    tau = u
    value, grad, hess = _support_data(tau)
    for _ in range(50):
        reduced = basis.T @ grad
        step = np.linalg.solve(basis.T @ hess @ basis, -reduced)
        decrement = -float(reduced @ step)  # Newton's: value - min ~ decrement / 2
        step = basis @ step
        if abs(decrement) <= 1e-12 * value:
            # the quadratic region: one full step leaves ~ decrement^2
            return min(value, _support_data(tau + step)[0])
        t = 1.0
        while True:
            trial = _support_data(tau + t * step)
            if trial[0] <= value - 0.25 * t * decrement:
                break
            t *= 0.5
            if t < 1e-10:
                raise RuntimeError(
                    f"radial Newton step found no decrease (k={u.size}, "
                    f"value {value:.17g}, decrement {decrement:.2e})")
        tau = tau + t * step
        value, grad, hess = trial
    raise RuntimeError(
        f"radial Newton not converged after 50 steps (k={u.size}, "
        f"value {value:.17g}, decrement {decrement:.2e})")


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------


def _log_vol_C_prefactor(m):
    """log of |O(2)| |S(2,m)| / (2m * 2^2)."""
    return (vol_orthogonal_log(2).log_magnitude
            + vol_stiefel_log(2, m).log_magnitude - math.log(8.0 * m))


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
    nodes per panel, on 16 and on 32 panels.  Returns an Estimate whose
    value is the LogValue of the 32-panel volume and whose stderr is
    |log I_32 - log I_16|; that panel-doubling difference is the error of
    every quadrature route in the package.
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
    return Estimate(value=LogValue(_log_vol_C_prefactor(m) + fine),
                    stderr=log_error, n_samples=0, seed=0, method="quadrature")


def vol_C_quadrature(m, profile, quad_points=32):
    """Volume of C(2, m) as a float: vol_C_quadrature_log without the log."""
    return vol_C_quadrature_log(m, profile, quad_points).value.exp()


def vol_C_vitale_mc(k, m, rng, samples, workers=1):
    """Volume of C(k, m) as E|det M| / (km)! over rank-one Gaussian columns.

    M stacks the km vectorized products x_i y_i^T.  Column i is |x_i| |y_i|
    times the product of the unit directions, which are independent of the
    radii, so E|det M| = (rho_k rho_m)^(km) alpha(k, m): the radii are
    integrated exactly, and the estimate is ``mc.alpha_mc`` on the same
    draws times that constant over (km)!.
    """
    from .mc import alpha_mc  # the engine loads only when a route draws

    if k < 1 or m < k:
        raise ValueError("need 1 <= k <= m")
    n = k * m
    scale = (rho(k) * rho(m)) ** n / math.factorial(n)
    return alpha_mc(k, m, rng, samples, workers).scaled(
        scale, method="vitale-volume-mc")


def vol_ball(k, m):
    """Volume of the ball of radius radius_R(k) in km dimensions."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    n = k * m
    return math.exp(
        n * math.log(radius_R(k)) + 0.5 * n * math.log(math.pi) - log_gamma(1.0 + n / 2.0)
    )
