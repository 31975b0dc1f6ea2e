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
deterministic.  For k = 2, grad h is closed-form in E and K, and the radial
function has no elementary closed form but is exact all the same: a
RadialProfile2, built once per process, inverts the gradient-map angle by
Newton's method from a grid of its points.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._quad import composite_gl_log
from .estimate import Estimate
from .specfun import (
    LogValue,
    _ke_complement,
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
_T_MIN = 1e-3  # start of the uniform seed grid; a ramp grades it into the axis
MAX_QUAD_POINTS = 256  # Gauss-Legendre nodes per panel of the radial integral
MAX_GRID_SIZE = 65_536  # gradient-map grid of a profile: 16x the default's
_SOLVE_STEPS = 50  # Newton steps of the k = 2 radial solve; 3 or 4 are taken


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


def _e_and_ek_diff_over_s(x):
    """(E(s), (E(s) - K(s)) / s) elementwise at s = 1 - x, for an array x in
    (0, 1]; the second is stable down to s = 0, where it equals -pi/4.

    K and E read x itself (specfun._ke_complement), so they keep their
    relative accuracy as x -> 0.  Near s = 0 the difference E - K cancels
    catastrophically, so a power series in s takes over below 1e-3.
    """
    x = np.asarray(x)
    k, e = _ke_complement(x)
    s = 1.0 - x
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

    Valid for sigma1, sigma2 > 0 with min/max above 1e-154 (its square must
    not underflow).  Writing x = (min/max)^2 and s = 1 - x, the partial
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
    x = ratio * ratio
    e, dd = _e_and_ek_diff_over_s(x)
    d_major = (e + x * dd) / math.pi
    d_minor = -(ratio * dd) / math.pi
    return np.where(swap, d_minor, d_major), np.where(swap, d_major, d_minor)


# ---------------------------------------------------------------------------
# the k = 2 radial function
# ---------------------------------------------------------------------------


def _gradient_map(phi):
    """(theta, r, dtheta/dphi) of the gradient map of h at angles phi > 0.

    The boundary point of D(2) with outer normal tau = (cos phi, sin phi) is
    grad h(tau) = h tau + h' tau_perp (h and h' = dh/dphi at phi): it lies at
    angle theta = atan2(d_2 h, d_1 h) and radius r = |grad h|, and
    dtheta/dphi = h (h + h'') / r^2.  Legendre's equation for E(s) turns
    into h + h'' = 4 h' / sin(4 phi), so the slope needs nothing beyond the
    gradient.  It falls from +inf at the axis to 1/2 at phi = pi/4, where h'
    and sin(4 phi) both vanish and their quotient is rounding noise; the
    floor at 1/2, its least value, keeps the computed slope in range.
    """
    c, s = np.cos(phi), np.sin(phi)
    g1, g2 = _grad_h2(c, s)
    h, dh = g1 * c + g2 * s, g2 * c - g1 * s
    r = np.hypot(g1, g2)
    slope = 4.0 * h * dh / (r * r * np.sin(4.0 * phi))
    return np.arctan2(g2, g1), r, np.maximum(slope, 0.5)


@dataclass
class RadialProfile2:
    """Exact radial function of D(2), seeded by points of its gradient map.

    ``phi`` are increasing gradient-map parameters from 0 to pi/4, and
    ``knots`` the (theta, r) points of the gradient map there
    (_gradient_map), pinned to the closed forms (0, 1/pi) and
    (pi/4, radius_R(2)) at the two ends.  radius(theta) folds theta into
    the fundamental arc [0, pi/4] through r(theta) = r(pi/2 - theta) and
    solves theta(phi) = theta by Newton's method, from the chord of the
    knot cell that holds theta, until a step is below 1e-9 phi: the next
    one would be below an ulp.  r = |grad h(cos phi, sin phi)| there,
    whatever the grid.  The knot angles must come out strictly increasing
    -- a non-monotone sequence means the gradient went wrong, and the
    construction aborts with a diagnostic rather than seed the solve with
    it.
    """

    phi: list
    knots: list = field(init=False)
    _theta: np.ndarray = field(init=False, repr=False, compare=False)
    _phi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        if phi.ndim != 1 or phi.size < 2 or phi[0] != 0.0 or phi[-1] != _QUARTER_PI:
            raise ValueError("phi must run from 0 to pi/4")
        if np.any(np.diff(phi) <= 0.0):
            raise ValueError("phi must be strictly increasing")
        theta, r, _ = _gradient_map(phi[1:-1])
        # the axis and orbit knots are closed forms: the boundary normal at
        # theta = 0 is axis-aligned, so r(0) = h(e_1) = 1/pi, and
        # grad h at phi = pi/4 is (1/4, 1/4)
        theta = np.concatenate([[0.0], theta, [_QUARTER_PI]])
        r = np.concatenate([[1.0 / math.pi], r, [radius_R(2)]])
        diffs = np.diff(theta)
        if np.any(diffs <= 0.0):
            bad = int(np.argmax(diffs <= 0.0))
            raise RuntimeError(
                "gradient-map angle is not strictly increasing at knot "
                f"{bad}: theta[{bad}]={theta[bad]:.6g}, "
                f"theta[{bad + 1}]={theta[bad + 1]:.6g}; the gradient of h "
                "looks inconsistent"
            )
        self.knots = list(zip(theta.tolist(), r.tolist()))
        self._theta, self._phi = theta, phi

    def radius(self, theta):
        """Radial value at any angle in [0, pi/2] (scalar or array)."""
        theta = np.asarray(theta, dtype=float)
        scalar = theta.ndim == 0
        t = np.atleast_1d(theta).copy()
        if np.any(t < -1e-12) or np.any(t > _HALF_PI + 1e-12):
            raise ValueError("angle must lie in [0, pi/2]")
        np.clip(t, 0.0, _HALF_PI, out=t)
        t = np.where(t > _QUARTER_PI, _HALF_PI - t, t)  # fold the symmetric half
        # r(0) = h(e_1) = 1/pi; r / (1/pi) - 1 ~ theta^2 / 2, so below
        # theta = 1e-9 the radius is 1/pi to the last bit
        out = np.full_like(t, 1.0 / math.pi)
        solve = t > 1e-9
        out[solve] = self._solve(t[solve])
        return float(out[0]) if scalar else out

    def _solve(self, t):
        """r at angles t in (0, pi/4] by Newton's method on theta(phi) = t.

        theta(phi) is concave on (0, pi/4]: from the left of the root a
        Newton step stays left of it, from the right it may overshoot to
        the left.  Holding each step to at most halving phi keeps phi > 0.
        """
        cell = np.minimum(np.searchsorted(self._theta, t, side="right"),
                          self._theta.size - 1)
        t0, t1 = self._theta[cell - 1], self._theta[cell]
        p0, p1 = self._phi[cell - 1], self._phi[cell]
        phi = p0 + (p1 - p0) * ((t - t0) / (t1 - t0))
        for _ in range(_SOLVE_STEPS):
            theta, _, slope = _gradient_map(phi)
            step = (theta - t) / slope
            phi = np.maximum(phi - step, 0.5 * phi)
            if np.all(np.abs(step) <= 1e-9 * phi):
                return _gradient_map(phi)[1]
        raise RuntimeError(
            f"radial solve not converged after {_SOLVE_STEPS} Newton steps "
            f"(largest step {np.max(np.abs(step)):.2e})")


def build_radial_profile_2(grid_size):
    """Construct the seeds of the D(2) radial function: the gradient map of h.

    Places grid_size // 2 + 1 uniform parameters on [t_min, pi/4], after a
    graded ramp into the axis, and evaluates the gradient map
    gamma(t) = grad h(cos t, sin t) there in one array pass
    (RadialProfile2); each gives the knot (atan2(gamma_2, gamma_1),
    |gamma|), and the build aborts if their angles do not increase.
    grid_size lies in [64, MAX_GRID_SIZE].
    """
    if not 64 <= grid_size <= MAX_GRID_SIZE:
        raise ValueError(
            f"grid_size must be in [64, {MAX_GRID_SIZE}], got {grid_size!r}"
        )
    # graded ramp into the axis: the gradient map expands angles there, and
    # the ramp keeps the chord seeds of small angles close to their roots
    ramp = _T_MIN * 2.0 ** (-0.5 * np.arange(20, 0, -1))
    ts = np.linspace(_T_MIN, _QUARTER_PI, grid_size // 2 + 1)
    return RadialProfile2(phi=np.concatenate([[0.0], ramp, ts]).tolist())


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
    every quadrature route in the package.  Where the two agree to the last
    bits the stderr is held at rounding, 4 ulps of max(1, |log vol|).
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
    log_vol = _log_vol_C_prefactor(m) + fine
    rounding = 4.0 * math.ulp(max(1.0, abs(log_vol)))
    return Estimate(value=LogValue(log_vol), stderr=max(log_error, rounding),
                    n_samples=0, seed=0, method="quadrature")


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
    # alpha_mc refuses km > 36 before drawing, where the scale may overflow
    alpha = alpha_mc(k, m, rng, samples, workers)
    n = k * m
    return alpha.scaled((rho(k) * rho(m)) ** n / math.factorial(n),
                        method="vitale-volume-mc")


def vol_ball(k, m):
    """Volume of the ball of radius radius_R(k) in km dimensions."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    n = k * m
    return math.exp(
        n * math.log(radius_R(k)) + 0.5 * n * math.log(math.pi) - log_gamma(1.0 + n / 2.0)
    )
