"""Expected degree of real Grassmannians: exact routes, bounds, asymptotics.

The expected degree edeg G(k,n) is the average number of real k-planes
meeting k(n-k) independent uniformly random (n-k)-planes.  This module
assembles it from the volume machinery (specfun, zonoid): one radial
quadrature serves k = 2 and k = n-2, Grassmannians of lines G(2, n+1)
included.  It also provides the closed-form upper bound and asymptotic
exponent, and a small Laplace-method evaluator used to validate the
asymptotics at finite n.
"""

import math
import warnings
from dataclasses import dataclass

from .specfun import (
    LogValue,
    log_gamma,
    rho,
    vol_grassmann_real_log,
    vol_rp_log,
)
from .zonoid import default_profile, vol_C_quadrature_log, vol_C_vitale_mc

__all__ = [
    "EdegResult",
    "LaplaceProblem",
    "edeg_lines_quadrature",
    "edeg_lines_asymptotic",
    "edeg_general",
    "edeg_upper_bound",
    "edeg_upper_bound_log",
    "epsilon_k",
    "log_edeg_leading",
    "laplace_leading",
    "laplace_validate",
]

_METHODS = ("quadrature", "zonoid_mc")
_LOG_ONLY_ABOVE = 30  # k(n-k) beyond this: direct floats refused, LogValue returned


@dataclass(frozen=True)
class EdegResult:
    """Expected degree of G(k, n), tagged with how it was computed.

    ``value`` is a positive float when k(n-k) <= 30 and a LogValue beyond
    that.  ``error_estimate`` is absolute on a float value and log-scale
    (relative) on a LogValue: value * |log I_32 - log I_16| or
    |log I_32 - log I_16| for quadrature (the panel doubling of
    vol_C_quadrature_log), the standard error or the relative standard
    error for zonoid Monte Carlo.
    """

    k: int
    n: int
    value: object
    method: str
    error_estimate: float

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        if isinstance(self.value, LogValue):
            return
        if not self.value > 0.0:
            raise ValueError("edeg value must be positive")

    def log_magnitude(self):
        """log of the value regardless of representation."""
        if isinstance(self.value, LogValue):
            return self.value.log_magnitude
        return math.log(self.value)


def _pack_value(log_value, big):
    if big:
        return LogValue(log_value)
    return math.exp(log_value)


# ---------------------------------------------------------------------------
# Grassmannians of lines G(2, n+1)
# ---------------------------------------------------------------------------


def edeg_lines_quadrature(n, profile=None, quad_points=32):
    """edeg G(2, n+1) through the one-dimensional radial integral.

    The lines formula is the case k = 2, m = n - 1 of
    edeg G(2, n+1) = |G(2,n+1)| N!/2^N |C(2, n-1)|, N = 2(n-1), so this is
    exactly edeg_general(2, n+1).
    """
    if n < 3:
        raise ValueError("n must be >= 3 (the radial weight needs m = n-1 >= 2)")
    return edeg_general(2, n + 1, profile=profile, quad_points=quad_points)


def edeg_lines_asymptotic(n):
    """Leading asymptotic term (8 / (3 pi^(5/2) sqrt(n))) (pi^2/4)^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (
        8.0
        / (3.0 * math.pi**2.5 * math.sqrt(n))
        * (math.pi**2 / 4.0) ** n
    )


def log_edeg_lines_asymptotic(n):
    """log of edeg_lines_asymptotic, safe for any n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (
        math.log(8.0 / 3.0)
        - 2.5 * math.log(math.pi)
        - 0.5 * math.log(n)
        + n * math.log(math.pi**2 / 4.0)
    )


# ---------------------------------------------------------------------------
# general (k, n)
# ---------------------------------------------------------------------------


def edeg_general(
    k,
    n,
    method="zonoid_quadrature",
    rng=None,
    samples=None,
    profile=None,
    quad_points=32,
    workers=1,
):
    """edeg G(k, n) = |G(k,n)| N!/2^N |C(k, n-k)|, N = k(n-k).

    Orthocomplement duality k -> n-k is applied first, so zonoid_quadrature
    covers k = 2 and k = n-2; zonoid_vitale estimates |C| by determinant
    Monte Carlo for any k(n-k) <= 36.
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    kk = min(k, n - k)
    m = n - kk
    big_n = kk * m
    log_fixed = (
        vol_grassmann_real_log(kk, n).log_magnitude
        + log_gamma(big_n + 1.0)
        - big_n * math.log(2.0)
    )
    big = big_n > _LOG_ONLY_ABOVE

    if method == "zonoid_quadrature":
        if kk != 2:
            raise ValueError(
                "zonoid_quadrature requires k = 2 or k = n-2 (the exact "
                "radial profile exists only there); use zonoid_vitale"
            )
        if profile is None:
            profile = default_profile()
        log_c, log_error = vol_C_quadrature_log(m, profile, quad_points)
        log_value = log_fixed + log_c.log_magnitude
        error = log_error if big else math.exp(log_value) * log_error
        return EdegResult(
            k=k, n=n, value=_pack_value(log_value, big),
            method="quadrature", error_estimate=error,
        )

    if method == "zonoid_vitale":
        if big_n > 36:
            raise ValueError("k(n-k) > 36 not supported by the Vitale route")
        if rng is None or samples is None:
            raise ValueError("zonoid_vitale needs rng and samples")
        est = vol_C_vitale_mc(kk, m, rng, samples, workers=workers)
        if not est.value > 0.0:
            raise RuntimeError(
                "zonoid volume estimate is nonpositive; increase samples"
            )
        log_value = log_fixed + math.log(est.value)
        if big:
            error = est.stderr / est.value  # relative, matching the log scale
        else:
            error = est.stderr * math.exp(log_fixed)
        return EdegResult(
            k=k, n=n, value=_pack_value(log_value, big),
            method="zonoid_mc", error_estimate=error,
        )

    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# bounds and exponents
# ---------------------------------------------------------------------------


def _log_upper_bound(k, n):
    big_n = k * (n - k)
    per_factor = (
        0.5 * math.log(math.pi / 2.0) + math.log(rho(k)) - 0.5 * math.log(k)
    )
    return (
        vol_grassmann_real_log(k, n).log_magnitude
        - vol_rp_log(big_n).log_magnitude
        + big_n * per_factor
    )


def edeg_upper_bound(k, n):
    """Closed-form upper bound |G(k,n)|/|RP^N| (sqrt(pi/2) rho_k / sqrt(k))^N."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if k * (n - k) > _LOG_ONLY_ABOVE:
        raise OverflowError(
            "k(n-k) > 30: direct value refused, call edeg_upper_bound_log"
        )
    return math.exp(_log_upper_bound(k, n))


def edeg_upper_bound_log(k, n):
    """Log-scale form of edeg_upper_bound, valid for any admissible (k, n)."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    return LogValue(_log_upper_bound(k, n))


def epsilon_k(k):
    """Asymptotic exponent: edeg G(k,n) grows like k^(eps_k n) in n."""
    if k < 2:
        raise ValueError("epsilon_k is defined for k >= 2")
    return math.log(math.pi * rho(k) ** 2 / 2.0) / math.log(k)


def log_edeg_leading(k, n):
    """Leading term of log edeg G(k, n) for n >> k."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    return k * n * (
        0.5 * math.log(math.pi)
        + log_gamma((k + 1) / 2.0)
        - log_gamma(k / 2.0)
    )


# ---------------------------------------------------------------------------
# Laplace method at an interior-free minimum on an interval endpoint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaplaceProblem:
    """Expansion data of exp(-lambda a(t)) b(t) dt near the minimum of a.

    a(t) ~ a_at_min + a0 |t - t*|^mu and b(t) ~ b0 |t - t*|^(nu - 1) as t
    approaches the minimizer t*, which sits on the stated endpoint.
    """

    a_at_min: float
    a0: float
    mu: float
    b0: float
    nu: float
    min_at_right_endpoint: bool

    def __post_init__(self):
        if self.a0 == 0.0:
            raise ValueError("a0 must be nonzero")
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        if self.b0 == 0.0:
            raise ValueError("b0 must be nonzero")
        if self.nu < 1.0:
            raise ValueError("nu must be >= 1")


def laplace_leading(problem, lam):
    """Leading asymptotic term of the one-sided Laplace integral."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    p = problem
    ratio = p.nu / p.mu
    return (
        math.exp(-lam * p.a_at_min)
        * lam ** (-ratio)
        * p.b0
        * math.exp(log_gamma(ratio))
        / (p.a0**ratio * p.mu)
    )


def laplace_validate(a, b, t1, t2, problem, lambda_grid):
    """Compare laplace_leading against adaptive quadrature on a lambda grid.

    Returns a list of rows {lam, integral, leading, rel_error}; the shared
    exp(-lam a_at_min) factor is handled analytically so huge lambdas cannot
    underflow the comparison.  Imports scipy's adaptive quadrature on
    call, so the rest of the package starts without scipy.
    """
    from scipy.integrate import IntegrationWarning, quad

    rows = []
    amin = problem.a_at_min
    for lam in lambda_grid:
        if lam <= 0.0:
            raise ValueError("lambda grid must be positive")
        with warnings.catch_warnings():
            # Extremely peaked integrands trip scipy's roundoff detector long
            # after the value has converged; the rel_error column is the judge.
            warnings.simplefilter("ignore", IntegrationWarning)
            scaled_integral = quad(
                lambda t: math.exp(-lam * (a(t) - amin)) * b(t),
                t1,
                t2,
                epsabs=1e-13,
                epsrel=1e-11,
                limit=500,
            )[0]
        scaled_leading = laplace_leading(problem, lam) * math.exp(lam * amin)
        rel_error = abs(scaled_integral - scaled_leading) / abs(scaled_integral)
        try:
            damp = math.exp(-lam * amin)
        except OverflowError:
            damp = math.inf
        rows.append(
            {
                "lam": float(lam),
                "integral": scaled_integral * damp,
                "leading": scaled_leading * damp,
                "rel_error": rel_error,
            }
        )
    return rows
