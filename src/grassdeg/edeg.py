"""Expected degree of real Grassmannians: exact routes, bounds, asymptotics.

The expected degree edeg G(k,n) is the average number of real k-planes
meeting k(n-k) independent uniformly random (n-k)-planes.  This module
assembles it from the volume machinery (specfun, zonoid): one radial
quadrature serves k = 2 and k = n-2, Grassmannians of lines G(2, n+1)
included.  It also provides the closed-form upper bound, the asymptotic
exponent, and the paper's leading term of edeg G(2, n+1), which the
quadrature checks at finite n.
"""

import math
from dataclasses import replace

from .specfun import (
    LogValue,
    log_gamma,
    rho,
    vol_grassmann_real_log,
    vol_rp_log,
)
from .zonoid import default_profile, vol_C_quadrature_log, vol_C_vitale_mc

__all__ = [
    "edeg_lines_quadrature",
    "edeg_general",
    "edeg_upper_bound_log",
    "epsilon_k",
    "log_edeg_leading",
    "log_edeg_lines_asymptotic",
]

_LOG_ONLY_ABOVE = 30  # k(n-k) beyond this: direct floats refused, LogValue returned


def _on_scale(est, big_n, log_factor=0.0):
    """``est`` times exp(log_factor), on the scale that suits N = big_n.

    ``est.value`` is a LogValue with log-scale stderr or a positive float
    with absolute stderr.  For N > 30 the result is a LogValue with
    log-scale (relative) stderr, otherwise a float with absolute stderr;
    a float that stays one with no factor is returned as it is, not
    round-tripped through its log.
    """
    on_log = isinstance(est.value, LogValue)
    if not on_log and not log_factor and big_n <= _LOG_ONLY_ABOVE:
        return est
    log_value = log_factor + (
        est.value.log_magnitude if on_log else math.log(est.value)
    )
    if big_n > _LOG_ONLY_ABOVE:
        error = est.stderr if on_log else est.stderr / est.value
        return replace(est, value=LogValue(log_value), stderr=error)
    value = math.exp(log_value)
    error = value * est.stderr if on_log else est.stderr * math.exp(log_factor)
    return replace(est, value=value, stderr=error)


# ---------------------------------------------------------------------------
# Grassmannians of lines G(2, n+1)
# ---------------------------------------------------------------------------


def edeg_lines_quadrature(n):
    """edeg G(2, n+1) through the one-dimensional radial integral.

    The lines formula is the case k = 2, m = n - 1 of
    edeg G(2, n+1) = |G(2,n+1)| N!/2^N |C(2, n-1)|, N = 2(n-1), so this is
    exactly edeg_general(2, n+1).
    """
    if n < 3:
        raise ValueError("n must be >= 3 (the radial weight needs m = n-1 >= 2)")
    return edeg_general(2, n + 1)


def log_edeg_lines_asymptotic(n):
    """log of the leading term (8 / (3 pi^(5/2) sqrt(n))) (pi^2/4)^n of
    edeg G(2, n+1), finite for any n."""
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
    workers=1,
):
    """edeg G(k, n) = |G(k,n)| N!/2^N |C(k, n-k)|, N = k(n-k), as an Estimate.

    Orthocomplement duality k -> n-k is applied first, so zonoid_quadrature
    covers k = 2 and k = n-2; zonoid_vitale estimates |C| for any
    k(n-k) <= 36 as (rho_k rho_m)^N / N! times the Monte Carlo alpha(k, m),
    with the radii of the Gaussian columns integrated exactly.  The value
    is a float up to N = 30 and a LogValue beyond, with stderr on the same
    scale: the panel doubling of vol_C_quadrature_log, or the Vitale
    standard error.
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

    if method == "zonoid_quadrature":
        if kk != 2:
            raise ValueError(
                f"zonoid_quadrature requires min(k, n-k) = 2, got {kk} (the "
                "exact radial profile exists only there); use zonoid_vitale"
            )
        volume = vol_C_quadrature_log(m, default_profile())
        return _on_scale(volume, big_n, log_fixed)

    if method == "zonoid_vitale":
        if rng is None or samples is None:
            raise ValueError("zonoid_vitale needs rng and samples")
        est = vol_C_vitale_mc(kk, m, rng, samples, workers=workers)
        if not est.value > 0.0:
            raise RuntimeError(
                "zonoid volume estimate is nonpositive; increase samples"
            )
        return replace(_on_scale(est, big_n, log_fixed), method="zonoid_mc")

    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# bounds and exponents
# ---------------------------------------------------------------------------


def edeg_upper_bound_log(k, n):
    """Upper bound |G(k,n)|/|RP^N| (sqrt(pi/2) rho_k / sqrt(k))^N, N = k(n-k).

    A LogValue, valid for any admissible (k, n).
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    big_n = k * (n - k)
    per_factor = (
        0.5 * math.log(math.pi / 2.0) + math.log(rho(k)) - 0.5 * math.log(k)
    )
    return LogValue(
        vol_grassmann_real_log(k, n).log_magnitude
        - vol_rp_log(big_n).log_magnitude
        + big_n * per_factor
    )


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
