"""Special functions and closed-form volumes of spheres, groups and Grassmannians.

Everything here is deterministic closed-form arithmetic: log-gamma (the C
library's lgamma on x > 0), the multivariate gamma function, complete
elliptic integrals by Cephes' fixed-degree forms in 1 - s (a number passes
through them as a 0-d array), and the volumes that enter every
expected-degree formula.  Each volume is returned as a LogValue, its
natural log, which stays finite far beyond the range where the value
itself overflows a double; ``.exp()`` gives the value where it fits.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LogValue",
    "log_gamma",
    "multivariate_gamma_log",
    "rho",
    "elliptic_E",
    "elliptic_K",
    "elliptic_KE",
    "vol_sphere_log",
    "vol_rp_log",
    "vol_orthogonal_log",
    "vol_stiefel_log",
    "vol_unitary_log",
    "vol_grassmann_real_log",
    "vol_grassmann_complex_log",
    "deg_grassmann_complex",
    "deg_grassmann_complex_log",
]

# Largest natural log whose exp is still a finite double, with headroom.
_LOG_HUGE = 700.0


@dataclass(frozen=True)
class LogValue:
    """A positive quantity carried as its natural logarithm."""

    log_magnitude: float

    def exp(self):
        """Direct value; raises OverflowError when not representable."""
        if self.log_magnitude > _LOG_HUGE:
            raise OverflowError(
                "value exceeds double range (log magnitude %.6g); "
                "work with log_magnitude instead" % self.log_magnitude
            )
        return math.exp(self.log_magnitude)

    def __float__(self):
        return self.exp()


def log_gamma(x):
    """Natural log of the gamma function for x > 0."""
    if x <= 0.0:
        raise ValueError("log_gamma requires x > 0, got %r" % (x,))
    return math.lgamma(x)


def multivariate_gamma_log(k, a):
    """log of Gamma_k(a) = pi^{k(k-1)/4} prod_{i=0}^{k-1} Gamma(a - i/2)."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    if a <= (k - 1) / 2.0:
        raise ValueError(
            "multivariate gamma needs a > (k-1)/2; got a=%r for k=%d" % (a, k)
        )
    out = 0.25 * k * (k - 1) * math.log(math.pi)
    for i in range(k):
        out += log_gamma(a - 0.5 * i)
    return out


def rho(k):
    """Expected norm of a standard Gaussian vector in R^k.

    rho_k = sqrt(2) Gamma((k+1)/2) / Gamma(k/2); satisfies
    sqrt(k/(k+1)) * sqrt(k) <= rho_k <= sqrt(k).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.exp(0.5 * math.log(2.0) + log_gamma((k + 1) / 2.0) - log_gamma(k / 2.0))


# S. L. Moshier's Cephes ``ellpe``/``ellpk`` forms in the complementary
# parameter x = 1 - s, highest degree first:
#   E = P_E(x) - log(x) x Q_E(x),   K = P_K(x) - log(x) Q_K(x),
# within about one ulp of E and K on all of [0, 1].
_P_E = (1.53552577301013293365E-4, 2.50888492163602060990E-3,
        8.68786816565889628429E-3, 1.07350949056076193403E-2,
        7.77395492516787092951E-3, 7.58395289413514708519E-3,
        1.15688436810574127319E-2, 2.18317996015557253103E-2,
        5.68051945617860553470E-2, 4.43147180560990850618E-1,
        1.00000000000000000299E0)
_Q_E = (3.27954898576485872656E-5, 1.00962792679356715133E-3,
        6.50609489976927491433E-3, 1.68862163993311317300E-2,
        2.61769742454493659583E-2, 3.34833904888224918614E-2,
        4.27180926518931511717E-2, 5.85936634471101055642E-2,
        9.37499997197644278445E-2, 2.49999999999888314361E-1)
_P_K = (1.37982864606273237150E-4, 2.28025724005875567385E-3,
        7.97404013220415179367E-3, 9.85821379021226008714E-3,
        6.87489687449949877925E-3, 6.18901033637687613229E-3,
        8.79078273952743772254E-3, 1.49380448916805252718E-2,
        3.08851465246711995998E-2, 9.65735902811690126535E-2,
        1.38629436111989062502E0)
_Q_K = (2.94078955048598507511E-5, 9.14184723865917226571E-4,
        5.94058303753167793257E-3, 1.54850516649762399335E-2,
        2.39089602715924892727E-2, 3.01204715227604046988E-2,
        3.73774314173823228969E-2, 4.88280347570998239232E-2,
        7.03124996963957469739E-2, 1.24999999999870820058E-1,
        4.99999999999999999821E-1)


def _horner(coeffs, x, out):
    """The polynomial ``coeffs`` (highest degree first) at x, into ``out``."""
    np.multiply(x, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= x
    out += coeffs[-1]
    return out


def _e_complement(x, rows):
    """E(1 - x) for x in [0, 1], elementwise in the two arrays ``rows``.

    Returned in rows[0].  log(0) counts as 0, so x = 0 gives E(1) =
    P_E(0) = 1 and no divide warning.
    """
    e, t = rows
    _horner(_Q_E, x, t)
    t *= x
    e.fill(0.0)
    t *= np.log(x, out=e, where=x > 0.0)
    return np.subtract(_horner(_P_E, x, e), t, out=e)


def _k_complement(x, rows):
    """K(1 - x) for x in (0, 1], elementwise in the two arrays ``rows``.

    Returned in rows[0].
    """
    k, t = rows
    _horner(_Q_K, x, t)
    t *= np.log(x, out=k)
    return np.subtract(_horner(_P_K, x, k), t, out=k)


def _parameter(s, name, upper_closed):
    """``s`` as a float array, checked to lie in [0, 1) or [0, 1]."""
    x = np.asarray(s, dtype=float)
    inside = (x >= 0.0) & ((x <= 1.0) if upper_closed else (x < 1.0))
    if not inside.all():
        shown = "an array" if isinstance(s, np.ndarray) else repr(s)
        raise ValueError("%s parameter must lie in [0, 1%s, got %s"
                         % (name, "]" if upper_closed else ")", shown))
    return x


def _like(s, value):
    """``value`` as an array for an array ``s``, as a float for a number."""
    return value if isinstance(s, np.ndarray) else float(value)


def elliptic_E(s):
    """Complete elliptic integral E(s) = int_0^{pi/2} sqrt(1 - s sin^2 t) dt.

    By Cephes' form P_E(x) - log(x) x Q_E(x) in x = 1 - s, within about an
    ulp of E; at s = 1 the log term is 0 and E(1) = P_E(0) = 1.
    ``s`` is a number or an array; an array gives E elementwise.
    """
    x = 1.0 - _parameter(s, "elliptic_E", upper_closed=True)
    return _like(s, _e_complement(x, (np.empty_like(x), np.empty_like(x))))


def elliptic_K(s):
    """Complete elliptic integral K(s) = int_0^{pi/2} (1 - s sin^2 t)^{-1/2} dt.

    ``s`` is a number or an array; an array gives K elementwise.
    """
    x = 1.0 - _parameter(s, "elliptic_K", upper_closed=False)
    return _like(s, _k_complement(x, (np.empty_like(x), np.empty_like(x))))


def _ke_complement(x):
    """(K(1 - x), E(1 - x)) for an array x in (0, 1], as two new arrays.

    Reading the complement x itself keeps the relative accuracy of K and E
    as x -> 0, where 1 - s would keep only the digits of s.
    """
    rows = [np.empty_like(x) for _ in range(4)]
    return _k_complement(x, rows[0:2]), _e_complement(x, rows[2:4])


def elliptic_KE(s):
    """(K(s), E(s)), each equal to elliptic_K / elliptic_E.

    ``s`` is a number or an array; an array gives a pair of arrays.
    """
    k, e = _ke_complement(1.0 - _parameter(s, "elliptic_KE", upper_closed=False))
    return _like(s, k), _like(s, e)


# ---------------------------------------------------------------------------
# volumes, as LogValues

def vol_sphere_log(d):
    """log of the d-dimensional volume of the unit sphere S^d in R^{d+1}."""
    if d < 0:
        raise ValueError("sphere dimension must be >= 0")
    h = (d + 1) / 2.0
    return LogValue(math.log(2.0) + h * math.log(math.pi) - log_gamma(h))


def vol_rp_log(d):
    """log volume of real projective space RP^d (half the sphere)."""
    return LogValue(vol_sphere_log(d).log_magnitude - math.log(2.0))


def vol_orthogonal_log(k):
    """log volume of the orthogonal group O(k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return LogValue(
        k * math.log(2.0)
        + 0.5 * k * k * math.log(math.pi)
        - multivariate_gamma_log(k, 0.5 * k)
    )


def vol_stiefel_log(k, m):
    """log volume of the Stiefel manifold S(k, m) of k-frames in R^m."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    return LogValue(
        k * math.log(2.0)
        + 0.5 * k * m * math.log(math.pi)
        - multivariate_gamma_log(k, 0.5 * m)
    )


def vol_unitary_log(k):
    """log volume of the unitary group U(k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = k * math.log(2.0) + 0.5 * (k * k + k) * math.log(math.pi)
    for i in range(1, k):
        out -= log_gamma(i + 1)
    return LogValue(out)


def vol_grassmann_real_log(k, n):
    """log volume of G(k, n) = |O(n)| / (|O(k)| |O(n-k)|).

    With k the smaller of k and n - k, |O(n)| / |O(n-k)| is the product of
    |S^(n-1-i)| over i < k: O(k) terms, and no cancellation between sums
    of size n^2 log n.
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    k = min(k, n - k)
    return LogValue(
        sum(vol_sphere_log(n - 1 - i).log_magnitude for i in range(k))
        - vol_orthogonal_log(k).log_magnitude
    )


def vol_grassmann_complex_log(k, n):
    """log volume of the complex Grassmannian |U(n)| / (|U(k)| |U(n-k)|).

    As for the real one, with k the smaller side: |U(n)| / |U(n-k)| is the
    product of |S^(2(n-i)-1)| over i < k.
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    k = min(k, n - k)
    return LogValue(
        sum(vol_sphere_log(2 * (n - i) - 1).log_magnitude for i in range(k))
        - vol_unitary_log(k).log_magnitude
    )


# ---------------------------------------------------------------------------
# degree of the complex Grassmannian

_DEG_EXACT_LIMIT = 1000


def deg_grassmann_complex(k, n):
    """Degree of the complex Grassmannian G_C(k,n) in its Pluecker embedding.

    deg = (k(n-k))! * prod_{i=0}^{k-1} i! / (n-k+i)!  -- an exact integer.
    For k = 2 this is the Catalan number C_{n-2}.
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    N = k * (n - k)
    if N > _DEG_EXACT_LIMIT:
        raise OverflowError(
            "exact degree requested for k(n-k) = %d > %d; "
            "use deg_grassmann_complex_log" % (N, _DEG_EXACT_LIMIT)
        )
    num = math.factorial(N)
    den = 1
    for i in range(k):
        num *= math.factorial(i)
        den *= math.factorial(n - k + i)
    out, rem = divmod(num, den)
    assert rem == 0
    return out


def deg_grassmann_complex_log(k, n):
    """log of the complex Grassmannian degree; finite for large k, n."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    N = k * (n - k)
    out = log_gamma(N + 1)
    for i in range(k):
        out += log_gamma(i + 1) - log_gamma(n - k + i + 1)
    return LogValue(out)
