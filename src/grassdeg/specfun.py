"""Special functions and closed-form volumes of spheres, groups and Grassmannians.

Everything here is deterministic closed-form arithmetic: log-gamma (the C
library's lgamma on x > 0), the multivariate gamma function, complete
elliptic integrals by one elementwise AGM iteration (a number passes
through it as a 0-d array), and the volumes that enter every
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


# The AGM stops once c = (a - b)/2 is at most this fraction of a: the next
# c is then ~c^2/(4a), below every digit of a and of the c^2 sum.  An
# absolute test never fires where a and b settle one ulp apart.
_AGM_RTOL = 1e-15


def _agm_elliptic(s, work=None):
    # One AGM sweep serving both integrals, elementwise over the array s:
    # returns (K, E) with K = pi / (2 * agm(1, sqrt(1-s))) and
    # E = K * (1 - sum_j 2^{j-1} c_j^2), c_0 = sqrt(s), c_j = (a-b)/2.
    # The sweeps run until every element has met the stop.  Those an
    # element runs after its own stop leave its a and csum as they were (a
    # and b are then equal or an ulp apart, and pow2 * c^2 falls below
    # csum's last bit), so each element gets the value a loop over it alone
    # would return.
    # The sweep runs in place in five arrays shaped like s: ``work``, or
    # new ones; K and E come back in two of them.  s is last read where
    # csum is first written, so it may be that last array.
    a, b, c, t, csum = (np.empty_like(s) for _ in range(5)) if work is None else work
    np.sqrt(np.subtract(1.0, s, out=b), out=b)
    np.multiply(s, 0.5, out=csum)  # 2^{-1} * c_0^2
    a.fill(1.0)
    pow2 = 0.5
    for _ in range(60):
        np.multiply(np.subtract(a, b, out=c), 0.5, out=c)
        np.multiply(np.add(a, b, out=t), 0.5, out=t)  # the next a
        np.sqrt(np.multiply(b, a, out=b), out=b)
        a, t = t, a
        pow2 *= 2.0
        csum += np.multiply(np.multiply(c, pow2, out=t), c, out=t)
        if (c <= np.multiply(a, _AGM_RTOL, out=t)).all():
            break
    K = np.divide(math.pi, np.multiply(a, 2.0, out=t), out=t)
    return K, np.multiply(np.subtract(1.0, csum, out=csum), K, out=csum)


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


def elliptic_E(s, work=None):
    """Complete elliptic integral E(s) = int_0^{pi/2} sqrt(1 - s sin^2 t) dt.

    ``s`` is a number or an array; an array gives E elementwise.  For an
    array, ``work`` may give five arrays shaped like it to compute in
    instead of new ones; E is then returned in one of them.
    """
    x = _parameter(s, "elliptic_E", upper_closed=True)
    one = x == 1.0  # K is infinite there; E(1) = 1
    rows = [np.empty_like(x) for _ in range(5)] if work is None else work
    z = rows[-1]  # the sweep reads its s before it writes this row
    np.copyto(z, x)
    np.copyto(z, 0.0, where=one)
    e = _agm_elliptic(z, rows)[1]
    np.copyto(e, 1.0, where=one)
    return _like(s, e)


def elliptic_K(s):
    """Complete elliptic integral K(s) = int_0^{pi/2} (1 - s sin^2 t)^{-1/2} dt.

    ``s`` is a number or an array; an array gives K elementwise.
    """
    x = _parameter(s, "elliptic_K", upper_closed=False)
    return _like(s, _agm_elliptic(x)[0])


def elliptic_KE(s):
    """(K(s), E(s)) from one AGM sweep: each equals elliptic_K / elliptic_E.

    ``s`` is a number or an array; an array gives a pair of arrays.
    """
    k, e = _agm_elliptic(_parameter(s, "elliptic_KE", upper_closed=False))
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
    """log volume of G(k, n) = |O(n)| / (|O(k)| |O(n-k)|)."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    return LogValue(
        vol_orthogonal_log(n).log_magnitude
        - vol_orthogonal_log(k).log_magnitude
        - vol_orthogonal_log(n - k).log_magnitude
    )


def vol_grassmann_complex_log(k, n):
    """log volume of the complex Grassmannian via unitary group quotients."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    return LogValue(
        vol_unitary_log(n).log_magnitude
        - vol_unitary_log(k).log_magnitude
        - vol_unitary_log(n - k).log_magnitude
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
