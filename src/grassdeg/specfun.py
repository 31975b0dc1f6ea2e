"""Special functions and closed-form volumes of spheres, groups and Grassmannians.

Everything here is deterministic closed-form arithmetic: log-gamma (the C
library's lgamma on x > 0), the multivariate gamma function, complete
elliptic integrals by AGM iteration, and the volumes that enter every
expected-degree formula.  Each volume comes in a direct and a log-scale
flavour; the log forms stay finite far beyond the range where the direct
values overflow a double.
"""

import math
from dataclasses import dataclass

__all__ = [
    "LogValue",
    "log_gamma",
    "multivariate_gamma_log",
    "rho",
    "elliptic_E",
    "elliptic_K",
    "elliptic_KE",
    "vol_sphere",
    "vol_rp",
    "vol_cp",
    "vol_orthogonal",
    "vol_stiefel",
    "vol_unitary",
    "vol_grassmann_real",
    "vol_grassmann_complex",
    "vol_sphere_log",
    "vol_rp_log",
    "vol_cp_log",
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


def _agm_elliptic(s):
    # One AGM sweep serving both integrals: returns (K, E) for parameter s,
    # with K = pi / (2 * agm(1, sqrt(1-s))) and
    # E = K * (1 - sum_j 2^{j-1} c_j^2), c_0 = sqrt(s), c_j = (a-b)/2.
    a, b = 1.0, math.sqrt(1.0 - s)
    csum = 0.5 * s  # 2^{-1} * c_0^2
    pow2 = 0.5
    for _ in range(60):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        pow2 *= 2.0
        csum += pow2 * c * c
        if c < 1e-17:
            break
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - csum)


def elliptic_E(s):
    """Complete elliptic integral E(s) = int_0^{pi/2} sqrt(1 - s sin^2 t) dt."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("elliptic_E parameter must lie in [0, 1], got %r" % (s,))
    if s == 1.0:
        return 1.0
    return _agm_elliptic(s)[1]


def elliptic_K(s):
    """Complete elliptic integral K(s) = int_0^{pi/2} (1 - s sin^2 t)^{-1/2} dt."""
    if not 0.0 <= s < 1.0:
        raise ValueError("elliptic_K parameter must lie in [0, 1), got %r" % (s,))
    return _agm_elliptic(s)[0]


def elliptic_KE(s):
    """(K(s), E(s)) from one AGM sweep: each equals elliptic_K / elliptic_E."""
    if not 0.0 <= s < 1.0:
        raise ValueError("elliptic_KE parameter must lie in [0, 1), got %r" % (s,))
    return _agm_elliptic(s)


# ---------------------------------------------------------------------------
# volumes (log forms first; direct forms exponentiate)

def vol_sphere_log(d):
    """log of the d-dimensional volume of the unit sphere S^d in R^{d+1}."""
    if d < 0:
        raise ValueError("sphere dimension must be >= 0")
    h = (d + 1) / 2.0
    return LogValue(math.log(2.0) + h * math.log(math.pi) - log_gamma(h))


def vol_rp_log(d):
    """log volume of real projective space RP^d (half the sphere)."""
    return LogValue(vol_sphere_log(d).log_magnitude - math.log(2.0))


def vol_cp_log(d):
    """log volume of complex projective space CP^d = pi^d / d!."""
    if d < 0:
        raise ValueError("dimension must be >= 0")
    return LogValue(d * math.log(math.pi) - log_gamma(d + 1))


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


def _direct(logval):
    return logval.exp()


def vol_sphere(d):
    """Volume (surface measure) of the unit sphere S^d; e.g. |S^1| = 2 pi."""
    return _direct(vol_sphere_log(d))


def vol_rp(d):
    return _direct(vol_rp_log(d))


def vol_cp(d):
    return _direct(vol_cp_log(d))


def vol_orthogonal(k):
    return _direct(vol_orthogonal_log(k))


def vol_stiefel(k, m):
    return _direct(vol_stiefel_log(k, m))


def vol_unitary(k):
    return _direct(vol_unitary_log(k))


def vol_grassmann_real(k, n):
    return _direct(vol_grassmann_real_log(k, n))


def vol_grassmann_complex(k, n):
    return _direct(vol_grassmann_complex_log(k, n))


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
