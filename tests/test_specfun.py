import math

import pytest
import scipy.special as ss
from hypothesis import given, strategies as st

from grassdeg.specfun import (
    LogValue,
    deg_grassmann_complex,
    deg_grassmann_complex_log,
    elliptic_E,
    elliptic_K,
    elliptic_KE,
    log_gamma,
    multivariate_gamma_log,
    rho,
    vol_grassmann_complex,
    vol_grassmann_complex_log,
    vol_grassmann_real,
    vol_grassmann_real_log,
    vol_orthogonal,
    vol_rp,
    vol_sphere,
    vol_sphere_log,
    vol_stiefel,
    vol_unitary,
)

TAU = 2.0 * math.pi


# ---------------------------------------------------------------- LogValue


def test_logvalue_exp_roundtrip():
    v = LogValue(2.5)
    assert math.isclose(v.exp(), math.exp(2.5), rel_tol=1e-15)
    assert math.isclose(float(v), math.exp(2.5), rel_tol=1e-15)


def test_logvalue_refuses_overflow():
    with pytest.raises(OverflowError):
        LogValue(701.0).exp()


# --------------------------------------------------------------- log_gamma


def test_log_gamma_rejects_nonpositive():
    for x in (0.0, -1.5, -7.0):
        with pytest.raises(ValueError):
            log_gamma(x)


def test_multivariate_gamma_reduces_to_gamma():
    for a in (0.75, 1.0, 3.5, 10.0):
        assert math.isclose(
            multivariate_gamma_log(1, a), math.lgamma(a), rel_tol=1e-13, abs_tol=1e-14
        )


def test_multivariate_gamma_two_factor():
    for a in (1.0, 2.5, 7.0):
        expect = 0.5 * math.log(math.pi) + math.lgamma(a) + math.lgamma(a - 0.5)
        assert math.isclose(multivariate_gamma_log(2, a), expect, rel_tol=1e-13)


# -------------------------------------------------------------------- rho


def test_rho_small_k_closed_forms():
    assert math.isclose(rho(1), math.sqrt(2.0 / math.pi), rel_tol=1e-14)
    assert math.isclose(rho(2), math.sqrt(math.pi / 2.0), rel_tol=1e-14)


def test_rho_squared_brackets_k():
    prev = 0.0
    for k in range(1, 60):
        r2 = rho(k) ** 2
        assert k - 1 < r2 < k
        assert r2 > prev
        prev = r2


# ----------------------------------------------------------- elliptic E/K


@given(st.floats(min_value=0.0, max_value=1.0))
def test_elliptic_E_matches_scipy(s):
    assert math.isclose(elliptic_E(s), ss.ellipe(s), rel_tol=1e-12, abs_tol=1e-12)


@given(st.floats(min_value=0.0, max_value=0.9999))
def test_elliptic_K_matches_scipy(s):
    assert math.isclose(elliptic_K(s), ss.ellipk(s), rel_tol=1e-11)


def test_elliptic_endpoints():
    assert math.isclose(elliptic_E(0.0), math.pi / 2.0, rel_tol=1e-15)
    assert elliptic_E(1.0) == 1.0
    assert math.isclose(elliptic_K(0.0), math.pi / 2.0, rel_tol=1e-15)


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_elliptic_KE_is_both_integrals(s):
    # the one-sweep pair the radial profile build reads equals the two calls
    assert elliptic_KE(s) == (elliptic_K(s), elliptic_E(s))


def test_elliptic_KE_rejects_s_outside_0_1():
    for s in (-1e-300, 1.0, 2.0):
        with pytest.raises(ValueError, match="elliptic_KE"):
            elliptic_KE(s)


# ----------------------------------------------------------------- volumes


def test_sphere_volumes():
    assert math.isclose(vol_sphere(1), TAU, rel_tol=1e-14)
    assert math.isclose(vol_sphere(2), 2.0 * TAU, rel_tol=1e-14)
    assert math.isclose(vol_sphere(3), TAU * math.pi, rel_tol=1e-14)
    assert math.isclose(vol_sphere(5), math.pi**3, rel_tol=1e-14)


def test_sphere_recursion():
    # |S^d| = 2 pi |S^{d-2}| / (d - 1)
    for d in range(3, 40):
        assert math.isclose(
            vol_sphere(d), TAU * vol_sphere(d - 2) / (d - 1), rel_tol=1e-13
        )


def test_projective_and_orthogonal():
    assert math.isclose(vol_rp(1), math.pi, rel_tol=1e-14)
    assert math.isclose(vol_rp(3), math.pi**2, rel_tol=1e-14)
    assert math.isclose(vol_orthogonal(1), 2.0, rel_tol=1e-14)
    assert math.isclose(vol_orthogonal(2), 2.0 * TAU, rel_tol=1e-14)


def test_stiefel_extremes():
    for n in range(2, 8):
        assert math.isclose(vol_stiefel(1, n), vol_sphere(n - 1), rel_tol=1e-13)
        assert math.isclose(vol_stiefel(n, n), vol_orthogonal(n), rel_tol=1e-13)


def test_unitary_fibration():
    assert math.isclose(vol_unitary(1), TAU, rel_tol=1e-14)
    for n in range(2, 6):
        assert math.isclose(
            vol_unitary(n), vol_sphere(2 * n - 1) * vol_unitary(n - 1), rel_tol=1e-12
        )


def test_grassmann_real_values_and_duality():
    assert math.isclose(vol_grassmann_real(2, 4), 2.0 * math.pi**2, rel_tol=1e-13)
    for n in range(2, 9):
        assert math.isclose(vol_grassmann_real(1, n), vol_rp(n - 1), rel_tol=1e-13)
        for k in range(1, n):
            assert math.isclose(
                vol_grassmann_real(k, n), vol_grassmann_real(n - k, n), rel_tol=1e-12
            )


def test_lines_grassmannian_closed_form():
    # |G(2, n+1)| = (2 pi)^{n-1} / (n-1)!
    for n in range(2, 12):
        expect = TAU ** (n - 1) / math.factorial(n - 1)
        assert math.isclose(vol_grassmann_real(2, n + 1), expect, rel_tol=1e-12)


def test_log_variants_agree_with_direct():
    assert math.isclose(vol_sphere_log(7).exp(), vol_sphere(7), rel_tol=1e-13)
    assert math.isclose(
        vol_grassmann_real_log(3, 7).exp(), vol_grassmann_real(3, 7), rel_tol=1e-12
    )
    assert math.isclose(
        vol_grassmann_complex_log(2, 5).exp(), vol_grassmann_complex(2, 5), rel_tol=1e-12
    )
    # log form keeps working far past the direct underflow point
    assert vol_grassmann_real_log(10, 200).log_magnitude < -700.0


# ----------------------------------------------------- complex degree


def _catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def test_complex_degree_small_values():
    assert deg_grassmann_complex(1, 5) == 1
    assert deg_grassmann_complex(2, 4) == 2
    assert deg_grassmann_complex(2, 5) == 5
    assert deg_grassmann_complex(2, 6) == 14
    assert deg_grassmann_complex(3, 6) == 42


def test_complex_degree_catalan_row():
    for n in range(3, 14):
        assert deg_grassmann_complex(2, n) == _catalan(n - 2)


def test_complex_degree_duality():
    for n in range(2, 10):
        for k in range(1, n):
            assert deg_grassmann_complex(k, n) == deg_grassmann_complex(n - k, n)


def test_complex_degree_log_consistency():
    d = deg_grassmann_complex(3, 9)
    assert math.isclose(
        deg_grassmann_complex_log(3, 9).log_magnitude, math.log(d), rel_tol=1e-13
    )
