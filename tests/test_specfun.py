import math

import numpy as np
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
    vol_grassmann_complex_log,
    vol_grassmann_real_log,
    vol_orthogonal_log,
    vol_rp_log,
    vol_sphere_log,
    vol_stiefel_log,
    vol_unitary_log,
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
    # the one-sweep pair equals the two calls
    assert elliptic_KE(s) == (elliptic_K(s), elliptic_E(s))


def test_elliptic_KE_rejects_s_outside_0_1():
    for s in (-1e-300, 1.0, 2.0):
        with pytest.raises(ValueError, match="elliptic_KE"):
            elliptic_KE(s)


# parameters near both ends as well as across [0, 1)
EDGE_S = np.array([0.0, 5e-324, 1e-300, 1e-17, 1e-10, 1e-3, 0.5,
                   1.0 - 1e-12, 1.0 - 1e-16, np.nextafter(1.0, 0.0)])


def _array_s(count=4000, seed=7):
    # uniform s, and s = 1 - 10^-u with u uniform on [0, 16], where K's
    # log term dominates
    gen = np.random.default_rng(seed)
    near_1 = 1.0 - 10.0 ** -gen.uniform(0.0, 16.0, count)
    return np.concatenate([EDGE_S, gen.uniform(0.0, 1.0, count), near_1[near_1 < 1.0]])


def test_elliptic_array_path_matches_scipy():
    s = _array_s()
    k, e = elliptic_KE(s)
    np.testing.assert_allclose(k, ss.ellipk(s), rtol=5e-16, atol=0.0)
    np.testing.assert_allclose(e, ss.ellipe(s), rtol=5e-16, atol=0.0)
    np.testing.assert_array_equal(elliptic_E(s), e)
    np.testing.assert_array_equal(elliptic_K(s), k)


def test_elliptic_array_path_equals_scalar_path():
    # a number goes through the same forms as a 0-d array
    s = _array_s()
    k, e = elliptic_KE(s)
    assert [float(v) for v in k] == [elliptic_K(float(x)) for x in s]
    assert [float(v) for v in e] == [elliptic_E(float(x)) for x in s]


def test_elliptic_E_array_at_s_1():
    s = np.array([1.0, 0.25, 1.0])
    e = elliptic_E(s)
    assert e[0] == e[2] == 1.0
    assert e[1] == elliptic_E(0.25)


def test_elliptic_array_rejects_s_outside_range():
    for bad in (np.array([0.5, -1e-300]), np.array([0.5, np.nan])):
        for fn in (elliptic_E, elliptic_K, elliptic_KE):
            with pytest.raises(ValueError, match=fn.__name__):
                fn(bad)
    for fn in (elliptic_K, elliptic_KE):
        with pytest.raises(ValueError, match=fn.__name__):
            fn(np.array([0.5, 1.0]))


def test_elliptic_scalar_path_matches_scipy():
    # numbers, across [0, 1) and up to an ulp below 1
    s = _array_s(count=1000, seed=11)
    for x in s:
        assert math.isclose(elliptic_E(float(x)), ss.ellipe(x), rel_tol=5e-16)
        assert math.isclose(elliptic_K(float(x)), ss.ellipk(x), rel_tol=5e-16)


# ----------------------------------------------------------------- volumes


def test_sphere_volumes():
    assert math.isclose(vol_sphere_log(1).exp(), TAU, rel_tol=1e-14)
    assert math.isclose(vol_sphere_log(2).exp(), 2.0 * TAU, rel_tol=1e-14)
    assert math.isclose(vol_sphere_log(3).exp(), TAU * math.pi, rel_tol=1e-14)
    assert math.isclose(vol_sphere_log(5).exp(), math.pi**3, rel_tol=1e-14)


def test_sphere_recursion():
    # |S^d| = 2 pi |S^{d-2}| / (d - 1)
    for d in range(3, 40):
        assert math.isclose(
            vol_sphere_log(d).exp(),
            TAU * vol_sphere_log(d - 2).exp() / (d - 1),
            rel_tol=1e-13,
        )


def test_projective_and_orthogonal():
    assert math.isclose(vol_rp_log(1).exp(), math.pi, rel_tol=1e-14)
    assert math.isclose(vol_rp_log(3).exp(), math.pi**2, rel_tol=1e-14)
    assert math.isclose(vol_orthogonal_log(1).exp(), 2.0, rel_tol=1e-14)
    assert math.isclose(vol_orthogonal_log(2).exp(), 2.0 * TAU, rel_tol=1e-14)


def test_stiefel_extremes():
    for n in range(2, 8):
        assert math.isclose(
            vol_stiefel_log(1, n).exp(), vol_sphere_log(n - 1).exp(), rel_tol=1e-13
        )
        assert math.isclose(
            vol_stiefel_log(n, n).exp(), vol_orthogonal_log(n).exp(), rel_tol=1e-13
        )


def test_unitary_fibration():
    assert math.isclose(vol_unitary_log(1).exp(), TAU, rel_tol=1e-14)
    for n in range(2, 6):
        assert math.isclose(
            vol_unitary_log(n).exp(),
            vol_sphere_log(2 * n - 1).exp() * vol_unitary_log(n - 1).exp(),
            rel_tol=1e-12,
        )


def test_grassmann_real_values_and_duality():
    assert math.isclose(
        vol_grassmann_real_log(2, 4).exp(), 2.0 * math.pi**2, rel_tol=1e-13
    )
    for n in range(2, 9):
        assert math.isclose(
            vol_grassmann_real_log(1, n).exp(), vol_rp_log(n - 1).exp(), rel_tol=1e-13
        )
        for k in range(1, n):
            assert math.isclose(
                vol_grassmann_real_log(k, n).exp(),
                vol_grassmann_real_log(n - k, n).exp(),
                rel_tol=1e-12,
            )


def test_lines_grassmannian_closed_form():
    # |G(2, n+1)| = (2 pi)^{n-1} / (n-1)!
    for n in range(2, 12):
        expect = TAU ** (n - 1) / math.factorial(n - 1)
        assert math.isclose(
            vol_grassmann_real_log(2, n + 1).exp(), expect, rel_tol=1e-12
        )


def test_log_variants_agree_with_direct():
    # the log forms against closed forms in math.gamma and factorials
    def sphere(d):
        return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)

    assert math.isclose(vol_sphere_log(7).exp(), sphere(7), rel_tol=1e-13)
    # |G(3,7)| = |O(7)| / (|O(3)| |O(4)|) with |O(n)| = |S^0| ... |S^(n-1)|
    assert math.isclose(
        vol_grassmann_real_log(3, 7).exp(),
        sphere(4) * sphere(5) * sphere(6) / (sphere(0) * sphere(1) * sphere(2)),
        rel_tol=1e-12,
    )
    # the complex Grassmannian has volume deg * pi^N / N!, N = k(n-k)
    for k, n in ((1, 2), (1, 5), (2, 4), (2, 5), (3, 6)):
        big_n = k * (n - k)
        assert math.isclose(
            vol_grassmann_complex_log(k, n).exp(),
            deg_grassmann_complex(k, n) * math.pi**big_n / math.factorial(big_n),
            rel_tol=1e-12,
        )
    # log form keeps working far past the direct underflow point
    assert vol_grassmann_real_log(10, 200).log_magnitude < -700.0


@pytest.mark.parametrize("volume, k, n, expect", [
    (vol_grassmann_real_log, 2, 10**5, -867492.1651713902450076724),
    (vol_grassmann_real_log, 2, 10**6, -10977617.36298284103133318),
    (vol_grassmann_real_log, 3, 10**6, -16466418.3267628913671987),
    (vol_grassmann_real_log, 10**6 - 3, 10**6, -16466418.3267628913671987),
    (vol_grassmann_complex_log, 2, 10**6, -23341540.13000640840549368),
    (vol_grassmann_complex_log, 3, 10**5, -2810419.231851548106433877),
])
def test_grassmann_log_volume_at_large_n(volume, k, n, expect):
    # References from 40-digit mpmath (the product of sphere volumes over
    # loggamma).  mpmath is not a dependency of grassdeg or of its tests,
    # so the values are pinned here.
    assert math.isclose(volume(k, n).log_magnitude, expect, rel_tol=1e-14)


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
