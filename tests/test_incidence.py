import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from grassdeg import incidence, mc
from grassdeg.geomlin import RngStream
from grassdeg.incidence import (
    PluckerLine,
    TransversalCount,
    _count_batch,
    _half_pairing,
    _image_counts,
    _IMAGE_ROWS,
    _minors_of_basis,
    _pairing_block,
    _pick_counts,
    _polar,
    _quadric,
    _random_lines,
    edeg24_transversal_mc,
    meet_pairing,
    plucker_of,
    rig_union_of_lines_mc,
    transversals_of_four,
)
from grassdeg.mc import CHUNK

from conftest import EDEG24

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def family_a(a, b):
    """A line of the first ruling of the quadric xw = yz."""
    return np.array([[a, 0.0], [0.0, a], [b, 0.0], [0.0, b]])


def family_b(c, d):
    """A line of the opposite ruling; meets every family_a line."""
    return np.array([[c, 0.0], [d, 0.0], [0.0, c], [0.0, d]])


def b_plucker(c, d):
    # exact unit Pluecker vector of family_b(c, d) when c^2 + d^2 = 1; arrays
    # c, d give one vector per entry along a last axis
    zero = np.zeros_like(c * d)
    return np.stack([zero, c * c, c * d, c * d, d * d, zero], axis=-1)


def svd_count_batch(pluckers, tol=1e-12):
    """The earlier count, kept as the oracle of the determinant test.

    Extracts the 2-dimensional kernel of the four pairing hyperplanes by SVD
    and counts the real roots of the quadric restricted to it.  pluckers:
    (..., 4, 6) unit vectors.  Returns (counts, degenerate) with counts in
    {0, 2}; tangencies and rank-deficient systems set degenerate.
    """
    rank_tol = 1e-10  # kernel extraction threshold relative to sigma_max
    # pairing hyperplane rows: w(p) . q = polar(p, q)
    rows = pluckers[..., [5, 4, 3, 2, 1, 0]].copy()
    rows[..., 1] *= -1.0
    rows[..., 4] *= -1.0
    _, sv, vh = np.linalg.svd(rows, full_matrices=True)
    degenerate = sv[..., 3] <= rank_tol * sv[..., 0]
    u = vh[..., 4, :]
    v = vh[..., 5, :]
    a = _quadric(u)
    b = _polar(u, v)
    c = _quadric(v)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    degenerate |= scale < tol
    disc = b * b - 4.0 * a * c
    degenerate |= np.abs(disc) < tol * scale * scale
    counts = np.where(disc > 0.0, 2, 0).astype(np.int64)
    counts[degenerate] = 0
    return counts, degenerate


def unit_pluckers(lines):
    """Unit Pluecker vectors of lines drawn as halves: (2, 3, m, n) -> (n, m, 6).

    The isometry of the incidence module docstring, divided by |x| = sqrt 2.
    """
    (a0, a1, a2), (b0, b1, b2) = lines
    p = np.stack([a0 + b0, a1 + b1, a2 + b2, a2 - b2, b1 - a1, a0 - b0], axis=-1)
    return np.swapaxes(p, 0, 1) / 2.0


def gaussian_basis_lines(gen, shape):
    """The earlier sampler, kept as the oracle of the law of _random_lines.

    Unit Pluecker vectors of the spans of 4x2 Gaussian matrices, an array
    shape + (6,): the same law as orthonormal frames from QR, since the
    minors of a basis differ from the frame's by the positive factor det R.
    """
    pl = _minors_of_basis(gen.standard_normal(shape + (4, 2)))
    pl /= np.linalg.norm(pl, axis=-1, keepdims=True)
    return pl


def full_random_lines(gen, samples, per_sample):
    """The earlier line sampler, kept as the oracle of the canonical frame.

    Draws every line in full by Archimedes' map, four uniforms a line: z =
    2u - 1 and azimuth 2*pi*v for a, then for b.  Returns the halves as
    _random_lines does, (2, 3, per_sample, samples).
    """
    draws = gen.random((samples, per_sample, 4)).T
    halves = []
    for u, v in (draws[:2], draws[2:]):
        z = 2.0 * u - 1.0
        rho = np.sqrt(1.0 - z * z)
        halves.append(np.stack([rho * np.cos(2.0 * math.pi * v),
                                rho * np.sin(2.0 * math.pi * v), z]))
    return np.stack(halves)


def canonical_rotations(lines):
    """Per-sample rotations of SO(3) x SO(3) into the canonical frame.

    In each half the rows are (e, c x e, c), with c the half of line 0 and
    e the unit part of line 1's half orthogonal to c: a right-handed frame
    that sends c to e_z and line 1's half to zero azimuth.  lines:
    (2, 3, L, n); returns (2, n, 3, 3).
    """
    c = np.moveaxis(lines[:, :, 0], 1, -1)
    d = np.moveaxis(lines[:, :, 1], 1, -1)
    e = d
    for _ in range(2):  # twice, as the parts of nearly parallel d are small
        e = e - np.sum(e * c, axis=-1, keepdims=True) * c
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    return np.stack([e, np.cross(c, e), c], axis=-2)


def unions_of(r):
    """Line ranges of the four unions of a rig with union sizes r."""
    ends = np.cumsum((0,) + r)
    return [range(ends[g], ends[g + 1]) for g in range(4)]


def full_block(lines, rows, cols):
    """The pairing block of _pairing_block, every entry by _half_pairing."""
    return _half_pairing(lines[:, :, rows.start:rows.stop, None],
                         lines[:, :, None, cols.start:cols.stop])


def oracle_of_four(*lines):
    stack = np.stack([line.p for line in lines])
    counts, degenerate = svd_count_batch(stack[None, :, :])
    return TransversalCount(count=int(counts[0]), degenerate=bool(degenerate[0]))


# ----------------------------------------------------------- basic types


def test_plucker_line_validation():
    with pytest.raises(ValueError):
        PluckerLine(p=np.array([1.0, 0, 0, 0, 0, 0.5]))  # not unit
    with pytest.raises(ValueError):
        PluckerLine(p=np.array([1.0, 0, 0, 0, 0, 1.0]) / math.sqrt(2.0))  # off quadric
    good = PluckerLine(p=np.array([1.0, 0, 0, 0, 0, 0.0]))
    assert good.p.shape == (6,)
    # the closed-form count holds only for points of the quadric
    with pytest.raises(ValueError):
        transversals_of_four(good, good, good, np.array([1.0, 0, 0, 0, 0, 1.0]))


def test_transversal_count_range():
    with pytest.raises(ValueError):
        TransversalCount(count=3, degenerate=False)


@given(seeds)
def test_plucker_of_lands_on_the_quadric(seed):
    M = RngStream(seed, 0).generator.standard_normal((4, 2))
    line = plucker_of(M)
    p = line.p
    assert abs(p[0] * p[5] - p[1] * p[4] + p[2] * p[3]) < 1e-10


def test_plucker_of_depends_only_on_span():
    M = RngStream(50, 0).generator.standard_normal((4, 2))
    G = np.array([[2.0, 1.0], [0.5, 1.5]])  # det > 0
    a = plucker_of(M).p
    b = plucker_of(M @ G).p
    assert np.max(np.abs(a - b)) < 1e-12
    H = np.array([[0.0, 1.0], [1.0, 0.0]])  # det < 0 flips orientation
    c = plucker_of(M @ H).p
    assert np.max(np.abs(a + c)) < 1e-12


def test_plucker_of_rejects_rank_deficient_basis():
    M = np.ones((4, 2))
    with pytest.raises(ValueError):
        plucker_of(M)


# ----------------------------------------------------------- the pairing


def test_pairing_is_symmetric_and_vanishes_on_self():
    A = RngStream(51, 0).generator.standard_normal((4, 2))
    B = RngStream(51, 1).generator.standard_normal((4, 2))
    pa, pb = plucker_of(A), plucker_of(B)
    assert math.isclose(meet_pairing(pa, pb), meet_pairing(pb, pa), rel_tol=1e-14)
    assert abs(meet_pairing(pa, pa)) < 1e-12


def test_pairing_detects_intersection():
    # two lines through the common point e1 intersect
    L1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    L2 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert abs(meet_pairing(plucker_of(L1), plucker_of(L2))) < 1e-12
    # complementary 2-planes give the extreme pairing value
    L3 = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert math.isclose(abs(meet_pairing(plucker_of(L1), plucker_of(L3))), 1.0,
                        rel_tol=1e-12)


@settings(max_examples=30)
@given(seeds)
def test_pairing_magnitude_is_product_of_sines(seed):
    # A^T B of two orthonormal bases has the cosines of the principal angles
    # as its singular values
    rng = RngStream(seed, 1)
    A = np.linalg.qr(rng.generator.standard_normal((4, 2)))[0]
    B = np.linalg.qr(rng.generator.standard_normal((4, 2)))[0]
    cosines = np.linalg.svd(A.T @ B, compute_uv=False)
    expect = float(np.prod(np.sqrt(np.clip(1.0 - cosines**2, 0.0, None))))
    got = abs(meet_pairing(plucker_of(A), plucker_of(B)))
    assert math.isclose(got, expect, rel_tol=0, abs_tol=1e-9)


# ----------------------------------------------- counting, ruled oracle


def test_four_lines_of_one_ruling_are_degenerate():
    lines = [plucker_of(family_a(math.cos(t), math.sin(t)))
             for t in (0.1, 0.7, 1.2, 2.1)]
    res = transversals_of_four(*lines)
    assert res.degenerate
    assert res.count == 0
    assert oracle_of_four(*lines) == res


def test_repeated_line_is_degenerate():
    M = RngStream(52, 0).generator.standard_normal((4, 2))
    others = [RngStream(52, i).generator.standard_normal((4, 2)) for i in (1, 2, 3)]
    lines = [plucker_of(M), plucker_of(M), plucker_of(others[0]),
             plucker_of(others[1])]
    res = transversals_of_four(*lines)
    assert res.degenerate
    assert oracle_of_four(*lines) == res


def _ruling_scan_counts(targets, grid=4096):
    """Independent count of ruling-B lines meeting each of ``targets``: sign
    changes of the pairing along the full (pi-periodic) ruling circle.

    targets: (m, 6) unit Pluecker vectors; one batch of m x grid pairings.
    """
    ts = np.linspace(0.0, math.pi, grid, endpoint=False)
    ruling = b_plucker(np.cos(ts), np.sin(ts))
    ruling /= np.linalg.norm(ruling, axis=-1, keepdims=True)
    signs = np.sign(_polar(ruling[None, :, :], np.asarray(targets)[:, None, :]))
    assert np.all(signs != 0.0), "scan hit an exact zero; re-seed the test"
    return np.sum(signs != np.roll(signs, -1, axis=-1), axis=-1)


def test_transversal_count_matches_ruling_scan():
    a_lines = [plucker_of(family_a(1.0, 0.0)),
               plucker_of(family_a(0.0, 1.0)),
               plucker_of(family_a(math.cos(0.9), math.sin(0.9)))]
    probes = [plucker_of(RngStream(seed, 7).generator.standard_normal((4, 2)))
              for seed in range(120)]
    expect = _ruling_scan_counts([probe.p for probe in probes])
    hits = {0: 0, 2: 0}
    for seed, probe in enumerate(probes):
        res = transversals_of_four(*a_lines, probe)
        assert not res.degenerate
        assert res.count == expect[seed], (seed, res.count, expect[seed])
        hits[res.count] += 1
    # both outcomes genuinely occur in this ensemble
    assert hits[0] > 10
    assert hits[2] > 10


def _tangent_setup(theta=0.4, phi=1.3):
    """A point P = family_a(a, b) meet family_b(c, d) of the surface xw = yz,
    a direction D tangent to the surface at P along neither ruling, and the
    surface normal N at P."""
    a, b, c, d = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
    P = np.array([a * c, a * d, b * c, b * d])
    along_a = np.array([-a * d, a * c, -b * d, b * c])  # family_a(a, b) at P
    along_b = np.array([-b * c, -b * d, a * c, a * d])  # family_b(c, d) at P
    D = along_a + along_b
    N = np.array([P[3], -P[2], -P[1], P[0]])  # gradient of xw - yz
    return P, D, N


def test_tangent_line_is_degenerate_and_its_tilts_split():
    a_lines = [plucker_of(family_a(1.0, 0.0)),
               plucker_of(family_a(0.0, 1.0)),
               plucker_of(family_a(math.cos(0.9), math.sin(0.9)))]
    P, D, N = _tangent_setup()
    assert abs(P[0] * P[3] - P[1] * P[2]) < 1e-15  # P on the surface
    assert abs(N @ D) < 1e-15  # D in the tangent plane at P
    tangent = plucker_of(np.column_stack([P, D]))
    res = transversals_of_four(*a_lines, tangent)
    assert res.degenerate
    assert oracle_of_four(*a_lines, tangent).degenerate
    # moving the line off the tangent plane by +-delta makes it cross the
    # surface twice or miss it
    delta = 1e-3
    seen = set()
    for sign in (1.0, -1.0):
        tilted = plucker_of(np.column_stack([P + sign * delta * N, D]))
        res = transversals_of_four(*a_lines, tilted)
        assert not res.degenerate
        assert res.count == _ruling_scan_counts([tilted.p])[0]
        assert oracle_of_four(*a_lines, tilted) == res
        seen.add(res.count)
    assert seen == {0, 2}


def plain_count_from_pairings(x, y, z):
    """The out-of-place count, kept as the oracle of the screened one."""
    det = (x - y) ** 2 + z * (z - 2.0 * (x + y))
    scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), np.abs(z))
    degenerate = np.abs(det) <= 1e-12 * scale * scale
    counts = np.where(det > 0.0, 2, 0)
    counts[degenerate] = 0
    return counts, degenerate


def assert_count_matches_the_oracle(x, y, z):
    """The screened count equals the plain one, and leaves x, y, z alone."""
    want = plain_count_from_pairings(x, y, z)
    inputs = [v.copy() for v in (x, y, z)]
    got = incidence._count_from_pairings(x, y, z)
    for v, before in zip((x, y, z), inputs):
        assert np.array_equal(v.view(np.uint64), before.view(np.uint64))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    return got


SIGN_IMAGES = ((), (2, 3), (1, 3), (1, 2))  # the lines whose b each image negates


def sign_image(lines, flip):
    """Lines drawn as halves, (2, 3, L, n), with b negated on lines ``flip``."""
    image = lines.copy()
    for i in flip:
        image[1, :, i] *= -1.0
    return image


def mirror_image(lines, r):
    """The rig's mirror of lines drawn as halves: b negated on unions 2 and 3."""
    return sign_image(lines, range(sum(r[:2]), sum(r)))


def pick_triples(lines, r):
    """x, y, z of every pick of a rig, as _pick_counts forms them."""
    b01, b02, b03, b12, b13, b23 = (
        _pairing_block(lines, g, h) for g, h in itertools.combinations(unions_of(r), 2)
    )
    return (b01[:, :, None, None] * b23[None, None, :, :],
            b02[:, None, :, None] * b13[None, :, None, :],
            b03[:, None, None, :] * b12[None, :, :, None])


def sampler_batches():
    """2^20 draws of four lines by _random_lines, in 16 batches."""
    gen = RngStream(71, 0).generator
    for _ in range(16):
        yield _random_lines(gen, 2**16, 4)


def test_in_place_count_matches_the_plain_formula():
    gen = RngStream(67, 0).generator
    x, y, z = gen.uniform(-1.0, 1.0, (3, 200_000))
    # half of the draws near the cone det M = 0: z = (sqrt|x| + sqrt|y|)^2
    # times 1 + e, |e| from 1e-15 to 1e-10
    near = slice(0, 100_000)
    x[near], y[near] = np.abs(x[near]), np.abs(y[near])
    e = np.sign(gen.uniform(-1.0, 1.0, 100_000))
    e *= 10.0 ** gen.uniform(-15.0, -10.0, 100_000)
    z[near] = (np.sqrt(x[near]) + np.sqrt(y[near])) ** 2 * (1.0 + e)
    counts, degenerate = assert_count_matches_the_oracle(x, y, z)
    assert 1000 < degenerate.sum() < 99_000  # both sides of the threshold


def test_sampler_pairings_keep_the_bound_of_the_screen():
    # what keeps the count's screen at most 16.01 tau, so that it passes few
    # elements: every pairing of unit halves the sampler draws, of a draw and
    # of its sign images, is at most 2 (1 + 1e-15); a line (a, b) and its
    # image (-a, b) pair at -|a|^2 - |b|^2, the extreme, so these pairings
    # test the bound where it is tight
    limit = 2.0 * (1.0 + 1e-15)
    for lines in sampler_batches():
        for flip in SIGN_IMAGES:
            image = sign_image(lines, flip)
            for g, h in itertools.combinations(range(4), 2):
                m = _pairing_block(image, range(g, g + 1), range(h, h + 1))
                assert np.abs(m).max() <= limit, (flip, g, h)
        antipodes = lines.copy()
        antipodes[0] *= -1.0
        extreme = np.abs(_half_pairing(lines, antipodes))
        assert extreme.max() <= limit
        assert extreme.min() >= 2.0 * (1.0 - 1e-15)


def test_screened_count_matches_the_plain_count_on_sampler_draws():
    # the triples of 2^20 draws and of their three sign images
    for lines in sampler_batches():
        for flip in SIGN_IMAGES:
            x, y, z = (v.reshape(-1) for v in pick_triples(sign_image(lines, flip),
                                                           (1, 1, 1, 1)))
            assert_count_matches_the_oracle(x, y, z)


def test_screened_count_matches_the_plain_count_on_a_rig_chunk():
    r = (16, 4, 1, 1)
    lines = _random_lines(RngStream(58, 0).substream(0).generator, CHUNK, sum(r))
    for got, image in zip(_pick_counts(lines, r), (lines, mirror_image(lines, r))):
        x, y, z = pick_triples(image, r)
        counts, degenerate = assert_count_matches_the_oracle(x, y, z)
        assert np.array_equal(got[0], counts)
        assert np.array_equal(got[1], degenerate)


def det_in_the_count(x, y, z):
    """det M of one triple of float64 scalars, rounded as the count rounds it."""
    d = x - y
    return d * d + ((x + y) * -2.0 + z) * z


def z_for_det(s, target):
    """z such that (s, s, z) has det M = z (z - 4 s) equal to ``target``.

    None when no float z gives it: a step of z by one ulp moves det M by
    |z - 4 s| ulp(z), which can be a little more than one ulp of det M.
    """
    z = np.float64(-target / (4.0 * s))
    for _ in range(2):
        z = target / ((s + s) * -2.0 + z)  # det M / (z - 4 s), to a few ulps
    for _ in range(8):
        det = det_in_the_count(s, s, z)
        if det == target:
            return z
        # det M falls as z rises, near z = 0
        z = np.nextafter(z, np.inf if det > target else -np.inf)
    return None


def threshold_triples(base):
    """(s, s, z) at a scale s near ``base``, |det M| one ulp either side of tau s^2.

    Rows with det M = -below, -above, below and above the threshold, as
    the count rounds det M and the threshold.  s is the first float from
    ``base`` up at which the count's (s tau) s differs from tau (s s), so
    that the rows also see the order of that rounding, and at which every
    row exists.
    """
    s = np.float64(base)
    while True:
        s = np.nextafter(s, np.inf)
        threshold = s * 1e-12 * s
        if threshold == 1e-12 * (s * s):
            continue
        below = np.nextafter(threshold, 0.0)
        above = np.nextafter(threshold, np.inf)
        z = [z_for_det(s, target) for target in (-below, -above, below, above)]
        if None not in z:
            return np.full(4, s), np.full(4, s), np.array(z)


def test_image_counts_share_the_screen_of_all_four_images(monkeypatch):
    # one screen of the six products serves the four counts; it is the
    # largest of the four images' own screens; so for the rig's draw and
    # mirror and the five products of their picks
    seen = []
    count = incidence._count_from_pairings

    def spy(x, y, z, work=None, screen=None):
        seen.append((incidence._screen(x, y, z), screen))
        return count(x, y, z, work, screen)

    monkeypatch.setattr(incidence, "_count_from_pairings", spy)
    gen = RngStream(59, 0).generator
    incidence._image_counts(gen, 4096, np.empty(incidence._IMAGE_ROWS * 4096))
    _pick_counts(_random_lines(gen, 4096, 6), (2, 2, 1, 1))
    assert len(seen) == 6
    for shared in (seen[:4], seen[4:]):
        assert len({screen for _, screen in shared}) == 1
        assert max(own for own, _ in shared) == shared[0][1]


def test_count_at_one_ulp_either_side_of_the_threshold():
    # (s, s, z) with |z| << s has scale s and det M = z (z - 4 s)
    for base in (4.0, 1.0, 1e-3):
        x, y, z = threshold_triples(base)
        assert abs(x[0] / base - 1.0) < 1e-12
        counts, degenerate = assert_count_matches_the_oracle(x, y, z)
        assert degenerate.tolist() == [True, False, True, False], base
        assert counts.tolist() == [0, 0, 0, 2], base
        # the same triples in every order; the rounding of det M changes
        for order in itertools.permutations(range(3)):
            triple = np.stack([x, y, z])[list(order)]
            assert_count_matches_the_oracle(*triple.copy())


def test_count_of_zeros_signed_zeros_and_nan():
    # a NaN configuration counts 0 and is not degenerate, and leaves the
    # screen of the rest of its batch as it is
    values = (0.0, -0.0, 1.0, -1.0, math.nan)
    x, y, z = np.array(list(itertools.product(values, repeat=3))).T.copy()
    counts, degenerate = assert_count_matches_the_oracle(x, y, z)
    zeros = (x == 0.0) & (y == 0.0) & (z == 0.0)
    assert degenerate[zeros].all() and not counts[zeros].any()


def test_degeneracy_threshold_is_scale_free():
    # det M is symmetric in x, y, z.  (s, s, eps s) has det M = -4 eps s^2,
    # against tau s^2 with tau = 1e-12, at every scale s; with s the
    # largest, ((1 + eps) s/4, (1 + eps) s/4, s) has det M = -eps s^2;
    # (s, 0, 0) has det M = s^2 > 0
    # the count screens a batch by its largest entry, so the three scales
    # are also counted in one batch
    scales = (1e-3, 1.0, 1e3)
    cases = []
    for s in scales:
        a = 0.25 * s * (1.0 + 1e-13)
        cases.append([[s, s, 1e-13 * s], [s, s, 1e-12 * s], [a, a, s],
                      [s, 0.0, 0.0]])
    cases = np.array(cases)
    for order in itertools.permutations(range(3)):
        for s, case in zip(scales + ("all",), list(cases) + [cases.reshape(-1, 3)]):
            x, y, z = case[:, order].T.copy()
            counts, degenerate = incidence._count_from_pairings(x, y, z)
            rows = len(x) // 4
            assert degenerate.tolist() == [True, False, True, False] * rows, (s, order)
            assert counts.tolist() == [0, 0, 0, 2] * rows, (s, order)


def test_counts_are_rigid_motion_and_relabeling_invariant():
    rng = RngStream(53, 0)
    Q, _ = np.linalg.qr(rng.generator.standard_normal((4, 4)))
    perm = (2, 0, 3, 1)
    for trial in range(60):
        mats = [RngStream(53, 8 + 4 * trial + i).generator.standard_normal((4, 2))
                for i in range(4)]
        base = transversals_of_four(*[plucker_of(m) for m in mats])
        moved = [plucker_of(Q @ mats[i] @ np.array([[1.3, 0.2], [-0.4, 2.0]]))
                 for i in perm]
        again = transversals_of_four(*moved)
        assert again.count == base.count
        assert again.degenerate == base.degenerate


# ------------------------------------------- the closed form vs its oracle


def test_counts_match_svd_oracle_on_sampler_draws():
    # the draws of the first two chunks of edeg24_transversal_mc(RngStream(57, 0))
    rng = RngStream(57, 0)
    for index in range(2):
        lines = _random_lines(rng.substream(index).generator, CHUNK, 4)
        pl = unit_pluckers(lines)
        assert pl.shape == (CHUNK, 4, 6)
        (counts, degenerate), _ = _pick_counts(lines, (1, 1, 1, 1))
        counts, degenerate = counts.reshape(CHUNK), degenerate.reshape(CHUNK)
        want_counts, want_degenerate = svd_count_batch(pl)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(degenerate, want_degenerate)
        assert set(np.unique(counts)) == {0, 2}
        plucker_counts, plucker_degenerate = _count_batch(pl)
        assert np.array_equal(plucker_counts, want_counts)
        assert np.array_equal(plucker_degenerate, want_degenerate)
        # the transversal kernel reads the same uniforms: its draw counts as
        # above, and each sign image, b negated on lines {2, 3}, {1, 3} or
        # {1, 2}, as the SVD count and the rig path count those lines
        images = _image_counts(rng.substream(index).generator, CHUNK,
                               np.empty(_IMAGE_ROWS * CHUNK))
        assert len(images) == len(SIGN_IMAGES)
        for (got_counts, got_degenerate), flip in zip(images, SIGN_IMAGES):
            image = sign_image(lines, flip)
            image_counts, image_degenerate = svd_count_batch(unit_pluckers(image))
            assert np.array_equal(got_counts, image_counts), flip
            assert np.array_equal(got_degenerate, image_degenerate), flip
            pick, _ = _pick_counts(image, (1, 1, 1, 1))
            assert np.array_equal(pick[0].reshape(CHUNK), image_counts), flip
            assert np.array_equal(pick[1].reshape(CHUNK), image_degenerate), flip
            if flip:
                assert not np.array_equal(image_counts, want_counts)


def test_rig_pick_counts_match_svd_oracle():
    # every pick of the first chunk of rig_union_of_lines_mc((16, 4, 1, 1), ...)
    r = (16, 4, 1, 1)
    lines = _random_lines(RngStream(58, 0).substream(0).generator, CHUNK, sum(r))
    pl = unit_pluckers(lines)
    assert pl.shape == (CHUNK, sum(r), 6)
    (counts, degenerate), _ = _pick_counts(lines, r)
    assert counts.shape == degenerate.shape == r + (CHUNK,)
    starts = np.cumsum((0,) + r[:-1])
    for pick in np.ndindex(*r):
        idx = [int(s + i) for s, i in zip(starts, pick)]
        want_counts, want_degenerate = svd_count_batch(pl[:, idx, :])
        assert np.array_equal(counts[pick], want_counts), pick
        assert np.array_equal(degenerate[pick], want_degenerate), pick


def rig_sub_batch(r, stream):
    """The lines of the first sub-batch of a chunk of rig_union_of_lines_mc."""
    rows = incidence._rig_rows(r)
    step = -(-CHUNK // -(-CHUNK // rows))
    return _random_lines(RngStream(stream, 0).substream(0).generator, step, sum(r))


@pytest.mark.parametrize("r", [(2, 2, 1, 1), (16, 4, 1, 1)])
def test_rig_mirror_counts_match_svd_oracle(r):
    # every pick of the mirror, b negated on unions 2 and 3, as the SVD
    # count counts the flipped lines; the draw's picks too at (2, 2, 1, 1)
    lines = rig_sub_batch(r, 73)
    draw, mirror = _pick_counts(lines, r)
    checks = [(mirror, mirror_image(lines, r))]
    if r == (2, 2, 1, 1):
        checks.append((draw, lines))
    starts = np.cumsum((0,) + r[:-1])
    for (counts, degenerate), image in checks:
        pl = unit_pluckers(image)
        for pick in np.ndindex(*r):
            idx = [int(s + i) for s, i in zip(starts, pick)]
            want_counts, want_degenerate = svd_count_batch(pl[:, idx, :])
            assert np.array_equal(counts[pick], want_counts), pick
            assert np.array_equal(degenerate[pick], want_degenerate), pick
    # the mirror changes some counts
    assert not np.array_equal(draw[0], mirror[0])


# ------------------------------------------------------ the line sampler


def triangular_cdf(t):
    """CDF of the difference of two independent Uniform[-1, 1], halved."""
    t = np.clip(t, -1.0, 1.0)
    return np.where(t < 0.0, 0.5 * (1.0 + t) ** 2, 1.0 - 0.5 * (1.0 - t) ** 2)


def test_pairing_of_two_uniform_lines_is_triangular():
    # for independent uniform lines a.a' and b.b' are independent
    # Uniform[-1, 1], so the unit pairing is their difference halved; lines
    # 2 and 3 are drawn in full, heights and azimuths
    n = 200_000
    drawn = unit_pluckers(_random_lines(RngStream(62, 0).generator, n, 4))[:, 2:]
    oracle = gaussian_basis_lines(RngStream(62, 1).generator, (n, 2))
    for pl in (drawn, oracle):
        m = _polar(pl[:, 0], pl[:, 1])
        assert kstest(m, triangular_cdf).pvalue > 0.01
        # E m^2 = 1/6, sd of m^2 below 0.2
        assert abs(np.mean(m * m) - 1.0 / 6.0) < 4.0 * 0.2 / math.sqrt(n)


def test_canonical_lines_and_the_heights_of_line_one():
    lines = _random_lines(RngStream(66, 0).generator, 100_000, 2)
    assert np.array_equal(lines[:, :, 0], np.broadcast_to([[0.0], [0.0], [1.0]],
                                                           (2, 3, 100_000)))
    (x, y, z), (xb, yb, zb) = lines[:, :, 1]
    assert np.all(y == 0.0) and np.all(yb == 0.0)
    assert np.all(x >= 0.0) and np.all(xb >= 0.0)
    assert np.abs(x * x + z * z - 1.0).max() < 1e-15
    for heights in (z, zb):
        assert kstest(heights, "uniform", args=(-1.0, 2.0)).pvalue > 0.01
    # the two halves are independent: z - z' has the triangular law
    assert kstest((z - zb) / 2.0, triangular_cdf).pvalue > 0.01


def test_drawn_lines_are_unit_points_of_the_quadric():
    pl = unit_pluckers(_random_lines(RngStream(63, 0).generator, 50_000, 4))
    assert np.abs(np.linalg.norm(pl, axis=-1) - 1.0).max() < 1e-15
    assert np.abs(_quadric(pl)).max() < 1e-15


class _FixedUniforms:
    """A generator stand-in whose ``random`` returns the given draws."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, shape=None, out=None):
        if out is None:
            assert shape == self.draws.shape
            return self.draws.copy()
        out[...] = self.draws
        return out


def test_line_draw_is_finite_at_the_ends_of_the_uniforms():
    top = np.nextafter(1.0, 0.0)
    points = [(u, v) for u in (0.0, top) for v in (0.0, 0.5, top)]
    # three lines, a row of 4*3 - 6 uniforms: per half the heights of lines
    # 1 and 2, then the azimuth of line 2
    draws = np.array([[a[0], *a, b[0], *b] for a in points for b in points])
    with np.errstate(all="raise"):
        lines = _random_lines(_FixedUniforms(draws), len(draws), 3)
    assert np.all(np.isfinite(lines))
    assert np.abs(np.linalg.norm(lines, axis=1) - 1.0).max() < 1e-15


# --------------------------------------------------- the canonical frame


def test_reduced_pairings_equal_the_full_pairing_bit_for_bit():
    for r in ((1, 1, 1, 1), (2, 2, 1, 1), (16, 4, 1, 1), (1, 3, 2, 1)):
        lines = _random_lines(RngStream(65, 0).generator, 4096, sum(r))
        unions = unions_of(r)
        for g, h in itertools.combinations(range(4), 2):
            got = _pairing_block(lines, unions[g], unions[h])
            assert got.shape == (r[g], r[h], 4096)
            want = full_block(lines, unions[g], unions[h])
            assert np.array_equal(got, want), (r, g, h)


def test_canonical_frame_keeps_pairings_counts_and_flags():
    # lines of the earlier full sampler, moved into the canonical frame by
    # one SO(3) x SO(3) rotation per sample, pair as before and so count
    # as before; line 1 sits in union 1 at r = (1, 1, 1, 1), in union 0 else
    n = 8192
    for stream, r in enumerate(((1, 1, 1, 1), (16, 4, 1, 1))):
        full = full_random_lines(RngStream(64, stream).generator, n, sum(r))
        rot = canonical_rotations(full)
        assert np.abs(rot @ np.swapaxes(rot, -1, -2) - np.eye(3)).max() < 1e-14
        assert np.abs(np.linalg.det(rot) - 1.0).max() < 1e-14
        canon = np.einsum("hnij,hjln->hiln", rot, full)
        assert np.abs(canon[:, :, 0] - np.array([0.0, 0.0, 1.0])[:, None]).max() < 1e-14
        assert np.abs(canon[:, 1, 1]).max() < 1e-14
        assert np.all(canon[:, 0, 1] >= 0.0)
        unions = unions_of(r)
        for g, h in itertools.combinations(range(4), 2):
            gap = _pairing_block(canon, unions[g], unions[h]) - full_block(
                full, unions[g], unions[h])
            assert np.abs(gap).max() < 1e-14, (r, g, h)
        (counts, degenerate), _ = _pick_counts(canon, r)
        pl = unit_pluckers(full)
        starts = [u.start for u in unions]
        for pick in np.ndindex(*r):
            idx = [s + i for s, i in zip(starts, pick)]
            want_counts, want_degenerate = _count_batch(pl[:, idx, :])
            assert np.array_equal(counts[pick], want_counts), (r, pick)
            assert np.array_equal(degenerate[pick], want_degenerate), (r, pick)
        assert set(np.unique(counts)) == {0, 2}


# --------------------------------------------------------------- the MC


def test_a_sample_is_degenerate_when_either_configuration_is():
    # rows of 10 uniforms, per half the heights of lines 1 to 3, then the
    # azimuths of lines 2 and 3: line 0 is (e_z, e_z), and line 2 is
    # (-e_z, -e_z), the same line, in the first row and in the image that
    # keeps b_2; in the second it is (a_1, -b_1), line 1 in the images that
    # negate one of b_1, b_2; the third row is generic; in the fourth line 3
    # is (a_2, -b_2), b-height 1 - u and b-azimuth turned by pi, which only
    # the images that negate one of b_2, b_3 and not the other, {1, 3} and
    # {1, 2}, turn into line 2
    draws = np.array([[0.3, 0.0, 0.6, 0.1, 0.7, 0.8, 0.0, 0.35, 0.2, 0.45],
                      [0.3, 0.3, 0.6, 0.0, 0.7, 0.75, 0.25, 0.35, 0.5, 0.45],
                      [0.3, 0.9, 0.6, 0.1, 0.7, 0.8, 0.15, 0.35, 0.2, 0.45],
                      [0.3, 0.9, 0.9, 0.1, 0.1, 0.6, 0.25, 0.75, 0.2, 0.7]])
    images = _image_counts(_FixedUniforms(draws), 4, np.empty(_IMAGE_ROWS * 4))
    # per image: the draw, then b negated on {2, 3}, {1, 3} and {1, 2}
    assert [degenerate.tolist() for _, degenerate in images] == [
        [True, False, False, False],
        [False, True, False, False],
        [True, True, False, True],
        [False, False, False, True],
    ]
    values, bad = incidence._transversal_kernel(_FixedUniforms(draws), 4)
    assert bad == 3
    assert values.tolist() == [sum(counts[2] for counts, _ in images) / 4.0]


def test_transversal_mc_reproducible_and_anchored():
    a = edeg24_transversal_mc(RngStream(54, 0), 200_000)
    b = edeg24_transversal_mc(RngStream(54, 0), 200_000, workers=8)
    assert a == b
    assert a.degenerate_count == 0
    assert abs(a.value - EDEG24) < 4.0 * a.stderr
    # the mean and standard error of the SVD count's means over the draw
    # and its three sign images, on these draws: 345307/200000
    assert (a.value, a.stderr) == (1.7265350000000002, 0.0008036869405673407)


def test_transversal_stderr_is_calibrated():
    # the spread of the estimates over seeds is what their stderr says
    z = np.array([(est.value - EDEG24) / est.stderr
                  for est in (edeg24_transversal_mc(RngStream(69, i), 20_000)
                              for i in range(100))])
    assert 0.8 <= np.std(z, ddof=1) <= 1.2
    assert abs(z.mean()) < 0.3  # 3 sd of the mean of 100 z


def test_transversal_chunk_computes_in_its_workspace():
    assert _IMAGE_ROWS * CHUNK <= mc._WORKSPACE_DOUBLES
    edeg24_transversal_mc(RngStream(70, 0), CHUNK)  # the buffer grows here
    tracemalloc.start()
    try:
        edeg24_transversal_mc(RngStream(70, 1), CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the values and a few boolean rows, against 3.75 MiB of workspace
    assert peak < 0.5 * 2**20, peak


def test_rig_validation():
    r = RngStream(0, 0)
    with pytest.raises(ValueError):
        rig_union_of_lines_mc((2, 1, 1), r, 10)
    with pytest.raises(ValueError):
        rig_union_of_lines_mc((0, 1, 1, 1), r, 10)
    with pytest.raises(ValueError):
        rig_union_of_lines_mc((10, 10, 10, 2), r, 10)
    # truncating would run these as r = (1, 1, 1, 1)
    for bad in ((1.9, 1, 1, 1), (1, 1, 1, True)):
        with pytest.raises(TypeError, match="r must be an integer"):
            rig_union_of_lines_mc(bad, r, 10)
    with pytest.raises(TypeError, match="samples must be an integer, got 10.0"):
        rig_union_of_lines_mc((1, 1, 1, 1), r, 10.0)
    with pytest.raises(TypeError, match="samples must be an integer"):
        edeg24_transversal_mc(r, 1000.5)


def test_rig_trivial_partition_matches_plain_transversals():
    a = rig_union_of_lines_mc((1, 1, 1, 1), RngStream(55, 0), 100_000)
    b = edeg24_transversal_mc(RngStream(55, 1), 100_000)
    assert abs(a.value - b.value) < 3.0 * math.hypot(a.stderr, b.stderr)


def test_rig_doubling_one_union_doubles_the_mean():
    base = edeg24_transversal_mc(RngStream(56, 0), 150_000)
    doubled = rig_union_of_lines_mc((2, 1, 1, 1), RngStream(56, 1), 150_000)
    ratio = doubled.value / base.value
    sd = ratio * math.hypot(doubled.stderr / doubled.value,
                            base.stderr / base.value)
    assert abs(ratio - 2.0) < 4.0 * sd


def test_rig_matches_the_svd_count_estimate():
    est = rig_union_of_lines_mc((2, 2, 1, 1), RngStream(61, 0), 50_000)
    # the mean and standard error of the per-pick SVD count's totals over
    # the draw and its mirror, halved, on these draws: 345423/50000
    assert (est.value, est.stderr) == (6.908460000000001, 0.004733757148094391)
    assert est.degenerate_count == 0


def rig_kernel(monkeypatch, r):
    """The chunk kernel that rig_union_of_lines_mc(r, ...) runs."""
    with monkeypatch.context() as patch:
        patch.setattr(incidence, "run_kernel", lambda kernel, *args, **kwargs: kernel)
        return rig_union_of_lines_mc(r, RngStream(0, 0), 1)


def test_rig_sample_is_the_mean_of_the_draw_and_its_mirror(monkeypatch):
    # at r = (1, 1, 1, 1) the mirror negates b of lines 2 and 3, the
    # transversal kernel's first sign image, and both read the same uniforms
    values, bad = rig_kernel(monkeypatch, (1, 1, 1, 1))(RngStream(74, 0).generator, CHUNK)
    (draw, draw_bad), (image, image_bad), *_ = _image_counts(
        RngStream(74, 0).generator, CHUNK, np.empty(_IMAGE_ROWS * CHUNK))
    keep = ~(draw_bad | image_bad)
    assert bad == CHUNK - keep.sum()
    assert np.array_equal(values, (draw[keep] + image[keep]) / 2.0)
    assert set(np.unique(values)) == {0.0, 1.0, 2.0}


def test_rig_sample_is_degenerate_when_its_mirror_is(monkeypatch):
    # r = (2, 1, 1, 1): lines 0 and 1 in union 0, then lines 2, 3 and 4;
    # rows of 14 uniforms, per half the heights of lines 1 to 4, then the
    # azimuths of lines 2 to 4.  In the first row line 3 is (a_2, -b_2),
    # b-height 1 - u and b-azimuth turned by pi, which the mirror, b
    # negated on lines 3 and 4, turns into line 2; the second is generic
    r = (2, 1, 1, 1)
    draws = np.array([[0.3, 0.9, 0.9, 0.6, 0.1, 0.1, 0.7,
                       0.8, 0.25, 0.75, 0.35, 0.2, 0.7, 0.45],
                      [0.3, 0.9, 0.4, 0.6, 0.1, 0.3, 0.7,
                       0.8, 0.25, 0.55, 0.35, 0.2, 0.9, 0.45]])
    (counts, degenerate), (mirror, mirror_degenerate) = _pick_counts(
        _random_lines(_FixedUniforms(draws), 2, sum(r)), r)
    assert not degenerate.any()
    assert mirror_degenerate[..., 0].all() and not mirror_degenerate[..., 1].any()
    values, bad = rig_kernel(monkeypatch, r)(_FixedUniforms(draws), 2)
    assert bad == 1
    assert values.tolist() == [(counts[..., 1].sum() + mirror[..., 1].sum()) / 2.0]


def test_rig_stderr_is_calibrated():
    # the spread of the estimates over seeds is what their stderr says
    exact = 4.0 * EDEG24
    z = np.array([(est.value - exact) / est.stderr
                  for est in (rig_union_of_lines_mc((2, 2, 1, 1), RngStream(75, i), 20_000)
                              for i in range(100))])
    assert 0.8 <= np.std(z, ddof=1) <= 1.2
    assert abs(z.mean()) < 0.3  # 3 sd of the mean of 100 z


def test_rig_sub_batches_do_not_change_the_estimate(monkeypatch):
    for r, samples, rows in (
        # sub-batches of 964 and 960 in the first chunk, 1000 in the second
        ((2, 2, 1, 1), CHUNK + 5000, 1000),
        # a 1024-sample chunk, one sub-batch by default, split 512 + 512
        ((16, 4, 1, 1), 1024, 888),
    ):
        monkeypatch.undo()
        default = rig_union_of_lines_mc(r, RngStream(59, 0), samples)
        # ``rows`` rows of 6 doubles per line for the lines, then the larger
        # of the draw's 6 per line - 10 and the count's block: one per
        # pairing between unions, one per pairing the mirror negates and 7
        # per pick
        lines, picks = sum(r), math.prod(r)
        pairings = sum(a * b for a, b in itertools.combinations(r, 2))
        mirrored = (r[0] + r[1]) * (r[2] + r[3])
        row = 6 * lines + max(6 * lines - 10, pairings + mirrored + 7 * picks)
        monkeypatch.setattr(mc, "_BATCH_BYTES", rows * 8 * row)
        assert incidence._rig_rows(r) == rows
        small = rig_union_of_lines_mc(r, RngStream(59, 0), samples)
        assert small == default, r


def test_rig_chunk_memory_is_bounded():
    # one chunk of (1000, 1, 1, 1) drawn whole would take 1.84 GB
    for r in ((1000, 1, 1, 1), (16, 4, 1, 1), (4, 4, 4, 4), (10, 10, 10, 1)):
        tracemalloc.start()
        try:
            est = rig_union_of_lines_mc(r, RngStream(60, 0), CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_samples == CHUNK
        assert peak < 1.25 * mc._BATCH_BYTES, (r, peak)
