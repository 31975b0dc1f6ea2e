"""Line geometry in RP^3: transversals to four lines, counted exactly.

A line is a point on the Klein quadric in RP^5 via its Pluecker coordinates,
and two lines meet exactly when the polar pairing of their coordinates
vanishes.  The lines meeting four given lines p_0..p_3 are the points of the
quadric in the polar complement of W = span(p_i).  The polar form has
signature (3, 3), so that complement is a plane of signature (1, 1), which
holds two real transversals, exactly when W has signature (2, 2); when W has
signature (3, 1) or (1, 3) the complement is definite and holds none.  The
sign of the determinant of the Gram matrix M, m_ij = polar(p_i, p_j), tells
the cases apart.  M is hollow because every p_i lies on the quadric, so

    det M = x^2 + y^2 + z^2 - 2(xy + yz + zx),
    x = m01 m23,   y = m02 m13,   z = m03 m12,

and there are 2 real transversals when det M > 0 and none when det M < 0.

A configuration is *degenerate* when |det M| <= tau * max(|x|, |y|, |z|)^2,
with tau = ``_DEGENERATE_TOL``.  The test is unchanged by rescaling any p_i.
It catches four lines of one regulus (linearly dependent Pluecker vectors),
a repeated line and tangency (the two transversals coincide), since each
makes det M vanish.  A degenerate configuration gets count 0; the Monte
Carlo estimators leave such a draw out of the mean and report it in
``degenerate_count``.  Pairings of unit vectors are at most 2 in size (1
for unit Pluecker vectors, 2 for the unit halves below), so |x|, |y| and
|z| are at most 4 up to rounding.  The count screens a batch at tau s^2,
s the largest |x|, |y|, |z| in it, which bounds the threshold of every
configuration there, and takes the exact test on the few elements below
that screen.

This gives an enumerative ground truth for the expected-degree machinery:
averaging the count over uniform 4-tuples of lines is an independent Monte
Carlo route to edeg G(2,4), and summing counts over unions of lines checks
the multiplicative law for expected intersections with random subsets.

The Monte Carlo routes draw a line as two points of S^2.  The polar form
splits into a self-dual and an anti-self-dual half, so a Pluecker vector x
maps isometrically to a pair (a, b) of 3-vectors,

    x01 = (a0 + b0)/sqrt2,  x23 = (a0 - b0)/sqrt2,
    x02 = (a1 + b1)/sqrt2,  x13 = (b1 - a1)/sqrt2,
    x03 = (a2 + b2)/sqrt2,  x12 = (a2 - b2)/sqrt2,

under which polar(x, x') = a.a' - b.b' and the quadric is (|a|^2 - |b|^2)/2.
Lines are the pairs with |a| = |b|, and SO(4) acts on the halves as
SO(3) x SO(3), so a uniform line is a pair of independent uniform unit
vectors (|x|^2 = 2; the count and its degeneracy test do not see the
scale).  For two independent uniform lines a.a' and b.b' are independent
Uniform[-1, 1], so the pairing of their unit Pluecker vectors has the
triangular law on [-1, 1].

Every sample is drawn in a canonical frame.  The count and its degeneracy
test read only the pairings a.a' - b.b', which one common rotation in
SO(3) x SO(3) keeps.  Rotating a sample so that line 0 becomes
(e_z, e_z) leaves the other lines independent and uniform, and the
stabiliser SO(2) x SO(2) of (e_z, e_z) then turns line 1 to zero azimuth
in both halves without moving line 0 or the law of the lines after it.
So line 0 is fixed, line 1 needs only its two heights, and every
per-sample total has the law it has for independent uniform lines.  A
sample of L lines takes 4L - 6 uniforms instead of 4L (10 instead of 16
for the four lines of a transversal sample), and the pairings with lines
0 and 1 take a_z - b_z and two-term sums instead of full dot products.

The transversal estimator counts each draw with three sign images: the
same lines with b negated on lines {2, 3}, on {1, 3} and on {1, 2}.  With
the global flip, which keeps every pairing, these are the b-sign flips of
the four lines.  Every image has the law of the draw.  Each b_i with
i >= 2 is uniform on S^2 and independent of the rest, so -b_i is too.
Negating b_1, which has zero azimuth, and then turning every b by pi about
e_z gives the same pairings, keeps line 0 at (e_z, e_z) and leaves line 1
at zero azimuth with its b-height negated, again uniform.

The rig estimator counts each draw with its mirror: the same lines with b
negated on every line of unions 2 and 3.  The mirror has the law of the
draw.  Lines 0 and 1 are the first two of the draw, so union 0 or 1 holds
them and unions 2 and 3 never do; every b the mirror negates is uniform on
S^2 and independent of the rest, and no turn of the frame is needed.  At
r = (1, 1, 1, 1) the mirror is the transversal estimator's image {2, 3}.
"""

import itertools
import math

import numpy as np
from dataclasses import dataclass

from . import mc
from .geomlin import half_angle_sin_cos
from .mc import _integer, _workspace, run_kernel

__all__ = [
    "PluckerLine",
    "TransversalCount",
    "plucker_of",
    "meet_pairing",
    "transversals_of_four",
    "edeg24_transversal_mc",
    "rig_union_of_lines_mc",
]

# index pairs (i, j), i < j, giving the minor order (p01, p02, p03, p12, p13, p23)
_MINOR_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_QUADRIC_TOL = 1e-10
_DEGENERATE_TOL = 1e-12  # tau of the degeneracy test in the module docstring


def _quadric(x):
    """Klein quadric x01 x23 - x02 x13 + x03 x12, batched over leading axes."""
    return x[..., 0] * x[..., 5] - x[..., 1] * x[..., 4] + x[..., 2] * x[..., 3]


def _polar(x, y):
    """Polar bilinear form of the quadric; zero iff the two lines meet."""
    return (
        x[..., 0] * y[..., 5]
        - x[..., 1] * y[..., 4]
        + x[..., 2] * y[..., 3]
        + x[..., 3] * y[..., 2]
        - x[..., 4] * y[..., 1]
        + x[..., 5] * y[..., 0]
    )


@dataclass(frozen=True)
class PluckerLine:
    """Unit Pluecker coordinate vector of a line in RP^3."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (6,):
            raise ValueError("p must be a 6-vector")
        if abs(np.linalg.norm(p) - 1.0) > 1e-9:
            raise ValueError("p must be normalized to unit length")
        if abs(_quadric(p)) > _QUADRIC_TOL:
            raise ValueError("p does not satisfy the Klein quadric relation")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class TransversalCount:
    """Number of real lines meeting four given lines, or a degeneracy flag."""

    count: int
    degenerate: bool

    def __post_init__(self):
        if self.count not in (0, 1, 2):
            raise ValueError("count must be 0, 1, or 2")


def _minors_of_basis(mats):
    """Pluecker minors of 4x2 bases, batched: (..., 4, 2) -> (..., 6)."""
    out = np.empty(mats.shape[:-2] + (6,), dtype=float)
    for col, (i, j) in enumerate(_MINOR_PAIRS):
        out[..., col] = (
            mats[..., i, 0] * mats[..., j, 1] - mats[..., i, 1] * mats[..., j, 0]
        )
    return out


def plucker_of(basis):
    """PluckerLine spanned by the columns of a rank-2 4x2 matrix."""
    mat = np.asarray(basis, dtype=float)
    if mat.shape != (4, 2):
        raise ValueError("need a 4x2 basis of a 2-plane in R^4")
    minors = _minors_of_basis(mat)
    norm = np.linalg.norm(minors)
    scale = max(float(np.linalg.norm(mat)) ** 2, 1e-300)
    if norm <= 1e-12 * scale:
        raise ValueError("basis is rank deficient; no line is spanned")
    return PluckerLine(p=minors / norm)


def _as_vector(line):
    """Accept a PluckerLine or any nonzero homogeneous 6-vector."""
    if isinstance(line, PluckerLine):
        return line.p
    v = np.asarray(line, dtype=float)
    if v.shape != (6,):
        raise ValueError("line must be a PluckerLine or a 6-vector")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("zero vector is not a line")
    return v / norm


def meet_pairing(p, q):
    """Polar pairing of two lines: vanishes exactly when they intersect."""
    return float(_polar(_as_vector(p), _as_vector(q)))


def _screen(*products):
    """(s tau) s for s the largest |entry| of the arrays ``products``.

    The degeneracy test rounds its threshold as (m tau) m, m = max(|x|, |y|,
    |z|) of one configuration, and rounding keeps that at most (s tau) s for
    every configuration whose x, y, z are entries of ``products``.
    """
    # fmax and fmin skip a NaN, which fails every comparison anyway, so it
    # cannot make the screen NaN for the rest of the batch
    s = max(max(np.fmax.reduce(v, axis=None, initial=0.0),
                -np.fmin.reduce(v, axis=None, initial=0.0)) for v in products)
    return s * _DEGENERATE_TOL * s


def _count_from_pairings(x, y, z, work=None, screen=None):
    """Transversal counts from x, y, z = m01 m23, m02 m13, m03 m12.

    x, y, z share one shape and are left as they are, so several counts can
    share them.  Beside the boolean flags the count allocates two float
    arrays of that shape, or none when ``work`` gives two such arrays
    instead; the counts are returned in the second.  Returns (counts,
    degenerate) of that shape, counts 0.0 or 2.0; degenerate configurations
    count 0.

    The degeneracy test |det M| <= tau max(|x|, |y|, |z|)^2 runs only where
    |det M| <= ``screen``, by default ``_screen(x, y, z)``.  A caller that
    counts several triples made of the same arrays passes one screen of all
    of them, which bounds every triple's own, and so reduces each array once
    instead of once per count.  For pairings of unit halves, each |m| <= 2
    (1 + 1e-15) as the tests check for every pairing the line sampler
    makes, the screen is at most 16.01 tau and the exact test almost never
    runs.
    """
    det, rest = (None, None) if work is None else work
    # det M = (x - y)^2 + z (z - 2 (x + y)), in the rounding of that formula
    det = np.subtract(x, y, out=det)
    det *= det
    rest = np.add(x, y, out=rest)
    rest *= -2.0
    rest += z
    rest *= z
    det += rest
    counts = np.greater(det, 0.0, out=rest)
    counts *= 2.0
    if screen is None:
        screen = _screen(x, y, z)
    degenerate = np.abs(det, out=det) <= screen
    if degenerate.any():
        near = np.nonzero(degenerate)
        scale = np.maximum(np.maximum(np.abs(x[near]), np.abs(y[near])),
                           np.abs(z[near]))
        flags = det[near] <= scale * _DEGENERATE_TOL * scale
        degenerate[near] = flags
        counts[near] = np.where(flags, 0.0, counts[near])
    return counts, degenerate


def _count_batch(pluckers):
    """Transversal counts for batches of four lines: (..., 4, 6) unit vectors."""

    def m(i, j):
        return _polar(pluckers[..., i, :], pluckers[..., j, :])

    return _count_from_pairings(m(0, 1) * m(2, 3), m(0, 2) * m(1, 3),
                                m(0, 3) * m(1, 2))


def transversals_of_four(l1, l2, l3, l4):
    """Count the real lines meeting all four given lines."""
    stack = np.stack([_as_vector(l) for l in (l1, l2, l3, l4)])
    # the closed form takes M to be hollow, which holds for lines only
    if np.any(np.abs(_quadric(stack)) > _QUADRIC_TOL):
        raise ValueError("a 6-vector off the Klein quadric is not a line")
    counts, degenerate = _count_batch(stack[None, :, :])
    return TransversalCount(count=int(counts[0]), degenerate=bool(degenerate[0]))


def _random_lines(gen, samples, per_sample, buf=None):
    """``per_sample`` >= 2 uniform random lines per sample, in the canonical frame.

    Returns an array (2, 3, per_sample, samples): [0] holds a and [1] holds
    b, unit vectors.  Line 0 is (e_z, e_z).  Line 1 has zero azimuth in
    both halves: z = 2u - 1 for uniform u, x = sqrt(1 - z^2), y = 0.  Every
    later line is drawn by Archimedes' map, z = 2u - 1 and azimuth 2*pi*v.
    The law of every count is that of per_sample independent uniform lines
    (module docstring).  A sample takes 4*per_sample - 6 uniforms, one row
    off ``gen`` per sample: per half, a before b, the heights of lines 1
    onward and then the azimuths of lines 2 onward.  Drawing a batch in
    slices of samples thus reads the same numbers.  Samples run along the
    last axis, which keeps the counting arithmetic contiguous.

    The lines take the first 6 * per_sample * samples doubles of one block,
    ``buf`` when given, and the draw the next (6 * per_sample - 10) *
    samples: the uniforms as ``gen`` writes them, then two scratch rows
    per azimuth.  Each uniform is read once from its row, by the first step
    that uses it, so the draw allocates nothing beside the block, and a
    caller may reuse the part after the lines once they are built.
    """
    heights = per_sample - 1
    width = 2 * heights - 1  # uniforms per half
    size = 6 * per_sample * samples
    step = 2 * width * samples
    spare = 2 * (per_sample - 2) * samples
    if buf is None:
        buf = np.empty(size + step + spare)
    lines = buf[:size].reshape(2, 3, per_sample, samples)
    draws = gen.random(out=buf[size:size + step].reshape(samples, 2 * width))
    cos, inv = buf[size + step:size + step + spare].reshape(2, per_sample - 2, samples)
    lines[:, :2, 0] = 0.0
    lines[:, 2, 0] = 1.0
    for half, (x, y, z) in zip((draws[:, :width].T, draws[:, width:].T), lines):
        np.multiply(half[:heights], 2.0, out=z[1:])
        z[1:] -= 1.0
        rho = np.multiply(z[1:], z[1:], out=x[1:])
        np.subtract(1.0, rho, out=rho)
        np.sqrt(rho, out=rho)  # x1; rho of lines 2 on until scaled below
        y[1] = 0.0
        np.multiply(half[heights:], math.pi, out=y[2:])
        half_angle_sin_cos(y[2:], out=(y[2:], cos), work=inv)
        y[2:] *= rho[1:]
        x[2:] *= cos
    return lines


def _half_pairing(p, q):
    """a.a' - b.b' for lines p = (a, b), q = (a', b') as _random_lines draws.

    The polar pairing in the halves of the module docstring; broadcasts over
    the axes after the first two.
    """
    (a, b), (c, d) = p, q
    return (a[0] * c[0] + a[1] * c[1] + a[2] * c[2]
            - (b[0] * d[0] + b[1] * d[1] + b[2] * d[2]))


def _dot(pairs, out, tmp):
    """p0 q0 + p1 q1 + ... over ``pairs`` into ``out``, rounded left to right."""
    (p, q), *rest = pairs
    np.multiply(p, q, out=out)
    for p, q in rest:
        out += np.multiply(p, q, out=tmp)
    return out


def _pairing_block(lines, rows, cols, out=None, plus=None, work=None):
    """Pairings m = A - B of the lines ``rows`` with the lines ``cols``.

    lines: (2, 3, L, n) as _random_lines draws them, every row line before
    every column line; A = a.a' and B = b.b' for a row line (a, b) and a
    column line (a', b').  Writes m into ``out`` and returns it, of shape
    (len(rows), len(cols), n).  ``plus``, when given, of shape (len(rows),
    K, n), receives n = A + B with the last K column lines: their pairings
    once b of those lines is negated.  ``work`` holds two arrays of the
    shape of ``out``.  The canonical lines 0 = (e_z, e_z) and 1 = ((x, 0,
    z), (x', 0, z')) have A = a_z, B = b_z and A = x a_x + z a_z, B = x'
    b_x + z' b_z; their rows take these forms, the rows of later lines the
    full dot products, each rounded as _half_pairing rounds it.
    """
    shape = (len(rows), len(cols), lines.shape[-1])
    out = np.empty(shape) if out is None else out
    b_dot, tmp = np.empty((2,) + shape) if work is None else work
    col = lines[:, :, cols.start:cols.stop]
    (ax, _, az), (bx, _, bz) = col
    mirrored = len(cols) - (0 if plus is None else plus.shape[1])
    # the rows from ``top`` on hold A in ``out`` and B in ``b_dot`` first
    top = 0
    if rows.start == 0:
        np.subtract(az, bz, out=out[0])
        if plus is not None:
            np.add(az[mirrored:], bz[mirrored:], out=plus[0])
        top = 1
    if rows.start <= 1 < rows.stop:
        (x, _, z), (xb, _, zb) = lines[:, :, 1, None]
        i = 1 - rows.start
        _dot(((x, ax), (z, az)), out[i], tmp[i])
        _dot(((xb, bx), (zb, bz)), b_dot[i], tmp[i])
    first = max(rows.start, 2)
    if first < rows.stop:
        i = first - rows.start
        a, b = lines[:, :, first:rows.stop, None]
        _dot(zip(a, col[0]), out[i:], tmp[i:])
        _dot(zip(b, col[1]), b_dot[i:], tmp[i:])
    if plus is not None:
        np.add(out[top:, mirrored:], b_dot[top:, mirrored:], out=plus[top:])
    out[top:] -= b_dot[top:]
    return out


def _count_doubles(r):
    """Doubles per sample of the block ``_pick_counts`` works in."""
    picks = math.prod(r)
    pairings = sum(a * b for a, b in itertools.combinations(r, 2))
    mirrored = (r[0] + r[1]) * (r[2] + r[3])
    return pairings + mirrored + 7 * picks


def _pick_counts(lines, r, buf=None):
    """Counts of every pick of one line from each union, in the draw and its mirror.

    lines: (2, 3, sum(r), n) halves as _random_lines draws them, union g
    from line sum(r[:g]) onward.  The mirror is the same lines with b
    negated on every line of unions 2 and 3.  Returns ((counts,
    degenerate), (mirror counts, mirror degenerate)), each of shape (r_0,
    r_1, r_2, r_3, n).

    The pairings between two unions are computed once as a block m_gh of
    shape (r_g, r_h, n), so each pick costs only products of these numbers.
    With A = a.a' and B = b.b', a line of unions 0 or 1 and a line of
    unions 2 or 3 pair as n = A + B in the mirror, any other two lines as m
    = A - B in both (``_pairing_block`` forms n beside m).  So the mirror
    keeps x = m01 m23 and has y' = n02 n13 and z' = n03 n12, and both counts
    take one ``_screen`` of x, y, z, y', z'.  Everything lives in ``buf``,
    ``_count_doubles(r) * n`` doubles when given: the m and n blocks, the
    five pick arrays (the blocks' scratch before them) and the two rows of
    the draw's count; the mirror's count takes the spent rows of y and z.
    """
    count = lines.shape[-1]
    if buf is None:
        buf = np.empty(_count_doubles(r) * count)
    total = sum(r)
    ends = list(itertools.accumulate(r, initial=0))
    pos = 0

    def take(*shape):
        nonlocal pos
        size = math.prod(shape) * count
        pos += size
        return buf[pos - size:pos].reshape(shape + (count,))

    # per union g its pairings m with the later unions, and per union 0 and
    # 1 the n with unions 2 and 3; then the pick arrays, which are the
    # blocks' scratch until the picks are formed
    m_blocks = [take(r[g], total - ends[g + 1]) for g in range(3)]
    n_blocks = [take(r[g], total - ends[2]) for g in range(2)]
    spare = buf[pos:pos + 7 * math.prod(r) * count]
    picks = take(5, *r)
    work = take(2, *r)
    for g, block in enumerate(m_blocks):
        _pairing_block(lines, range(ends[g], ends[g + 1]), range(ends[g + 1], total),
                       out=block, plus=n_blocks[g] if g < 2 else None,
                       work=spare[:2 * block.size].reshape((2,) + block.shape))
    m = {(g, h): m_blocks[g][:, ends[h] - ends[g + 1]:ends[h + 1] - ends[g + 1]]
         for g, h in itertools.combinations(range(4), 2)}
    n = {(g, h): n_blocks[g][:, ends[h] - ends[2]:ends[h + 1] - ends[2]]
         for g in (0, 1) for h in (2, 3)}
    # pick axes: (i0, i1, i2, i3, n)
    x, y, z, y_mirror, z_mirror = picks
    np.multiply(m[0, 1][:, :, None, None], m[2, 3][None, None, :, :], out=x)
    np.multiply(m[0, 2][:, None, :, None], m[1, 3][None, :, None, :], out=y)
    np.multiply(m[0, 3][:, None, None, :], m[1, 2][None, :, :, None], out=z)
    np.multiply(n[0, 2][:, None, :, None], n[1, 3][None, :, None, :], out=y_mirror)
    np.multiply(n[0, 3][:, None, None, :], n[1, 2][None, :, :, None], out=z_mirror)
    screen = _screen(picks)
    draw = _count_from_pairings(x, y, z, work=work, screen=screen)
    # the draw's y and z are spent: the mirror's count works in them
    return draw, _count_from_pairings(x, y_mirror, z_mirror, work=(y, z),
                                      screen=screen)


def _rig_row_doubles(r):
    """Doubles that one row of a rig sub-batch works in.

    A row of L lines takes 6L doubles for its lines, and after them the 6L
    - 10 of its draw (``_random_lines``) or, once the lines are built, the
    ``_count_doubles(r)`` = B + C + 7P of ``_pick_counts``: the B = sum of
    r_g r_h pairings between unions, the C = (r_0 + r_1)(r_2 + r_3)
    pairings of the mirror, and 7 per pick.
    """
    lines = sum(r)
    return 6 * lines + max(6 * lines - 10, _count_doubles(r))


def _rig_rows(r):
    """Most rows of a rig chunk drawn and counted together in mc._BATCH_BYTES.

    A sub-batch works in one block of ``_rig_row_doubles(r)`` doubles per
    row.  Beside it only the degeneracy flags of the two counts, 2 bytes
    per pick and row, and per-chunk arrays of 9 bytes per sample are
    allocated; by tracemalloc a chunk peaks 5 to 9% above the block for
    every r from (1, 1, 1, 1) to (1000, 1, 1, 1) and (10, 10, 10, 1).
    Draws come off the generator in sequence and every sample is counted
    on its own, so the estimate does not depend on the sub-batch size.
    """
    return max(1, mc._BATCH_BYTES // (8 * _rig_row_doubles(r)))


# Rows of CHUNK-sized arrays that one chunk of the transversal kernel takes
# in mc._workspace (30 x 128 KiB = 3.75 MiB per thread): 16 for the lines, 8
# per half, and 14 for the draws, which then hold the pairings, the six
# products and the four counts.
_IMAGE_ROWS = 30


def _image_counts(gen, count, buf):
    """Counts of ``count`` four-line draws and of their three sign images.

    Reads the rows of 10 uniforms that ``_random_lines(gen, count, 4)`` reads
    and builds the same lines bit for bit, in ``buf`` of ``_IMAGE_ROWS *
    count`` doubles; the columns of the draw are read where they lie, not
    copied out first.  The images negate b of lines {2, 3}, {1, 3} and
    {1, 2}.  With A_ij = a_i.a_j and B_ij = b_i.b_j, each formed once, a
    pair whose two b are negated together or not at all pairs as m_ij =
    A_ij - B_ij, any other pair as n_ij = A_ij + B_ij.  So the six products
    x = m01 m23, y = m02 m13, z = m03 m12 and x', y', z' of the n_ij give
    the triples (x, y, z), (x, y', z'), (x', y, z') and (x', y', z) of the
    draw and the images.  Returns their four (counts, degenerate) in that
    order, as ``_count_from_pairings`` does under one ``_screen`` of the six
    products; the counts alias ``buf``.
    """
    rows = buf[:_IMAGE_ROWS * count].reshape(_IMAGE_ROWS, count)
    lines, work = rows[:16].reshape(2, 8, count), rows[16:]
    # per half, rows z1 z2 z3, x1 x2 x3, y2 y3; line 0 is (e_z, e_z), and
    # line 1 has y = 0
    coords = [(half[:3], half[3:6], half[6:]) for half in lines]
    draws = work[:10].reshape(count, 10)
    gen.random(out=draws)
    cos, inv = work[10:12], work[12:14]
    for (z, x, y), half in zip(coords, (draws[:, :5].T, draws[:, 5:].T)):
        np.multiply(half[:3], 2.0, out=z)
        z -= 1.0
        rho = np.multiply(z, z, out=x)
        np.subtract(1.0, rho, out=rho)
        np.sqrt(rho, out=rho)  # x1; rho of lines 2 and 3 until scaled below
        np.multiply(half[3:], math.pi, out=y)
        half_angle_sin_cos(y, out=(y, cos), work=inv)
        y *= rho[1:]
        x[1:] *= cos

    # the draws are spent: per half the pairings l1.l2, l1.l3, l2.l3
    tmp, dots = work[0], work[1:7].reshape(2, 3, count)
    for (z, x, y), (p12, p13, p23) in zip(coords, dots):
        _dot(((x[0], x[1]), (z[0], z[1])), p12, tmp)
        _dot(((x[0], x[2]), (z[0], z[2])), p13, tmp)
        _dot(((x[1], x[2]), (y[0], y[1]), (z[1], z[2])), p23, tmp)
    # line 0 is (e_z, e_z), so A_0j = za_j and B_0j = zb_j; ``minus`` takes
    # x, y, z, each m_0j times the m of the two other lines, and ``plus``
    # x', y', z' of the n
    (za, _, _), (zb, _, _) = coords
    minus, plus = work[7:10], work[10:13]
    for j, (a_kl, b_kl) in enumerate(zip(dots[0, ::-1], dots[1, ::-1])):
        np.subtract(za[j], zb[j], out=minus[j])
        minus[j] *= np.subtract(a_kl, b_kl, out=tmp)
        np.add(za[j], zb[j], out=plus[j])
        plus[j] *= np.add(a_kl, b_kl, out=tmp)
    (x, y, z), (xn, yn, zn) = minus, plus
    images = ((x, y, z), (x, yn, zn), (xn, y, zn), (xn, yn, z))
    screen = _screen(work[7:13])
    # the pairings are spent too: their rows take the four counts
    return [_count_from_pairings(*triple, work=(tmp, out), screen=screen)
            for triple, out in zip(images, dots.reshape(6, count))]


def _transversal_kernel(gen, count):
    """Means of the four ``_image_counts``, computed in the thread's workspace."""
    with _workspace(_IMAGE_ROWS * count) as buf:
        (total, bad), *images = _image_counts(gen, count, buf)
        for counts, degenerate in images:
            total += counts
            bad |= degenerate
        values = total[~bad]
    values *= 0.25
    return values, int(bad.sum())


def edeg24_transversal_mc(rng, samples, workers=1):
    """Mean transversal count over i.i.d. uniform 4-tuples of lines.

    Each sample is the mean of four counts: the count for four lines drawn
    in the canonical frame, and the counts for its three sign images, the
    same lines with the half b negated on lines {2, 3}, on {1, 3} and on
    {1, 2} (``_image_counts``).  These are the b-sign flips of the four
    lines up to a global flip, which leaves every pairing as it is.  Every
    image has exactly the law of the draw (module docstring), so the mean of
    the four counts is an unbiased estimate of edeg G(2, 4).  It keeps about
    0.27 of one count's variance, for three more counts from six products of
    pairings already formed.

    A sample is degenerate when any of its four configurations is; it is
    left out of the mean and counted in ``degenerate_count``.  ``stderr`` is
    the standard error of the mean of the i.i.d. four-count means.
    """
    return run_kernel(_transversal_kernel, rng, samples, workers=workers,
                      method="transversal-mc")


def rig_union_of_lines_mc(r, rng, samples, workers=1):
    """Expected number of lines meeting four unions of r_i random lines.

    Per sample draws r_1 + r_2 + r_3 + r_4 independent uniform lines and sums
    the transversal counts over all r_1 r_2 r_3 r_4 ways of picking one line
    from each union, for the draw and for its mirror, the same lines with b
    negated on every line of unions 2 and 3 (``_pick_counts``).  The sample
    is the mean of the two sums.  The mirror has exactly the law of the
    draw (module docstring), so the mean is unbiased; it keeps about 0.53
    of one sum's variance at r = (2, 2, 1, 1) and 0.65 at (16, 4, 1, 1),
    for two more products and one more count per pick.  A degenerate pick
    of either configuration marks the whole sample degenerate.

    A chunk is drawn and counted in sub-batches of at most ``_rig_rows(r)``
    rows, so its memory stays near ``mc._BATCH_BYTES`` for any r.  Uniform
    draws come off the generator in sequence, so the sub-batches see the
    same numbers as one draw of the whole chunk.
    """
    r = tuple(_integer(x, "r") for x in r)
    if len(r) != 4 or any(x < 1 for x in r):
        raise ValueError("r must be four positive integers")
    if math.prod(r) > 1000:
        raise ValueError("r1*r2*r3*r4 must be <= 1000")
    total_lines = sum(r)
    rows = _rig_rows(r)

    def kernel(gen, count):
        # as few sub-batches as fit, of even size: a short last one costs
        # as many numpy calls as a full one
        batches = -(-count // rows)
        step = -(-count // batches)
        # the block before the per-chunk arrays, so that it takes the space
        # the last chunk's block freed before they can split it: the other
        # order made the heap grow by a second block
        buf = np.empty(step * _rig_row_doubles(r))
        totals = np.empty(count, dtype=float)
        bad = np.empty(count, dtype=bool)
        for start in range(0, count, step):
            n = min(step, count - start)
            lines = _random_lines(gen, n, total_lines, buf)
            (counts, degenerate), (mirror, mirror_degenerate) = _pick_counts(
                lines, r, buf[lines.size:])
            counts += mirror
            degenerate |= mirror_degenerate
            counts.reshape(-1, n).sum(axis=0, out=totals[start:start + n])
            degenerate.reshape(-1, n).any(axis=0, out=bad[start:start + n])
        values = totals[~bad]
        values *= 0.5
        return values, int(bad.sum())

    return run_kernel(kernel, rng, samples, workers=workers, method="rig-mc")
