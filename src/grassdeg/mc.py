"""Monte Carlo engine and cross-check estimators.

Everything random in this package funnels through ``run_kernel``: work is cut
into fixed-size chunks, chunk i draws from an independent substream derived
from the caller's RngStream, and per-chunk moments are folded left-to-right.
The torus lattice rule runs its own chunk plan on the same runner, with its
shifts drawn up front.  The worker pool only changes scheduling, never which
stream produced which chunk, so results are byte-identical for any worker
count.
"""

import math
import operator
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._quad import _leggauss, ordered_simplex_gl
from .estimate import Estimate
from .geomlin import (
    _LAPLACE4,
    RngStream,
    g24_angles_from_heights,
    half_angle_sin_cos,
    small_det,
)
from .specfun import (
    _e_complement,
    log_gamma,
    multivariate_gamma_log,
)

CHUNK = 16384

__all__ = [
    "CHUNK",
    "Estimate",
    "StreamingStats",
    "run_kernel",
    "alpha_mc",
    "alpha_complex_exact",
    "alpha_complex_mc",
    "edeg24_integral",
    "schubert_ratio_exact",
    "schubert_ratio_mc",
    "density_pdf",
    "density_normalization",
    "density_gof",
    "vitale_check",
    "vitale_closed_form",
]


@dataclass
class StreamingStats:
    """Count / mean / sum-of-squared-deviations accumulator.

    Supports exact pairwise merging, so chunk statistics can be combined in a
    fixed order regardless of which thread computed them.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def from_values(cls, values):
        values = np.asarray(values, dtype=float)
        n = int(values.size)
        if n == 0:
            return cls()
        mu = float(values.mean())
        with _workspace(n) as buf:
            dev = np.subtract(values, mu, out=buf.reshape(values.shape))
            m2 = float(np.multiply(dev, dev, out=dev).sum())
        return cls(count=n, mean=mu, m2=m2)

    def merge(self, other):
        """Combined statistics of the two underlying sample sets."""
        if self.count == 0:
            return StreamingStats(other.count, other.mean, other.m2)
        if other.count == 0:
            return StreamingStats(self.count, self.mean, self.m2)
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / n
        m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / n
        return StreamingStats(count=n, mean=mean, m2=m2)

    @property
    def variance(self):
        if self.count < 2:
            return float("nan")
        return self.m2 / (self.count - 1)

    @property
    def stderr_of_mean(self):
        if self.count < 2:
            return float("inf")
        return math.sqrt(max(self.m2, 0.0) / (self.count - 1) / self.count)


# Worker pools by thread count, made on first use and kept for the life of
# the process.  A pool made and shut down per call starts fresh threads every
# call; glibc gives a thread an arena of its own when no arena is free, and
# a thread whose exit is still in progress has not handed its arena back yet.
# Each new arena keeps up to a chunk's freed memory, so peak RSS grew by
# ~8 MB steps at random over a run of calls.  Reused threads keep the
# arenas they have.
_POOLS = {}
_POOLS_LOCK = threading.Lock()
_POOL_THREAD_PREFIX = "grassdeg-mc"
# a forked child has none of the parent's threads
os.register_at_fork(after_in_child=_POOLS.clear)


def _pool(threads):
    with _POOLS_LOCK:
        pool = _POOLS.get(threads)
        if pool is None:
            pool = _POOLS[threads] = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix=_POOL_THREAD_PREFIX)
        return pool


# One float64 buffer per thread, grown to the largest need and kept for the
# life of the thread.  A chunk array of CHUNK doubles is exactly 128 KiB,
# glibc's initial mmap threshold.  Allocated afresh, such arrays came as new
# mappings whose pages fault in on every call, or from heap that glibc
# trims back to the system once enough of it is free; glibc moves both
# thresholds up as large blocks are freed, so how much one call faulted
# depended on what the calls before it had allocated.  The torus chunks,
# the polar rank-one chunks, the transversal chunks and the moments of
# every chunk compute in their thread's buffer instead.
_WORKSPACES = threading.local()
# the largest chunk need, the transversal kernel's 30 rows of CHUNK
# (incidence._IMAGE_ROWS: its four lines, then the draws' rows reused for
# the pairings, the six products and the counts of its four sign images;
# the polar kernel takes 18 rows of CHUNK, a torus chunk 12 rows of at most
# 2.5 CHUNK points, so also 30 CHUNK); larger requests get a new array, so
# no thread keeps more than 3.75 MiB
_WORKSPACE_DOUBLES = 30 * CHUNK


@contextmanager
def _workspace(size):
    """A float64 array of ``size`` entries that belongs to the calling thread.

    The rule: a chunk takes the buffer for its ``with`` block, and nothing
    it returns aliases the buffer.  A call made inside the block (a kernel
    that runs a kernel, serially in the same thread) gets a new array
    instead, so it cannot clobber the outer chunk's numbers; so does a
    request above ``_WORKSPACE_DOUBLES``.
    """
    local = _WORKSPACES
    if size > _WORKSPACE_DOUBLES or getattr(local, "busy", False):
        yield np.empty(size)
        return
    buf = getattr(local, "buf", None)
    if buf is None or buf.size < size:
        buf = local.buf = np.empty(size)
    local.busy = True
    try:
        yield buf[:size]
    finally:
        local.busy = False


def _integer(value, what):
    """``value`` as an int; a float or a bool raises instead of truncating."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def _check_stream(rng, samples):
    if _integer(samples, "samples") < 1:
        raise ValueError("samples must be >= 1")
    if not isinstance(rng, RngStream):
        raise TypeError("rng must be an RngStream")


def _run_chunks(fn, rng, samples, workers):
    """``fn(generator, count)`` on every chunk, as an iterator in chunk order.

    Chunk i always consumes ``rng.substream(i)``, so the results do not
    depend on ``workers`` (see ``_map_chunks``).
    """
    _check_stream(rng, samples)

    def one_chunk(index):
        count = min(CHUNK, samples - index * CHUNK)
        return fn(rng.substream(index).generator, count)

    return _map_chunks(one_chunk, -(-samples // CHUNK), workers)


def _map_chunks(fn, chunks, workers):
    """``fn(0)``, ..., ``fn(chunks - 1)`` as an iterator in chunk order.

    The pool only changes scheduling, never what a chunk computes.  Chunks
    are submitted as the caller consumes them, at most two per thread ahead
    of it, so memory does not grow with the chunk count.  A call made from
    inside a pool worker (a kernel that runs a kernel) runs serially, so it
    cannot wait on the threads it occupies.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # more threads than chunks or cores would only hold more chunk arrays
    threads = min(workers, chunks, os.cpu_count() or 1)
    nested = threading.current_thread().name.startswith(_POOL_THREAD_PREFIX)
    if threads > 1 and not nested:
        return _in_order(_pool(threads), fn, chunks, 2 * threads)
    return map(fn, range(chunks))


def _in_order(pool, fn, count, depth):
    """``fn(0)``, ..., ``fn(count - 1)`` from ``pool``, yielded in order.

    At most ``depth`` calls are submitted and not yet yielded; those still
    queued are cancelled if the caller stops early or a call raises.
    """
    pending = deque()
    try:
        for index in range(count):
            if len(pending) == depth:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, index))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def run_kernel(kernel, rng, samples, workers=1, method="mc"):
    """Deterministic chunked Monte Carlo driver.

    ``kernel(generator, count)`` must return ``(values, degenerate_count)``
    where ``values`` holds the non-degenerate draws.  Chunk statistics are
    merged in index order as they arrive, so the returned Estimate does not
    depend on ``workers``.
    """

    def moments(gen, count):
        values, degenerate = kernel(gen, count)
        return StreamingStats.from_values(values), int(degenerate)

    total = StreamingStats()
    degenerate = 0
    # fixed fold order
    for stats, bad in _run_chunks(moments, rng, samples, workers):
        total = total.merge(stats)
        degenerate += bad
    return Estimate(
        value=total.mean,
        stderr=total.stderr_of_mean,
        n_samples=samples,
        seed=rng.seed,
        method=method,
        degenerate_count=degenerate,
    )


# ---------------------------------------------------------------------------
# alpha(k, m) = E|det M| over unit x_i, y_i, where M stacks the n = km
# vectorized products vec(x_i y_i^T).  Over Gaussian x_i, y_i the mean is
# the Vitale volume n! |C(k, m)| = (rho_k rho_m)^n alpha(k, m): column i is
# |x_i| |y_i| times a unit column, and the radii are independent of the
# directions (zonoid.vol_C_vitale_mc).
# ---------------------------------------------------------------------------

# Working memory of one sub-batch of a chunk whose draws grow with their
# dimensions: rank-one determinants above km = 4 (_vitale_rows), the
# Gaussian matrices of vitale_check, the Jacobi-model Betas of
# _jacobi_angles and the rig draws and counts (incidence._rig_rows).  Each
# worker thread holds one, so this sets most of a multi-threaded run's peak
# memory.
_BATCH_BYTES = 8 * 2**20


def _vitale_rows(k, m, itemsize=8):
    """Draws of a rank-one determinant chunk above km = 4 reduced together.

    A draw of n = km holds n(k + m) numbers of Gaussians and n^2 of matrix
    while its determinant is taken; the model adds 8 for the sign, log and
    result arrays.  A number takes ``itemsize`` bytes, 16 over C.  By
    tracemalloc one chunk, real or complex, then peaks at 7.3 to 9.0 MiB
    for km = 5 to 36.  Depends on (k, m) only, so the draws are the
    same for every worker count.
    """
    n = k * m
    return max(1, _BATCH_BYTES // (itemsize * (n * (k + m) + n * n + 8)))


def _polar_det(sin, cos, work):
    """det W per draw at real (k, m) = (2, 2); ``_polar_kernel`` says what W is.

    ``sin`` and ``cos`` are (6, count): rows u_1, u_2, u_3, then v_1, v_2,
    v_3.  The Laplace expansion along W's two u columns (``small_det``'s
    4x4 rule on W transposed) is a sum of six products of 2x2 minors, each
    the sine of an angle difference.  ``work`` holds four rows shaped like
    a row of ``sin``; det W is returned in ``work[0]``.
    """
    total, term, vterm, tmp = work

    def minor(sin, cos, i, j, out):
        # sin(angle_j - angle_i) for rows i < j of W; angle_0 = 0
        if i == 0:
            return sin[j - 1]
        np.multiply(sin[j - 1], cos[i - 1], out=out)
        out -= np.multiply(cos[j - 1], sin[i - 1], out=tmp)
        return out

    total.fill(0.0)
    for (i, j), (p, q), sign in _LAPLACE4:
        np.multiply(minor(sin[:3], cos[:3], i, j, term),
                    minor(sin[3:], cos[3:], p, q, vterm), out=term)
        if sign > 0:
            total += term
        else:
            total -= term
    return total


def _polar_kernel(gen, count):
    """Kernel of |det M| over unit x_i, y_i at real (k, m) = (2, 2): 6 uniforms.

    For unit x = (cos a, sin a) and y = (cos b, sin b), the row
    vec(x y^T) is (c_u + c_v, s_v - s_u, s_v + s_u, c_u - c_v) / 2 with
    u = a - b, v = a + b, c and s their cosines and sines.  A fixed linear
    map with |det| 4 sends it to W's row (cos u, sin u, cos v, sin v), so
    |det M| = |det W| / 4.  Uniform (a, b) make (u, v) uniform on the
    torus, and rotating every x_i by one angle and every y_i by another
    shifts all u_i and all v_i by any two angles without changing |det W|,
    so u_0 = v_0 = 0 and the draw is (u_i, v_i), i = 1..3: one (6, count)
    uniform draw per chunk.  The chunk computes in its thread's workspace.
    """
    with _workspace(18 * count) as buf:
        sin, cos, work = buf.reshape(3, 6, count)
        gen.random(out=sin)
        sin *= math.pi  # half of the angle 2 pi r
        half_angle_sin_cos(sin, out=(sin, cos), work=work)
        det = _polar_det(sin, cos, work[:4])
        good = det != 0.0
        values = det[good]
    np.abs(values, out=values)
    values *= 0.25
    return values, int(count - good.sum())


def _rank_one_det_kernel(k, m, complex_=False):
    """Kernel of |det M| (over C, |det M|^2) over unit x_i, y_i.

    x_i and y_i are uniform on the unit spheres of R^k and R^m, or of C^k
    and C^m when ``complex_``: standard Gaussians scaled to unit length.  At
    real (k, m) = (2, 2) a draw is six uniform angles instead
    (``_polar_kernel``).  Otherwise, up to km = 4 the determinant is a
    cofactor expansion; above that it is taken in log magnitude so large km
    cannot overflow, in sub-batches of ``_vitale_rows`` draws, so a chunk's
    memory stays near ``_BATCH_BYTES`` for any km.  There a draw's
    Gaussians come off the generator as one samples-major row (x_i then y_i
    for each i), so the sub-batches read the same numbers as one draw of the
    whole chunk.  A complex number is two consecutive Gaussians, its real
    and imaginary parts.  A draw is degenerate when its determinant is
    exactly 0.
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    n = k * m
    if n > 36:
        raise ValueError("km > 36 not supported (cost and variance blow up)")
    if (k, m) == (2, 2) and not complex_:
        return _polar_kernel
    dtype = np.dtype(complex if complex_ else float)
    parts = 2 if complex_ else 1  # Gaussians per number, and a draw's power
    batch = _vitale_rows(k, m, dtype.itemsize)

    def directions(gen, count, *widths):
        # normalised as real parts before the complex view: same norm, and
        # no complex temporaries
        z = gen.standard_normal((count, n, parts * sum(widths)))
        stop = 0
        for width in widths:
            v = z[:, :, stop : stop + parts * width]
            v /= np.linalg.norm(v, axis=2, keepdims=True)
            stop += parts * width
        return z.view(dtype)

    def kernel(gen, count):
        if n <= 4:
            x = directions(gen, count, k)
            y = directions(gen, count, m)
            # entry (i, p*m + q) of every draw, x_ip * y_iq, as one
            # contiguous run over the draws: the products' inner loops and
            # the cofactor expansion then both stream along the draws
            rows = np.multiply(x.transpose(1, 2, 0)[:, :, None],
                               y.transpose(1, 2, 0)[:, None],
                               out=np.empty((n, k, m, count), dtype))
            det = small_det(rows.reshape(n, n, count).transpose(2, 0, 1))
            good = det != 0.0
            return np.abs(det[good]) ** parts, int(count - good.sum())
        logab = np.empty(count)
        good = np.empty(count, dtype=bool)
        for start in range(0, count, batch):
            stop = min(start + batch, count)
            sign, logab[start:stop] = log_dets(directions(gen, stop - start, k, m))
            good[start:stop] = sign != 0
        return np.exp(parts * logab[good]), int(count - good.sum())

    def log_dets(xy):
        # LAPACK copies each matrix in; it reads draw-major rows fastest
        return np.linalg.slogdet((xy[:, :, :k, None] * xy[:, :, None, k:])
                                 .reshape(-1, n, n))

    return kernel


def alpha_mc(k, m, rng, samples, workers=1):
    """Estimate alpha(k, m) = E|det M| over unit x_i, y_i, for km <= 36.

    M stacks the km products vec(x_i y_i^T); at (k, m) = (2, 2) a draw is
    six uniform angles, not 16 Gaussians (``_rank_one_det_kernel``).
    ``zonoid.vol_C_vitale_mc`` scales it to the Vitale volume.
    """
    return run_kernel(_rank_one_det_kernel(k, m), rng, samples,
                      workers=workers, method="alpha-mc")


def alpha_complex_exact(k, m):
    """Complex analogue of alpha as an exact rational: N! / N^N, N = km."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    n = k * m
    if n > 20:
        raise ValueError("k*m > 20: use the Monte Carlo form instead")
    return Fraction(math.factorial(n), n**n)


def alpha_complex_mc(k, m, rng, samples, workers=1):
    """Monte Carlo counterpart of alpha_complex_exact, for cross-validation.

    E|det M|^2 over unit complex x_i, y_i, for km <= 36.
    """
    return run_kernel(_rank_one_det_kernel(k, m, complex_=True), rng, samples,
                      workers=workers, method="alpha-complex-mc")


# ---------------------------------------------------------------------------
# The six-dimensional torus integral whose value is the expected number of
# real lines meeting four random lines in RP^3.
# ---------------------------------------------------------------------------

_TORUS_PREFACTOR = math.pi**6 / 128.0
# two means over one angle each, 2/pi apiece, times the torus prefactor
_TORUS_CONDITIONAL_PREFACTOR = (2.0 / math.pi) ** 2 * _TORUS_PREFACTOR


def _torus_third_pair_mean(sin, cos, work=None):
    """The torus integrand averaged over the third angle pair in closed form.

    ``sin`` and ``cos`` have shape (4, ...): the sines and cosines of the
    first two angle pairs, in the order (t1, t2, s1, s2).  Row i of the
    integrand's 3x3 matrix is r_i = (sin t_i sin s_i, cos t_i sin s_i,
    sin t_i cos s_i); the determinant is transpose-invariant, so rows and
    columns may swap.  With v = r1 x r2, det3(r1, r2, r3) = A sin s3 +
    B cos s3, where A = v0 sin t3 + v1 cos t3 and B = v2 sin t3.  Its |.|
    averages over s3 to (2/pi) sqrt(A^2 + B^2), a quadratic form in
    (sin t3, cos t3) whose eigenvalues lmax >= lmin average its root over
    t3 to (2/pi) sqrt(lmax) E(1 - x), x = lmin/lmax, E by Cephes' form in x
    (``specfun._e_complement``).  Where r1 and r2 are parallel, v = 0 and
    the value is 0.

    Every step runs in place in the rows of ``work``, a (12, ...) array, and
    the value is returned in one of its rows.  A caller that passes
    ``work`` passes ``work[0:4]`` and ``work[4:8]`` as ``sin`` and ``cos``;
    without it they are copied into a new one.
    """
    if work is None:
        work = np.empty((12,) + np.shape(sin)[1:])
        work[0:4], work[4:8] = sin, cos
    st1, st2, ss1, ss2, ct1, ct2, cs1, cs2, w0, w1, w2, w3 = work
    # r_i = (a_i, b_i, c_i)
    a1, a2 = np.multiply(st1, ss1, out=w0), np.multiply(st2, ss2, out=w1)
    b1, b2 = np.multiply(ct1, ss1, out=ct1), np.multiply(ct2, ss2, out=ct2)
    c1, c2 = np.multiply(st1, cs1, out=st1), np.multiply(st2, cs2, out=st2)
    # p_j = v_j^2, v = r1 x r2
    p0 = np.multiply(b1, c2, out=ss1)
    p0 -= np.multiply(c1, b2, out=cs1)
    p1 = np.multiply(c1, a2, out=ss2)
    p1 -= np.multiply(a1, c2, out=cs2)
    p2 = np.multiply(a1, b2, out=w2)
    p2 -= np.multiply(b1, a2, out=w3)
    for p in (p0, p1, p2):
        p *= p
    root = np.subtract(np.add(p0, p2, out=st1), p1, out=st1)
    root *= root
    root += np.multiply(np.multiply(p0, 4.0, out=st2), p1, out=st2)
    np.sqrt(root, out=root)
    lmax = np.add(p0, p1, out=ct1)
    lmax += p2
    lmax += root
    lmax *= 0.5
    # lmin = det / lmax: no difference of nearly equal roots.  lmax = 0
    # only where v = 0, and there p1 * p2 = 0 makes lmin and the value 0.
    safe = ct2
    safe.fill(1.0)
    np.copyto(safe, lmax, where=lmax > 0.0)
    ratio = np.multiply(p1, p2, out=p1)  # lmin, then lmin / lmax
    ratio /= safe
    ratio /= safe
    np.minimum(ratio, 1.0, out=ratio)  # it may round above 1
    e = _e_complement(ratio, (st1, st2))
    value = np.sqrt(lmax, out=lmax)
    value *= e
    value *= _TORUS_CONDITIONAL_PREFACTOR
    return value


# Randomly shifted rank-1 Korobov lattices: point k of shift i is
# frac(k z / N + delta_i) with z = (1, a, a^2, a^3) mod N.  N is the first
# prime >= 2^(j/4), j = 20..80.  a is the multiplier whose shift means of
# the torus integrand itself vary least: every multiplier up to N = 32771
# and a seeded 512 above it are screened on 8 shifts, and the best 16
# rescored on 64.  The integrand has kinks, so figures of merit made for
# smooth periodic functions rank its lattices poorly.  tools/korobov_table.py
# writes the table; its --check recomputes every variance and reruns the
# search up to N = 257.
_KOROBOV = (  # (N, a, shift variance), written by tools/korobov_table.py
    (37, 13, 8.756925471521097e-05),
    (41, 4, 0.00010058967535059272),
    (47, 3, 8.69802065138108e-05),
    (59, 13, 2.696446141940803e-05),
    (67, 21, 1.8968861812916328e-05),
    (79, 15, 1.1669257748650514e-05),
    (97, 6, 8.464375578441217e-06),
    (109, 35, 6.902373531496283e-06),
    (131, 10, 6.553339454422718e-06),
    (157, 45, 2.060569328789205e-06),
    (191, 33, 2.39636107359064e-06),
    (223, 97, 1.5344512626398179e-06),
    (257, 9, 1.2644945763750375e-06),
    (307, 31, 6.824913302794799e-07),
    (367, 31, 5.946847163062754e-07),
    (431, 63, 2.099609616540337e-07),
    (521, 47, 2.5595558280979016e-07),
    (613, 27, 9.622225017773387e-08),
    (727, 330, 1.0848518783119297e-07),
    (863, 202, 5.5897077786851576e-08),
    (1031, 452, 3.9659435616363715e-08),
    (1223, 121, 2.3998435813021845e-08),
    (1451, 453, 2.1511832860304816e-08),
    (1723, 112, 9.344469991538629e-09),
    (2053, 130, 8.073199910497911e-09),
    (2437, 30, 4.376930593961511e-09),
    (2897, 1040, 3.183042087086353e-09),
    (3449, 581, 1.3534385645758323e-09),
    (4099, 763, 1.1478913605252993e-09),
    (4871, 259, 4.900606990141261e-10),
    (5801, 1602, 4.908936990611284e-10),
    (6899, 1494, 3.0362391181477515e-10),
    (8209, 3330, 1.700098671790811e-10),
    (9743, 3273, 1.6111606427110895e-10),
    (11587, 1698, 5.762168724511018e-11),
    (13781, 4046, 7.553573792365847e-11),
    (16411, 5254, 3.405519194190132e-11),
    (19489, 5948, 3.0657749636280756e-11),
    (23173, 1903, 1.9055707457536386e-11),
    (27581, 1238, 1.0823969078329945e-11),
    (32771, 16039, 7.8809070869627e-12),
    (38971, 11325, 2.9721674519082754e-12),
    (46349, 4672, 3.5058880522504824e-12),
    (55109, 1847, 3.178700169572135e-12),
    (65537, 27040, 1.5541566200603007e-12),
    (77951, 8067, 8.358846913854477e-13),
    (92683, 3723, 8.588451453066226e-13),
    (110221, 8070, 6.595094898325396e-13),
    (131101, 63448, 2.4482970755947216e-13),
    (155887, 67060, 1.9723805412127714e-13),
    (185369, 47872, 7.048762237828305e-14),
    (220447, 50728, 7.681511523176763e-14),
    (262147, 9538, 5.2684103905846985e-14),
    (311747, 41075, 4.976771648186595e-14),
    (370759, 180017, 1.2479362982585625e-14),
    (440893, 176656, 1.3730495858179471e-14),
    (524309, 78516, 6.5676201255610994e-15),
    (623521, 30614, 4.725331604791727e-15),
    (741457, 304842, 2.4685018713686857e-15),
    (881779, 345766, 3.667067775465536e-15),
    (1048583, 375405, 1.7378759339047156e-15),
)  # end of the table written by tools/korobov_table.py
# At a fixed budget of shifts x N evaluations the stderr falls like
# 1/sqrt(shifts N^2), because one shift's error falls like 1/N on this
# integrand: the budget buys points rather than shifts.  16 shifts still
# give the standard error 15 degrees of freedom.
_LATTICE_SHIFTS = 16


def _lattice_plan(samples):
    """(N, a, shifts) of the rule: at least ``samples`` evaluations.

    N is the smallest table entry with 16 shifts of it covering
    ``samples``; above the table, the largest N with as many shifts as
    ``samples`` needs.
    """
    need = -(-samples // _LATTICE_SHIFTS)
    for n, a, *_ in _KOROBOV:
        if n >= need:
            return n, a, _LATTICE_SHIFTS
    n, a, *_ = _KOROBOV[-1]
    return n, a, -(-samples // n)


# The most points of one torus chunk.  The lattice rule draws no substream
# per chunk and folds its per-shift sums in chunk order, so unlike CHUNK its
# chunk size is free.  At CHUNK points the ~70 array operations of a chunk
# each ran too briefly outside the GIL for a second thread to gain; at
# 2.5 CHUNK two shifts of N = 16411 share a chunk, and its 12 rows are
# exactly the workspace's 30 CHUNK doubles.
_LATTICE_CHUNK_POINTS = 5 * CHUNK // 2


@lru_cache(maxsize=4)
def _lattice_sin_cos(n, a):
    """sin and cos of the unshifted points 2 pi frac(k z / N), k < min(N, 2.5 CHUNK).

    Shape (2, 4, min(N, 2.5 CHUNK)), read-only: at most 20 x CHUNK doubles,
    2.5 MiB.
    """
    z = np.array([pow(a, d, n) for d in range(4)], dtype=np.int64)
    k = np.arange(min(n, _LATTICE_CHUNK_POINTS), dtype=np.int64)
    angles = (k * z[:, None] % n) * (2.0 * math.pi / n)
    block = np.stack([np.sin(angles), np.cos(angles)])
    block.flags.writeable = False
    return block


def _lattice_chunks(n, shifts):
    """The chunks of ``shifts`` shifts of an N-point lattice, in fold order.

    Entry (i0, i1, k0, count) covers points k0 .. k0 + count - 1 of shifts
    i0 .. i1 - 1.  A chunk holds at most ``_LATTICE_CHUNK_POINTS`` (2.5
    CHUNK) points: as many whole shifts as fit while N is at most that
    (two at N = 16411, so 16 shifts make 8 chunks), else one of
    ceil(N / 2.5 CHUNK) equal slices of one shift.
    """
    if n <= _LATTICE_CHUNK_POINTS:
        per = _LATTICE_CHUNK_POINTS // n
        return [(i, min(i + per, shifts), 0, n) for i in range(0, shifts, per)]
    slices = -(-n // _LATTICE_CHUNK_POINTS)
    cuts = [j * n // slices for j in range(slices + 1)]
    return [(i, i + 1, k0, k1 - k0)
            for i in range(shifts) for k0, k1 in zip(cuts, cuts[1:])]


def _lattice_means(n, a, delta, workers=1):
    """Mean of the torus integrand over each shift ``delta`` of lattice (n, a).

    Point k0 + k of shift i is the angle theta_k + phi_i, where theta_k =
    2 pi frac(k z / N) is a point of the unshifted block and phi_i =
    2 pi frac(k0 z / N + delta_i) one offset per shift and chunk.  A chunk
    reads sin and cos of the block from the cache (``_lattice_sin_cos``)
    and turns them into its rows by angle addition: sin(theta + phi) =
    S cos phi + C sin phi and cos(theta + phi) = C cos phi - S sin phi.

    The chunks are those of ``_lattice_chunks``, at most 2.5 CHUNK points
    each (``_LATTICE_CHUNK_POINTS`` says why).  Chunk sums are folded in
    chunk order, so the means do not depend on ``workers``.  A chunk
    computes in its thread's workspace, 12 rows of its points.
    """
    shifts = len(delta)
    plan = _lattice_chunks(n, shifts)

    def chunk_sums(index):
        i0, i1, k0, count = plan[index]
        k0z = np.array([k0 * pow(a, d, n) % n for d in range(4)])
        phase = ((delta[i0:i1] + k0z / n) % 1.0 * (2.0 * math.pi)).T[:, :, None]
        sin_phase, cos_phase = np.sin(phase), np.cos(phase)
        block_sin, block_cos = _lattice_sin_cos(n, a)[:, :, None, :count]
        with _workspace(12 * (i1 - i0) * count) as buf:
            work = buf.reshape(12, i1 - i0, count)
            sin, cos, tmp = work[0:4], work[4:8], work[8:12]
            np.multiply(block_sin, cos_phase, out=sin)
            sin += np.multiply(block_cos, sin_phase, out=tmp)
            np.multiply(block_cos, cos_phase, out=cos)
            cos -= np.multiply(block_sin, sin_phase, out=tmp)
            return _torus_third_pair_mean(sin, cos, work).sum(axis=1)

    sums = np.zeros(shifts)
    for (i0, i1, _, _), part in zip(plan, _map_chunks(chunk_sums, len(plan), workers)):
        sums[i0:i1] += part  # fixed fold order
    return sums / n


def edeg24_integral(mode="mc", rng=None, samples=None, workers=1):
    """Average line count over four random lines, via its torus integral.

    Averages, over the first two angle pairs on [0, 2*pi)^4, the
    integrand's closed-form mean over the third pair, by a randomly shifted
    rank-1 Korobov lattice rule (``_lattice_plan``): 16 shifts of N points
    (more shifts above the table's largest N), at least ``samples``
    evaluations in all, on the multiplier of the table that gave this
    integrand the least shift variance.  A chunk holds whole shifts up to
    2.5 CHUNK points (``_lattice_chunks``).  The shifts are one (shifts, 4)
    uniform draw from ``rng.substream(0)``.  Each shift's mean is an
    unbiased estimate, so ``value`` is the mean of the shift means and
    ``stderr`` their standard error; ``n_samples`` counts the evaluations,
    shifts x N.  ``mode`` takes only "mc".
    """
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None or samples is None:
        raise ValueError("mc mode needs rng and samples")
    _check_stream(rng, samples)
    n, a, shifts = _lattice_plan(samples)
    delta = rng.substream(0).generator.random((shifts, 4))
    stats = StreamingStats.from_values(_lattice_means(n, a, delta, workers))
    return Estimate(
        value=stats.mean,
        stderr=stats.stderr_of_mean,
        n_samples=shifts * n,
        seed=rng.seed,
        method="edeg24-torus-lattice",
    )


# ---------------------------------------------------------------------------
# Schubert-variety volume ratio |Sigma(k, n)| / |G(k, n)|.
# ---------------------------------------------------------------------------


def schubert_ratio_exact(k, n):
    """Closed form of the ratio: a product of two Gamma quotients."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    m = n - k
    return math.exp(
        log_gamma((k + 1) / 2.0)
        - log_gamma(k / 2.0)
        + log_gamma((m + 1) / 2.0)
        - log_gamma(m / 2.0)
    )


def _check_schubert_window(eps, delta):
    if not 0.0 < eps <= delta < math.pi / 2.0:
        raise ValueError("need 0 < eps <= delta < pi/2")


_TINY = np.finfo(float).tiny


def _jacobi_angles(gen, count, n, k, j):
    """The smallest principal angles of ``count`` uniform k-planes of R^n.

    Angles against span(e_1, ..., e_j), k <= j <= n - k, ascending, at most
    two per plane: shape (min(k, 2), count).  In lambda = cos^2 t their
    density (``density_pdf``) is proportional to prod lambda_i^((a-1)/2)
    (1 - lambda_i)^((b-1)/2) |Delta(lambda)|, a = j - k and b = n - j - k:
    the real Jacobi ensemble.  By its matrix model (Killip and Nenciu 2004;
    Edelman and Sutton, "The beta-Jacobi matrix model, the CS decomposition,
    and generalized singular value problems", Found. Comput. Math. 2008)
    lambda are the squared singular values of the k x k upper bidiagonal B
    with diagonal d = (c_k, c_{k-1} s'_{k-1}, ..., c_1 s'_1) and
    superdiagonal e = (-s_k c'_{k-1}, ..., -s_2 c'_1), from independent
    c_i^2 ~ Beta((a + i)/2, (b + i)/2) and c'_i^2 ~ Beta(i/2, (a+b+1+i)/2)
    with s^2 = 1 - c^2.  T = B^T B is tridiagonal with T_pp = d_p^2 +
    e_{p-1}^2 and T_{p,p+1}^2 = d_p^2 e_p^2.  At k = 2 its eigenvalues are
    the roots of lam^2 - (x + e + y) lam + xy, x, y, e = d_0^2, d_1^2, e_0^2;
    the discriminant (x - y + e)^2 + 4ye and the smaller root xy over the
    larger do not cancel.  Above, ``_sturm_top_two`` bisects them: O(k)
    numbers and operations a draw, whatever n is.  A draw's 2k - 1 Betas
    are one samples-major row, so sub-batches of at most ``_BATCH_BYTES``
    (5k + 16 numbers a draw) read the same numbers as one whole-chunk draw.
    At (k, n, j) = (2, 4, 2) one (2, count) uniform draw, mapped in place
    to the heights u, v of ``g24_angles_from_heights``, gives the angles.
    """
    if (k, n, j) == (2, 4, 2):
        h = gen.random((2, count))
        h *= 2.0
        h -= 1.0
        return g24_angles_from_heights(h, out=h)
    a, b = j - k, n - j - k
    i, i1 = np.arange(k, 0, -1.0), np.arange(k - 1, 0, -1.0)
    shape_c = np.concatenate([(a + i) / 2.0, i1 / 2.0])
    shape_s = np.concatenate([(b + i) / 2.0, (a + b + 1.0 + i1) / 2.0])
    batch = max(1, _BATCH_BYTES // (8 * (5 * k + 16)))
    cos2 = np.empty((min(k, 2), count))
    for start in range(0, count, batch):
        stop = min(start + batch, count)
        cos2[:, start:stop] = _top_cos2(
            gen.beta(shape_c, shape_s, size=(stop - start, 2 * k - 1)).T, k)
    return np.arccos(np.sqrt(cos2, out=cos2), out=cos2)


def _top_cos2(z, k):
    """The top min(k, 2) eigenvalues of T from ``_jacobi_angles``' Betas ``z``,
    (2k - 1, rows): c_k^2 .. c_1^2, then c'_{k-1}^2 .. c'_1^2, overwritten."""
    c2, cp2 = z[:k], z[k:]
    e2 = np.subtract(1.0, c2[:-1], out=np.empty(cp2.shape))
    e2 *= cp2
    d2 = c2.copy()
    d2[1:] *= np.subtract(1.0, cp2, out=cp2)
    if k == 1:
        return d2
    if k == 2:
        x, y, e = d2[0], d2[1], e2[0]
        big = 0.5 * (x + y + e + np.sqrt((x - y + e) ** 2 + 4.0 * y * e))
        return np.minimum(big, 1.0), x * y / np.maximum(big, _TINY)  # big may pass 1
    off2 = d2[:-1] * e2
    d2[1:] += e2
    return _sturm_top_two(d2, off2)


@np.errstate(divide="ignore")
def _sturm_top_two(diag, off2):
    """The two largest eigenvalues in [0, 1] of symmetric tridiagonals, descending.

    ``diag`` (k, rows) is the diagonal and ``off2`` (k - 1, rows) the squared
    off-diagonal, raised in place to at least the smallest normal double, so
    no pivot is 0 / 0.  The eigenvalues below x number the negative pivots
    q_0 = T_00 - x, q_p = T_pp - x - T_{p-1,p}^2 / q_{p-1} (a zero pivot
    makes the next one -inf).  Both eigenvalues bisect [0, 1] at once, 56
    times, to below the spacing of doubles near 1; the intervals share one
    width, so only their lower ends are stored.
    """
    k, rows = diag.shape
    np.maximum(off2, _TINY, out=off2)
    lo, x, q, t, below = np.zeros((5, 2, rows))
    rank = np.array([[k - 1], [k - 2]])  # ascending indices of the top two
    neg = np.empty((2, rows), dtype=bool)
    for half in 0.5 ** np.arange(1.0, 57.0):
        np.add(lo, half, out=x)
        np.less(np.subtract(diag[0], x, out=q), 0.0, out=neg)
        np.copyto(below, neg)
        for p in range(1, k):
            np.divide(off2[p - 1], q, out=t)
            np.subtract(diag[p], x, out=q)
            q -= t
            below += np.less(q, 0.0, out=neg)
        np.less_equal(below, rank, out=neg)  # eigenvalue ``rank`` is >= x
        np.copyto(lo, x, where=neg)
    lo += half
    return lo


def schubert_ratio_mc(k, n, eps, delta, rng, samples, workers=1):
    """Tube-volume estimate of the Schubert ratio.

    Counts uniform k-planes whose smallest principal angle to a fixed
    (n-k)-plane is <= eps while the second stays >= delta, scaled by the
    tube width 2*eps.  Requires 0 < eps <= delta < pi/2.  The angles come
    from ``_jacobi_angles``: two uniforms a sample at (k, n) = (2, 4), else
    2 min(k, n-k) - 1 Betas.
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    _check_schubert_window(eps, delta)
    k = min(k, n - k)  # orthocomplement duality: same angles, smaller matrix
    j = n - k  # fixed subspace spans the first n-k coordinates

    def kernel(gen, count):
        angles = _jacobi_angles(gen, count, n, k, j)
        hit = angles[0] <= eps
        if k >= 2:
            hit &= angles[1] >= delta
        return hit.astype(float) / (2.0 * eps), 0

    return run_kernel(
        kernel, rng, samples, workers=workers, method="schubert-ratio-mc"
    )


# ---------------------------------------------------------------------------
# Joint density of the principal angles between a uniform k-plane and a fixed
# l-plane in R^n.
# ---------------------------------------------------------------------------


def _density_log_constant(k, l, n):
    return (
        k * math.log(2.0)
        + 0.5 * k * k * math.log(math.pi)
        + multivariate_gamma_log(k, n / 2.0)
        - multivariate_gamma_log(k, k / 2.0)
        - multivariate_gamma_log(k, l / 2.0)
        - multivariate_gamma_log(k, (n - l) / 2.0)
    )


def _check_density_dims(k, l, n):
    if not 1 <= k <= l:
        raise ValueError("need 1 <= k <= l")
    if k + l > n:
        raise ValueError("need k + l <= n")


def density_pdf(k, l, n, theta):
    """Joint density of the k ascending principal angles at ``theta``."""
    _check_density_dims(k, l, n)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (k,):
        raise ValueError(f"theta must have shape ({k},)")
    if np.any(theta < 0.0) or np.any(theta > math.pi / 2.0 + 1e-15):
        raise ValueError("angles must lie in [0, pi/2]")
    if np.any(np.diff(theta) < 0.0):
        raise ValueError("angles must be ascending")
    return float(math.factorial(k) * _density_symmetrized(k, l, n)(*theta))


def _density_symmetrized(k, l, n):
    """Density extended symmetrically to the whole cube [0, pi/2]^k, over k!.

    The returned function takes k broadcastable arrays of angles.
    """
    c = math.exp(_density_log_constant(k, l, n)) / math.factorial(k)

    def pdf_sym(*angles):
        cos = [np.cos(t) for t in angles]
        value = c
        for t, ct in zip(angles, cos):
            value = value * ct ** (l - k) * np.sin(t) ** (n - l - k)
        for i in range(k):
            for j in range(i + 1, k):
                value = value * abs(cos[i] ** 2 - cos[j] ** 2)
        return value

    return pdf_sym


# largest n of the normalization check: at k = 2 the density's constant
# nears the float range past n = 1000 (log c = 700.5 at l = 500), and k = 1
# keeps the same bound; at k = 3 the rule's (n + 16)^3 nodes take ~0.2 s
# at n = 100
_NORMALIZATION_MAX_N = {1: 1000, 2: 1000, 3: 100}


def density_normalization(k, l, n):
    """Integral of the angle density over the ordered angles; should be 1.

    k <= 3, with n <= 1000 for k <= 2 and n <= 100 for k = 3.  The density
    is smooth on the ordered region 0 <= t_1 <= ... <= t_k <= pi/2, so the
    collapsed Gauss-Legendre rule there (``ordered_simplex_gl``) with
    p = n + 16 points per axis converges to rounding.  ``stderr`` is the
    difference from the rule with p // 2 points.
    """
    _check_density_dims(k, l, n)
    if k > 3:
        raise ValueError("normalization check implemented for k <= 3 only")
    if n > _NORMALIZATION_MAX_N[k]:
        raise ValueError(
            f"normalization check for k = {k} supports "
            f"n <= {_NORMALIZATION_MAX_N[k]} only, got n = {n}"
        )
    pdf_sym = _density_symmetrized(k, l, n)
    p = n + 16
    value = _ordered_integral(pdf_sym, k, p)
    return Estimate(
        value=value,
        stderr=abs(value - _ordered_integral(pdf_sym, k, p // 2)),
        n_samples=0,
        seed=0,
        method="simplex-gauss-legendre",
    )


def _ordered_integral(pdf_sym, k, p):
    """k! times the integral of pdf_sym over the ordered angles, p nodes per axis.

    One pass per node of the largest angle t_k, with the other angles on the
    ordered simplex below it, keeps the arrays at p^(k-1) entries.
    """
    rest, w_rest = ordered_simplex_gl(k - 1, p)
    top, w_top = ordered_simplex_gl(1, p, 0.0, math.pi / 2.0)
    total = 0.0
    for t_k, w_k in zip(top[0], w_top):
        inner = np.sum(w_rest * pdf_sym(*(t_k * rest), t_k))
        total += float(w_k * t_k ** (k - 1) * inner)
    return math.factorial(k) * total


@lru_cache(maxsize=16)
def _gof_expected(k, l, n, bins):
    """Exact bin probabilities on the ordered-angle region, by per-cell GL.

    Cached and read-only, like ``_lattice_sin_cos``: it depends on
    (k, l, n, bins) only, and costs more than a small sampled check.

    For k = 1 each bin sums 8 Gauss-Legendre nodes.  For k = 2 a cell above
    the diagonal (t1 < t2 throughout) takes the 8 x 8 tensor rule, one row
    of bins at a time, which keeps the temporaries at 8 x 8*bins; a diagonal
    cell is the triangle t1 <= t2 of its square, integrated by the collapsed
    8 x 8 rule of ``ordered_simplex_gl``.  Cells below the diagonal are zero.
    """
    pdf_sym = _density_symmetrized(k, l, n)
    edges = np.linspace(0.0, math.pi / 2.0, bins + 1)
    x8, w8 = _leggauss(8)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    t = (mids[:, None] + half * x8[None, :]).ravel()  # bin-major nodes
    w = np.tile(half * w8, bins)

    if k == 1:
        prob = (w * pdf_sym(t)).reshape(bins, 8).sum(axis=1)
        prob.flags.writeable = False
        return prob
    prob = np.zeros((bins, bins))
    for b in range(bins - 1):
        t1, w1 = t[8 * b : 8 * b + 8, None], w[8 * b : 8 * b + 8, None]
        t2, w2 = t[None, 8 * b + 8 :], 2.0 * w[None, 8 * b + 8 :]
        cell = w1 * w2 * pdf_sym(t1, t2)
        prob[b, b + 1 :] = cell.reshape(8, bins - 1 - b, 8).sum(axis=(0, 2))
    s, ws = ordered_simplex_gl(2, 8)  # the unit triangle, scaled to each cell
    width = 2.0 * half
    t1, t2 = edges[:-1, None] + width * s[:, None, :]  # (bins, 64) each
    wd = 2.0 * width * width * ws
    prob[np.diag_indices(bins)] = (wd * pdf_sym(t1, t2)).sum(axis=1)
    prob.flags.writeable = False
    return prob


# bins per angle of the goodness-of-fit histogram
_GOF_BINS = 30


def density_gof(k, l, n, rng, samples, workers=1):
    """L1 distance between sampled and exact binned angle distributions.

    Samples principal angles of uniform k-planes against a fixed l-plane,
    histograms them over a ``_GOF_BINS``^k grid on the ordered region, and
    compares with per-bin quadrature of the density (``_gof_expected``,
    cached).  Supports k <= 2.  The angles come from ``_jacobi_angles``:
    two uniforms a sample at (k, l, n) = (2, 2, 4), else 2k - 1 Betas.
    """
    _check_density_dims(k, l, n)
    if k > 2:
        raise ValueError("goodness-of-fit check implemented for k <= 2 only")
    bins = _GOF_BINS
    width = math.pi / 2.0 / bins

    def histogram(gen, count):
        angles = _jacobi_angles(gen, count, n, k, l)  # (k, count), ascending
        angles /= width
        idx = np.minimum(angles.astype(np.int64), bins - 1)
        flat = idx[0] if k == 1 else idx[0] * bins + idx[1]
        return np.bincount(flat, minlength=bins**k).reshape([bins] * k)

    counts = sum(_run_chunks(histogram, rng, samples, workers))

    expected = _gof_expected(k, l, n, bins)
    empirical = counts.astype(float) / samples
    return float(np.abs(empirical - expected).sum())


# ---------------------------------------------------------------------------
# Gaussian determinant moment check
# ---------------------------------------------------------------------------


def vitale_closed_form(d):
    """E|det G| for a d x d standard Gaussian matrix: d! / (2^{d/2} Gamma(1+d/2))."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return math.exp(
        log_gamma(d + 1.0) - 0.5 * d * math.log(2.0) - log_gamma(1.0 + d / 2.0)
    )


def vitale_check(d, rng, samples, workers=1):
    """Monte Carlo estimate of E|det G| for a d x d Gaussian matrix, d <= 12.

    A chunk draws and reduces its matrices in sub-batches of at most
    ``_BATCH_BYTES`` of Gaussians, one samples-major row per draw, so
    the sub-batches read the same numbers as one draw of the whole chunk.
    A draw is degenerate when its determinant is exactly 0.
    """
    if not 1 <= d <= 12:
        raise ValueError("d must be in [1, 12]")
    batch = max(1, _BATCH_BYTES // (8 * d * d))

    def kernel(gen, count):
        det = np.empty(count)
        for start in range(0, count, batch):
            stop = min(start + batch, count)
            det[start:stop] = small_det(gen.standard_normal((stop - start, d, d)))
        good = det != 0.0
        return np.abs(det[good]), int(count - good.sum())

    return run_kernel(kernel, rng, samples, workers=workers, method="vitale-mc")

