"""Search for, or check, the rank-1 lattices of the torus integral.

``grassdeg.mc`` averages the torus integrand over randomly shifted rank-1
Korobov lattices: point k of N is frac(k z / N) with z = (1, a, a^2, a^3)
mod N.  The table there holds one (N, a, V) per j = 20, ..., 80:

* N is the first prime >= 2^(j/4), so N runs from 37 to 1 048 583;
* the candidates for a are every multiplier in [2, (N - 1)/2] up to
  j = EXHAUSTIVE_J (N = 32 771), and CANDIDATES multipliers drawn from a
  fixed seed above it;
* stage 1 scores every candidate by the sample variance of the torus
  integrand's shift means (``mc._lattice_means``) over SCREEN_SHIFTS random
  shifts drawn from SCREEN_SEED and j;
* stage 2 rescores the FINALISTS best of stage 1 on SCORE_SHIFTS shifts
  drawn from SCORE_SEED and j, and a is the one with the least of that
  variance, V.

Both stages score the integrand itself, which has kinks: a figure of merit
for smooth periodic functions ranks its lattices poorly.  At N = 16 411
sqrt(V) N over all 8 204 multipliers runs from 0.096 to a median of 0.61.

Up to EXHAUSTIVE_J stage 1 costs SCREEN_SHIFTS N^2 / 2 evaluations of the
integrand.  The search took 36 minutes on two cores, about 14 of them up to
EXHAUSTIVE_J.  The check recomputes every V, and reruns the whole search
for j <= 32 (N <= 257), in about 15 s.  Both run the torus integrand of this
checkout's ``src``; besides that they need numpy only.

    python tools/korobov_table.py           # search; rewrite the table in mc.py
    python tools/korobov_table.py --check   # verify the table in mc.py
"""

import argparse
import ast
import math
import os
import pathlib
import sys

import numpy as np

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from grassdeg import mc  # noqa: E402

J_RANGE = range(20, 81)
EXHAUSTIVE_J = 60
CANDIDATES = 512
SEED = 20250817
SCREEN_SHIFTS = 8
SCREEN_SEED = 4_181_503
FINALISTS = 16
SCORE_SHIFTS = 64
SCORE_SEED = 7_364_911
# the check reruns the search up to here
CHECK_SEARCH_J = 32
# V recomputes bit for bit on one machine; sin and log may round otherwise
# on another CPU
SCORE_RTOL = 1e-9
WORKERS = os.cpu_count() or 1
MC_PATH = SRC / "grassdeg" / "mc.py"
BEGIN = "_KOROBOV = (  # (N, a, shift variance), written by tools/korobov_table.py\n"
END = ")  # end of the table written by tools/korobov_table.py\n"


def is_prime(n):
    if n < 2:
        return False
    return all(n % p for p in range(2, math.isqrt(n) + 1))


def lattice_size(j):
    """The first prime >= 2^(j/4), in integer arithmetic."""
    root = math.isqrt(math.isqrt(2**j))  # floor(2^(j/4))
    n = root if root**4 == 2**j else root + 1
    while not is_prime(n):
        n += 1
    return n


def candidates(j, n):
    """The multipliers searched for entry j: all of [2, (N - 1)/2] up to
    EXHAUSTIVE_J, else CANDIDATES of them from a fixed seed."""
    half = (n - 1) // 2
    if j <= EXHAUSTIVE_J:
        return np.arange(2, half + 1)
    gen = np.random.default_rng([SEED, j])
    return np.sort(gen.choice(np.arange(2, half + 1), CANDIDATES, replace=False))


def variance(n, a, delta):
    """The sample variance of the torus integrand's means over the shifts
    ``delta`` of the lattice (n, a)."""
    return float(np.var(mc._lattice_means(n, a, delta, WORKERS), ddof=1))


def shift_variance(j, n, a):
    """V of the lattice (n, a) of entry j: the variance over the
    SCORE_SHIFTS shifts of entry j."""
    delta = np.random.default_rng([SCORE_SEED, j]).random((SCORE_SHIFTS, 4))
    return variance(n, a, delta)


def search(j):
    """(N, a, V) of entry j: of the FINALISTS best candidates on the
    screening shifts, the one with the least V."""
    n = lattice_size(j)
    screen = np.random.default_rng([SCREEN_SEED, j]).random((SCREEN_SHIFTS, 4))
    ranked = sorted((variance(n, int(a), screen), int(a)) for a in candidates(j, n))
    score, a = min((shift_variance(j, n, a), a) for _, a in ranked[:FINALISTS])
    return n, a, score


def read():
    """The table as it stands in mc.py, read as text."""
    text = MC_PATH.read_text()
    start, stop = text.index(BEGIN), text.index(END)
    return ast.literal_eval("(" + text[start + len(BEGIN):stop] + ")")


def write(entries):
    text = MC_PATH.read_text()
    start, stop = text.index(BEGIN), text.index(END)
    rows = "".join(f"    ({n}, {a}, {score!r}),\n" for n, a, score in entries)
    MC_PATH.write_text(text[:start] + BEGIN + rows + text[stop:])


def check(table):
    """Every failure of the stored table, as text; empty when it is sound."""
    failures = []
    if len(table) != len(J_RANGE):
        failures.append(f"{len(table)} entries, expected {len(J_RANGE)}")
    for j, (n, a, score) in zip(J_RANGE, table):
        if n != lattice_size(j):
            failures.append(f"j = {j}: N = {n}, expected {lattice_size(j)}")
        if math.gcd(a, n) != 1 or not 1 < a < n:
            failures.append(f"N = {n}: a = {a} is not a unit other than 1")
            continue
        if j <= CHECK_SEARCH_J:
            _, found, found_score = search(j)
            if found != a or not math.isclose(found_score, score, rel_tol=SCORE_RTOL):
                failures.append(f"N = {n}: the search finds a = {found}, "
                                f"V {found_score!r}; stored a = {a}, V {score!r}")
            continue
        recomputed = shift_variance(j, n, a)
        if not math.isclose(recomputed, score, rel_tol=SCORE_RTOL):
            failures.append(f"N = {n}, a = {a}: V {recomputed!r}, stored {score!r}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="verify the table in mc.py instead of searching")
    args = parser.parse_args(argv)
    if args.check:
        table = read()
        failures = check(table)
        for line in failures:
            print(line, file=sys.stderr)
        print(f"{len(table)} lattices checked, {len(failures)} failures")
        return 1 if failures else 0
    entries = []
    for j in J_RANGE:
        entries.append(search(j))
        n, a, score = entries[-1]
        print(f"j = {j}: N = {n}, a = {a}, sqrt(V) N = {math.sqrt(score) * n:.4g}",
              flush=True)
    write(entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
