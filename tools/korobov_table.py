"""Search for, or check, the rank-1 lattices of the torus integral.

``grassdeg.mc`` averages the torus integrand over randomly shifted rank-1
Korobov lattices: point k of N is frac(k z / N) with z = (1, a, a^2, a^3)
mod N.  The table there holds one (N, a, P2, V) per j = 20, ..., 80:

* N is the first prime >= 2^(j/4), so N runs from 37 to 1 048 583;
* CANDIDATES multipliers are drawn from a fixed seed (every multiplier
  when there are fewer), and the SHORTLIST of them with the least
  P2 = mean_k prod_d (1 + 2 pi^2 B2(x_kd)) - 1, B2(x) = x^2 - x + 1/6, are
  kept.  P2 is the squared worst-case error of the rule over periodic
  functions whose Fourier coefficients decay as prod_d 1/max(1, |h_d|)^2;
* a is the one of those with the least V, the sample variance of the
  torus integrand's means (``mc._lattice_means``) over SCORE_SHIFTS random
  shifts drawn from SCORE_SEED and j.  The integrand has kinks, so P2
  ranks its lattices poorly: at N = 8209, sqrt(V) N of the 24 best by P2
  spans 0.19 to 5.5.

a and N - a give the same P2 (B2(1 - x) = B2(x)), so only a <= (N - 1)/2
is searched.  The search takes about eight minutes on two cores; the check
recomputes every P2 and every V in about 15 s.  Both run the torus
integrand of this checkout's ``src``; besides that they need numpy only.

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
CANDIDATES = 512
SEED = 20250817
SHORTLIST = 24
SCORE_SHIFTS = 64
SCORE_SEED = 7_364_911
P2_TOL = 1e-12
# V recomputes bit for bit on one machine; sin and log may round otherwise
# on another CPU
SCORE_RTOL = 1e-9
WORKERS = os.cpu_count() or 1
MC_PATH = SRC / "grassdeg" / "mc.py"
BEGIN = "_KOROBOV = (  # (N, a, P2, shift variance), written by tools/korobov_table.py\n"
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


def p2(n, a):
    """P2 of the Korobov lattice (n, a) in four dimensions."""
    k = np.arange(n, dtype=np.int64)
    x = k / n
    weight = 1.0 + 2.0 * math.pi**2 * (x * x - x + 1.0 / 6.0)  # at x = k/n
    prod = weight.copy()
    z = 1
    for _ in range(3):
        z = z * a % n
        prod *= weight[k * z % n]
    return float(prod.mean()) - 1.0


def shift_variance(j, n, a):
    """V of the lattice (n, a) of entry j: the sample variance of the torus
    integrand's shift means, over the shifts of entry j."""
    delta = np.random.default_rng([SCORE_SEED, j]).random((SCORE_SHIFTS, 4))
    return float(np.var(mc._lattice_means(n, a, delta, WORKERS), ddof=1))


def search(j):
    """(N, a, P2, V) of entry j: of the SHORTLIST best candidates by P2,
    the one with the least V."""
    n = lattice_size(j)
    half = (n - 1) // 2
    if half - 1 <= CANDIDATES:
        candidates = np.arange(2, half + 1)
    else:
        gen = np.random.default_rng([SEED, j])
        candidates = np.sort(gen.choice(np.arange(2, half + 1), CANDIDATES,
                                        replace=False))
    shortlist = sorted((p2(n, int(a)), int(a)) for a in candidates)[:SHORTLIST]
    score, a, value = min((shift_variance(j, n, a), a, value)
                          for value, a in shortlist)
    return n, a, value, score


def read():
    """The table as it stands in mc.py, read as text."""
    text = MC_PATH.read_text()
    start, stop = text.index(BEGIN), text.index(END)
    return ast.literal_eval("(" + text[start + len(BEGIN):stop] + ")")


def write(entries):
    text = MC_PATH.read_text()
    start, stop = text.index(BEGIN), text.index(END)
    rows = "".join(f"    ({n}, {a}, {value!r}, {score!r}),\n"
                   for n, a, value, score in entries)
    MC_PATH.write_text(text[:start] + BEGIN + rows + text[stop:])


def check(table):
    """Every failure of the stored table, as text; empty when it is sound."""
    failures = []
    if len(table) != len(J_RANGE):
        failures.append(f"{len(table)} entries, expected {len(J_RANGE)}")
    for j, (n, a, stored, score) in zip(J_RANGE, table):
        if n != lattice_size(j):
            failures.append(f"j = {j}: N = {n}, expected {lattice_size(j)}")
        if math.gcd(a, n) != 1 or not 1 < a < n:
            failures.append(f"N = {n}: a = {a} is not a unit other than 1")
            continue
        recomputed = p2(n, a)
        if abs(recomputed - stored) > P2_TOL:
            failures.append(f"N = {n}, a = {a}: P2 {recomputed!r}, stored {stored!r}")
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
        n, a, value, score = entries[-1]
        print(f"j = {j}: N = {n}, a = {a}, P2 = {value:.6g}, "
              f"sqrt(V) N = {math.sqrt(score) * n:.4g}", flush=True)
    write(entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
