"""Three independent routes to the same number.

The average count of real lines meeting four random lines in projective
3-space is about 1.7262.  This script computes it three ways that share
no code path past the RNG:

  1. brute force -- draw four lines, count their common transversals, and
     count them again for three sign images of the draw (the second point
     on S^2 negated on lines {2,3}, {1,3} and {1,2}), each with the law
     of the draw;
  2. an integral over a flat torus (the kinematic route): the integrand's
     closed-form mean over one angle pair, averaged over the other four
     angles by a randomly shifted rank-1 lattice rule, whose shifts give
     its standard error;
  3. deterministic radial quadrature over the k=2 zonoid profile.

Agreement of all three to within Monte Carlo error is the package's
strongest self-check, and is what the acceptance suite automates.
"""

import time

from grassdeg.geomlin import RngStream
from grassdeg.mc import edeg24_integral
from grassdeg.edeg import edeg_lines_quadrature
from grassdeg.incidence import edeg24_transversal_mc

SAMPLES = 400_000
SEED = 7

t0 = time.perf_counter()
mc = edeg24_transversal_mc(RngStream(SEED, 0), SAMPLES, workers=4)
t1 = time.perf_counter()
tor = edeg24_integral(mode="mc", rng=RngStream(SEED, 1), samples=SAMPLES, workers=4)
t2 = time.perf_counter()
quad = edeg_lines_quadrature(3)
t3 = time.perf_counter()

print(f"transversal counting    : {mc.value:.9f} +- {mc.stderr:.9f}   ({t1 - t0:.1f}s)")
print(f"torus integral (lattice): {tor.value:.9f} +- {tor.stderr:.9f}   ({t2 - t1:.1f}s)")
print(f"radial quadrature       : {float(quad.value):.9f}                  ({t3 - t2:.2f}s)")

gap1 = abs(mc.value - float(quad.value)) / mc.stderr
gap2 = abs(tor.value - float(quad.value)) / tor.stderr
print(f"\nThe sampled routes sit {gap1:.2f} and {gap2:.2f} sigma from the quadrature value.")
print("Anything beyond ~3 sigma would mean one of the three derivations is wrong.")
