"""Volumes of the Segre zonoids C(2, m), three ways.

C(k, m) is the zonoid whose support function is the expected absolute
inner product with a random rank-one matrix.  Its volume enters the
expected-degree chain

    edeg G(2,4) = |G(2,4)| * 4!/2^4 * vol C(2,2),

so getting it right matters.  Routes compared here:

  * radial quadrature over the k=2 profile (deterministic),
  * Vitale's expected-determinant Monte Carlo,
  * and, as a scale reference, the ball of radius R_2 that contains C.
"""

import math

from grassdeg.geomlin import RngStream
from grassdeg.specfun import vol_grassmann_real_log
from grassdeg.zonoid import (
    default_profile,
    vol_ball,
    vol_C_quadrature,
    vol_C_vitale_mc,
)

profile = default_profile()

print(" m    quadrature        vitale MC (+-)          ball cap")
for m in (2, 3, 4):
    vq = vol_C_quadrature(m, profile)
    est = vol_C_vitale_mc(2, m, RngStream(23, m), 150_000)
    cap = vol_ball(2, m)
    print(f" {m}    {vq:.8f}    {est.value:.8f} ({est.stderr:.2e})    {cap:.6f}")

v22 = vol_C_quadrature(2, profile)
chain = v22 * vol_grassmann_real_log(2, 4).exp() * math.factorial(4) / 2**4
print(f"\nchain value |G|*4!/16*vol = {chain:.9f}")
print("which is edeg G(2,4) -- compare demos/three_ways_to_1p73.py")
