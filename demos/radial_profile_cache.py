# Build the k=2 radial profile, look at its shape, and round-trip it
# through the JSON cache format used by `grassdeg profile-build --out`.
#
# The profile is the radial function of the Segre zonoid D(2) on the
# fundamental arc [0, pi/4].  Two of its values are known exactly and the
# builder pins them as knots:
#
#     r(0)    = 1/pi              (axis direction)
#     r(pi/4) = 2^(-3/2)          (the balanced direction, r^2 = 1/8)
#
# Everything between comes from walking the gradient map of the support
# function h, then monotone-cubic interpolation.

import json
import math
import os
import tempfile

import numpy as np

from grassdeg.zonoid import RadialProfile2, build_radial_profile_2, radius_R

profile = build_radial_profile_2(512)
print("knots:", len(profile.knots))
print("first knot:", profile.knots[0], " (exact 1/pi: %.17g)" % (1.0 / math.pi))
print("last knot :", profile.knots[-1], " (exact R_2 : %.17g)" % radius_R(2))

ts = np.linspace(0.0, math.pi / 2.0, 9)
print("\n theta      r(theta)")
for t, r in zip(ts, profile.radius(ts)):
    print(f" {t:7.4f}   {r:.10f}")
print("(the arc folds at pi/4: r(theta) = r(pi/2 - theta))")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "profile.json")
    profile.save(path)
    back = RadialProfile2.load(path)
    assert all(a == b for a, b in zip(profile.knots, back.knots)), "cache must be exact"
    with open(path) as fh:
        doc = json.load(fh)
print(f"\ncache round-trip OK: version {doc['version']}, {len(doc['knots'])} knots")
