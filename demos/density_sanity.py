# Sanity checks on the principal-angle density.
#
# The angles between a uniform k-plane and a fixed l-plane in R^n have an
# explicit joint density.  Two things can silently go wrong with such a
# formula: the normalizing constant, and the shape.  We test both --
# the constant by quadrature, the shape by comparing a histogram of
# simulated smallest angles against the marginal implied by the density.

from grassdeg.geomlin import RngStream
from grassdeg.mc import density_gof, density_normalization

CASES = [(1, 1, 2), (2, 2, 4), (2, 3, 5)]

for k, l, n in CASES:
    z = density_normalization(k, l, n)
    print(f"integral of the (k={k}, l={l}, n={n}) density: {z.value:.15f}  "
          f"(want 1; rule error {z.stderr:.1e})")

l1 = density_gof(2, 2, 4, RngStream(11, 0), 200_000, workers=4)
print(f"\nhistogram vs density, L1 distance: {l1:.4f}")
print("(30 bins at 2e5 samples; the binning itself contributes a few "
      "hundredths, so < 0.05 is healthy, < 0.02 is what the full-size "
      "acceptance run achieves at 1e6 samples)")
