"""Where the large-n exponent comes from: Laplace's method, watched live.

The asymptotic growth rate of the line counts is the value of a
concentration integral at its maximizer.  laplace_validate() compares
a fixed composite Gauss-Legendre rule (32 nodes on each of 32 panels,
checked against 16 panels) for  integral(lam) = int b(t) exp(-lam a(t)) dt
against the closed leading-order term on a grid of lam values; the
relative error has to die off as lam grows, at a rate set by the first
neglected correction.  a and b take arrays of t.

Two problems are wired up below:
  gaussian -- a(t) = t^2 on [0, 1], the textbook interior/endpoint case;
  lines    -- the exact a(t) from the line-count integrand, built from
              the k=2 radial profile, whose minimum sits at t = pi/4.
"""

import math

import numpy as np

from grassdeg.edeg import LaplaceProblem, laplace_validate
from grassdeg.zonoid import default_profile

gauss = LaplaceProblem(a_at_min=0.0, a0=1.0, mu=2.0, b0=1.0, nu=1.0)
gauss_rows = laplace_validate(lambda t: t * t, np.ones_like, 0.0, 1.0,
                              gauss, [10.0, 100.0, 1000.0])

profile = default_profile()
lines = LaplaceProblem(a_at_min=4.0 * math.log(2.0), a0=3.0, mu=2.0, b0=8.0,
                       nu=2.0)


def a_fn(t):
    c, s = np.cos(t), np.sin(t)
    return -np.log(profile.radius(t) ** 2 * c * s)


def b_fn(t):
    c, s = np.cos(t), np.sin(t)
    return (c * c - s * s) / (c * s) ** 2


line_rows = laplace_validate(a_fn, b_fn, 0.0, math.pi / 4.0,
                             lines, [4.0, 16.0, 64.0])

for name, rows in (("gaussian", gauss_rows), ("lines", line_rows)):
    print(f"problem: {name}")
    print("  lambda     quadrature     quad error     leading term     rel error")
    for row in rows:
        print(f"  {row['lam']:6.0f}   {row['integral']:.8e}   {row['error']:.1e}   "
              f"{row['leading']:.8e}   {row['rel_error']:.2e}")
    print()

print("the gaussian leading term is exact but for the tail beyond t = 1")
print("(erfc(sqrt(lam)), 7.7e-6 at lam = 10), so its rel error drops to")
print("rounding; the lines rel error falls like 1/lambda, with a fat")
print("constant, which is why the closed asymptotic needs very large n")
print("before it lands within a percent of the quadrature.")
