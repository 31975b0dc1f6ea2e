"""grassdeg: expected degree of real Grassmannians and related integral geometry.

The package computes the average number of real k-planes meeting k(n-k)
independent uniformly random (n-k)-planes in R^n, by three independent
routes -- a one-dimensional quadrature through the radial function of the
singular-value zonoid, Monte Carlo estimation of zonoid volumes and scaling
factors, and direct enumerative counting of real transversal lines in RP^3 --
together with the closed-form bounds and the paper's large-n asymptotics
that tie them together.
"""

__version__ = "0.1.0"

import importlib

# Each submodule loads on first access, so a cold command imports only the
# modules it runs: a quadrature never loads the Monte Carlo engine.
_SUBMODULES = ("specfun", "geomlin", "zonoid", "mc", "edeg", "incidence",
               "estimate")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
