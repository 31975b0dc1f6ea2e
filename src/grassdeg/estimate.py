"""The one result type of every route to a number.

It has a module of its own so that the quadrature routes can return it
without loading the Monte Carlo engine; ``mc`` re-exports it.
"""

from dataclasses import dataclass

__all__ = ["Estimate"]


@dataclass(frozen=True)
class Estimate:
    """The result of every route to a number: its value and its error.

    ``value`` is a float, or a LogValue where the number may overflow (edeg
    and zonoid volumes once k*m > 30).  ``stderr`` is absolute on a float
    and log-scale (relative) on a LogValue.  What it measures depends on the
    method: for Monte Carlo the standard error of the mean (inf after one
    draw), for the torus lattice rule the standard error over its random
    shifts, for quadrature the difference after resolution doubling, for a
    closed form 0, and None only for the sampled goodness-of-fit distance,
    which carries no error estimate.
    ``n_samples`` counts the integrand evaluations a sampled route made:
    the draws requested, or shifts x N on the lattice rule, which makes at
    least as many as requested.  ``value`` averages the non-degenerate
    ones; ``degenerate_count`` of them were excluded.  Where nothing is
    sampled (quadrature, closed forms) ``seed`` and ``n_samples`` are 0.
    """

    value: object
    stderr: float
    n_samples: int
    seed: int
    method: str
    degenerate_count: int = 0

    def scaled(self, factor, method=None):
        """Rescale value and stderr by a positive constant."""
        return Estimate(
            value=self.value * factor,
            stderr=self.stderr * abs(factor),
            n_samples=self.n_samples,
            seed=self.seed,
            method=self.method if method is None else method,
            degenerate_count=self.degenerate_count,
        )
