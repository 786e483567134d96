"""Seeded random inputs that only tests draw: the package's SplitMix64 with
uniform and integer draws over a range, and random discrete densities."""

import numpy as np

from qmoments import rng
from qmoments.core import Exponents
from qmoments.inequalities import DiscreteDensity


class SplitMix64(rng.SplitMix64):
    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive (rejection-free modulo bias
        is irrelevant at these ranges)."""
        if hi < lo:
            raise ValueError("empty integer range")
        span = hi - lo + 1
        return lo + self.next_u64() % span


def random_density(rng, n_points: int) -> DiscreteDensity:
    """Bounded random density: f, g uniform in [0, 2], weights uniform (0, 1]."""
    f = [rng.uniform_in(0.0, 2.0) for _ in range(n_points)]
    g = [rng.uniform_in(0.0, 2.0) for _ in range(n_points)]
    w = [1.0 - rng.uniform() for _ in range(n_points)]
    return DiscreteDensity(f, g, w)


def equality_density(rng, n_points: int, e: Exponents) -> DiscreteDensity:
    """A density on the equality manifold |f|^p proportional to |g|^q."""
    g = np.array([rng.uniform_in(0.05, 2.0) for _ in range(n_points)])
    w = np.array([1.0 - rng.uniform() for _ in range(n_points)])
    f = g ** (e.q / e.p)
    return DiscreteDensity(f, g, w)
