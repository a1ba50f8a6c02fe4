"""Learning junta distributions from samples.

For every subset S of at most k variables, estimate the coefficient
``q(S) = (1 / T) sum_s chi_S(x^s)`` of the density relative to uniform,
``q = 2^n p`` (2^n times the paper's mean-of-characters coefficient, so
nothing underflows at large n), zero everything with magnitude at or below
``eps / (2 * sqrt(2^k))``, read the relevant variables off the surviving
supports, and round the rebuilt function to a proper distribution by
clipping negatives on the 2^k junta block and dividing the block by its
sum. At the stated sample count the thresholded coefficients land within
the analysis window with high probability, giving total variation error
O(eps).

Nothing here takes 2^n memory or time. Truths and results are
``hypercube.Distribution`` junta values, (variables, block); the sampler
draws a block index and fair bits for the other variables, and the sums of
all low-degree characters are the exact ``hypercube.block_totals`` of the
samples' bits. Samples are a 1-D int64 array of point masks, so n is at
most ``hypercube.MAX_POINT_VARS`` = 62, and a low-degree spectrum is a pair
of arrays: ascending subset masks and their values. The learners take their
parameters (k, eps, delta, c) as arguments and check them where they are
used; callers read the samples spent from the sampler's ``samples_used``,
the only count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hypercube import Distribution, block_totals, variables_to_mask, walsh_hadamard

DEFAULT_C = 8.0


class SimulatedSampler:
    """Sample oracle backed by a known Distribution; successful call i draws
    from an RNG keyed (seed, i), so runs replay exactly, and adds its points
    to ``samples_used``. A call that raises spends nothing.

    A point is a block index, one uniform searched in the block's
    cumulative, with n - |K| fair bits for the other variables, all drawn
    after the uniforms; a dense distribution adds no bits."""

    def __init__(self, dist: Distribution, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        self.n = dist.n
        self._cumulative = np.cumsum(dist.block)
        self._free_bits = dist.n - len(dist.variables)
        # Runs of adjacent variables, in or out of the block, from variable n (bit 0) up.
        self._runs = [(inside, len(list(run))) for inside, run in
                      itertools.groupby(var in dist.variables for var in range(dist.n, 0, -1))]
        self._seed = int(seed)
        self._calls = 0
        self._samples = 0

    @property
    def samples_used(self) -> int:
        return self._samples

    def draw(self, count: int) -> np.ndarray:
        """``count`` i.i.d. point masks, as a 1-D int64 array."""
        rng = np.random.default_rng([self._seed, self._calls])
        uniforms = rng.random(count)
        # Ascending needles walk the cumulative in order, which is cache
        # friendly; the scatter puts each index back at its uniform's draw.
        # Equal uniforms find equal indices, so the order among ties is free.
        order = np.argsort(uniforms)
        index = np.empty(count, dtype=np.int64)
        index[order] = np.searchsorted(self._cumulative, uniforms[order], side="right")
        np.minimum(index, self._cumulative.size - 1, out=index)
        free = rng.integers(0, 1 << self._free_bits, count)
        points = np.zeros(count, dtype=np.int64)
        shift = 0
        for inside, width in self._runs:
            bits = index if inside else free
            points |= (bits & (1 << width) - 1) << shift
            bits >>= width
            shift += width
        self._calls, self._samples = self._calls + 1, self._samples + uniforms.size
        return points


def sample_count_dist(n: int, k: int, eps: float, delta: float, c: float = DEFAULT_C) -> int:
    """ceil(c * 2^k * max(k, 1) * ln(n / delta) / eps^2)."""
    if not (0 < delta < 1 and 0 < eps < 1 and 0 <= k <= n and c > 0):
        raise ValueError("invalid sample-count parameters")
    return max(1, math.ceil(c * 2**k * max(k, 1) * math.log(n / delta) / eps**2))


def empirical_relative_spectrum(points, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the density relative to uniform, q = 2^n p, for every
    |S| <= k: q(S) = (1/T) sum_s chi_S(x^s), as ascending masks and values.

    The sums of chi_S are the block totals of the points' bits under the 2 x 2
    Hadamard matrix, in float64 for BLAS speed. This scale keeps magnitudes
    O(1) at any n."""
    points = np.ascontiguousarray(points, dtype=np.int64)
    if points.ndim != 1 or points.size == 0:
        raise ValueError(f"need a nonempty 1-D array of sample points, got shape {points.shape}")
    if points.min() < 0 or points.max() >= 1 << n:
        raise ValueError(f"sample points must lie in [0, 2^{n}), got {points.min()}..{points.max()}")
    masks, totals = block_totals(
        [[1.0, 1.0], [1.0, -1.0]], lambda cols: points >> (n - cols.stop) & (1 << len(cols)) - 1, points.size, n, k
    )
    return masks, totals / points.size


def dist_threshold_cutoff(k: int, eps: float) -> float:
    """Relative-scale coefficients with magnitude at or below this are zeroed."""
    return eps / (2.0 * math.sqrt(2**k))


def threshold_spectrum(masks, values, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Drop coefficients with |value| <= tau; everything else is untouched."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    keep = np.abs(values) > tau
    return masks[keep], values[keep]


def select_junta_variables(masks, values, n: int, k: int) -> tuple[int, ...]:
    """Union of surviving supports; if noise pushed it past k variables, keep
    the k largest by their share of squared coefficient mass."""
    # Column i - 1 of the bit matrix is variable i.
    rows, cols = np.nonzero(masks[:, None] >> np.arange(n - 1, -1, -1) & 1)
    union = [int(col) + 1 for col in np.unique(cols)]
    if len(union) <= k:
        return tuple(union)
    # bincount adds in input order, i.e. by ascending mask per variable.
    energy = np.bincount(cols, weights=values[rows] ** 2, minlength=n)
    ranked = sorted(union, key=lambda var: (-energy[var - 1], var))
    return tuple(sorted(ranked[:k]))


def round_to_distribution(masks, values, n: int, variables: tuple[int, ...]) -> Distribution:
    """Clip the junta block's negatives and renormalize: the rebuilt function
    restricted to the junta variables is evaluated on its 2^|K| points,
    negatives go to zero, and the block is divided by its sum. Coefficients
    on sets outside the junta variables are ignored."""
    k = len(variables)
    inside = masks & ~variables_to_mask(variables, n) == 0
    # A set's index in the block reads its junta variables in order, the
    # first one most significant.
    local = np.zeros(np.count_nonzero(inside), dtype=np.int64)
    for var in variables:
        local = local << 1 | masks[inside] >> (n - var) & 1
    block = np.zeros(1 << k)
    block[local] = values[inside]
    block = np.clip(walsh_hadamard(block), 0.0, None)
    normalizer = float(block.sum())
    if normalizer <= 0.0:
        # Unreachable through the learner (the empty set always survives with
        # positive weight), but adversarial spectra land on uniform.
        return Distribution.uniform(n)
    return Distribution(n, block / normalizer, variables)


@dataclass
class DistLearnResult:
    distribution: Distribution
    surviving_masks: np.ndarray


def learn_junta_from_spectrum(masks, values, n: int, k: int, eps: float) -> DistLearnResult:
    """Threshold, variable selection, and rounding on precomputed
    relative-scale coefficients q = 2^n p of the subsets ``masks``.

    Exact coefficients give a k-junta back only if all its nonzero ones clear
    ``dist_threshold_cutoff(k, eps)``, which drops the truth's small ones too.
    """
    if not (0 <= k <= n and 0.0 < eps < 1.0):
        raise ValueError(f"need 0 <= k <= n = {n} and 0 < eps < 1, got k = {k}, eps = {eps}")
    masks, relative = threshold_spectrum(
        np.asarray(masks, dtype=np.int64), np.asarray(values, dtype=np.float64), dist_threshold_cutoff(k, eps)
    )
    variables = select_junta_variables(masks, relative, n, k)
    inside = masks & ~variables_to_mask(variables, n) == 0
    masks, relative = masks[inside], relative[inside]
    return DistLearnResult(
        distribution=round_to_distribution(masks, relative, n, variables),
        surviving_masks=masks,
    )


def learn_junta_distribution(
    sampler: SimulatedSampler, k: int, eps: float, delta: float, c: float = DEFAULT_C
) -> DistLearnResult:
    """Draw the prescribed number of samples and run the full pipeline."""
    n = sampler.n
    masks, values = empirical_relative_spectrum(sampler.draw(sample_count_dist(n, k, eps, delta, c)), n, k)
    return learn_junta_from_spectrum(masks, values, n, k, eps)


def random_junta_distribution(
    n: int, k: int, rng: np.random.Generator
) -> tuple[Distribution, tuple[int, ...]]:
    """A planted k-junta: flat Dirichlet weights on a random k-variable block,
    uniform on the rest. Returns the distribution and its relevant variables."""
    variables = tuple(sorted(int(v) + 1 for v in rng.choice(n, size=k, replace=False)))
    block = rng.dirichlet([1.0] * (1 << k)) if k else np.array([1.0])
    return Distribution(n, block, variables), variables
