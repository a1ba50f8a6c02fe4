"""Junta-distribution learner, and a sparse low-degree function learner
kept here as a test of the Walsh transform on labeled examples."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from juntalab import cli, dist_learn, hypercube
from juntalab.dist_learn import (
    DEFAULT_C,
    SimulatedSampler,
    empirical_relative_spectrum,
    learn_junta_distribution,
    learn_junta_from_spectrum,
    random_junta_distribution,
    sample_count_dist,
    select_junta_variables,
    threshold_spectrum,
)
from juntalab.hypercube import (
    Distribution,
    block_totals,
    fourier_transform,
    group_width,
    tv_distance,
    variables_to_mask,
    walsh_hadamard,
)


def low_degree_masks(n: int, k: int) -> np.ndarray:
    """The masks of every subset of [n] with at most k elements, ascending."""
    return np.flatnonzero(np.bitwise_count(np.arange(1 << n)) <= k)


def empirical_coefficient(points: np.ndarray, n: int, subset: int) -> float:
    """p'(S) = (1 / (2^n T)) sum_s chi_S(x^s); unbiased for the true p(S).

    The empty set always evaluates to exactly 2^-n.
    """
    mask = int(subset.__index__() if hasattr(subset, "__index__") else subset)
    if not 0 <= mask < 1 << n:
        raise ValueError("subset mask out of range")
    overlap = points & mask
    parity = np.zeros_like(overlap)
    while overlap.max(initial=0) > 0:
        parity ^= overlap & 1
        overlap >>= 1
    total = int(points.size - 2 * int(parity.sum()))
    return total / ((1 << n) * points.size)


def low_degree_value(points: np.ndarray, n: int, k: int, mask: int) -> float:
    """The pipeline's estimate at one mask of size at most k, divided by 2^n
    to the mean-of-characters scale (an exact float scaling)."""
    masks, values = empirical_relative_spectrum(points, n, k)
    return values[np.searchsorted(masks, mask)] / (1 << n)


def dense_values(dist: Distribution) -> np.ndarray:
    """The 2^n point probabilities of a junta distribution: its block over
    2^(n-|K|), broadcast to the cube. The tests' dense reference."""
    block = dist.block * 2.0 ** (len(dist.variables) - dist.n)
    return hypercube._broadcast_junta(block, dist.n, dist.variables)


def dense_spectrum_of(dist: Distribution) -> np.ndarray:
    return fourier_transform(dense_values(dist))


def dense_draw(dist: Distribution, seed: int, count: int) -> np.ndarray:
    """The first ``count`` points of the dense cumulative sampler: the first
    ``count`` uniforms of its (seed, 0) stream searched in the cumulative of
    all 2^n point probabilities."""
    uniforms = np.random.default_rng([seed, 0]).random(count)
    cumulative = np.cumsum(dense_values(dist))
    return np.minimum(np.searchsorted(cumulative, uniforms, side="right"), 2**dist.n - 1)


def broadcast_reference(block, n, variables):
    """The dense junta as one broadcast axis per variable, then copied."""
    shape = [1] * n
    for var in variables:
        shape[var - 1] = 2
    return np.broadcast_to(block.reshape(shape), (2,) * n).reshape(-1)


def round_reference(masks, values, n, variables):
    """The rounding's block as the dense distribution that the rounding
    built before distributions were junta values: broadcast per variable and
    copied again by the Distribution constructor."""
    k = len(variables)
    inside = masks & ~variables_to_mask(variables, n) == 0
    local = np.zeros(np.count_nonzero(inside), dtype=np.int64)
    for var in variables:
        local = local << 1 | masks[inside] >> (n - var) & 1
    block = np.zeros(1 << k)
    block[local] = values[inside]
    block = np.clip(walsh_hadamard(block), 0.0, None)
    normalizer = float(2 ** (n - k) * block.sum())
    return Distribution(n, broadcast_reference(block / normalizer, n, variables))


# k = 0, k = n, adjacent runs, the first and the last variable.
JUNTA_SETS = [
    (1, ()), (1, (1,)), (5, ()), (5, (1, 2, 3, 4, 5)), (8, (1,)), (8, (8,)),
    (12, (1, 12)), (10, (2, 4, 6, 8, 10)), (16, (7, 8, 9)), (16, (1, 2, 15, 16)),
    (16, (3, 9, 15)),
]


def dense_spectrum(n, coeffs):
    """The 2^n coefficient vector with the given {mask: value} entries."""
    dense = np.zeros(1 << n)
    for mask, value in coeffs.items():
        dense[mask] = value
    return dense


class TestSampleCount:
    def test_frozen_arithmetic(self):
        # ceil(8 * 2^3 * 3 * ln(10/0.1) / 0.2^2), computed independently
        want = math.ceil(8 * 8 * 3 * math.log(100.0) / 0.04)
        assert want == 22105
        assert sample_count_dist(10, 3, 0.2, 0.1, 8.0) == want

    def test_k_zero_guard(self):
        assert sample_count_dist(10, 0, 0.2, 0.1, 8.0) == math.ceil(
            8 * math.log(100.0) / 0.04
        )

    def test_doubling_c_doubles_up_to_ceiling(self):
        t1 = sample_count_dist(12, 2, 0.3, 0.05, 4.0)
        t2 = sample_count_dist(12, 2, 0.3, 0.05, 8.0)
        # exact doubling holds before the ceiling; after it, off by at most one
        assert t2 <= 2 * t1 <= t2 + 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sample_count_dist(4, 5, 0.2, 0.1)
        with pytest.raises(ValueError):
            sample_count_dist(4, 1, 1.2, 0.1)


class TestEmpiricalCoefficient:
    def test_empty_set_exact(self):
        assert low_degree_value(np.array([3, 9, 0, 15]), 4, 2, 0) == 2.0**-4

    def test_constant_sample_set(self):
        # every sample equals x: estimate is chi_S(x) / 2^n exactly
        points = np.full(10, 0b101)
        mask = variables_to_mask([1, 2], 3)
        assert low_degree_value(points, 3, 2, mask) == -(2.0**-3)
        mask2 = variables_to_mask([1, 3], 3)
        assert low_degree_value(points, 3, 2, mask2) == 2.0**-3

    def test_uniform_hoeffding_window(self):
        # repeated resamples of size 1e5: |estimate| <= 5 / (2^n sqrt(T))
        # with frequency >= 0.999
        n, trials, draws = 6, 120, 100_000
        rng = np.random.default_rng(404)
        mask = 0b100000
        hits = 0
        bound = 5.0 / ((1 << n) * math.sqrt(draws))
        for _ in range(trials):
            points = rng.integers(0, 1 << n, size=draws)
            if abs(low_degree_value(points, n, 1, mask)) <= bound:
                hits += 1
        assert hits / trials >= 0.999

    def test_unbiased_over_resamples(self):
        # mean over many small resamples within 5 standard errors of truth
        n, resamples, draws = 4, 4000, 64
        rng = np.random.default_rng(70)
        truth, _ = random_junta_distribution(n, 2, rng)
        exact = dense_spectrum_of(truth)
        mask = variables_to_mask([1, 2], n)
        sampler = SimulatedSampler(truth, seed=12)
        estimates = [
            low_degree_value(sampler.draw(draws), n, 2, mask) for _ in range(resamples)
        ]
        single_std = 1.0 / ((1 << n) * math.sqrt(draws))
        standard_error = single_std / math.sqrt(resamples)
        assert abs(np.mean(estimates) - exact[mask]) <= 5 * standard_error


class TestSpectrumEstimation:
    def test_histogram_path_matches_per_subset(self):
        rng = np.random.default_rng(5)
        truth, _ = random_junta_distribution(6, 2, rng)
        points = SimulatedSampler(truth, seed=3).draw(2000)
        masks, values = empirical_relative_spectrum(points, 6, 2)
        assert masks.tolist() == [m for m in range(1 << 6) if m.bit_count() <= 2]
        for mask, value in zip(masks, values):
            assert value / 2**6 == empirical_coefficient(points, 6, int(mask))


def dense_relative_spectrum(points, n, k):
    """The estimator as one Walsh transform over the full 2^n histogram."""
    masks = low_degree_masks(n, k)
    histogram = np.bincount(points, minlength=1 << n)
    return masks, walsh_hadamard(histogram)[masks] / points.size


class TestBlockHistogramEstimator:
    # (n, k, T) -> group width: 2, 3, 5 (each with a narrower last group),
    # 4 (four equal groups, and five at the learn-dist benchmark cell), and the
    # single block (T = 1, k = n, k = 0, small n and T, n = 1, where it is
    # width 1). At n >= 2 width 1 never wins the search: it takes 2^k times
    # the blocks of width 2 to save at most half their bins.
    CASES = [(19, 5, 50), (14, 3, 100), (13, 2, 300), (16, 2, 3000), (20, 3, 25432),
             (10, 2, 1), (8, 2, 50), (12, 3, 500), (9, 1, 1000), (6, 6, 100),
             (5, 0, 7), (1, 0, 5), (1, 1, 1), (10, 3, 22105)]

    def test_sweep_covers_widths_and_single_block(self):
        widths = {group_width(n, k, T, 2) for n, k, T in self.CASES}
        assert {1, 2, 3, 4, 5} <= widths
        assert any(group_width(n, k, T, 2) == n > 1 for n, k, T in self.CASES)

    def test_tiny_sample_gets_few_blocks(self):
        def blocks(n, k, T):
            groups = -(-n // group_width(n, k, T, 2))
            return math.comb(groups, min(k, groups))

        # Without a per-block cost these took C(10, 2) and C(24, 4) blocks.
        assert blocks(10, 2, 1) == 1
        assert blocks(24, 4, 1) <= 70

    @pytest.mark.parametrize("n,k,T", CASES)
    def test_bitwise_equal_to_dense_transform(self, n, k, T):
        points = np.random.default_rng(n * 1000 + T).integers(0, 1 << n, T)
        masks, values = empirical_relative_spectrum(points, n, k)
        want_masks, want = dense_relative_spectrum(points, n, k)
        assert np.array_equal(masks, want_masks)
        assert values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,k", [(7, 2), (8, 3), (5, 5)])
    def test_bitwise_equal_at_every_width(self, n, k, monkeypatch):
        points = np.random.default_rng(n).integers(0, 1 << n, 300)
        want_masks, want = dense_relative_spectrum(points, n, k)
        for g in range(1, n + 1):
            monkeypatch.setattr(hypercube, "group_width", lambda *args, g=g: g)
            masks, values = empirical_relative_spectrum(points, n, k)
            assert np.array_equal(masks, want_masks)
            assert values.tobytes() == want.tobytes()

    def test_kernel_at_every_width_at_the_benchmark_cell(self, monkeypatch):
        # The learn-dist-n20 cell, with the caller's float64 Hadamard matrix;
        # widths of seven or more make one block of all 20 bits.
        n, k, T = 20, 3, 25432
        points = np.random.default_rng(20).integers(0, 1 << n, T)
        want_masks, want = dense_relative_spectrum(points, n, k)
        bits = [points >> n - 1 - col & 1 for col in range(n)]
        for g in range(1, n + 1):
            monkeypatch.setattr(hypercube, "group_width", lambda *args, g=g: g)
            masks, totals = block_totals(
                [[1.0, 1.0], [1.0, -1.0]], lambda cols: sum(bits[col] << cols.stop - 1 - col for col in cols), T, n, k
            )
            assert masks.dtype == totals.dtype == np.int64
            assert masks.tobytes() == want_masks.tobytes()
            assert (totals / T).tobytes() == want.tobytes()


class TestThreshold:
    def test_zero_threshold_is_identity(self):
        masks, values = np.array([0, 3]), np.array([0.5, -0.25])
        got_masks, got_values = threshold_spectrum(masks, values, 0.0)
        assert np.array_equal(got_masks, masks) and np.array_equal(got_values, values)

    def test_all_below_gives_empty(self):
        masks, _ = threshold_spectrum(np.array([1, 2]), np.array([0.1, -0.05]), 0.1)
        assert masks.size == 0

    def test_boundary_is_zeroed(self):
        masks, _ = threshold_spectrum(np.array([1]), np.array([0.25]), 0.25)
        assert masks.size == 0

    def test_mixed_matches_filter_oracle(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal(16) * 0.1
        tau = 0.07
        masks, kept = threshold_spectrum(np.arange(16), values, tau)
        want = {m: float(v) for m, v in enumerate(values) if abs(v) > tau}
        assert dict(zip(masks.tolist(), kept.tolist())) == want


class TestDenseBuilders:
    """The junta values that the builders return are, up to rounding, the
    dense 2^n arrays that they built before: per-variable broadcasts copied
    by the Distribution constructor. ``_broadcast_junta``, which now embeds
    a junta in the union of two variable sets for ``tv_distance``, is
    bitwise equal to the per-variable broadcast."""

    @pytest.mark.parametrize("n,variables", JUNTA_SETS)
    def test_broadcast_matches_per_variable_axes(self, n, variables):
        block = np.random.default_rng(n).random(1 << len(variables))
        got = hypercube._broadcast_junta(block, n, variables)
        assert got.tobytes() == broadcast_reference(block, n, variables).tobytes()
        assert got.flags.c_contiguous and got.flags.writeable
        assert not np.shares_memory(got, block)

    @pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (6, 0), (6, 6), (12, 3), (16, 4)])
    def test_random_junta_distribution_matches_copying_path(self, n, k):
        for seed in range(3):
            got, variables = random_junta_distribution(n, k, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            want_variables = tuple(sorted(int(v) + 1 for v in rng.choice(n, size=k, replace=False)))
            block = rng.dirichlet([1.0] * (1 << k)) if k else np.array([1.0])
            dense = broadcast_reference(block, n, want_variables)
            assert variables == got.variables == want_variables
            want = Distribution(n, dense / dense.sum()).block
            np.testing.assert_allclose(dense_values(got), want, rtol=4 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("n,variables", JUNTA_SETS)
    def test_round_to_distribution_matches_copying_path(self, n, variables):
        rng = np.random.default_rng(len(variables) + n)
        masks = low_degree_masks(n, min(n, 3))
        for noise in (0.0, 0.05, 0.5):
            truth = random_junta_distribution(n, len(variables), rng)[0]
            relative = dense_spectrum_of(truth)[masks] * float(1 << n)
            relative += noise * rng.standard_normal(masks.size)
            relative[0] = 1.0
            got = dist_learn.round_to_distribution(masks, relative, n, variables)
            want = round_reference(masks, relative, n, variables)
            assert got.variables == variables
            np.testing.assert_allclose(dense_values(got), want.block, rtol=4 * np.finfo(float).eps, atol=0)


class TestJuntaLearner:
    def test_uniform_k0_exact(self):
        truth = Distribution.uniform(6)
        result = learn_junta_distribution(SimulatedSampler(truth, seed=2), k=0, eps=0.3, delta=0.1)
        assert result.distribution.block.tolist() == truth.block.tolist() == [1.0]
        assert result.distribution.variables == ()

    def test_exact_coefficients_give_identity(self):
        rng = np.random.default_rng(14)
        truth, variables = random_junta_distribution(8, 3, rng)
        masks = low_degree_masks(8, 3)
        exact = dense_spectrum_of(truth)[masks] * 2**8
        result = learn_junta_from_spectrum(masks, exact, 8, k=3, eps=0.2)
        assert result.distribution.variables == variables
        assert tv_distance(result.distribution, truth) <= 1e-12

    @pytest.mark.parametrize("seed, clear", [(1, True), (7, False)])
    def test_exact_coefficients_give_identity_only_above_the_cutoff(self, seed, clear):
        # At seed 7 a nonzero coefficient of the planted junta is under the
        # cutoff, so the threshold drops it and the result misses the truth.
        n, k, eps = 10, 3, 0.2
        truth, variables = random_junta_distribution(n, k, np.random.default_rng([seed, 0]))
        masks = low_degree_masks(n, k)
        exact = dense_spectrum_of(truth)[masks] * 2**n
        smallest = np.abs(exact[np.abs(exact) > 1e-12]).min()
        assert (smallest > dist_learn.dist_threshold_cutoff(k, eps)) == clear
        result = learn_junta_from_spectrum(masks, exact, n, k, eps)
        assert result.distribution.variables == variables
        tv = tv_distance(result.distribution, truth)
        assert tv < 1e-12 if clear else tv == pytest.approx(0.0209, abs=1e-4)

    def test_monte_carlo_within_eps(self):
        rng = np.random.default_rng(15)
        truth, _ = random_junta_distribution(10, 3, rng)
        failures = 0
        for seed in range(8):
            sampler = SimulatedSampler(truth, seed)
            result = learn_junta_distribution(sampler, k=3, eps=0.2, delta=0.1, c=8.0)
            assert sampler.samples_used == 22105
            if tv_distance(result.distribution, truth) > 0.2:
                failures += 1
        assert failures == 0

    def test_output_always_valid_distribution(self):
        # adversarial sampler: every draw is the same point
        class ConstantSampler:
            n = 5

            def draw(self, count):
                return np.full(count, 0b10110)

        for k in (0, 1, 2):
            result = learn_junta_distribution(ConstantSampler(), k=k, eps=0.2, delta=0.1)
            values = result.distribution.block
            assert np.all(values >= 0.0)
            assert float(values.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_variable_selection_trims_to_k(self):
        masks = np.array([variables_to_mask(vs, 5) for vs in ([], [3], [2], [1])])
        values = np.array([1.0, 0.01, 0.4, 0.5])
        assert select_junta_variables(masks, values, 5, 2) == (1, 2)
        assert select_junta_variables(masks, values, 5, 3) == (1, 2, 3)

    def test_config_validation(self):
        sampler = SimulatedSampler(Distribution.uniform(5), seed=0)
        for k, eps, delta, c in [(-1, 0.2, 0.1, 8.0), (1, 0.0, 0.1, 8.0), (6, 0.2, 0.1, 8.0),
                                 (1, 0.2, 1.0, 8.0), (1, 0.2, 0.1, 0.0)]:
            with pytest.raises(ValueError, match="invalid sample-count parameters"):
                learn_junta_distribution(sampler, k, eps, delta, c)
        for k, eps in [(-1, 0.2), (1, 0.0), (6, 0.2), (1, 1.0)]:
            with pytest.raises(ValueError, match="need 0 <= k <= n = 5 and 0 < eps < 1"):
                learn_junta_from_spectrum(np.array([0]), np.array([1.0]), 5, k, eps)


class SimulatedExampleOracle:
    """Uniform examples (x, f(x)) from a known function, chunk-keyed RNG."""

    def __init__(self, f: np.ndarray, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        self.n = f.size.bit_length() - 1
        self._values = f
        self._seed = int(seed)
        self._calls = 0

    def draw(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng([self._seed, self._calls])
        self._calls += 1
        points = rng.integers(0, 1 << self.n, size=count)
        return points, self._values[points]


def sample_count_sparse(n: int, m: int, deg: int, eps: float, delta: float, c: float = DEFAULT_C) -> int:
    """ceil(c * m * ln(n^deg / delta) / eps) examples for a spectrum
    eps-concentrated on m sets of degree at most deg."""
    if not (0 < delta < 1 and eps > 0 and m >= 1 and 0 <= deg <= n and c > 0):
        raise ValueError("invalid sample-count parameters")
    log_term = deg * math.log(n) - math.log(delta) if n > 1 else -math.log(delta)
    return max(1, math.ceil(c * m * log_term / eps))


def learn_sparse_lowdeg_function(
    oracle: SimulatedExampleOracle,
    m: int,
    deg: int,
    eps: float,
    delta: float,
    c: float = DEFAULT_C,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate all degree <= deg coefficients to accuracy sqrt(eps / 4m) and
    drop the ones at or below that same level, returning ascending masks and
    values; for a [-1, 1]-valued function
    whose spectrum is eps-concentrated on m low-degree sets the output g
    satisfies sum_S |f(S) - g(S)|^2 = O(eps) with probability 1 - delta."""
    n = oracle.n
    T = sample_count_sparse(n, m, deg, eps, delta, c)
    points, values = oracle.draw(T)
    weights = np.bincount(points, weights=values, minlength=1 << n)
    masks = low_degree_masks(n, deg)
    return threshold_spectrum(masks, walsh_hadamard(weights)[masks] / T, math.sqrt(eps / (4.0 * m)))


class TestSparseLowDegreeLearner:
    def test_recovers_single_character(self):
        n = 6
        mask = variables_to_mask([2, 5], n)
        f = walsh_hadamard(dense_spectrum(n, {mask: 1.0}))
        oracle = SimulatedExampleOracle(f, seed=4)
        masks, values = learn_sparse_lowdeg_function(oracle, m=1, deg=2, eps=0.1, delta=0.1)
        assert masks.tolist() == [mask]
        assert values[0] == pytest.approx(1.0, abs=0.1)

    def test_support_recovery_monte_carlo(self):
        n, m, deg, eps = 8, 4, 2, 0.1
        rng = np.random.default_rng(99)
        masks = [0b11000000, 0b00000011, 0b00100100, 0b10000001]
        floor = 2.0 * math.sqrt(eps / m)
        hits = 0
        trials = 10
        for trial in range(trials):
            signs = rng.choice([-1.0, 1.0], size=m)
            f = walsh_hadamard(dense_spectrum(n, {mk: s * floor for mk, s in zip(masks, signs)}))
            oracle = SimulatedExampleOracle(f, seed=trial)
            learned, _ = learn_sparse_lowdeg_function(oracle, m=m, deg=deg, eps=eps, delta=0.1)
            if set(learned.tolist()) == set(masks):
                hits += 1
        assert hits >= 9

    def test_off_support_coefficient_exactly_zero(self):
        n = 5
        f = walsh_hadamard(dense_spectrum(n, {0b10000: 1.0}))
        learned, _ = learn_sparse_lowdeg_function(
            SimulatedExampleOracle(f, seed=1), m=1, deg=1, eps=0.1, delta=0.1
        )
        assert 0b00011 not in learned.tolist()

    def test_sample_count_formula(self):
        want = math.ceil(8 * 3 * (2 * math.log(7) - math.log(0.05)) / 0.1)
        assert sample_count_sparse(7, 3, 2, 0.1, 0.05, 8.0) == want


class TestSampleSetValidation:
    """Sample arrays: the estimator's checks and the simulated sampler."""

    def test_rejects_empty(self):
        for points in (np.array([], dtype=np.int64), np.zeros((2, 2), dtype=np.int64)):
            with pytest.raises(ValueError, match="nonempty 1-D array of sample points"):
                empirical_relative_spectrum(points, 3, 1)

    def test_rejects_out_of_range(self):
        for points in (np.array([4]), np.array([0, -1])):
            with pytest.raises(ValueError, match=r"sample points must lie in \[0, 2\^2\)"):
                empirical_relative_spectrum(points, 2, 1)

    def test_sampler_protocol(self):
        truth = Distribution.uniform(3)
        sampler = SimulatedSampler(truth, seed=0)
        drawn = sampler.draw(10)
        assert drawn.shape == (10,) and drawn.dtype == np.int64
        assert 0 <= drawn.min() and drawn.max() < 8

    def test_sampler_matches_per_uniform_search(self):
        # A dense distribution: its points are its block indices.
        junta, _ = random_junta_distribution(8, 2, np.random.default_rng(4))
        truth = Distribution(8, dense_values(junta))
        cumulative = np.cumsum(truth.block)
        uniforms = np.random.default_rng([7, 0]).random(500)
        want = [min(int(np.searchsorted(cumulative, u, side="right")), 255) for u in uniforms]
        assert SimulatedSampler(truth, seed=7).draw(500).tolist() == want

    def test_sampler_matches_unsorted_search_per_call(self):
        """Each call equals the search of its slice of the (seed, 0) uniforms
        in draw order, also where zero-probability points leave the
        cumulative flat."""
        values = np.zeros(64)
        values[[3, 4, 40, 63]] = [0.1, 0.4, 0.25, 0.25]
        junta = random_junta_distribution(10, 3, np.random.default_rng(8))[0]
        for truth in (Distribution(6, values), Distribution(10, dense_values(junta))):
            sampler = SimulatedSampler(truth, seed=11)
            stream = dense_draw(truth, 11, 5098)
            for start, count in ((0, 1), (1, 1000), (1001, 4097)):
                assert np.array_equal(sampler.draw(count), stream[start : start + count])

    def test_sampler_deterministic_replay(self):
        truth, _ = random_junta_distribution(5, 2, np.random.default_rng(3))
        a = SimulatedSampler(truth, seed=9).draw(100)
        b = SimulatedSampler(truth, seed=9).draw(100)
        assert np.array_equal(a, b)


class TestSampleCounter:
    """``SimulatedSampler.samples_used`` is the only sample count."""

    def test_counts_across_calls_and_is_read_only(self):
        sampler = SimulatedSampler(Distribution.uniform(4), seed=1)
        assert sampler.samples_used == 0
        for count, total in ((5, 5), (0, 5), (4097, 4102)):
            sampler.draw(count)
            assert sampler.samples_used == total
        with pytest.raises(AttributeError):
            sampler.samples_used = 0

    @pytest.mark.parametrize("count", [-1, 2.5])
    def test_rejected_draw_spends_nothing_and_shifts_no_stream(self, count):
        truth, _ = random_junta_distribution(4, 2, np.random.default_rng(5))
        sampler = SimulatedSampler(truth, seed=3)
        with pytest.raises((ValueError, TypeError)):
            sampler.draw(count)
        assert sampler.samples_used == 0
        assert sampler.draw(5).tolist() == SimulatedSampler(truth, seed=3).draw(5).tolist()
        assert sampler.samples_used == 5

    @pytest.mark.parametrize("k", [0, 3])
    def test_grid_record_reads_t_from_the_sampler(self, k, monkeypatch):
        samplers = []

        class RecordingSampler(SimulatedSampler):
            def __init__(self, dist, seed):
                super().__init__(dist, seed)
                samplers.append(self)

        monkeypatch.setattr(dist_learn, "SimulatedSampler", RecordingSampler)
        params = {"n": 8, "k": k, "eps": 0.3, "delta": 0.1}
        record = cli.CELL_RUNNERS["learn-dist"](params, 4)
        assert len(samplers) == 1
        assert record["T"] == samplers[0].samples_used == sample_count_dist(8, k, 0.3, 0.1)


class TestFactoredSampler:
    """A junta's points: a block index from the block's cumulative, then fair
    bits for the other variables; a dense distribution draws what the dense
    cumulative sampler draws."""

    # sha256 of the little-endian int64 draws of calls of 1, 1000 and 4097
    # points at seed 3, re-pinned when the calls became one uniform stream:
    # the first 5098 points of ``dense_draw``, which searches the cumulative
    # of all 2^n point probabilities.
    DENSE_DRAWS = {
        6: "835ea8d07974ddab12c707086a84882661e0419a6445aaed360efc5c2450e378",
        10: "f591b0bf73d5a7378c05d2bfe0a34b4ab612f1dae9688caa4576dcd55a21465d",
    }

    @pytest.mark.parametrize("n", sorted(DENSE_DRAWS))
    def test_dense_draws_are_pinned(self, n):
        weights = np.random.default_rng(n).random(1 << n)
        weights[::7] = 0.0  # flat runs in the cumulative
        sampler = SimulatedSampler(Distribution(n, weights / weights.sum()), seed=3)
        draws = np.concatenate([sampler.draw(count) for count in (1, 1000, 4097)])
        assert hashlib.sha256(draws.astype("<i8").tobytes()).hexdigest() == self.DENSE_DRAWS[n]

    @pytest.mark.parametrize("n,k", [(1, 0), (5, 1), (9, 3), (16, 4), (40, 3), (62, 2)])
    def test_planted_stream_is_block_indices_then_free_bits(self, n, k):
        truth, variables = random_junta_distribution(n, k, np.random.default_rng(n))
        sampler = SimulatedSampler(truth, seed=6)
        junta_bits = np.array([n - var for var in variables], dtype=np.int64)
        free_bits = np.array([n - var for var in range(1, n + 1) if var not in variables], dtype=np.int64)
        # Block uniforms from the (seed, 0) stream, free bits from the (seed, 1) stream.
        uniforms = np.random.default_rng([6, 0]).random(3001)
        bits = np.random.default_rng([6, 1]).integers(0, 1 << (n - k), 3001)
        for start, count in ((0, 1), (1, 3000)):
            points = sampler.draw(count)
            index = np.searchsorted(np.cumsum(truth.block), uniforms[start : start + count], side="right")
            free = bits[start : start + count]
            # Block index bit k - 1 - j is variable j's; free bits fill the rest in order.
            none = np.zeros(count, dtype=np.int64)
            got_index = sum(((points >> bit & 1) << (k - 1 - j) for j, bit in enumerate(junta_bits)), none)
            got_free = sum(((points >> bit & 1) << (n - k - 1 - j) for j, bit in enumerate(free_bits)), none)
            assert np.array_equal(got_index, np.minimum(index, (1 << k) - 1))
            assert np.array_equal(got_free, free)

    @pytest.mark.parametrize("n,k", [(6, 2), (12, 3)])
    def test_joint_point_frequencies_match_the_dense_sampler(self, n, k):
        """Per point within 5 sigma of the two-sample difference, and the sum
        of squared z-scores within 5 of its standard deviations of its mean."""
        truth, _ = random_junta_distribution(n, k, np.random.default_rng([n, k]))
        T = 1 << 20
        factored = np.bincount(SimulatedSampler(truth, seed=21).draw(T), minlength=1 << n) / T
        dense = np.bincount(dense_draw(truth, 22, T), minlength=1 << n) / T
        p = dense_values(truth)
        z = (factored - dense) / np.sqrt(2.0 * p * (1.0 - p) / T)
        assert np.abs(z).max() <= 5.0
        assert abs(float(np.sum(z**2)) - z.size) <= 5.0 * math.sqrt(2.0 * z.size)


class TestSamplerStream:
    """The first T points of a sampler never depend on how many follow or on
    how calls split them."""

    @pytest.mark.parametrize("short, long", [(87, 173), (1000, 22105), (5, 100_000)])
    def test_shorter_draw_is_a_prefix(self, short, long):
        truth, _ = random_junta_distribution(20, 3, np.random.default_rng(31))
        head = SimulatedSampler(truth, seed=32).draw(short)
        assert head.tobytes() == SimulatedSampler(truth, seed=32).draw(long)[:short].tobytes()

    @pytest.mark.parametrize("n, k", [(20, 3), (8, 8)])
    def test_calls_concatenate_to_one_call(self, n, k):
        truth, _ = random_junta_distribution(n, k, np.random.default_rng(33))
        sampler = SimulatedSampler(truth, seed=34)
        parts = np.concatenate([sampler.draw(count) for count in (1, 4097, 250)])
        assert parts.tobytes() == SimulatedSampler(truth, seed=34).draw(4348).tobytes()
        assert sampler.samples_used == 4348


class TestPlantedCellScale:
    """A planted learn-dist cell holds no 2^n array, so n reaches the int64
    point-mask limit."""

    def test_benchmark_cell_peak_memory(self):
        params = {"n": 20, "k": 3, "eps": 0.2, "delta": 0.1}
        cli.CELL_RUNNERS["learn-dist"](params, 1)  # imports and first-call set-up
        tracemalloc.start()
        try:
            record = cli.CELL_RUNNERS["learn-dist"](params, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record["tv_exact"] <= 0.2
        assert peak < 4 << 20  # one 2^20 float64 array is 8 MiB

    def test_grid_cell_past_the_dense_cap(self):
        spec = cli.ExperimentSpec("learn-dist", {"n": [40], "k": [3], "eps": [0.2], "delta": [0.1]}, 1, 1)
        [record] = cli.run_experiment(spec)
        assert record["status"] == "ok"
        assert record["metrics"]["tv_exact"] <= 0.2
        assert record["metrics"]["junta_variables"] == record["metrics"]["planted_variables"]

    def test_grid_cell_past_the_point_mask_limit_is_refused(self):
        spec = cli.ExperimentSpec("learn-dist", {"n": [63], "k": [3], "eps": [0.2], "delta": [0.1]}, 1, 1)
        [record] = cli.run_experiment(spec)
        assert record["status"] == "error"
        assert "variable count must be in [1, 62], the int64 point-mask limit, got 63" in record["error"]
