"""Pauli-basis measurement simulation and shadow estimators."""

import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from juntalab import shadows
from juntalab.qstate import (
    DensityMatrix,
    pauli_tensor,
    pauli_weight,
    random_density_matrix,
    rho_eps,
)
from juntalab.shadows import (
    CHUNK,
    InvalidStateError,
    _born_rows,
    _group_blocks,
    collect_chunks,
    collect_shadows,
    estimate_lowdeg,
    estimates_for_supports,
    sample_outcomes,
    shadow_sample_count,
)
import paulis


def estimate_coefficient(basis_codes, outcomes, word: int) -> float:
    """Single-coefficient estimate of the packed word from (T, n) shadows;
    exactly 2^-n for the identity word."""
    T, n = basis_codes.shape
    if not 0 <= word < 4**n:
        raise ValueError("Pauli word has more qubits than the shadows")
    cols = [q - 1 for q in paulis.support(n, word)]
    if not cols:
        return 1.0 / (1 << n)
    codes = np.array([paulis.codes(n, word)[c] for c in cols], dtype=np.uint8)
    matches = np.all(basis_codes[:, cols] == codes, axis=1)
    weight = np.ones(T, dtype=np.int64)
    for col in cols:
        weight = weight * outcomes[:, col]
    total = int(np.sum(np.where(matches, weight, 0)))
    return (3 ** len(cols) * total) / ((1 << n) * T)


def born_rows(rho, words):
    """Outcome distributions of the basis words (one row each), from the
    kernel that sampling uses."""
    return _born_rows(pauli_tensor(rho).reshape(-1), np.array(words, dtype=np.uint8))


def _per_support_estimates(codes, outs, n):
    """All 4^n estimates from one grouped pass per support set: for each
    support, base-3 keys over its columns and +/-1 outcome products,
    summed with one bincount (first column most significant)."""
    values = np.empty(4**n)
    for j in range(n + 1):
        for cols in itertools.combinations(range(n), j):
            key = np.zeros(codes.shape[0], dtype=np.int64)
            weight = np.ones(codes.shape[0], dtype=np.int64)
            for col in cols:
                key = key * 3 + (codes[:, col].astype(np.int64) - 1)
                weight = weight * outs[:, col]
            totals = np.bincount(key, weights=weight.astype(np.float64), minlength=3**j)
            assign = np.arange(3**j)[:, None] // 3 ** np.arange(j - 1, -1, -1) % 3 + 1
            words = assign @ 4 ** (n - 1 - np.array(cols, dtype=np.int64))
            values[words] = 3**j * totals / float((1 << n) * codes.shape[0])
    return values


def lowdeg_by_size_k_blocks(codes, outs, k):
    """The low-degree estimate from one block per size-k set of columns."""
    n = codes.shape[1]
    return estimates_for_supports(codes, outs, n, itertools.combinations(range(n), k))


def random_shadows(n, T, seed):
    """(T, n) basis codes and outcomes drawn uniformly; the estimator only counts them."""
    rng = np.random.default_rng([n, T, seed])
    codes = rng.integers(1, 4, size=(T, n), dtype=np.uint8)
    return codes, (1 - 2 * rng.integers(0, 2, size=(T, n))).astype(np.int8)


X_PLUS = np.array([1, 1]) / math.sqrt(2)
X_MINUS = np.array([1, -1]) / math.sqrt(2)
Y_PLUS = np.array([1, 1j]) / math.sqrt(2)
Y_MINUS = np.array([1, -1j]) / math.sqrt(2)
Z_PLUS = np.array([1, 0])
Z_MINUS = np.array([0, 1])
EIGENVECTORS = {
    1: (X_PLUS, X_MINUS),
    2: (Y_PLUS, Y_MINUS),
    3: (Z_PLUS, Z_MINUS),
}


def born_probability_by_projectors(rho, codes, outcome_bits):
    """Independent oracle: Tr[rho (x)_i |Q_i(x_i)><Q_i(x_i)|] via explicit projectors."""
    projector = np.ones((1, 1), dtype=complex)
    for code, bit in zip(codes, outcome_bits):
        vec = EIGENVECTORS[code][bit]
        projector = np.kron(projector, np.outer(vec, vec.conj()))
    return float(np.trace(rho.entries @ projector).real)


class TestBornProbabilities:
    def test_matches_projector_oracle(self):
        rng = np.random.default_rng(3)
        for n in (2, 3):  # every basis word: 9 at n=2, 27 at n=3
            rho = random_density_matrix(n, rng)
            words = list(itertools.product((1, 2, 3), repeat=n))
            for codes, probs in zip(words, born_rows(rho, words)):
                for outcome in range(1 << n):
                    bits = tuple(outcome >> (n - 1 - q) & 1 for q in range(n))
                    assert probs[outcome] == pytest.approx(
                        born_probability_by_projectors(rho, codes, bits), abs=1e-12
                    )

    def test_normalized(self):
        rho = random_density_matrix(3, np.random.default_rng(5))
        probs = born_rows(rho, [(1, 2, 3)])[0]
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0.0)


class TestMeasurement:
    def test_z_on_zero_state(self):
        rho = DensityMatrix.pure([1, 0])
        rows = np.full((25, 1), 3, dtype=np.uint8)  # Z
        uniforms = np.random.default_rng(1).random(25)
        assert sample_outcomes(pauli_tensor(rho).reshape(-1), rows, uniforms).tolist() == [[1]] * 25

    def test_x_on_zero_state_is_balanced(self):
        rho = DensityMatrix.pure([1, 0])
        draws = 100_000
        rows = np.full((draws, 1), 1, dtype=np.uint8)  # X
        uniforms = np.random.default_rng(2).random(draws)
        total = int(sample_outcomes(pauli_tensor(rho).reshape(-1), rows, uniforms).sum())
        # z-score threshold 3.9 corresponds to a two-sided p-value of 1e-4
        assert abs(total) / math.sqrt(draws) <= 3.9

    def test_frequencies_match_born_rule(self):
        # 1e5 draws in each of the 9 two-qubit bases, through the sampling
        # path collect_shadows and SimulatedStateAccess share
        rng = np.random.default_rng(4)
        rho = random_density_matrix(2, rng)
        coeffs = pauli_tensor(rho).reshape(-1)
        draws = 100_000
        for codes in itertools.product((1, 2, 3), repeat=2):
            probs = born_rows(rho, [codes])[0]
            rows = np.tile(np.array(codes, dtype=np.uint8), (draws, 1))
            outcomes = sample_outcomes(coeffs, rows, rng.random(draws))
            bits = (1 - outcomes) // 2
            observed = np.bincount(bits[:, 0] * 2 + bits[:, 1], minlength=4) / draws
            sigma = np.sqrt(probs * (1 - probs) / draws)
            assert np.all(np.abs(observed - probs) <= 5 * sigma + 1e-12)


class TestSampleOutcomes:
    @pytest.mark.parametrize("n", [3, 5])
    def test_matches_per_row_searchsorted(self, n):
        # Reference: one searchsorted per row over the one-row Born kernel.
        rng = np.random.default_rng(30 + n)
        rho = random_density_matrix(n, rng)
        codes = rng.integers(1, 4, size=(600, n), dtype=np.uint8)
        codes[300:] = codes[:300]  # repeated words share one distribution
        cums = [np.cumsum(born_rows(rho, [row])[0]) for row in codes]
        uniforms = rng.random(len(codes))
        for row in range(0, 200):  # exactly on a cumulative boundary
            uniforms[row] = cums[row][rng.integers(1 << n)]
        uniforms[200:210] = np.nextafter(1.0, 0.0)
        uniforms[210:220] = 1.0 - 1e-12
        uniforms[220:230] = 0.0
        for row in range(230, 240):  # at the last cumulative, which may be below 1
            uniforms[row] = cums[row][-1]
        got = sample_outcomes(pauli_tensor(rho).reshape(-1), codes, uniforms)
        for row, (cum, u) in enumerate(zip(cums, uniforms)):
            draw = min(int(np.searchsorted(cum, u, side="right")), (1 << n) - 1)
            want = [1 - 2 * (draw >> (n - 1 - q) & 1) for q in range(n)]
            assert got[row].tolist() == want, row

    @pytest.mark.parametrize("n", [1, 4, 6, 9])
    def test_one_call_equals_per_chunk_calls(self, n):
        # 3 chunks and a partial one: more than one collection group at n = 9.
        rng = np.random.default_rng(40 + n)
        coeffs = pauli_tensor(random_density_matrix(n, rng, rank=min(3, 1 << n))).reshape(-1)
        codes = rng.integers(1, 4, size=(3 * CHUNK + 123, n), dtype=np.uint8)
        uniforms = rng.random(len(codes))
        whole = sample_outcomes(coeffs, codes, uniforms)
        parts = [
            sample_outcomes(coeffs, codes[at : at + CHUNK], uniforms[at : at + CHUNK])
            for at in range(0, len(codes), CHUNK)
        ]
        assert whole.tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize("count", [1, 4, 6])
    def test_rejects_uniforms_not_one_per_row(self, count):
        coeffs = pauli_tensor(DensityMatrix.maximally_mixed(2)).reshape(-1)
        with pytest.raises(ValueError, match="one uniform per row"):
            sample_outcomes(coeffs, np.ones((5, 2), dtype=np.uint8), np.full(count, 0.5))

    def test_rejects_codes_not_2d(self):
        coeffs = pauli_tensor(DensityMatrix.maximally_mixed(2)).reshape(-1)
        with pytest.raises(ValueError, match="2-D"):
            sample_outcomes(coeffs, np.ones(2, dtype=np.uint8), np.full(2, 0.5))


class TestInvalidState:
    def test_negative_diagonal_rejected(self):
        bad = np.diag([1.2, -0.2])  # raw array bypasses DensityMatrix checks
        rows = np.full((1, 1), 3, dtype=np.uint8)  # Z
        with pytest.raises(InvalidStateError):
            sample_outcomes(pauli_tensor(bad).reshape(-1), rows, np.full(1, 0.5))


class TestCollectShadows:
    def test_rejects_zero_samples(self):
        rho = DensityMatrix.maximally_mixed(1)
        with pytest.raises(ValueError):
            collect_shadows(rho, 0, seed=1)

    def test_deterministic_replay(self):
        rho = random_density_matrix(2, np.random.default_rng(6))
        a_codes, a_outs = collect_shadows(rho, 9000, seed=42)
        b_codes, b_outs = collect_shadows(rho, 9000, seed=42)
        assert np.array_equal(a_codes, b_codes)
        assert np.array_equal(a_outs, b_outs)

    def test_pinned_digest(self):
        # Pins the chunk-keyed RNG stream and the Born draws across versions.
        rho = random_density_matrix(3, np.random.default_rng(21))
        codes, outs = collect_shadows(rho, 9000, seed=23)
        digest = hashlib.sha256(codes.tobytes() + outs.tobytes())
        assert digest.hexdigest() == (
            "69eebed8c3ec93470feaf6e87f4edb0f4bcfc82abce62690f897d4333f82abc7"
        )

    @pytest.mark.parametrize("n", [1, 4, 6, 10, 12])
    def test_groups_hold_at_most_the_row_bound(self, n):
        # max(CHUNK, 2^22 >> n) rows per call keeps a group's Born rows within 2^22 floats.
        bound = max(CHUNK, (1 << 22) >> n)
        T = bound + CHUNK + 7
        calls = []

        def measure(codes, rngs):
            calls.append((len(codes), len(rngs)))
            return np.ones(codes.shape, dtype=np.int8)

        codes, outs = collect_chunks(n, T, 3, measure)
        assert max(rows for rows, _ in calls) <= bound
        assert sum(rows for rows, _ in calls) == T and outs.shape == codes.shape == (T, n)
        assert all(pieces == -(-rows // CHUNK) for rows, pieces in calls)

    def test_basis_marginals_uniform(self):
        rho = DensityMatrix.maximally_mixed(2)
        codes, _ = collect_shadows(rho, 100_000, seed=7)
        T = len(codes)
        for qubit in range(2):
            counts = np.bincount(codes[:, qubit], minlength=4)[1:]
            expected = T / 3
            sigma = math.sqrt(T * (1 / 3) * (2 / 3))
            assert np.all(np.abs(counts - expected) <= 5 * sigma)


class TestEstimators:
    def test_identity_is_exact(self):
        rho = random_density_matrix(2, np.random.default_rng(8))
        words, values = estimate_lowdeg(*collect_shadows(rho, 123, seed=5), 2)
        assert values[np.searchsorted(words, 0)] == 0.25

    def test_rho_eps_z_coefficient(self):
        state = rho_eps(0.2)
        exact = pauli_tensor(state).reshape(-1)[paulis.word("Z")]
        assert exact == pytest.approx(0.1, abs=1e-15)
        codes, outs = collect_shadows(state, 100_000, seed=3)
        words, values = estimate_lowdeg(codes, outs, 1)
        estimate = values[np.searchsorted(words, paulis.word("Z"))]
        sigma = math.sqrt(3 ** 1 / 4 ** 1 / len(codes))
        assert abs(estimate - exact) <= 5 * sigma

    def test_second_moment_weight_two(self):
        rho = random_density_matrix(3, np.random.default_rng(10))
        codes, _ = collect_shadows(rho, 1_000_000, seed=11)
        # The word XZI: X on qubit 1, Z on qubit 2.
        matches = np.all(
            codes[:, :2] == np.array([1, 3], dtype=np.uint8), axis=1
        )
        empirical = (9**2 / 4**3) * matches.mean()
        assert empirical == pytest.approx(9 / 64, rel=0.05)

    def test_lowdeg_matches_per_coefficient(self):
        rho = random_density_matrix(3, np.random.default_rng(12))
        codes, outs = collect_shadows(rho, 4000, seed=13)
        words, values = estimate_lowdeg(codes, outs, 2)
        assert words.dtype == np.int64 and values.dtype == np.float64
        assert np.all(np.diff(words) > 0)
        for word, value in zip(words.tolist(), values):
            assert value == estimate_coefficient(codes, outs, word)
        want = [w for w in range(4**3) if pauli_weight(w) <= 2]
        assert words.tolist() == want
        assert len(want) == 1 + 3 * 3 + 3 * 9

    def test_supports_in_any_order_give_ascending_unique_words(self):
        rho = random_density_matrix(3, np.random.default_rng(12))
        codes, outs = collect_shadows(rho, 500, seed=4)
        blocks = [(1, 2), (0,), (1, 2), ()]
        words, values = estimates_for_supports(codes, outs, 3, blocks)
        # Every word whose (1-based) support lies inside some block.
        inside = [{2, 3}, {1}, set()]
        want = [w for w in range(4**3) if any(set(paulis.support(3, w)) <= b for b in inside)]
        assert words.tolist() == want
        for word, value in zip(want, values):
            assert value == estimate_coefficient(codes, outs, word)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("T", [1, 700])
    def test_full_block_equals_both_oracles_bitwise(self, n, T):
        rho = random_density_matrix(n, np.random.default_rng(30 + n))
        codes, outs = collect_shadows(rho, T, seed=31)
        oracle = _per_support_estimates(codes, outs, n)
        for blocks in ([range(n)], [(), tuple(reversed(range(n))), range(n), ()]):
            words, values = estimates_for_supports(codes, outs, n, blocks)
            assert words.tolist() == list(range(4**n))
            assert values.tobytes() == oracle.tobytes()
            for word, value in zip(words.tolist(), values):
                assert value == estimate_coefficient(codes, outs, word)
        words, values = estimates_for_supports(codes, outs, n, [()])
        assert words.tolist() == [0] and values.tolist() == [2.0**-n]

    def test_rejects_codes_outside_one_to_three(self):
        codes, outs = collect_shadows(DensityMatrix.maximally_mixed(2), 20, seed=1)
        for bad in (0, 4):
            bad_codes = codes.copy()
            bad_codes[3, 1] = bad
            with pytest.raises(ValueError, match="basis codes must be"):
                estimates_for_supports(bad_codes, outs, 2, [(0, 1)])

    def test_rejects_outcomes_other_than_plus_minus_one(self):
        codes, outs = collect_shadows(DensityMatrix.maximally_mixed(2), 20, seed=1)
        for bad in (0, 2):
            bad_outs = outs.copy()
            bad_outs[5, 0] = bad
            with pytest.raises(ValueError, match="outcomes must be"):
                estimates_for_supports(codes, bad_outs, 2, [(0, 1)])

    @pytest.mark.parametrize("block", [(1, 1), (0, 2), (-1,)])
    def test_rejects_repeated_or_out_of_range_block_columns(self, block):
        codes, outs = collect_shadows(DensityMatrix.maximally_mixed(2), 20, seed=1)
        with pytest.raises(ValueError, match="distinct columns in 0..1"):
            estimates_for_supports(codes, outs, 2, [(0,), block])

    def test_rejects_outcomes_of_another_shape(self):
        codes, outs = collect_shadows(DensityMatrix.maximally_mixed(2), 20, seed=1)
        for bad_codes, bad_outs in [(codes, outs[:, :1]), (codes, outs[0]), (codes, outs[:19]),
                                    (codes[:, :1], outs[:, :1]), (codes[0], outs[0])]:
            shapes = f"basis codes of shape {bad_codes.shape} and outcomes of shape {bad_outs.shape}"
            with pytest.raises(ValueError, match=re.escape(f"one shape (T, 2), got {shapes}")):
                estimates_for_supports(bad_codes, bad_outs, 2, [(0, 1)])
        with pytest.raises(ValueError, match="at least one sample"):
            estimates_for_supports(codes[:0], outs[:0], 2, [(0, 1)])

    def test_lowdeg_k_zero(self):
        rho = DensityMatrix.maximally_mixed(3)
        words, values = estimate_lowdeg(*collect_shadows(rho, 10, seed=2), 0)
        assert words.tolist() == [0]
        assert values.tolist() == [2.0**-3]

    def test_unbiased_weight_two(self):
        rho = random_density_matrix(3, np.random.default_rng(14))
        exact = pauli_tensor(rho).reshape(-1)
        words, values = estimate_lowdeg(*collect_shadows(rho, 200_000, seed=15), 2)
        for word, value in zip(words.tolist(), values):
            sigma = math.sqrt(3 ** pauli_weight(word) / 4**3 / 200_000)
            assert abs(value - exact[word]) <= 5 * sigma

    def test_lowdeg_hits_accuracy_target_at_budget(self):
        # weight <= 1 coefficients at the sample count sized for absolute
        # accuracy 0.1 * 2^-n: on target in at least 9 of 10 seeds
        n = 4
        target = 0.1 * 2.0**-n
        budget = shadow_sample_count(n, 1, target, 0.1, 8.0)
        rho = random_density_matrix(n, np.random.default_rng(20))
        exact = pauli_tensor(rho).reshape(-1)
        hits = 0
        for seed in range(10):
            words, values = estimate_lowdeg(*collect_shadows(rho, budget, seed=seed), 1)
            if np.max(np.abs(values - exact[words])) <= target:
                hits += 1
        assert hits >= 9


class TestGroupedLowDegree:
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("T", [1, 7, 300, 20000])
    def test_bitwise_equal_to_size_k_blocks(self, n, T):
        codes, outs = random_shadows(n, T, seed=1)
        for k in range(n + 1):
            words, values = estimate_lowdeg(codes, outs, k)
            want_words, want = lowdeg_by_size_k_blocks(codes, outs, k)
            assert words.tobytes() == want_words.tobytes()
            assert values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,k,T,blocks", [(10, 2, 20000, 10), (6, 2, 148992, 1)])
    def test_bitwise_equal_at_benchmark_sizes(self, n, k, T, blocks):
        codes, outs = random_shadows(n, T, seed=2)
        assert len(list(_group_blocks(n, k, T))) == blocks
        words, values = estimate_lowdeg(codes, outs, k)
        want_words, want = lowdeg_by_size_k_blocks(codes, outs, k)
        assert words.tobytes() == want_words.tobytes()
        assert values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("T", [1, 300, 20000, 10**6])
    def test_blocks_cover_every_size_k_support(self, T):
        for n in range(1, 11):
            for k in range(n + 1):
                blocks = list(_group_blocks(n, k, T))
                assert all(len(block) == len(set(block)) for block in blocks)
                blocks = [set(block) for block in blocks]
                for support in itertools.combinations(range(n), k):
                    assert any(block >= set(support) for block in blocks), (n, k, T, support)

    def test_checks_shape_before_the_width_search(self, monkeypatch):
        # A 1-D input would otherwise search widths for one column per row.
        monkeypatch.setattr(shadows, "group_width", lambda *args: pytest.fail("width search ran"))
        with pytest.raises(ValueError, match="one shape"):
            estimate_lowdeg(np.ones(50, dtype=np.uint8), np.ones(50, dtype=np.int8), 1)


class TestSampleCount:
    def test_quartering_accuracy(self):
        t1 = shadow_sample_count(3, 1, 0.01, 0.1, 8.0)
        t2 = shadow_sample_count(3, 1, 0.005, 0.1, 8.0)
        assert t2 <= 4 * t1 <= t2 + 3

    def test_frozen_arithmetic(self):
        eps = 0.05 * 2.0**-3
        want = math.ceil(8 * 3 * (math.log(9) - math.log(0.1)) / (4**3 * eps**2))
        assert shadow_sample_count(3, 1, eps, 0.1, 8.0) == want

    def test_k_equals_n(self):
        # full-spectrum instantiation of the same formula
        want = math.ceil(8 * 27 * (3 * math.log(9) - math.log(0.1)) / (4**3 * 0.01**2))
        assert shadow_sample_count(3, 3, 0.01, 0.1, 8.0) == want

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            shadow_sample_count(3, 4, 0.1, 0.1)
        with pytest.raises(ValueError):
            shadow_sample_count(3, 1, 0.1, 1.5)
