"""Pauli-basis measurement simulation and shadow estimators."""

import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from juntalab import hypercube, shadows
from juntalab.hypercube import block_totals
from juntalab.qstate import (
    DensityMatrix,
    pauli_tensor,
    pauli_weight,
    random_density_matrix,
    rho_eps,
)
from juntalab.shadows import (
    BATCH,
    CHUNK,
    _LETTER_SUMS,
    SimulatedStateAccess,
    _born_rows,
    estimate_lowdeg,
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


def arrays(batches):
    """The rows of a shadow stream as one word-index array and one outcome-index array."""
    words, outs = zip(*batches)
    return np.concatenate(words), np.concatenate(outs)


def letters(words, outs, n):
    """(T, n) basis codes and +/-1 outcomes of word and outcome indices."""
    return paulis.basis_codes(words, n), paulis.outcome_signs(outs, n)


def indices(codes, outs):
    """Word and outcome indices of (T, n) basis codes and +/-1 outcomes."""
    return paulis.word_indices(codes), paulis.outcome_indices(outs)


def born_rows(rho, words):
    """Outcome distributions of the basis words (one row each), from the
    kernel that sampling uses."""
    return _born_rows(pauli_tensor(rho).reshape(-1), np.array(words, dtype=np.uint8))


def _per_support_estimates(codes, outs, k):
    """The estimates of every word of weight at most k, ascending, from one
    grouped pass per support set: for each support, base-3 keys over its
    columns and +/-1 outcome products, summed with one bincount (first
    column most significant)."""
    n = codes.shape[1]
    values = np.empty(4**n)
    for j in range(k + 1):
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
    words = np.flatnonzero(pauli_weight(np.arange(4**n)) <= k)
    return words, values[words]


def letter_keys(codes, outs):
    """``keys`` for ``block_totals``: each row's base-6 letter codes
    2(Q - 1) + [x == -1] over a range of columns, by one product."""
    letters = 2 * (codes.astype(np.int64) - 1) + (outs < 0)
    return lambda cols: letters[:, cols] @ 6 ** np.arange(len(cols) - 1, -1, -1)


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
        rows = np.full(25, 2, dtype=np.int32)  # Z
        uniforms = np.random.default_rng(1).random(25)
        assert sample_outcomes(pauli_tensor(rho).reshape(-1), rows, uniforms).tolist() == [0] * 25  # +1

    def test_x_on_zero_state_is_balanced(self):
        rho = DensityMatrix.pure([1, 0])
        draws = 100_000
        rows = np.zeros(draws, dtype=np.int32)  # X
        uniforms = np.random.default_rng(2).random(draws)
        total = int(paulis.outcome_signs(sample_outcomes(pauli_tensor(rho).reshape(-1), rows, uniforms), 1).sum())
        # z-score threshold 3.9 corresponds to a two-sided p-value of 1e-4
        assert abs(total) / math.sqrt(draws) <= 3.9

    def test_frequencies_match_born_rule(self):
        # 1e5 draws in each of the 9 two-qubit bases, through sample_outcomes,
        # the kernel behind SimulatedStateAccess.measure_chunk
        rng = np.random.default_rng(4)
        rho = random_density_matrix(2, rng)
        coeffs = pauli_tensor(rho).reshape(-1)
        draws = 100_000
        for codes in itertools.product((1, 2, 3), repeat=2):
            probs = born_rows(rho, [codes])[0]
            rows = np.repeat(paulis.word_indices([codes]), draws)
            outcomes = sample_outcomes(coeffs, rows, rng.random(draws))
            observed = np.bincount(outcomes, minlength=4) / draws
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
        got = sample_outcomes(pauli_tensor(rho).reshape(-1), paulis.word_indices(codes), uniforms)
        for row, (cum, u) in enumerate(zip(cums, uniforms)):
            assert got[row] == min(int(np.searchsorted(cum, u, side="right")), (1 << n) - 1), row

    @pytest.mark.parametrize("n", [1, 4, 6, 9])
    def test_one_call_equals_per_chunk_calls(self, n):
        # 3 chunks and a partial one: more than one collection group at n = 9.
        rng = np.random.default_rng(40 + n)
        coeffs = pauli_tensor(random_density_matrix(n, rng, rank=min(3, 1 << n))).reshape(-1)
        words = paulis.word_indices(rng.integers(1, 4, size=(3 * CHUNK + 123, n), dtype=np.uint8))
        uniforms = rng.random(len(words))
        whole = sample_outcomes(coeffs, words, uniforms)
        parts = [
            sample_outcomes(coeffs, words[at : at + CHUNK], uniforms[at : at + CHUNK])
            for at in range(0, len(words), CHUNK)
        ]
        assert whole.tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize("count", [1, 4, 6])
    def test_rejects_uniforms_not_one_per_row(self, count):
        coeffs = pauli_tensor(DensityMatrix(np.eye(4) / 4)).reshape(-1)
        with pytest.raises(ValueError, match="one uniform per row"):
            sample_outcomes(coeffs, np.ones(5, dtype=np.int32), np.full(count, 0.5))

    def test_rejects_words_not_1d(self):
        coeffs = pauli_tensor(DensityMatrix(np.eye(4) / 4)).reshape(-1)
        with pytest.raises(ValueError, match="1-D"):
            sample_outcomes(coeffs, np.ones((2, 2), dtype=np.int32), np.full(2, 0.5))


class TestSampleOutcomesOracle:
    """The kernel against np.searchsorted per row over its word's cumulative,
    across whole and partial search pieces of 4 CHUNK rows."""

    @staticmethod
    def _state(n, kind, rng):
        if kind == "pure":
            return DensityMatrix.pure(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        # Dyadic weights on fewer than 2^n basis states: Born rows with exact
        # zeros, so cumulatives repeat values.
        size = min(3, (1 << n) - 1)
        weights = np.zeros(1 << n)
        weights[rng.choice(1 << n, size=size, replace=False)] = [1.0] if size == 1 else [0.5, 0.25, 0.25]
        return DensityMatrix(np.diag(weights))

    @pytest.mark.parametrize("kind", ["pure", "rank-deficient"])
    @pytest.mark.parametrize("n", [1, 4, 6, 10])
    def test_matches_per_row_searchsorted(self, n, kind):
        rng = np.random.default_rng(50 + n)
        coeffs = pauli_tensor(self._state(n, kind, rng)).reshape(-1)
        rows = 4 * CHUNK + 123
        pool = np.unique(rng.integers(1, 4, size=(8, n), dtype=np.uint8), axis=0)
        pool[0] = 3  # the all-Z word
        words = paulis.word_indices(pool)[rng.integers(len(pool), size=rows)]
        cums = np.cumsum(_born_rows(coeffs, pool), axis=1)
        if kind == "rank-deficient":
            assert np.any(np.diff(cums[0]) == 0)
        which = [np.flatnonzero(words == word) for word in paulis.word_indices(pool)]
        uniforms = rng.random(rows)
        for w, at in enumerate(which):
            edge = at[: len(at) // 3]  # exactly on a cumulative boundary
            uniforms[edge] = cums[w][rng.integers(1 << n, size=len(edge))]
        uniforms[-600:-400] = 0.0
        uniforms[-400:-200] = np.nextafter(1.0, 0.0)
        got = sample_outcomes(coeffs, words, uniforms)
        draws = np.empty(rows, dtype=np.int64)
        for w, at in enumerate(which):
            draws[at] = [min(int(np.searchsorted(cums[w], u, side="right")), (1 << n) - 1) for u in uniforms[at]]
        assert got.dtype == np.uint16 and np.array_equal(got, draws)


class TestAccessChecksBeforeCharging:
    """Basis words ``measure_chunk`` cannot measure spend no copy and leave the
    outcome stream where it was."""

    def _access(self):
        return SimulatedStateAccess(random_density_matrix(2, np.random.default_rng(6)), seed=7)

    @pytest.mark.parametrize(
        "codes, message",
        [
            (np.array([0, 9, 4]), "basis word indices must lie in [0, 9), got [9]"),
            (np.ones((3, 3), dtype=np.int32), "2-D"),
            (np.array([-1, 2, 3]), "basis word indices must lie in [0, 9), got [-1]"),
            (np.array([1.0, 2.0, 3.0]), "basis word indices need an integer dtype, got float64"),
            (np.array([True, False]), "basis word indices need an integer dtype, got bool"),
            (np.int32(4), "need 1-D basis word indices and one uniform per row, got a 0-D array"),
        ],
    )
    def test_rejected_basis_charges_nothing(self, codes, message):
        access, fresh = self._access(), self._access()
        with pytest.raises(ValueError, match=re.escape(message)):
            access.measure_chunk(codes)
        assert access.copies_used == 0
        basis = paulis.word_indices([[1, 3], [2, 2], [3, 1]])
        assert access.measure_chunk(basis).tobytes() == fresh.measure_chunk(basis).tobytes()

    @pytest.mark.parametrize(
        "codes, message",
        [
            (np.array([2**32 + 1, 1]), "must lie in [0, 9), got [4294967297]"),
            ([1.7, 1], "need an integer dtype, got float64"),
            ([2**31 + 1, 2], "must lie in [0, 9), got [2147483649]"),
        ],
        ids=["int64-wraps", "float-truncates", "list-overflows"],
    )
    def test_codes_checked_before_the_uint8_cast(self, codes, message):
        # Named for the uint8 codes that rows were before they became word indices: words are
        # checked as given, as an int32 cast would wrap 2^32 + 1 to 1 and one of 1.7 truncate it.
        access, fresh = self._access(), self._access()
        with pytest.raises(ValueError, match=re.escape(f"basis word indices {message}")):
            access.measure_chunk(codes)
        assert access.copies_used == 0
        basis = paulis.word_indices([[1, 3], [2, 2], [3, 1]])
        assert access.measure_chunk(basis).tobytes() == fresh.measure_chunk(basis).tobytes()

    def test_empty_basis_returns_no_rows(self):
        access = self._access()
        out = access.measure_chunk(np.empty(0, dtype=np.int32))
        assert out.shape == (0,) and out.dtype == np.uint16
        assert access.copies_used == 0


class TestOutcomeStream:
    """Outcome row r of an access uses uniform r of its one outcome stream,
    however calls split the rows."""

    def test_split_calls_equal_one_call(self):
        truth = random_density_matrix(3, np.random.default_rng(75))
        words = paulis.word_indices(np.random.default_rng(76).integers(1, 4, size=(9000, 3), dtype=np.uint8))
        whole, parts = SimulatedStateAccess(truth, seed=77), SimulatedStateAccess(truth, seed=77)
        want = whole.measure_chunk(words)
        got = np.concatenate([parts.measure_chunk(words[a:b]) for a, b in ((0, 300), (300, 5001), (5001, 9000))])
        assert got.tobytes() == want.tobytes()
        assert parts.copies_used == whole.copies_used == 9000

    def test_rows_use_the_seeded_uniforms_in_order(self):
        truth = random_density_matrix(2, np.random.default_rng(78))
        words = paulis.word_indices(np.random.default_rng(79).integers(1, 4, size=(5000, 2), dtype=np.uint8))
        access = SimulatedStateAccess(truth, seed=80)
        got = np.concatenate([access.measure_chunk(words[:1]), access.measure_chunk(words[1:])])
        uniforms = np.random.default_rng(80).random(5000)
        assert got.tobytes() == sample_outcomes(pauli_tensor(truth).reshape(-1), words, uniforms).tobytes()

    def test_negative_born_row_leaves_the_stream_where_it_was(self):
        bad = np.diag([1.2, -0.2])  # raw array bypasses DensityMatrix checks
        access, fresh = SimulatedStateAccess(bad, seed=81), SimulatedStateAccess(bad, seed=81)
        with pytest.raises(ValueError, match="negative outcome probability"):
            access.measure_chunk(np.full(50, 2))  # Z
        assert access.copies_used == 0
        x_rows = np.zeros(50, dtype=np.int32)  # X: balanced on this diagonal
        assert access.measure_chunk(x_rows).tobytes() == fresh.measure_chunk(x_rows).tobytes()


class TestStreamContract:
    """Prefix, split and no-charge-on-raise on word and outcome indices, at the
    smallest, the benchmark and the largest measured width."""

    @staticmethod
    def _truth(n):
        rng = np.random.default_rng(90 + n)
        return DensityMatrix.pure(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))

    @pytest.mark.parametrize("n", [1, 6, 10])
    def test_collection_is_a_prefix_across_a_batch_boundary(self, n, monkeypatch):
        monkeypatch.setattr(shadows, "BATCH", 2 * CHUNK)
        truth = self._truth(n)
        words, outs = arrays(SimulatedStateAccess(truth, seed=91).collect(2 * CHUNK - 5, 92))
        long_words, long_outs = arrays(SimulatedStateAccess(truth, seed=91).collect(5 * CHUNK + 3, 92))
        assert words.dtype == np.int32 and outs.dtype == np.uint16
        assert words.tobytes() == long_words[: len(words)].tobytes()
        assert outs.tobytes() == long_outs[: len(outs)].tobytes()

    @pytest.mark.parametrize("n", [1, 6, 10])
    def test_measure_chunk_rows_do_not_depend_on_the_split(self, n):
        truth = self._truth(n)
        words = np.random.default_rng(93).integers(0, 3**n, size=9000, dtype=np.int32)
        whole, parts = SimulatedStateAccess(truth, seed=94), SimulatedStateAccess(truth, seed=94)
        want = whole.measure_chunk(words)
        got = np.concatenate([parts.measure_chunk(words[a:b]) for a, b in ((0, 1), (1, 4097), (4097, 9000))])
        assert got.tobytes() == want.tobytes() and parts.copies_used == whole.copies_used == 9000

    @pytest.mark.parametrize("n", [1, 6, 10])
    def test_a_raising_call_spends_no_copy_and_keeps_the_stream(self, n):
        truth = self._truth(n)
        access, fresh = SimulatedStateAccess(truth, seed=95), SimulatedStateAccess(truth, seed=95)
        words = np.random.default_rng(96).integers(0, 3**n, size=300)
        for bad in (np.append(words, 3**n), words.astype(np.float64), words.reshape(3, 100)):
            with pytest.raises(ValueError):
                access.measure_chunk(bad)
        assert access.copies_used == 0
        assert access.measure_chunk(words).tobytes() == fresh.measure_chunk(words).tobytes()


class TestKernelEquivalence:
    """Fed the same words and uniforms, the index kernels give bitwise the
    outcomes and estimates of the reference codes kernel and letter estimator."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_outcomes_and_estimates_equal_the_codes_reference(self, n):
        rng = np.random.default_rng(100 + n)
        coeffs = pauli_tensor(random_density_matrix(n, rng)).reshape(-1)
        words = rng.integers(0, 3**n, size=5 * CHUNK + 17, dtype=np.int32)
        uniforms = rng.random(len(words))
        outs = sample_outcomes(coeffs, words, uniforms)
        codes = paulis.basis_codes(words, n)
        signs = paulis.sample_outcome_signs(coeffs, codes, uniforms)
        assert np.array_equal(paulis.outcome_signs(outs, n), signs)
        for k in range(n + 1):
            got_words, got = estimate_lowdeg([(words, outs)], n, k)
            want_words, want = paulis.estimate_lowdeg_letters([(codes, signs)], k)
            assert got_words.tobytes() == want_words.tobytes() and got.tobytes() == want.tobytes(), k


class TestInvalidState:
    def test_negative_diagonal_rejected(self):
        bad = np.diag([1.2, -0.2])  # raw array bypasses DensityMatrix checks
        rows = np.full(1, 2)  # Z
        with pytest.raises(ValueError, match="negative outcome probability"):
            sample_outcomes(pauli_tensor(bad).reshape(-1), rows, np.full(1, 0.5))


class TestStream:
    """Collections are streams of batches of at most BATCH rows that
    concatenate to the rows of a one-batch collection, and the estimator
    sums them to the one-shot estimate of those rows."""

    @pytest.mark.parametrize("batches, extra", [(1, -1), (1, 0), (1, 1), (3, 5)])
    def test_stream_equals_one_shot_at_batch_boundaries(self, batches, extra, monkeypatch):
        truth = random_density_matrix(3, np.random.default_rng(60))
        T = batches * 2 * CHUNK + extra
        basis, outs = arrays(SimulatedStateAccess(truth, seed=61).collect(T, 62))  # one batch
        monkeypatch.setattr(shadows, "BATCH", 2 * CHUNK)
        rows = list(SimulatedStateAccess(truth, seed=61).collect(T, 62))
        sizes = [len(c) for c, _ in rows]
        assert sum(sizes) == T and set(sizes[:-1]) <= {2 * CHUNK} and 0 < sizes[-1] <= 2 * CHUNK
        got_words, got_outs = arrays(rows)
        assert got_words.tobytes() == basis.tobytes() and got_outs.tobytes() == outs.tobytes()
        access = SimulatedStateAccess(truth, seed=61)
        words, values = estimate_lowdeg(access.collect(T, 62), 3, 2)
        want_words, want = estimate_lowdeg([(basis, outs)], 3, 2)
        assert words.tobytes() == want_words.tobytes() and values.tobytes() == want.tobytes()
        assert access.copies_used == T

    def test_copies_are_spent_as_the_stream_is_read(self, monkeypatch):
        monkeypatch.setattr(shadows, "BATCH", 2 * CHUNK)
        access = SimulatedStateAccess(random_density_matrix(2, np.random.default_rng(63)), seed=64)
        stream = access.collect(5 * CHUNK, 65)
        assert access.copies_used == 0
        assert [(next(stream), access.copies_used)[1] for _ in range(3)] == [2 * CHUNK, 4 * CHUNK, 5 * CHUNK]

    @pytest.mark.parametrize("batch", [CHUNK, 2 * CHUNK])
    def test_pinned_digest_at_any_batch(self, batch, monkeypatch):
        # test_state_learn's TestSimulatedAccess.test_pinned_digest rows, read in batches.
        monkeypatch.setattr(shadows, "BATCH", batch)
        truth = random_density_matrix(4, np.random.default_rng(22))
        words, outs = arrays(SimulatedStateAccess(truth, seed=24).collect(9000, 25))
        digest = hashlib.sha256(words.tobytes() + outs.tobytes())
        assert digest.hexdigest() == (
            "f260001c0d0a5d530073da528c38f236c62435145863b968accf42a50b784168"
        )

    @pytest.mark.parametrize("batch", [BATCH, 2 * CHUNK])
    @pytest.mark.parametrize("short, long", [(100, 5000), (4095, 4097), (4097, 12289)])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_shorter_collection_is_a_prefix(self, n, short, long, batch, monkeypatch):
        monkeypatch.setattr(shadows, "BATCH", batch)
        truth = random_density_matrix(n, np.random.default_rng(72 + n))
        words, outs = arrays(SimulatedStateAccess(truth, seed=73).collect(short, 74))
        long_words, long_outs = arrays(SimulatedStateAccess(truth, seed=73).collect(long, 74))
        assert words.tobytes() == long_words[:short].tobytes()
        assert outs.tobytes() == long_outs[:short].tobytes()

    def test_stream_past_the_real_batch(self):
        truth = random_density_matrix(1, np.random.default_rng(66))
        rows = list(SimulatedStateAccess(truth, seed=67).collect(BATCH + 1, 68))
        assert [len(c) for c, _ in rows] == [BATCH, 1]
        access = SimulatedStateAccess(truth, seed=67)
        words, values = estimate_lowdeg(access.collect(BATCH + 1, 68), 1, 1)
        want_words, want = estimate_lowdeg([arrays(rows)], 1, 1)
        assert words.tobytes() == want_words.tobytes() and values.tobytes() == want.tobytes()
        assert access.copies_used == BATCH + 1

    def test_peak_memory_does_not_grow_with_T(self, monkeypatch):
        # Holding all rows would add at least 14 batches of int32 words and
        # uint16 outcomes (5.25 MiB) at 16 batches; the peaks may differ by 256 KiB.
        monkeypatch.setattr(shadows, "BATCH", 16 * CHUNK)
        truth = random_density_matrix(1, np.random.default_rng(69))
        peaks = []
        for T in (2 * shadows.BATCH, 16 * shadows.BATCH):
            access = SimulatedStateAccess(truth, seed=70)
            tracemalloc.start()
            try:
                estimate_lowdeg(access.collect(T, 71), 1, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1 << 18, peaks

    @pytest.mark.parametrize("T", [0, -1])
    def test_collections_reject_T_below_one_at_the_call(self, T):
        access = SimulatedStateAccess(DensityMatrix(np.eye(2) / 2), seed=1)
        with pytest.raises(ValueError, match=re.escape(f"need at least one sample, got T = {T}")):
            access.collect(T, 2)
        assert access.copies_used == 0

    def test_collections_reject_a_negative_seed_at_the_call(self):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            SimulatedStateAccess(DensityMatrix(np.eye(2) / 2), seed=1).collect(5, -1)

    def test_estimator_refuses_batches_of_unequal_width(self):
        # A batch of three-qubit rows after two-qubit ones holds words past 3^2.
        codes, outs = random_shadows(3, 40, seed=5)
        with pytest.raises(ValueError, match=re.escape("basis word indices must lie in [0, 9), got [")):
            estimate_lowdeg([indices(codes[:, :2], outs[:, :2]), indices(codes, outs)], 2, 1)

    def test_estimator_refuses_an_empty_stream(self):
        with pytest.raises(ValueError, match="need at least one sample"):
            estimate_lowdeg(iter([]), 1, 1)


class TestCollectShadows:
    """Collections by ``SimulatedStateAccess.collect``."""

    def test_deterministic_replay(self):
        rho = random_density_matrix(2, np.random.default_rng(6))
        a_words, a_outs = arrays(SimulatedStateAccess(rho, seed=42).collect(9000, 43))
        b_words, b_outs = arrays(SimulatedStateAccess(rho, seed=42).collect(9000, 43))
        assert np.array_equal(a_words, b_words)
        assert np.array_equal(a_outs, b_outs)

    @pytest.mark.parametrize("n", [1, 4, 6, 8, 9, 10])
    def test_groups_hold_at_most_the_row_bound(self, n, monkeypatch):
        # A Born table holds a row of 2^n floats per distinct word of its call,
        # at most min(rows, 3^n): within 2^22 floats, and one table a batch at n <= 8.
        T = max(CHUNK, (1 << 22) >> n) + CHUNK + 7
        floats = []
        born_rows = shadows._born_rows

        def counted(coeffs, codes):
            floats.append(len(codes) << n)
            return born_rows(coeffs, codes)

        monkeypatch.setattr(shadows, "_born_rows", counted)
        access = SimulatedStateAccess(DensityMatrix(np.eye(1 << n) / (1 << n)), seed=3)
        words, outs = arrays(access.collect(T, 4))
        assert max(floats) <= 1 << 22
        if n <= 8:
            assert len(floats) == -(-T // BATCH)
        assert T == access.copies_used and outs.shape == words.shape == (T,)

    def test_basis_marginals_uniform(self):
        rho = DensityMatrix(np.eye(4) / 4)
        words, _ = arrays(SimulatedStateAccess(rho, seed=7).collect(100_000, 8))
        codes, T = paulis.basis_codes(words, 2), len(words)
        for qubit in range(2):
            counts = np.bincount(codes[:, qubit], minlength=4)[1:]
            expected = T / 3
            sigma = math.sqrt(T * (1 / 3) * (2 / 3))
            assert np.all(np.abs(counts - expected) <= 5 * sigma)


class TestEstimators:
    def test_identity_is_exact(self):
        rho = random_density_matrix(2, np.random.default_rng(8))
        words, values = estimate_lowdeg(SimulatedStateAccess(rho, seed=5).collect(123, 6), 2, 2)
        assert values[np.searchsorted(words, 0)] == 0.25

    def test_rho_eps_z_coefficient(self):
        state = rho_eps(0.2)
        exact = pauli_tensor(state).reshape(-1)[paulis.word("Z")]
        assert exact == pytest.approx(0.1, abs=1e-15)
        rows = arrays(SimulatedStateAccess(state, seed=3).collect(100_000, 4))
        words, values = estimate_lowdeg([rows], 1, 1)
        estimate = values[np.searchsorted(words, paulis.word("Z"))]
        sigma = math.sqrt(3 ** 1 / 4 ** 1 / len(rows[0]))
        assert abs(estimate - exact) <= 5 * sigma

    def test_second_moment_weight_two(self):
        rho = random_density_matrix(3, np.random.default_rng(10))
        codes = paulis.basis_codes(arrays(SimulatedStateAccess(rho, seed=11).collect(1_000_000, 12))[0], 3)
        # The word XZI: X on qubit 1, Z on qubit 2.
        matches = np.all(
            codes[:, :2] == np.array([1, 3], dtype=np.uint8), axis=1
        )
        empirical = (9**2 / 4**3) * matches.mean()
        assert empirical == pytest.approx(9 / 64, rel=0.05)

    def test_lowdeg_matches_per_coefficient(self):
        rho = random_density_matrix(3, np.random.default_rng(12))
        rows = arrays(SimulatedStateAccess(rho, seed=13).collect(4000, 14))
        codes, outs = letters(*rows, 3)
        words, values = estimate_lowdeg([rows], 3, 2)
        assert words.dtype == np.int64 and values.dtype == np.float64
        assert np.all(np.diff(words) > 0)
        for word, value in zip(words.tolist(), values):
            assert value == estimate_coefficient(codes, outs, word)
        want = [w for w in range(4**3) if pauli_weight(w) <= 2]
        assert words.tolist() == want
        assert len(want) == 1 + 3 * 3 + 3 * 9

    def test_supports_in_any_order_give_ascending_unique_words(self, monkeypatch):
        # At widths 1 and 2 the blocks of groups overlap; each word still
        # comes out once, in ascending order.
        rho = random_density_matrix(3, np.random.default_rng(12))
        rows = arrays(SimulatedStateAccess(rho, seed=4).collect(500, 5))
        codes, outs = letters(*rows, 3)
        for g in (1, 2, 3):
            monkeypatch.setattr(hypercube, "group_width", lambda *args, g=g: g)
            words, values = estimate_lowdeg([rows], 3, 2)
            assert words.tolist() == [w for w in range(4**3) if pauli_weight(w) <= 2]
            for word, value in zip(words.tolist(), values):
                assert value == estimate_coefficient(codes, outs, word)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("T", [1, 700])
    def test_full_block_equals_both_oracles_bitwise(self, n, T):
        rho = random_density_matrix(n, np.random.default_rng(30 + n))
        rows = arrays(SimulatedStateAccess(rho, seed=31).collect(T, 32))
        codes, outs = letters(*rows, n)
        want_words, want = _per_support_estimates(codes, outs, n)
        words, values = estimate_lowdeg([rows], n, n)
        assert words.tolist() == want_words.tolist() == list(range(4**n))
        assert values.tobytes() == want.tobytes()
        for word, value in zip(words.tolist(), values):
            assert value == estimate_coefficient(codes, outs, word)
        words, values = estimate_lowdeg([rows], n, 0)
        assert words.tolist() == [0] and values.tolist() == [2.0**-n]

    def test_rejects_codes_outside_one_to_three(self):
        # A code 0 or 4 on qubit 1 puts the word index below 0 or at 3^n or past it.
        codes, outs = letters(*arrays(SimulatedStateAccess(DensityMatrix(np.eye(4) / 4), seed=1).collect(20, 2)), 2)
        for bad in (0, 4):
            bad_codes = codes.copy()
            bad_codes[3, 0] = bad
            with pytest.raises(ValueError, match=re.escape("basis word indices must lie in [0, 9), got [")):
                estimate_lowdeg([indices(bad_codes, outs)], 2, 2)

    def test_rejects_outcomes_other_than_plus_minus_one(self):
        # Two qubits' +/-1 outcomes are the indices 0..3.
        words, outs = arrays(SimulatedStateAccess(DensityMatrix(np.eye(4) / 4), seed=1).collect(20, 2))
        for bad in (-1, 4):
            bad_outs = outs.astype(np.int64)
            bad_outs[5] = bad
            with pytest.raises(ValueError, match=re.escape(f"outcome indices must lie in [0, 4), got [{bad}]")):
                estimate_lowdeg([(words, bad_outs)], 2, 2)

    def test_rejects_outcomes_of_another_shape(self):
        words, outs = arrays(SimulatedStateAccess(DensityMatrix(np.eye(4) / 4), seed=1).collect(20, 2))
        for bad_words, bad_outs in [(words, outs[:19]), (words, outs[:, None]), (words[:, None], outs[:, None]),
                                    (words[0], outs[0]), (words.reshape(4, 5), outs.reshape(4, 5))]:
            shapes = f"word indices of shape {bad_words.shape} and outcome indices of shape {bad_outs.shape}"
            with pytest.raises(ValueError, match=re.escape(f"one shape (T,), got {shapes}")):
                estimate_lowdeg([(bad_words, bad_outs)], 2, 1)
        with pytest.raises(ValueError, match="at least one sample"):
            estimate_lowdeg([(words[:0], outs[:0])], 2, 1)

    def test_rejects_a_non_integer_dtype(self):
        words, outs = np.array([0, 4, 8], dtype=np.int32), np.array([0, 3, 1], dtype=np.uint16)
        for bad, message in [((words.astype(np.float64), outs), "basis word indices need an integer dtype, got float64"),
                             ((words, outs.astype(np.float32)), "outcome indices need an integer dtype, got float32")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                estimate_lowdeg([(words, outs), bad], 2, 1)

    def test_lowdeg_k_zero(self):
        rho = DensityMatrix(np.eye(8) / 8)
        words, values = estimate_lowdeg(SimulatedStateAccess(rho, seed=2).collect(10, 3), 3, 0)
        assert words.tolist() == [0]
        assert values.tolist() == [2.0**-3]

    def test_unbiased_weight_two(self):
        rho = random_density_matrix(3, np.random.default_rng(14))
        exact = pauli_tensor(rho).reshape(-1)
        words, values = estimate_lowdeg(SimulatedStateAccess(rho, seed=15).collect(200_000, 16), 3, 2)
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
            words, values = estimate_lowdeg(SimulatedStateAccess(rho, seed=seed).collect(budget, seed + 1), n, 1)
            if np.max(np.abs(values - exact[words])) <= target:
                hits += 1
        assert hits >= 9


class TestGroupedLowDegree:
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("T", [1, 7, 300, 20000])
    def test_bitwise_equal_to_size_k_blocks(self, n, T):
        codes, outs = random_shadows(n, T, seed=1)
        for k in range(n + 1):
            words, values = estimate_lowdeg([indices(codes, outs)], n, k)
            want_words, want = _per_support_estimates(codes, outs, k)
            assert words.tobytes() == want_words.tobytes()
            assert values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,k,T,blocks", [(10, 2, 20000, 10), (6, 2, 148992, 1)])
    def test_bitwise_equal_at_benchmark_sizes(self, n, k, T, blocks):
        codes, outs = random_shadows(n, T, seed=2)
        groups = -(-n // hypercube.group_width(n, k, T, 6))
        assert math.comb(groups, min(k, groups)) == blocks
        words, values = estimate_lowdeg([indices(codes, outs)], n, k)
        want_words, want = _per_support_estimates(codes, outs, k)
        assert words.tobytes() == want_words.tobytes()
        assert values.tobytes() == want.tobytes()

    # Widths of five or more put all ten columns of (10, 2, 20000) in one
    # block of 6^10 bins (460 MiB), which this test does not allocate.
    @pytest.mark.parametrize("n,k,T,widths", [(6, 2, 148992, range(1, 7)), (10, 2, 20000, range(1, 5))])
    def test_kernel_at_every_width_equals_per_support_oracle(self, n, k, T, widths, monkeypatch):
        codes, outs = random_shadows(n, T, seed=3)
        want_words, want = _per_support_estimates(codes, outs, k)
        for g in widths:
            monkeypatch.setattr(hypercube, "group_width", lambda *args, g=g: g)
            words, totals = block_totals(_LETTER_SUMS, letter_keys(codes, outs), T, n, k)
            assert words.dtype == totals.dtype == np.int64
            assert words.tobytes() == want_words.tobytes()
            values = 3 ** pauli_weight(words) * totals / float((1 << n) * T)
            assert values.tobytes() == want.tobytes()
            words, values = estimate_lowdeg([indices(codes, outs)], n, k)  # keys by table lookup
            assert words.tobytes() == want_words.tobytes() and values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("T", [1, 300, 20000, 10**6])
    def test_blocks_cover_every_size_k_support(self, T):
        # The kernel returns every word of weight at most k at the widths the
        # search picks for T rows; the keys of one row broadcast to all T.
        for n in range(1, 8):
            keys = letter_keys(*random_shadows(n, 1, seed=4))
            for k in range(n + 1):
                words, _ = block_totals(_LETTER_SUMS, keys, T, n, k)
                assert words.tolist() == [w for w in range(4**n) if pauli_weight(w) <= k], (n, k, T)

    def test_checks_shape_before_the_width_search(self, monkeypatch):
        # A 2-D input would otherwise search widths for rows of the wrong kind.
        monkeypatch.setattr(hypercube, "group_width", lambda *args: pytest.fail("width search ran"))
        with pytest.raises(ValueError, match="one shape"):
            estimate_lowdeg([(np.ones((50, 2), dtype=np.int32), np.ones((50, 2), dtype=np.uint16))], 2, 1)


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
