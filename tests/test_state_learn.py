"""Junta-state learner, PSD projection, and the Choi-state learner."""

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from juntalab.qstate import (
    DensityMatrix,
    embed_on,
    frobenius_distance,
    pauli_weight,
    random_density_matrix,
    trace_distance,
)
from juntalab.qac0 import Qac0Circuit, ToffoliGate, choi_state_with_ancilla
from juntalab.shadows import CHUNK, MAX_MEASURE_QUBITS
from juntalab.state_learn import (
    LearnedState,
    SimulatedStateAccess,
    junta_state_sample_count,
    learn_junta_state,
    learn_qac0_choi,
    pauli_threshold_cutoff,
    psd_project,
    qac0_junta_arity,
    threshold_pauli,
)
import paulis


def threshold_by_cases(estimates, k, eps, n):
    """Direct reimplementation of the three-case rule on a {word: estimate}
    dict, as an oracle."""
    cutoff = eps / (2 * 2**n * math.sqrt(4**k))
    out = {}
    for word, value in estimates.items():
        weight = pauli_weight(word)
        if weight > k:
            continue
        if weight == 0:
            continue
        if abs(value) <= cutoff:
            continue
        out[word] = value
    out[0] = 2.0**-n
    return out


def packed(*texts):
    return np.array([paulis.word(text) for text in texts], dtype=np.int64)


class TestThresholdPauli:
    def test_all_below_keeps_only_identity(self):
        n, k, eps = 3, 1, 0.2
        cutoff = pauli_threshold_cutoff(n, k, eps)
        words = packed("III", "IIZ", "XII")
        words, values = threshold_pauli(words, [2.0**-3, cutoff / 2, -cutoff / 2], k, eps, n)
        assert words.tolist() == [0]
        assert values.tolist() == [2.0**-3]

    def test_boundary_value_is_zeroed(self):
        n, k, eps = 2, 1, 0.3
        cutoff = pauli_threshold_cutoff(n, k, eps)
        words, _ = threshold_pauli(packed("IZ"), [cutoff], k, eps, n)
        assert paulis.word("IZ") not in words.tolist()

    def test_matches_case_oracle(self):
        rng = np.random.default_rng(7)
        n, k, eps = 3, 1, 0.25
        values = rng.standard_normal(4**n) * 0.02
        words, kept = threshold_pauli(np.arange(4**n), values, k, eps, n)
        want = threshold_by_cases(dict(enumerate(values.tolist())), k, eps, n)
        assert dict(zip(words.tolist(), kept.tolist())) == want

    def test_never_keeps_high_weight(self):
        words, _ = threshold_pauli(packed("XYZ"), [0.5], 2, 0.1, 3)
        assert pauli_weight(words).max() == 0

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_output_starts_with_pinned_identity(self, n):
        # The identity estimate is replaced (or supplied, when absent) by
        # 2^-n, and it leads the ascending words.
        rng = np.random.default_rng(n)
        words = np.arange(4**n) if n < 5 else np.arange(1, 4**3)
        values = rng.standard_normal(words.size)
        out_words, out_values = threshold_pauli(words, values, 2, 0.01, n)
        assert out_words.dtype == np.int64 and out_values.dtype == np.float64
        assert out_words[0] == 0 and out_values[0] == 2.0**-n
        assert np.all(np.diff(out_words) > 0)
        assert out_words.size > 1


class TestPsdProject:
    def test_psd_input_unchanged(self):
        rho = random_density_matrix(2, np.random.default_rng(3))
        projected = psd_project(rho.entries)
        assert np.max(np.abs(projected.entries - rho.entries)) <= 1e-12

    def test_single_clip(self):
        projected = psd_project(np.diag([1.1, -0.1]))
        assert np.max(np.abs(projected.entries - np.diag([1.0, 0.0]))) <= 1e-12

    def test_projection_at_most_doubles_frobenius_error(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            truth = random_density_matrix(2, rng)
            noise = rng.standard_normal((4, 4)) * 0.03
            noise = (noise + noise.T) / 2
            noise -= np.eye(4) * np.trace(noise) / 4
            perturbed = truth.entries + noise
            raw = frobenius_distance(perturbed, truth)
            projected = frobenius_distance(psd_project(perturbed), truth)
            assert projected <= 2.0 * raw + 1e-12

    def test_no_positive_part_raises(self):
        with pytest.raises(ValueError):
            psd_project(np.diag([-1.0, -0.5]))


# The two eigensolver users that take raw arrays; each is called on one matrix.
EIGEN_USERS = {
    "psd_project": psd_project,
    "trace_distance": lambda mat: trace_distance(mat, np.zeros_like(mat)),
}


class TestEigensolverUsers:
    @pytest.mark.parametrize("use", EIGEN_USERS.values(), ids=list(EIGEN_USERS))
    def test_rejects_non_hermitian(self, use):
        with pytest.raises(ValueError, match="not Hermitian"):
            use(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("use", EIGEN_USERS.values(), ids=list(EIGEN_USERS))
    def test_rejects_non_square(self, use):
        with pytest.raises(ValueError, match="square"):
            use(np.ones((2, 3)))

    def test_repeats_are_bitwise_identical(self):
        # Replay at any worker count needs the same bits from every call,
        # including calls made concurrently from a thread pool.
        rng = np.random.default_rng(9)
        g = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        mat = (g + g.conj().T) / 2
        other = random_density_matrix(5, rng)

        def both(_):
            return psd_project(mat).entries.tobytes(), trace_distance(mat, other)

        first = both(None)
        assert both(None) == first
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert set(pool.map(both, range(8))) == {first}


class TestSampleCount:
    def test_frozen_arithmetic(self):
        want = math.ceil(8 * 144 * (2 * math.log(18) - math.log(0.1)) / 0.25**2)
        assert junta_state_sample_count(6, 2, 0.25, 0.1, 8.0) == want


class TestLearnJuntaState:
    def test_maximally_mixed_exact(self):
        truth = DensityMatrix(np.eye(8) / 8)
        access = SimulatedStateAccess(truth, seed=1)
        result = learn_junta_state(access, 1, 0.3, 0.1, basis_seed=2)
        assert np.array_equal(result.matrix, truth.entries)
        assert result.words.tolist() == [0]
        assert result.values.tolist() == [2.0**-3]

    def test_planted_junta_within_bound(self):
        rng = np.random.default_rng(11)
        truth = embed_on(random_density_matrix(1, rng), (3,), 4)
        for seed in (0, 1):
            access = SimulatedStateAccess(truth, seed=seed)
            result = learn_junta_state(access, 1, 0.25, 0.1, basis_seed=seed + 10)
            assert trace_distance(result.psd_projected, truth) <= math.sqrt(2) * 0.25
            assert access.copies_used == junta_state_sample_count(4, 1, 0.25, 0.1)

    def test_spectrum_weight_capped(self):
        truth = random_density_matrix(3, np.random.default_rng(13))
        access = SimulatedStateAccess(truth, seed=4)
        result = learn_junta_state(access, 1, 0.4, 0.2, basis_seed=5)
        assert pauli_weight(result.words).max() <= 1

    def test_deterministic_given_seeds(self):
        truth = embed_on(random_density_matrix(1, np.random.default_rng(2)), (1,), 3)
        runs = [
            learn_junta_state(SimulatedStateAccess(truth, seed=9), 1, 0.3, 0.1, basis_seed=8)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].matrix, runs[1].matrix)


class TestSimulatedAccess:
    def test_copy_counter(self):
        truth = DensityMatrix(np.eye(4) / 4)
        access = SimulatedStateAccess(truth, seed=0)
        access.measure_chunk(np.array([[1, 3]], dtype=np.uint8))
        access.measure_chunk(np.array([[1, 2], [3, 3]], dtype=np.uint8))
        assert access.copies_used == 3

    def test_outcomes_are_signs(self):
        truth = random_density_matrix(2, np.random.default_rng(1))
        access = SimulatedStateAccess(truth, seed=3)
        out = access.measure_chunk(np.ones((5, 2), dtype=np.uint8))
        assert set(np.unique(out)).issubset({-1, 1})

    @pytest.mark.parametrize("code", [0, 4])
    def test_rejects_codes_outside_xyz(self, code):
        access = SimulatedStateAccess(random_density_matrix(2, np.random.default_rng(2)), seed=1)
        with pytest.raises(ValueError, match="basis codes must be"):
            access.measure_chunk(np.array([[1, code]], dtype=np.uint8))

    def test_measures_a_full_chunk_at_the_cap(self):
        rng = np.random.default_rng(9)
        truth = random_density_matrix(MAX_MEASURE_QUBITS, rng, rank=4)
        access = SimulatedStateAccess(truth, seed=4)
        codes = rng.integers(1, 4, size=(CHUNK, MAX_MEASURE_QUBITS), dtype=np.uint8)
        out = access.measure_chunk(codes)
        assert out.shape == (CHUNK, MAX_MEASURE_QUBITS) and out.dtype == np.int8
        assert set(np.unique(out)).issubset({-1, 1})
        assert access.copies_used == CHUNK

    def test_one_call_equals_per_chunk_calls(self):
        truth = random_density_matrix(3, np.random.default_rng(10))
        codes = np.random.default_rng(11).integers(1, 4, size=(2 * CHUNK + 500, 3), dtype=np.uint8)
        whole, parts = SimulatedStateAccess(truth, seed=5), SimulatedStateAccess(truth, seed=5)
        got = whole.measure_chunk(codes)
        want = np.concatenate([parts.measure_chunk(codes[at : at + CHUNK]) for at in range(0, len(codes), CHUNK)])
        assert got.tobytes() == want.tobytes()
        assert whole.copies_used == parts.copies_used == len(codes)
        # The next call continues the same outcome stream.
        assert whole.measure_chunk(codes[:300]).tobytes() == parts.measure_chunk(codes[:300]).tobytes()

    def test_pinned_digest(self):
        # Pins the learner's basis stream and the access's outcome stream.
        truth = random_density_matrix(4, np.random.default_rng(22))
        codes, outs = map(np.concatenate, zip(*SimulatedStateAccess(truth, seed=24).collect(9000, 25)))
        digest = hashlib.sha256(codes.tobytes() + outs.tobytes())
        assert digest.hexdigest() == (
            "94b232097a1c5b4da56ebb7854af23c20b39db0f78eeb5f08d69cb19ff8b54e6"
        )


class TestSquaredCoefficientGuarantee:
    def test_never_worse_than_claimed_on_separated_juntas(self):
        # exact junta with all nonzero coefficients above 2x the cutoff: the
        # total squared coefficient error stays within 2 eps^2 / 2^(2n) at the
        # prescribed copy count, in at least 9 of 10 seeds
        from juntalab.qstate import pauli_tensor, pauli_tensor_to_matrix

        n, k, eps, delta = 4, 1, 0.25, 0.1
        cutoff = eps / (2.0 * 2**n * 2**k)
        floor = 2.5 * cutoff * 2 ** (n - k)
        rng = np.random.default_rng(23)
        coeffs = np.array([0.5, 0.0, 0.0, 0.0])
        for word in (1, 2, 3):
            coeffs[word] = float(rng.choice([-1, 1])) * float(rng.uniform(floor, 1.5 * floor))
        block = DensityMatrix(pauli_tensor_to_matrix(coeffs))
        truth = embed_on(block, (2,), n)
        exact = pauli_tensor(truth).reshape(-1)
        budget = 2.0 * eps**2 / 2 ** (2 * n)
        hits = 0
        for seed in range(10):
            access = SimulatedStateAccess(truth, seed=800 + seed)
            result = learn_junta_state(access, k, eps, delta, basis_seed=seed)
            learned = np.zeros_like(exact)
            learned[result.words] = result.values
            if float(((learned - exact) ** 2).sum()) <= budget:
                hits += 1
        assert hits >= 9


class TestQac0Arity:
    def test_formula_values(self):
        # log2(1 * 2^1 / 0.25) = 3, depth 1
        assert qac0_junta_arity(1, 1, 0, 0.25) == 3
        # log2(4 * 4 / 0.5) = 5, depth 2 -> 25
        assert qac0_junta_arity(2, 2, 1, 0.5) == 25
        # s floored at 1: log2(2 / 0.5) = 2, depth 2 -> 4
        assert qac0_junta_arity(0, 2, 0, 0.5) == 4

    def test_negative_log_floors_at_zero(self):
        assert qac0_junta_arity(1, 1, 0, 3.9) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            qac0_junta_arity(1, -1, 0, 0.1)


class TestLearnQac0Choi:
    def test_identity_function_circuit(self):
        # one Toffoli copying the input into the output; arity bound clamps to
        # the 2 available qubits
        circuit = Qac0Circuit(1, 0, ((ToffoliGate((1,), 2),),))
        truth = choi_state_with_ancilla(circuit)
        access = SimulatedStateAccess(truth, seed=6)
        with pytest.warns(UserWarning, match="clamping"):
            result = learn_qac0_choi(access, circuit.size, circuit.depth, 0, 0.25, 0.1, basis_seed=7)
        assert result.junta_arity == 2
        merit = 2 ** circuit.n * frobenius_distance(truth, result.matrix) ** 2
        assert merit <= 0.25
        assert trace_distance(result.psd_projected, truth) <= 0.6

    def test_degenerate_arity_zero_gives_maximally_mixed(self):
        circuit = Qac0Circuit(1, 0, ((ToffoliGate((1,), 2),),))
        truth = choi_state_with_ancilla(circuit)
        access = SimulatedStateAccess(truth, seed=8)
        result = learn_qac0_choi(access, 1, 1, 0, 3.9, 0.1, basis_seed=9)
        assert result.junta_arity == 0
        mixed = DensityMatrix(np.eye(4) / 4)
        assert np.array_equal(result.matrix, mixed.entries)
        merit = 2 ** circuit.n * frobenius_distance(truth, result.matrix) ** 2
        exact = 2 ** circuit.n * frobenius_distance(truth, mixed) ** 2
        assert merit == exact

    def test_result_type(self):
        circuit = Qac0Circuit(1, 0, ((ToffoliGate((1,), 2),),))
        truth = choi_state_with_ancilla(circuit)
        access = SimulatedStateAccess(truth, seed=10)
        result = learn_qac0_choi(access, 1, 1, 0, 2.0, 0.2, basis_seed=11)
        assert isinstance(result, LearnedState)
        assert access.copies_used == junta_state_sample_count(2, result.junta_arity, math.sqrt(2.0), 0.2)

    def test_single_toffoli_merit_bound(self):
        # two-input conjunction circuit: the dimension-scaled Frobenius merit
        # lands under eps at the prescribed copy count in >= 9 of 10 seeds
        eps = 0.5
        circuit = Qac0Circuit(2, 0, ((ToffoliGate((1, 2), 3),),))
        truth = choi_state_with_ancilla(circuit)
        hits = 0
        copies = None
        for seed in range(10):
            access = SimulatedStateAccess(truth, seed=500 + seed)
            result = learn_qac0_choi(
                access, circuit.size, circuit.depth, 0, eps, 0.1, basis_seed=seed
            )
            assert result.junta_arity == 2
            copies = access.copies_used
            merit = 2 ** circuit.n * frobenius_distance(truth, result.matrix) ** 2
            if merit <= eps:
                hits += 1
        assert copies == junta_state_sample_count(3, 2, math.sqrt(eps), 0.1)
        assert hits >= 9


class TestPsdSpectrumConsistency:
    def test_reconstruction_matches_spectrum(self):
        truth = embed_on(random_density_matrix(1, np.random.default_rng(17)), (2,), 3)
        access = SimulatedStateAccess(truth, seed=12)
        result = learn_junta_state(access, 1, 0.3, 0.1, basis_seed=13)
        rebuilt = np.zeros_like(result.matrix)
        for word, value in zip(result.words.tolist(), result.values):
            rebuilt = rebuilt + value * paulis.matrix(3, word)
        assert np.max(np.abs(rebuilt - result.matrix)) <= 1e-10

    def test_projection_eigenvalues_nonnegative(self):
        truth = embed_on(random_density_matrix(1, np.random.default_rng(19)), (1,), 3)
        access = SimulatedStateAccess(truth, seed=14)
        result = learn_junta_state(access, 1, 0.3, 0.1, basis_seed=15)
        w = np.linalg.eigvalsh(result.psd_projected.entries)
        assert w.min() >= -1e-12
