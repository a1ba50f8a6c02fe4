"""Circuits, Choi states, concentration, and address-function distances."""

import itertools
import json
import math

import numpy as np
import pytest

from juntalab.hypercube import (
    RealCubeFunction,
    degree,
    fourier_transform,
)
from juntalab.qstate import (
    DensityMatrix,
    partial_trace,
    pauli_tensor,
    random_density_matrix,
)
from juntalab.qac0 import (
    Qac0Circuit,
    SingleQubitGate,
    ToffoliGate,
    address_function,
    agreement_probability,
    ancilla_choi_relation_residual,
    boolean_distance_to_junta,
    choi_of_boolean_function,
    choi_state_full,
    choi_state_with_ancilla,
    circuit_unitary,
    concentration_search,
    fnorm_agreement_identity,
    haar_single_qubit,
    light_cone,
    load_circuit,
    random_circuit,
    remove_long_toffolis,
    removal_pauli_mass_shift,
    save_circuit,
)
import paulis


def toffoli_truth_table(controls, target, total):
    """Oracle: basis-state map, flipping the target iff every control bit is 1."""
    dim = 1 << total
    mat = np.zeros((dim, dim))
    for source in range(dim):
        image = source
        if all(source >> (total - c) & 1 for c in controls):
            image = source ^ (1 << (total - target))
        mat[image, source] = 1.0
    return mat


def choi_by_definition(unitary, total):
    """Oracle: apply the all-to-output channel to each maximally-entangled block."""
    dim = 1 << total
    out = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for x in range(dim):
        for y in range(dim):
            block = np.zeros((dim, dim), dtype=complex)
            block[x, y] = 1.0
            evolved = unitary @ block @ unitary.conj().T
            # trace out all but the last circuit qubit
            reduced = evolved.reshape(dim // 2, 2, dim // 2, 2)
            output_block = np.einsum("waxb->ab", reduced * 0)
            for w in range(dim // 2):
                output_block = output_block + evolved.reshape(dim // 2, 2, dim // 2, 2)[w, :, w, :]
            for o in range(2):
                for o2 in range(2):
                    out[o * dim + x, o2 * dim + y] += output_block[o, o2] / dim
    return out


def light_cone_bfs(circuit, qubit):
    """Oracle: explicit reverse breadth-first sweep over gate adjacency."""
    cone = {qubit}
    for layer in reversed(circuit.layers):
        additions = set()
        for gate in layer:
            if gate.touched & cone:
                additions |= gate.touched
        cone |= additions
    return tuple(sorted(cone))


def off_subset_mass_by_traces(mat, n, subset):
    """Oracle: per-string trace coefficients, summed over supports not in K."""
    total = 0.0
    for packed in range(4**n):
        if set(paulis.support(n, packed)) <= set(subset):
            continue
        coeff = complex(np.trace(paulis.matrix(n, packed) @ mat)).real / (1 << n)
        total += coeff * coeff
    return total


def all_boolean_functions(n):
    for bits in range(1 << (1 << n)):
        values = [1.0 - 2.0 * (bits >> i & 1) for i in range(1 << n)]
        yield RealCubeFunction(n, values)


class TestGates:
    def test_single_qubit_must_be_unitary(self):
        with pytest.raises(ValueError):
            SingleQubitGate(1, np.array([[1.0, 0.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 0)])
    def test_single_qubit_rejects_non_finite_entry(self, bad, where):
        mat = np.eye(2, dtype=complex)
        mat[where] = bad
        with pytest.raises(ValueError, match="non-finite entry"):
            SingleQubitGate(1, mat)

    def test_toffoli_validation(self):
        with pytest.raises(ValueError):
            ToffoliGate((), 1)
        with pytest.raises(ValueError):
            ToffoliGate((1, 2), 2)

    def test_arity_counts_controls_plus_target(self):
        assert ToffoliGate((1, 2), 3).arity == 3

    def test_layer_disjointness_enforced(self):
        with pytest.raises(ValueError):
            Qac0Circuit(2, 0, ((ToffoliGate((1,), 3), ToffoliGate((1,), 2)),))

    def test_size_and_depth(self):
        circuit = Qac0Circuit(
            2,
            0,
            (
                (ToffoliGate((1,), 3),),
                (SingleQubitGate(2, np.eye(2)), ToffoliGate((1,), 3)),
            ),
        )
        assert circuit.depth == 2
        assert circuit.size == 2
        assert circuit.output_qubit == 3


class TestCircuitUnitary:
    def test_empty_circuit_is_identity(self):
        circuit = Qac0Circuit(1, 1, ())
        assert np.array_equal(circuit_unitary(circuit), np.eye(8))

    def test_toffoli_matches_truth_table(self):
        circuit = Qac0Circuit(2, 0, ((ToffoliGate((1, 2), 3),),))
        got = circuit_unitary(circuit)
        want = toffoli_truth_table((1, 2), 3, 3)
        assert np.array_equal(got.real, want)
        # the displayed permutation: only |110> and |111> swap
        assert want[7, 6] == want[6, 7] == 1.0

    def test_random_circuits_are_unitary(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            circuit = random_circuit(2, 1, 2, rng)
            u = circuit_unitary(circuit)
            assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-10

    @pytest.mark.parametrize("qubit", [1, 2, 3])
    def test_single_qubit_gate_matches_kronecker_embedding(self, qubit):
        gate = haar_single_qubit(np.random.default_rng(qubit))
        circuit = Qac0Circuit(2, 0, ((SingleQubitGate(qubit, gate),),))
        want = np.kron(np.kron(np.eye(1 << (qubit - 1)), gate), np.eye(1 << (3 - qubit)))
        assert np.array_equal(circuit_unitary(circuit), want)

    def test_layer_order_applied_first_to_last(self):
        # X on qubit 1 then a Toffoli controlled on qubit 1
        x_gate = SingleQubitGate(1, np.array([[0.0, 1.0], [1.0, 0.0]]))
        circuit = Qac0Circuit(1, 0, ((x_gate,), (ToffoliGate((1,), 2),)))
        u = circuit_unitary(circuit)
        state = np.zeros(4)
        state[0b00] = 1.0
        # |00> -> |10> -> |11>
        assert np.argmax(np.abs(u @ state)) == 0b11


class TestChoiStateFull:
    def test_identity_single_qubit(self):
        # hand computation: the identity channel's Choi state is the pure
        # maximally entangled projector (|00> + |11>)(<00| + <11|) / 2
        choi = choi_state_full(Qac0Circuit(0, 0, ()))
        want = np.zeros((4, 4))
        want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 0.5
        assert np.max(np.abs(choi.entries - want)) <= 1e-12

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(4):
            circuit = random_circuit(1, 1, 2, rng)
            got = choi_state_full(circuit).entries
            want = choi_by_definition(circuit_unitary(circuit), circuit.total_qubits)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_trace_one(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            circuit = random_circuit(2, 1, 2, rng)
            choi = choi_state_full(circuit)
            assert complex(np.trace(choi.entries)).real == pytest.approx(1.0, abs=1e-10)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            choi_state_full(Qac0Circuit(5, 0, ()))


class TestChoiStateWithAncilla:
    def test_identity_function_matches_boolean_choi(self):
        circuit = Qac0Circuit(1, 0, ((ToffoliGate((1,), 2),),))
        got = choi_state_with_ancilla(circuit).entries
        want = choi_of_boolean_function(RealCubeFunction(1, [1.0, -1.0])).entries
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_ancilla_relation_on_random_circuits(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            sigma = random_density_matrix(2, rng)
            circuit = random_circuit(2, 1, 2, rng, sigma=sigma)
            assert ancilla_choi_relation_residual(circuit) <= 1e-9

    def test_maximally_mixed_sigma_trivial_circuit(self):
        # no gates: the output register carries sigma's output marginal and
        # the references stay maximally mixed
        sigma = DensityMatrix.maximally_mixed(1)
        circuit = Qac0Circuit(2, 0, (), sigma)
        choi = choi_state_with_ancilla(circuit)
        reduced_out = partial_trace(choi, (1,))
        reduced_refs = partial_trace(choi, (2, 3))
        assert np.max(np.abs(reduced_out.entries - np.eye(2) / 2)) <= 1e-12
        assert np.max(np.abs(reduced_refs.entries - np.eye(4) / 4)) <= 1e-12

    def test_sigma_dimension_checked(self):
        circuit = Qac0Circuit(1, 0, ())
        with pytest.raises(ValueError):
            choi_state_with_ancilla(circuit, DensityMatrix.maximally_mixed(2))


class TestBooleanChoi:
    def test_constant_function_spectrum(self):
        choi = choi_of_boolean_function(RealCubeFunction(2, np.ones(4)))
        spec = pauli_tensor(choi).reshape(-1)
        for word in np.flatnonzero(spec).tolist():
            assert all(c in (0, 3) for c in paulis.codes(choi.n, word))
            # only the empty set and the output-Z line survive
            assert set(paulis.support(choi.n, word)) <= {1}

    def test_identity_function_diagonal(self):
        choi = choi_of_boolean_function(RealCubeFunction(1, [1.0, -1.0]))
        assert np.max(np.abs(choi.entries - np.diag([0.5, 0, 0, 0.5]))) <= 1e-15

    def test_spectrum_proportional_to_function_coefficients(self):
        rng = np.random.default_rng(5)
        values = rng.choice([-1.0, 1.0], size=8)
        f = RealCubeFunction(3, values)
        fspec = fourier_transform(f)
        choi = choi_of_boolean_function(f)
        cspec = pauli_tensor(choi).reshape(-1)
        # diagonal state: every X/Y coefficient vanishes
        for word, value in enumerate(cspec):
            if any(c in (1, 2) for c in paulis.codes(choi.n, word)):
                assert abs(value) <= 1e-12
        ratios = []
        for mask in range(8):
            if fspec[mask] == 0.0:
                continue
            letters = "Z" + "".join("Z" if mask >> (3 - i) & 1 else "I" for i in range(1, 4))
            ratio = cspec[paulis.word(letters)] / fspec[mask]
            ratios.append(ratio)
        assert ratios
        assert max(ratios) - min(ratios) <= 1e-12

    def test_rejects_non_boolean(self):
        with pytest.raises(ValueError):
            choi_of_boolean_function(RealCubeFunction(1, [0.5, 1.0]))


class TestAgreementIdentity:
    def test_equal_functions(self):
        f = RealCubeFunction(2, [1.0, -1.0, 1.0, -1.0])
        kappa, residual = fnorm_agreement_identity((f, f))
        assert kappa is None and residual == 0.0

    def test_negated_function(self):
        f = RealCubeFunction(2, [1.0, -1.0, 1.0, -1.0])
        g = RealCubeFunction(2, [-1.0, 1.0, -1.0, 1.0])
        kappa, _ = fnorm_agreement_identity((f, g))
        dist_sq = (
            np.linalg.norm(
                choi_of_boolean_function(f).entries
                - choi_of_boolean_function(g).entries
            )
            ** 2
        )
        assert agreement_probability(f, g) == 1.0
        assert kappa * dist_sq == pytest.approx(1.0, abs=1e-12)

    def test_exhaustive_n2_constant(self):
        pairs = [
            (f, g)
            for f in all_boolean_functions(2)
            for g in all_boolean_functions(2)
        ]
        kappa, residual = fnorm_agreement_identity(pairs)
        assert kappa == pytest.approx(2.0, abs=1e-10)
        assert residual <= 1e-10

    def test_random_pairs_single_constant(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3):
            pairs = []
            for _ in range(20):
                f = RealCubeFunction(n, rng.choice([-1.0, 1.0], size=1 << n))
                g = RealCubeFunction(n, rng.choice([-1.0, 1.0], size=1 << n))
                pairs.append((f, g))
            kappa, residual = fnorm_agreement_identity(pairs)
            assert kappa == pytest.approx(2.0 ** (n - 1), abs=1e-10)
            assert residual <= 1e-10


class TestRemoveLongToffolis:
    def build(self):
        return Qac0Circuit(
            3,
            0,
            (
                (ToffoliGate((1, 2), 3), SingleQubitGate(4, np.eye(2))),
                (ToffoliGate((1,), 4),),
            ),
        )

    def test_above_max_arity_unchanged(self):
        pruned, removed = remove_long_toffolis(self.build(), 4)
        assert removed == 0
        assert pruned.size == 2

    def test_arity_one_removes_all(self):
        pruned, removed = remove_long_toffolis(self.build(), 1)
        assert removed == 2
        assert pruned.size == 0
        assert pruned.depth == 2  # layers preserved

    def test_mixed_filter(self):
        pruned, removed = remove_long_toffolis(self.build(), 3)
        assert removed == 1
        kept = [g for layer in pruned.layers for g in layer if isinstance(g, ToffoliGate)]
        assert [g.arity for g in kept] == [2]


class TestLightCone:
    def test_empty_circuit(self):
        circuit = Qac0Circuit(2, 0, ())
        assert light_cone(circuit, 3) == (3,)

    def test_single_toffoli(self):
        circuit = Qac0Circuit(2, 0, ((ToffoliGate((1, 2), 3),),))
        assert light_cone(circuit, 3) == (1, 2, 3)

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            circuit = random_circuit(3, 1, 2, rng)
            for qubit in range(1, circuit.total_qubits + 1):
                assert light_cone(circuit, qubit) == light_cone_bfs(circuit, qubit)

    def test_depth_two_fanin_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            circuit = random_circuit(3, 1, 2, rng, max_toffoli_arity=3)
            cone = light_cone(circuit, circuit.output_qubit)
            assert len(cone) <= 3**2


class TestConcentrationSearch:
    def test_exact_junta_residual_zero(self):
        from juntalab.qstate import embed_on

        state = embed_on(random_density_matrix(1, np.random.default_rng(9)), (2,), 3)
        subset, residual = concentration_search(state, 1)
        assert subset == (2,)
        assert residual <= 1e-12

    def test_maximally_mixed_lexicographic(self):
        subset, residual = concentration_search(DensityMatrix.maximally_mixed(3), 1)
        assert subset == (1,)
        assert residual == 0.0

    def test_rounding_level_residuals_tie(self):
        # Qubit 1 is maximally mixed and qubit 2 nearly so: subset (2,) leaves
        # no mass outside, subset (1,) leaves (e/4)^2 = 1e-14, within 1e-12 of
        # the total mass 1/16, so the two tie and the first subset wins.
        e = 4e-7
        rho = DensityMatrix.from_diagonal(np.tile([(1 + e) / 4, (1 - e) / 4], 2))
        subset, residual = concentration_search(rho, 1)
        assert subset == (1,)
        assert residual == pytest.approx(1e-14, rel=1e-6)

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(10)
        rho = random_density_matrix(3, rng)
        got_subset, got_value = concentration_search(rho, 1)
        best = None
        for subset in itertools.combinations((1, 2, 3), 1):
            mass = off_subset_mass_by_traces(rho.entries, 3, subset)
            if best is None or mass < best[1]:
                best = (subset, mass)
        assert got_subset == best[0]
        assert got_value == pytest.approx(best[1], abs=1e-12)

    def test_light_cone_junta_law(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            circuit = random_circuit(2, 1, 2, rng)
            cone = light_cone(circuit, circuit.output_qubit)
            choi = choi_state_full(circuit)
            _, residual = concentration_search(choi, len(cone) + 1)
            assert residual <= 1e-10


class TestRemovalPerturbation:
    def test_mass_matches_direct_recompute(self):
        rng = np.random.default_rng(12)
        circuit = random_circuit(2, 1, 2, rng)
        mass, removed = removal_pauli_mass_shift(circuit, 3)
        pruned, removed2 = remove_long_toffolis(circuit, 3)
        t1 = pauli_tensor(choi_state_full(circuit).entries)
        t2 = pauli_tensor(choi_state_full(pruned).entries)
        assert removed == removed2
        assert mass == pytest.approx(float(((t1 - t2) ** 2).sum()), abs=1e-15)

    def test_measured_constant_reported(self):
        # the shift obeys mass <= C * m^2 / (2^l * 2^(2(n+a+2))) for a
        # measured C; report it and sanity-check it is finite when gates
        # were actually removed
        rng = np.random.default_rng(13)
        arity = 2
        worst = 0.0
        for _ in range(10):
            circuit = random_circuit(2, 1, 2, rng)
            mass, removed = removal_pauli_mass_shift(circuit, arity)
            if removed == 0:
                assert mass <= 1e-24
                continue
            scale = removed**2 / (2**arity * 2 ** (2 * (circuit.total_qubits + 1)))
            worst = max(worst, mass / scale)
        assert math.isfinite(worst)


class TestAddressFunction:
    def test_d1_truth_table(self):
        f = address_function(1)
        # variables: x, y1, y2; f = y1 when x=+1 else y2
        for bits in range(8):
            x = 1 - 2 * (bits >> 2 & 1)
            y1 = 1 - 2 * (bits >> 1 & 1)
            y2 = 1 - 2 * (bits & 1)
            want = y1 if x == 1 else y2
            assert f.values[bits] == want

    def test_plus_minus_valued(self):
        for d in (1, 2):
            assert np.all(np.abs(np.abs(address_function(d).values) - 1.0) == 0.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_degree_is_d_plus_one(self, d):
        assert degree(fourier_transform(address_function(d))) == d + 1


class TestJuntaDistance:
    def test_junta_has_distance_zero(self):
        # f depends only on variable 2
        f = RealCubeFunction(3, [1, 1, -1, -1, 1, 1, -1, -1])
        assert boolean_distance_to_junta(f, 1) == 0.0

    def test_d1_address_exact_quarter(self):
        f = address_function(1)
        assert boolean_distance_to_junta(f, 1) == pytest.approx(0.25, abs=1e-15)

    def test_d1_matches_full_enumeration(self):
        # validate the conditional-mean construction against brute force over
        # every 1-junta on every singleton subset
        f = address_function(1)
        n = f.n
        best = 1.0
        for var in range(1, n + 1):
            for labels in itertools.product((-1.0, 1.0), repeat=2):
                g = np.empty(1 << n)
                for bits in range(1 << n):
                    bit = bits >> (n - var) & 1
                    g[bits] = labels[bit]
                best = min(best, float(np.mean(f.values != g)))
        assert boolean_distance_to_junta(f, 1) == pytest.approx(best, abs=1e-15)

    def test_d2_bound_for_all_k(self):
        f = address_function(2)
        for k in range(0, 5):
            bound = (4 - k) / 8
            assert boolean_distance_to_junta(f, k) >= bound - 1e-12


class TestCircuitJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        circuit = random_circuit(2, 1, 2, rng, sigma=random_density_matrix(2, rng))
        path = tmp_path / "circuit.json"
        save_circuit(circuit, path)
        back = load_circuit(path)
        assert np.max(np.abs(circuit_unitary(back) - circuit_unitary(circuit))) <= 1e-12
        assert np.max(np.abs(back.sigma.entries - circuit.sigma.entries)) <= 1e-15
        assert back.n == circuit.n and back.a == circuit.a

    def test_format(self, tmp_path):
        circuit = Qac0Circuit(
            1, 0, ((ToffoliGate((1,), 2),), (SingleQubitGate(1, np.eye(2)),))
        )
        path = tmp_path / "circuit.json"
        save_circuit(circuit, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"n", "a", "layers", "sigma"}
        toffoli = payload["layers"][0][0]
        assert toffoli == {"type": "toffoli", "controls": [1], "target": 2}
        single = payload["layers"][1][0]
        assert set(single) == {"type", "q", "re", "im"}


class TestRandomCircuit:
    def test_respects_arity_cap(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            circuit = random_circuit(3, 1, 2, rng, max_toffoli_arity=3)
            for layer in circuit.layers:
                for gate in layer:
                    if isinstance(gate, ToffoliGate):
                        assert gate.arity <= 3

    def test_haar_gate_is_unitary(self):
        rng = np.random.default_rng(16)
        u = haar_single_qubit(rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12
