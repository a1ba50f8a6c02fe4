"""Density-matrix core: Pauli expansion, distances, junta embeddings."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from juntalab.hypercube import Distribution, fourier_transform
from juntalab.qstate import (
    DensityMatrix,
    embed_on,
    frobenius_distance,
    load_state,
    partial_trace,
    pauli_tensor,
    pauli_tensor_to_matrix,
    pauli_weight,
    proxy_distance,
    random_density_matrix,
    rho_eps,
    rho_eps_family,
    save_state,
    scatter_pauli,
    trace_distance,
)
import paulis


def expansion_by_traces(mat, n):
    """Definition oracle: coefficient of P is Tr[P M] / 2^n, via dense products."""
    out = {}
    for packed in range(4**n):
        out[packed] = complex(np.trace(paulis.matrix(n, packed) @ mat)).real / (1 << n)
    return out


def partial_trace_by_sums(mat, n, keep):
    """Index-summation oracle: explicit double sum over traced-out bit patterns."""
    keep = sorted(keep)
    traced = [q for q in range(1, n + 1) if q not in keep]
    dim_keep = 1 << len(keep)
    out = np.zeros((dim_keep, dim_keep), dtype=complex)

    def assemble(keep_bits, traced_bits):
        idx = 0
        for q in range(1, n + 1):
            if q in keep:
                bit = keep_bits >> (len(keep) - 1 - keep.index(q)) & 1
            else:
                bit = traced_bits >> (len(traced) - 1 - traced.index(q)) & 1
            idx = idx << 1 | bit
        return idx

    for i in range(dim_keep):
        for j in range(dim_keep):
            for w in range(1 << len(traced)):
                out[i, j] += mat[assemble(i, w), assemble(j, w)]
    return out


class TestPauliString:
    """The test oracles' packed-word helpers, against hand-packed words."""

    def test_packing_round_trip(self):
        packed = paulis.word("IZXY")
        assert packed == 0b00_11_01_10
        assert paulis.codes(4, packed) == (0, 3, 1, 2)
        assert "".join("IXYZ"[c] for c in paulis.codes(4, packed)) == "IZXY"
        assert paulis.support(4, packed) == (2, 3, 4)
        assert pauli_weight(packed) == 3

    def test_identity(self):
        assert paulis.word("III") == 0 and paulis.support(3, 0) == () and pauli_weight(0) == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            paulis.word("IZQ")


class TestPauliMatrix:
    def test_identity(self):
        assert np.array_equal(paulis.matrix(2, paulis.word("II")), np.eye(4))

    def test_z_is_diag(self):
        assert np.array_equal(paulis.matrix(1, paulis.word("Z")), np.diag([1, -1]))

    def test_xz_hand_product(self):
        # X on qubit 1 (most significant), Z on qubit 2
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(paulis.matrix(2, paulis.word("XZ")), expected)


class TestPauliExpansion:
    def test_maximally_mixed(self):
        spec = pauli_tensor(DensityMatrix(np.eye(8) / 8)).reshape(-1)
        assert np.count_nonzero(spec) == 1
        assert spec[0] == 2.0**-3

    def test_rho_eps_coefficients(self):
        spec = pauli_tensor(rho_eps(0.2))
        assert spec[paulis.word("I")] == pytest.approx(0.5, abs=1e-15)
        assert spec[paulis.word("Z")] == pytest.approx(0.1, abs=1e-15)
        assert np.count_nonzero(spec) == 2

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(31)
        mat = random_density_matrix(2, rng).entries
        spec = pauli_tensor(mat).reshape(-1)
        for packed, expected in expansion_by_traces(mat, 2).items():
            assert spec[packed] == pytest.approx(expected, abs=1e-12)

    def test_reconstruction_round_trip(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        mat = (g + g.conj().T) / 2
        rec = pauli_tensor_to_matrix(pauli_tensor(mat))
        assert np.max(np.abs(rec - mat)) <= 1e-10

    def test_pinned_digest(self):
        # Pins the forward and inverse transforms bit for bit across versions.
        forward, inverse = hashlib.sha256(), hashlib.sha256()
        for n in range(1, 9):
            tensor = pauli_tensor(random_density_matrix(n, np.random.default_rng(40 + n)))
            forward.update(tensor.tobytes())
            inverse.update(pauli_tensor_to_matrix(tensor).tobytes())
        assert forward.hexdigest() == (
            "29b2728ed70dde86f175cea84118b5db09ad6da62c60f698a54ddded7bbff0d2"
        )
        assert inverse.hexdigest() == (
            "5ef0f8d1bf34f9e2f58f1e87cc860b69fab760afa4adfabd424fe8bf73d73f3a"
        )

    def test_scatter_places_words(self):
        words = np.array([0, paulis.word("IZ"), paulis.word("XY")])
        tensor = scatter_pauli(words, np.array([0.25, 0.25, -0.125]), 2)
        assert tensor.shape == (4, 4)
        assert tensor[0, 0] == 0.25 and tensor[0, 3] == 0.25 and tensor[1, 2] == -0.125
        assert np.count_nonzero(tensor) == 3

    def test_weight_counts_non_identity_letters(self):
        strings = ["IIII", "XIII", "IIIZ", "YZIX", "ZZZZ", "IYIY"]
        weights = pauli_weight([paulis.word(text) for text in strings])
        assert weights.tolist() == [4 - text.count("I") for text in strings]

    def test_weight_is_int64_past_uint8_range(self):
        # 3**weight scales shadow estimates; a uint8 weight would make 3**6 wrap to 217.
        words = np.array([paulis.word("XYZXYZ"), paulis.word("Z" * 31)])
        weights = pauli_weight(words)
        assert weights.dtype == np.int64 and weights.tolist() == [6, 31]
        assert (3 ** weights[0], 3 ** weights[1]) == (729, 3**31)

    def test_zero_qubits(self):
        tensor = pauli_tensor(np.eye(1))
        assert tensor.shape == () and tensor == 1.0
        assert np.array_equal(pauli_tensor_to_matrix(tensor), np.eye(1))

    def test_parseval(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 4):
            g = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
            mat = (g + g.conj().T) / 2
            tensor = pauli_tensor(mat)
            assert abs((tensor**2).sum() - np.linalg.norm(mat) ** 2 / (1 << n)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            pauli_tensor(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            pauli_tensor(np.eye(3))


class TestDistances:
    def test_zero_on_equal(self):
        rho = random_density_matrix(2, np.random.default_rng(1))
        assert trace_distance(rho, rho) == 0.0
        assert frobenius_distance(rho, rho) == 0.0

    def test_one_junta_family_pairwise(self):
        family = rho_eps_family(3, 0.2)
        for a, b in itertools.combinations(family, 2):
            assert trace_distance(a, b) == pytest.approx(0.2, abs=1e-10)

    def test_orthogonal_pure_states(self):
        a = DensityMatrix.pure([1, 0])
        b = DensityMatrix.pure([0, 1])
        assert trace_distance(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_trace_bounded_by_scaled_frobenius(self):
        rng = np.random.default_rng(77)
        for n in (1, 2, 3):
            for _ in range(5):
                a = random_density_matrix(n, rng)
                b = random_density_matrix(n, rng)
                assert trace_distance(a, b) <= 2 ** (n / 2) * frobenius_distance(a, b) + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(4) / 4))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(3)
        a = random_density_matrix(1, rng)
        b = random_density_matrix(2, rng)
        joint = DensityMatrix(np.kron(a.entries, b.entries))
        assert np.max(np.abs(partial_trace(joint, (1,)).entries - a.entries)) <= 1e-12
        assert np.max(np.abs(partial_trace(joint, (2, 3)).entries - b.entries)) <= 1e-12

    def test_bell_state(self):
        bell = DensityMatrix.pure([1, 0, 0, 1])
        reduced = partial_trace(bell, (2,))
        assert np.max(np.abs(reduced.entries - np.eye(2) / 2)) <= 1e-12

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(9)
        rho = random_density_matrix(3, rng)
        got = partial_trace(rho, (1, 3)).entries
        want = partial_trace_by_sums(rho.entries, 3, [1, 3])
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_keep_set_matches_summation_oracle(self, n):
        rho = random_density_matrix(n, np.random.default_rng(n))
        for size in range(n + 1):
            for keep in itertools.combinations(range(1, n + 1), size):
                got = partial_trace(rho, keep).entries
                assert np.max(np.abs(got - partial_trace_by_sums(rho.entries, n, keep))) <= 1e-12

    def test_empty_keep_is_scalar_one(self):
        rho = random_density_matrix(2, np.random.default_rng(0))
        scalar = partial_trace(rho, ())
        assert scalar.entries.shape == (1, 1)
        assert scalar.entries[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestEmbedJunta:
    def test_full_set_unchanged(self):
        rho = random_density_matrix(2, np.random.default_rng(2))
        emb = embed_on(rho, (1, 2), 2)
        assert np.max(np.abs(emb.entries - rho.entries)) == 0.0

    def test_empty_set_is_maximally_mixed(self):
        emb = embed_on(DensityMatrix(np.ones((1, 1))), (), 3)
        assert np.max(np.abs(emb.entries - np.eye(8) / 8)) == 0.0

    def test_middle_qubit_matches_kron_oracle(self):
        block = rho_eps(0.2)
        emb = embed_on(block, (2,), 3)
        want = np.kron(np.eye(2) / 2, np.kron(block.entries, np.eye(2) / 2))
        assert np.max(np.abs(emb.entries - want)) <= 1e-15

    def test_partial_trace_inverts_embedding(self):
        rng = np.random.default_rng(21)
        block = random_density_matrix(2, rng)
        emb = embed_on(block, (2, 4), 5)
        assert np.max(np.abs(partial_trace(emb, (2, 4)).entries - block.entries)) <= 1e-12

    def test_embed_after_trace_idempotent_on_juntas(self):
        rng = np.random.default_rng(22)
        state = embed_on(random_density_matrix(2, rng), (1, 3), 4)
        again = embed_on(partial_trace(state, (1, 3)), (1, 3), 4)
        assert np.max(np.abs(again.entries - state.entries)) <= 1e-12

    def test_descriptor_validation(self):
        rho = random_density_matrix(1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="duplicate qubits"):
            embed_on(rho, (1, 1), 3)
        with pytest.raises(ValueError, match="outside qubit range"):
            embed_on(rho, (4,), 3)
        with pytest.raises(ValueError, match="does not match"):
            embed_on(rho, (1, 2), 3)


class TestProxyDistance:
    def test_exact_junta_is_zero(self):
        rng = np.random.default_rng(41)
        state = embed_on(random_density_matrix(2, rng), (1, 3), 4)
        subset, value = proxy_distance(state, 2)
        assert subset == (1, 3)
        assert value <= 1e-10

    def test_maximally_mixed_ties_lexicographic(self):
        subset, value = proxy_distance(DensityMatrix(np.eye(8) / 8), 1)
        assert subset == (1,)
        assert value <= 1e-12

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(43)
        rho = random_density_matrix(3, rng)
        best = None
        for subset in itertools.combinations((1, 2, 3), 1):
            candidate = embed_on(partial_trace(rho, subset), subset, 3)
            delta = rho.entries - candidate.entries
            dist = float(np.sum(np.abs(np.linalg.eigvalsh(delta))))
            if best is None or dist < best[1]:
                best = (subset, dist)
        got_subset, got_value = proxy_distance(rho, 1)
        assert got_subset == best[0]
        assert got_value == pytest.approx(best[1], abs=1e-10)

    def test_two_approximation_of_arbitrary_junta_states(self):
        rng = np.random.default_rng(47)
        rho = random_density_matrix(3, rng)
        _, proxy = proxy_distance(rho, 1)
        for subset in itertools.combinations((1, 2, 3), 1):
            for _ in range(3):
                sigma = embed_on(random_density_matrix(1, rng), subset, 3)
                assert proxy <= 2.0 * trace_distance(rho, sigma) + 1e-10


class TestDistributionToState:
    def test_spectrum_correspondence(self):
        rng = np.random.default_rng(53)
        w = rng.random(8)
        p = Distribution(3, w / w.sum())
        fspec = fourier_transform(p.block)
        pspec = pauli_tensor(DensityMatrix.from_diagonal(p.block)).reshape(-1)
        for packed in range(4**3):
            letters = paulis.codes(3, packed)
            if any(c in (1, 2) for c in letters):
                assert abs(pspec[packed]) <= 1e-12
            else:
                mask = sum(1 << (3 - i) for i, c in enumerate(letters, 1) if c == 3)
                assert pspec[packed] == pytest.approx(fspec[mask], abs=1e-12)


class TestRhoEpsFamily:
    def test_each_member_is_one_junta(self):
        for i, state in enumerate(rho_eps_family(3, 0.2), start=1):
            subset, value = proxy_distance(state, 1)
            assert subset == (i,)
            assert value <= 1e-10

    def test_explicit_diagonals_n2(self):
        family = rho_eps_family(2, 0.2)
        want_first = np.kron(np.diag([0.6, 0.4]), np.eye(2) / 2)
        want_second = np.kron(np.eye(2) / 2, np.diag([0.6, 0.4]))
        assert np.max(np.abs(family[0].entries - want_first)) <= 1e-15
        assert np.max(np.abs(family[1].entries - want_second)) <= 1e-15

    def test_eps_range(self):
        with pytest.raises(ValueError):
            rho_eps(0.5)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix([[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_tolerates_tiny_negative(self):
        state = DensityMatrix(np.diag([1.0 + 5e-10, -5e-10]))
        assert np.linalg.eigvalsh(state.entries)[0] == pytest.approx(-5e-10, abs=1e-12)

    # Boundary cases on each side of every tolerance: 1e-9 below zero for an
    # eigenvalue, 1e-10 for the Hermitian gap and for the trace.
    ANTI = np.array([[0.0, 1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("entries", [
        np.diag([1 + 9e-10, -9e-10]),
        np.eye(2) / 2 + 1e-11 * ANTI,
        np.array([[0.5, -0.0], [-0.0, 0.5]]),
        np.array([[0.5, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 0.5]]),
    ], ids=["eigenvalue-9e-10", "anti-hermitian-1e-11", "negative-zero", "complex-negative-zero"])
    def test_accepts_within_tolerance(self, entries):
        state = DensityMatrix(entries)
        stored = np.asarray(entries, dtype=np.complex128)
        assert state.entries.tobytes() == stored.tobytes()

    @pytest.mark.parametrize("entries, message", [
        (np.diag([1 + 2e-9, -2e-9]), "eigenvalue below -1e-09"),
        (np.eye(2) / 2 + 2e-10 * ANTI, "not Hermitian within 1e-10"),
        (np.diag([0.5 + 2e-10, 0.5]), "is not 1 within 1e-10"),
    ], ids=["eigenvalue-2e-9", "anti-hermitian-2e-10", "trace-2e-10"])
    def test_rejects_past_tolerance(self, entries, message):
        with pytest.raises(ValueError, match=message):
            DensityMatrix(entries)

    def test_leaves_its_input_unchanged(self):
        entries = np.diag([1 + 9e-10, -9e-10]).astype(np.complex128)
        before = entries.copy()
        DensityMatrix(entries)
        assert entries.tobytes() == before.tobytes()
        assert entries.flags.writeable

    def test_pure_state(self):
        state = DensityMatrix.pure([1, 1])
        assert np.linalg.eigvalsh(state.entries)[0] >= -1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entry(self, bad, where):
        mat = np.eye(2, dtype=complex) / 2
        mat[where] = bad
        with pytest.raises(ValueError, match="non-finite entry"):
            DensityMatrix(mat)


class TestStateJson:
    def test_round_trip(self, tmp_path):
        rho = random_density_matrix(2, np.random.default_rng(61))
        path = tmp_path / "state.json"
        save_state(rho, path)
        back = load_state(path)
        assert np.max(np.abs(back.entries - rho.entries)) <= 1e-15

    def test_format_keys(self, tmp_path):
        path = tmp_path / "state.json"
        save_state(DensityMatrix(np.eye(2) / 2), path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"n", "re", "im"}

    @pytest.mark.parametrize("n, rows, shape", [(1, 4, (4, 4)), (2, 3, (3, 4)), (2, 5, (5, 4))],
                             ids=["wrong_n", "truncated_body", "extra_rows"])
    def test_header_checked_against_body(self, n, rows, shape, tmp_path):
        path = tmp_path / "state.json"
        body = (np.eye(4) / 4).tolist() + [[0.0] * 4]
        path.write_text(json.dumps({"n": n, "re": body[:rows], "im": [[0.0] * 4] * rows}))
        with pytest.raises(ValueError) as info:
            load_state(path)
        side = 1 << n
        assert str(info.value) == f"{path}: header n={n} needs a {side}x{side} matrix, body has shape {shape}"

    def test_header_checked_against_cap_first(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": 10**9, "re": [[1.0]], "im": [[0.0]]}))
        with pytest.raises(ValueError, match=r"state.json: field 'n' must be in \[0, 12\], got 1000000000"):
            load_state(path)
