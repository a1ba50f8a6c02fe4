"""Packed Pauli words for test oracles: text, codes I=0 X=1 Y=2 Z=3, support, matrices;
shadow rows as (rows, n) basis codes and +/-1 outcomes, with the codes-based sampling
kernel and letter estimator as references; and the circuit truth-file object that
test fixtures write."""

import numpy as np

from juntalab.hypercube import block_totals
from juntalab.qstate import pauli_weight
from juntalab.shadows import CHUNK, _LETTER_SUMS, _born_rows

MATRICES = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def word(text: str) -> int:
    """The packed word of a string over IXYZ, qubit 1 the leading digit."""
    return int(text.translate(str.maketrans("IXYZ", "0123")), 4)


def codes(n: int, packed: int) -> tuple[int, ...]:
    return tuple(packed >> 2 * (n - q) & 3 for q in range(1, n + 1))


def support(n: int, packed: int) -> tuple[int, ...]:
    return tuple(q for q, code in enumerate(codes(n, packed), start=1) if code)


def matrix(n: int, packed: int) -> np.ndarray:
    out = np.ones((1, 1), dtype=np.complex128)
    for code in codes(n, packed):
        out = np.kron(out, MATRICES[code])
    return out


def basis_codes(words, n: int) -> np.ndarray:
    """(rows, n) uint8 basis codes 1 (X), 2 (Y), 3 (Z) of word indices sum_i (Q_i - 1) 3^(n - i)."""
    return (np.asarray(words, dtype=np.int64)[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3 + 1).astype(np.uint8)


def word_indices(codes) -> np.ndarray:
    """The word index of each row of (rows, n) basis codes, qubit 1 most significant."""
    codes = np.asarray(codes, dtype=np.int64)
    return (codes - 1) @ 3 ** np.arange(codes.shape[1] - 1, -1, -1)


def outcome_signs(outcomes, n: int) -> np.ndarray:
    """(rows, n) int8 +/-1 outcomes of outcome indices, bit n - i set iff qubit i read -1."""
    bits = np.asarray(outcomes, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1) & 1
    return (1 - 2 * bits).astype(np.int8)


def outcome_indices(signs) -> np.ndarray:
    """The outcome index of each row of (rows, n) +/-1 outcomes."""
    bits = (np.asarray(signs) < 0).astype(np.int64)
    return bits @ (1 << np.arange(bits.shape[1] - 1, -1, -1))


def sample_outcome_signs(coeffs, codes, uniforms) -> np.ndarray:
    """Reference Born sampler on (rows, n) basis codes, returning +/-1 rows: the
    kernel before rows were indices, base-3 keys rebuilt column by column and
    one n-step binary search per 4 CHUNK-row piece."""
    rows, n = codes.shape
    keys = np.zeros(rows, dtype=np.int64)
    for col in codes.T:
        keys = 3 * keys + col
    keys -= 3**n // 2
    present = np.zeros(3**n, dtype=bool)
    present[keys] = True
    words = np.flatnonzero(present)[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3 + 1
    cum = np.cumsum(_born_rows(coeffs, words), axis=1).reshape(-1)
    starts = (np.cumsum(present) - 1) << n
    signs = (1 - 2 * (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1) & 1)).astype(np.int8)
    outs = np.empty((rows, n), dtype=np.int8)
    for at in range(0, rows, 4 * CHUNK):
        d = starts[keys[at : at + 4 * CHUNK]]
        for step in (1 << bit for bit in reversed(range(n))):
            d += step * (cum[d + step - 1] <= uniforms[at : at + 4 * CHUNK])
        outs[at : at + 4 * CHUNK] = signs[d & (1 << n) - 1]
    return outs


def estimate_lowdeg_letters(batches, k: int):
    """Reference low-degree estimator on (basis codes, +/-1 outcomes) batches:
    letter codes 2(Q - 1) + [x == -1] keyed base 6 column by column."""
    T = totals = 0
    for codes, outs in batches:
        rows, n = codes.shape
        letters = np.ascontiguousarray((2 * (codes.astype(np.int64) - 1) + (outs < 0)).T)

        def keys(cols):
            key = np.zeros(rows, dtype=np.int64)
            for col in cols:
                key = 6 * key + letters[col]
            return key

        words, batch_totals = block_totals(_LETTER_SUMS, keys, rows, n, k)
        T, totals = T + rows, totals + batch_totals
    return words, 3 ** pauli_weight(words) * totals / float((1 << n) * T)


def circuit_json(circuit) -> dict:
    """The JSON object of a circuit file, as ``qac0.load_circuit`` reads it."""

    def gate(g) -> dict:
        if hasattr(g, "matrix"):
            return {"type": "u1", "q": g.qubit, "re": g.matrix.real.tolist(), "im": g.matrix.imag.tolist()}
        return {"type": "toffoli", "controls": list(g.controls), "target": g.target}

    sigma = circuit.sigma.entries
    return {"n": circuit.n, "a": circuit.a, "layers": [[gate(g) for g in layer] for layer in circuit.layers],
            "sigma": {"n": circuit.sigma.n, "re": sigma.real.tolist(), "im": sigma.imag.tolist()}}
