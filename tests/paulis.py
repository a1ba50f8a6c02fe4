"""Packed Pauli words for test oracles: text, codes I=0 X=1 Y=2 Z=3, support, matrices."""

import numpy as np

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
