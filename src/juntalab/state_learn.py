"""Junta-state learning from single-copy Pauli measurements, plus the
low-arity learner for Choi states of shallow Toffoli/single-qubit circuits.

Pipeline: estimate every Pauli coefficient of support size at most k from
shadow samples, zero the ones at or below the cutoff ``eps / (2 * 2^n * 2^k)``,
pin the identity coefficient to its forced value 2^-n, and rebuild the
matrix. The sample count ``c * 12^k * ln((3n)^k / delta) / eps^2`` targets a
per-coefficient accuracy of ``eps / (4 * 2^k * 2^n)``, which bounds the total
squared coefficient error by ``2 eps^2 / 2^(2n)`` whenever the true spectrum
is concentrated on some k qubits; by Cauchy-Schwarz the trace-norm error is
then at most sqrt(2) * eps.

Access model: a ``StateAccess`` hands out one outcome row per copy, per
``measure_chunk`` call; each row spends a fresh copy of the hidden state.
Basis words are drawn by the learner from its own chunk-keyed streams, so a
run is a pure function of (access, parameters, basis_seed).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .qstate import (
    DensityMatrix,
    hermitian_matrix,
    pauli_tensor_to_matrix,
    pauli_weight,
    scatter_pauli,
)
from .shadows import (
    CHUNK, _chunk_uniforms, _measurement_coefficients, collect_chunks, estimate_lowdeg, sample_outcomes,
)

DEFAULT_C = 8.0


class StateAccess(Protocol):
    """Copy-consuming measurement oracle for a hidden state."""

    n: int

    @property
    def copies_used(self) -> int: ...

    def measure_chunk(self, basis_codes: np.ndarray) -> np.ndarray:
        """One outcome row per basis row; each row spends one copy."""


class SimulatedStateAccess:
    """StateAccess backed by the Born-rule simulator.

    Piece i of the outcome stream, CHUNK rows, draws from an RNG keyed (seed, i)
    whatever the basis words: one call over several chunks equals one call per
    chunk.
    """

    def __init__(self, rho: DensityMatrix, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        self.n, self._coeffs = _measurement_coefficients(rho)
        self._seed = int(seed)
        self._calls = 0
        self._copies = 0

    @property
    def copies_used(self) -> int:
        return self._copies

    def measure_chunk(self, basis_codes: np.ndarray) -> np.ndarray:
        codes = np.ascontiguousarray(basis_codes, dtype=np.uint8)
        rows = codes.shape[0]
        pieces = range(self._calls, self._calls + -(-rows // CHUNK))
        self._calls, self._copies = pieces.stop, self._copies + rows
        rngs = [np.random.default_rng([self._seed, piece]) for piece in pieces]
        return sample_outcomes(self._coeffs, codes, _chunk_uniforms(rngs, rows))

@dataclass
class LearnedState:
    """Thresholded spectrum (ascending packed ``words`` and their ``values``),
    its matrix, a PSD projection, and copy accounting.

    ``matrix`` carries the squared-coefficient guarantee but need not be
    positive; ``psd_projected`` is the physically valid rendering.
    """

    words: np.ndarray
    values: np.ndarray
    matrix: np.ndarray
    psd_projected: DensityMatrix
    copies_used: int
    junta_arity: int | None = None


def junta_state_sample_count(n: int, k: int, eps: float, delta: float, c: float = DEFAULT_C) -> int:
    """ceil(c * 12^k * ln((3n)^k / delta) / eps^2)."""
    if not (0 < delta < 1 and eps > 0 and 0 <= k <= n and c > 0):
        raise ValueError("invalid sample-count parameters")
    log_term = k * math.log(3 * n) - math.log(delta)
    return max(1, math.ceil(c * 12**k * log_term / eps**2))


def pauli_threshold_cutoff(n: int, k: int, eps: float) -> float:
    """Coefficients with magnitude at or below this are zeroed."""
    return eps / (2.0 * 2**n * 2**k)


def threshold_pauli(words, values, k: int, eps: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Three-case rule on ascending packed words and their estimates: drop
    |supp| > k, drop |estimate| <= cutoff, keep the rest.

    The identity coefficient is pinned to 2^-n (forced by unit trace) rather
    than estimated, which can only reduce the error; it leads the output.
    """
    words = np.asarray(words, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    weight = pauli_weight(words)
    keep = (weight >= 1) & (weight <= k) & (np.abs(values) > pauli_threshold_cutoff(n, k, eps))
    return np.concatenate([[0], words[keep]]), np.concatenate([[1.0 / (1 << n)], values[keep]])


def psd_project(matrix) -> DensityMatrix:
    """Clip negative eigenvalues to zero and renormalize the trace to 1."""
    w, v = np.linalg.eigh(hermitian_matrix(matrix))
    clipped = np.clip(w, 0.0, None)
    total = float(clipped.sum())
    if total <= 0.0:
        raise ValueError("projection annihilated the matrix (no positive eigenvalues)")
    return DensityMatrix((v * (clipped / total)) @ v.conj().T)


def _collect_through_access(access: StateAccess, T: int, basis_seed: int):
    return collect_chunks(access.n, T, basis_seed, lambda codes, _rngs: access.measure_chunk(codes))


def learn_junta_state(
    access: StateAccess,
    k: int,
    eps: float,
    delta: float,
    c: float = DEFAULT_C,
    basis_seed: int = 0,
) -> LearnedState:
    """Shadow-estimate, threshold, and rebuild a state concentrated on k qubits."""
    n = access.n
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    T = junta_state_sample_count(n, k, eps, delta, c)
    codes, outs = _collect_through_access(access, T, basis_seed)
    words, values = estimate_lowdeg(codes, outs, k)
    words, values = threshold_pauli(words, values, k, eps, n)
    matrix = pauli_tensor_to_matrix(scatter_pauli(words, values, n))
    return LearnedState(
        words=words,
        values=values,
        matrix=matrix,
        psd_projected=psd_project(matrix),
        copies_used=T,
    )


def qac0_junta_arity(s: int, d: int, a: int, eps: float) -> int:
    """Junta arity bound for the Choi state of a size-s, depth-d circuit with
    a ancilla qubits: ceil(log2(s^2 * 2^(a+1) / eps)^d), floored at zero.

    A circuit with no multi-qubit gates still couples the output register to
    itself, so s is floored at 1.
    """
    if d < 0 or a < 0 or s < 0 or eps <= 0:
        raise ValueError("invalid circuit parameters")
    s_eff = max(int(s), 1)
    base = math.log2(s_eff**2 * 2 ** (a + 1) / eps)
    return math.ceil(max(0.0, base) ** d)


def learn_qac0_choi(
    access: StateAccess,
    s: int,
    d: int,
    a: int,
    eps: float,
    delta: float,
    c: float = DEFAULT_C,
    basis_seed: int = 0,
) -> LearnedState:
    """Learn the Choi state of a shallow circuit in the dimension-scaled
    Frobenius metric: with n input qubits the access yields (n+1)-qubit
    copies, and the target is 2^n ||rho - rho'||_F^2 <= eps.

    Delegates to learn_junta_state with error sqrt(eps): the squared-
    coefficient guarantee 2 (sqrt(eps))^2 / 2^(2(n+1)) converts exactly to
    the stated figure of merit.
    """
    m = access.n
    k = qac0_junta_arity(s, d, a, eps)
    if k > m:
        warnings.warn(
            f"junta arity bound {k} exceeds the {m} state qubits; clamping "
            "(the bound is vacuous at these parameters)",
            stacklevel=2,
        )
        k = m
    result = learn_junta_state(access, k, math.sqrt(eps), delta, c, basis_seed)
    result.junta_arity = k
    return result
