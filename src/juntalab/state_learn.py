"""Junta-state learning from single-copy Pauli measurements, plus the
low-arity learner for Choi states of shallow Toffoli/single-qubit circuits.

Pipeline: estimate every Pauli coefficient of support size at most k from
shadow samples, zero the ones at or below the cutoff ``eps / (2 * 2^n * 2^k)``,
pin the identity coefficient to its forced value 2^-n, and rebuild the
matrix. The copy count is ``shadows.shadow_sample_count`` at per-coefficient
accuracy ``eps / (2^k * 2^n)``: ``c * 12^k * ln((3n)^k / delta) / eps^2``.
Errors within a quarter of that, half the cutoff, zero every word off the
junta and bound the total squared coefficient error by ``2 eps^2 / 2^(2n)``
whenever the true spectrum is concentrated on some k qubits, so by
Cauchy-Schwarz the trace-norm error is at most sqrt(2) * eps. The shadow
bound certifies this at c = 128; acceptance criterion 04 measures it at c = 8.

The copies come from a ``shadows.SimulatedStateAccess``, whose counter is
the run's copy count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .qstate import (
    DensityMatrix,
    hermitian_matrix,
    pauli_tensor_to_matrix,
    pauli_weight,
    scatter_pauli,
)
from .shadows import SimulatedStateAccess, estimate_lowdeg, shadow_sample_count

DEFAULT_C = 8.0


@dataclass
class LearnedState:
    """Thresholded spectrum (ascending packed ``words`` and their ``values``),
    its matrix, and a PSD projection; the access counts the copies.

    ``matrix`` carries the squared-coefficient guarantee but need not be
    positive; ``psd_projected`` is the physically valid rendering.
    """

    words: np.ndarray
    values: np.ndarray
    matrix: np.ndarray
    psd_projected: DensityMatrix
    junta_arity: int | None = None


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


def learn_junta_state(
    access: SimulatedStateAccess,
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
    T = shadow_sample_count(n, k, eps / 2 ** (n + k), delta, c)
    words, values = estimate_lowdeg(access.collect(T, basis_seed), n, k)
    words, values = threshold_pauli(words, values, k, eps, n)
    matrix = pauli_tensor_to_matrix(scatter_pauli(words, values, n))
    return LearnedState(words=words, values=values, matrix=matrix, psd_projected=psd_project(matrix))


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
    access: SimulatedStateAccess,
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
