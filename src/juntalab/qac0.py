"""Layered Toffoli/single-qubit circuits, their Choi states, and spectrum
concentration tooling.

Circuit layout: ``n`` input qubits (1..n), ``a`` ancilla qubits
(n+1..n+a), and one output qubit (n+a+1, the last). The last ``a+1``
qubits start in a fixed state sigma. A generalized Toffoli flips its target
exactly when every control reads -1, i.e. when every control bit is 1 under
the bit convention of :mod:`juntalab.hypercube`.

Choi-state qubit order: the channel output first, then one reference qubit
per channel-input qubit in circuit order. All Choi states here are
normalized to trace 1; the identity-channel Choi on one input is
diag(1/2, 0, 0, 1/2).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from .hypercube import RealCubeFunction, require_fields
from .qstate import (
    DensityMatrix,
    as_matrix,
    complex_matrix,
    frobenius_distance,
    pauli_tensor,
    _qubit_count,
)

MAX_CIRCUIT_QUBITS = 10
MAX_FULL_CHOI_CIRCUIT_QUBITS = 5
MAX_BOOLEAN_CHOI_INPUTS = 4
MAX_CONCENTRATION_QUBITS = 6
MAX_DISTANCE_VARS = 12

_UNITARY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SingleQubitGate:
    qubit: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.shape != (2, 2):
            raise ValueError("single-qubit gate must be 2x2")
        if not np.isfinite(mat).all():
            raise ValueError("single-qubit gate has a non-finite entry")
        if float(np.max(np.abs(mat.conj().T @ mat - np.eye(2)))) > _UNITARY_TOL:
            raise ValueError("single-qubit gate is not unitary within 1e-10")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def touched(self) -> frozenset[int]:
        return frozenset((self.qubit,))


@dataclass(frozen=True)
class ToffoliGate:
    controls: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        controls = tuple(sorted(int(c) for c in self.controls))
        if not controls:
            raise ValueError("Toffoli needs at least one control")
        if len(set(controls)) != len(controls) or self.target in controls:
            raise ValueError("Toffoli controls must be distinct and avoid the target")
        object.__setattr__(self, "controls", controls)

    @property
    def arity(self) -> int:
        """Touched qubits: controls plus the target."""
        return len(self.controls) + 1

    @property
    def touched(self) -> frozenset[int]:
        return frozenset(self.controls) | {self.target}


Gate = SingleQubitGate | ToffoliGate


def _default_sigma(a: int) -> DensityMatrix:
    dim = 1 << (a + 1)
    mat = np.zeros((dim, dim))
    mat[0, 0] = 1.0
    return DensityMatrix(mat)


@dataclass(frozen=True)
class Qac0Circuit:
    """Layered circuit; gates within a layer act on disjoint qubits."""

    n: int
    a: int
    layers: tuple[tuple[Gate, ...], ...]
    sigma: DensityMatrix = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.n < 0 or self.a < 0 or self.total_qubits < 1:
            raise ValueError("invalid register sizes")
        if self.total_qubits > MAX_CIRCUIT_QUBITS:
            raise ValueError(f"circuits capped at {MAX_CIRCUIT_QUBITS} qubits")
        layers = tuple(tuple(layer) for layer in self.layers)
        object.__setattr__(self, "layers", layers)
        for layer in layers:
            seen: set[int] = set()
            for gate in layer:
                touched = gate.touched
                if any(q < 1 or q > self.total_qubits for q in touched):
                    raise ValueError("gate qubit outside the register")
                if touched & seen:
                    raise ValueError("gates within a layer must act on disjoint qubits")
                seen |= touched
        sigma = self.sigma if self.sigma is not None else _default_sigma(self.a)
        if sigma.n != self.a + 1:
            raise ValueError("sigma must live on the ancilla+output register")
        object.__setattr__(self, "sigma", sigma)

    @property
    def total_qubits(self) -> int:
        return self.n + self.a + 1

    @property
    def output_qubit(self) -> int:
        return self.total_qubits

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def size(self) -> int:
        return sum(isinstance(g, ToffoliGate) for layer in self.layers for g in layer)


def circuit_unitary(circuit: Qac0Circuit) -> np.ndarray:
    """Layer-ordered product of the gate unitaries (layer 1 acts first),
    built by applying each gate to the running unitary."""
    total = circuit.total_qubits
    dim = 1 << total
    unitary = np.eye(dim, dtype=np.complex128)
    idx = np.arange(dim)
    for layer in circuit.layers:
        for gate in layer:
            if isinstance(gate, SingleQubitGate):
                rows = unitary.reshape(1 << (gate.qubit - 1), 2, -1)
                unitary = (gate.matrix @ rows).reshape(dim, dim)
            else:
                # A Toffoli is an involutive permutation: applying it gathers rows.
                mask = sum(1 << (total - c) for c in gate.controls)
                flipped = idx ^ (1 << (total - gate.target))
                unitary = unitary[np.where((idx & mask) == mask, flipped, idx)]
    return unitary


def _choi_from_isometry(block: np.ndarray, traced_qubits: int, in_dim: int) -> np.ndarray:
    """Choi matrix of rho -> Tr_first[B rho B^dagger] for a (traced*2, in) block."""
    a = block.reshape(1 << traced_qubits, 2 * in_dim)
    return a.T @ a.conj() / in_dim


def choi_state_full(circuit: Qac0Circuit) -> DensityMatrix:
    """Choi state of the all-qubits-to-output channel Tr_[m-1][U . U^dagger]."""
    m = circuit.total_qubits
    if m > MAX_FULL_CHOI_CIRCUIT_QUBITS:
        raise ValueError(
            f"full Choi states capped at {MAX_FULL_CHOI_CIRCUIT_QUBITS}-qubit circuits"
        )
    unitary = circuit_unitary(circuit)
    return DensityMatrix(_choi_from_isometry(unitary, m - 1, 1 << m))


def choi_state_with_ancilla(circuit: Qac0Circuit, sigma: DensityMatrix | None = None) -> DensityMatrix:
    """Choi state of the n-to-1 channel with the ancilla register set to sigma."""
    if circuit.n > MAX_BOOLEAN_CHOI_INPUTS:
        raise ValueError(f"ancilla Choi states capped at {MAX_BOOLEAN_CHOI_INPUTS} inputs")
    sigma = sigma if sigma is not None else circuit.sigma
    if sigma.n != circuit.a + 1:
        raise ValueError("sigma must live on the ancilla+output register")
    unitary = circuit_unitary(circuit)
    in_dim = 1 << circuit.n
    w, v = np.linalg.eigh(sigma.entries)
    choi = np.zeros((2 * in_dim, 2 * in_dim), dtype=np.complex128)
    for weight, column in zip(w, v.T):
        if weight < 1e-14:
            continue
        block = unitary.reshape(-1, in_dim, column.size) @ column
        choi += weight * _choi_from_isometry(block, circuit.n + circuit.a, in_dim)
    return DensityMatrix(choi)


def choi_of_boolean_function(f: RealCubeFunction) -> DensityMatrix:
    """Choi state of the classical channel |x><x| -> |f(x)><f(x)|:
    the diagonal state sum_x 2^-n |f(x)><f(x)| (x) |x><x|."""
    if f.n > MAX_BOOLEAN_CHOI_INPUTS:
        raise ValueError(f"Boolean Choi states capped at {MAX_BOOLEAN_CHOI_INPUTS} inputs")
    values = f.values
    if float(np.max(np.abs(np.abs(values) - 1.0))) > 1e-12:
        raise ValueError("function must be +/-1 valued")
    in_dim = 1 << f.n
    diag = np.zeros(2 * in_dim)
    out_bits = (values < 0).astype(np.int64)
    diag[out_bits * in_dim + np.arange(in_dim)] = 1.0 / in_dim
    return DensityMatrix.from_diagonal(diag)


def ancilla_choi_relation_residual(circuit: Qac0Circuit, sigma: DensityMatrix | None = None) -> float:
    """Max per-coefficient gap in the ancilla contraction identity
    rho_sigma^(P) = 2^(a+1) sum_Q rho_full^(P (x) Q) Tr[Q sigma^T]."""
    sigma = sigma if sigma is not None else circuit.sigma
    full = choi_state_full(circuit)
    reduced = choi_state_with_ancilla(circuit, sigma)
    n, a = circuit.n, circuit.a
    coeff_matrix = pauli_tensor(full.entries).reshape(4 ** (n + 1), 4 ** (a + 1))
    traces = (1 << (a + 1)) * pauli_tensor(sigma.entries.T).reshape(-1)
    rhs = (1 << (a + 1)) * (coeff_matrix @ traces)
    lhs = pauli_tensor(reduced.entries).reshape(-1)
    return float(np.max(np.abs(lhs - rhs)))


def agreement_probability(f: RealCubeFunction, g: RealCubeFunction) -> float:
    """Pr[f(x) != g(x)] over the uniform cube, for +/-1 valued functions."""
    if f.n != g.n:
        raise ValueError("functions over different variable counts")
    return float(np.mean((f.values > 0) != (g.values > 0)))


def fnorm_agreement_identity(pairs) -> tuple[float | None, float]:
    """Fit kappa with kappa * ||rho_f - rho_g||_F^2 = Pr[f != g] over pairs.

    Accepts one (f, g) pair or a sequence of pairs. kappa comes from the
    first pair with f != g somewhere; the residual is the worst absolute gap
    of the identity across all pairs at that kappa. Returns (None, 0.0) when
    every pair agrees everywhere (kappa is then undetermined).
    """
    if isinstance(pairs, tuple) and len(pairs) == 2 and isinstance(pairs[0], RealCubeFunction):
        pairs = [pairs]
    measurements = []
    for f, g in pairs:
        dist_sq = frobenius_distance(choi_of_boolean_function(f), choi_of_boolean_function(g)) ** 2
        measurements.append((dist_sq, agreement_probability(f, g)))
    kappa = None
    for dist_sq, prob in measurements:
        if prob > 0.0:
            kappa = prob / dist_sq
            break
    if kappa is None:
        return None, 0.0
    residual = max(abs(kappa * dist_sq - prob) for dist_sq, prob in measurements)
    return kappa, residual


def remove_long_toffolis(circuit: Qac0Circuit, arity: int) -> tuple[Qac0Circuit, int]:
    """Drop every Toffoli touching at least ``arity`` qubits; layers are kept
    in place (possibly empty) so the depth is unchanged. Returns the pruned
    circuit and the number of gates removed."""
    if arity < 1:
        raise ValueError("arity threshold must be at least 1")
    removed = 0
    new_layers = []
    for layer in circuit.layers:
        kept = []
        for gate in layer:
            if isinstance(gate, ToffoliGate) and gate.arity >= arity:
                removed += 1
            else:
                kept.append(gate)
        new_layers.append(tuple(kept))
    pruned = Qac0Circuit(circuit.n, circuit.a, tuple(new_layers), circuit.sigma)
    return pruned, removed


def light_cone(circuit: Qac0Circuit, qubit: int) -> tuple[int, ...]:
    """Backward closure of a qubit: sweep layers last to first, absorbing
    every qubit of any gate touching the current set."""
    if not 1 <= qubit <= circuit.total_qubits:
        raise ValueError("qubit outside the register")
    cone = {qubit}
    for layer in reversed(circuit.layers):
        for gate in layer:
            touched = gate.touched
            if touched & cone:
                cone |= touched
    return tuple(sorted(cone))


def concentration_search(rho, k: int) -> tuple[tuple[int, ...], float]:
    """Subset of k qubits minimizing the off-subset Pauli mass
    sum_{supp(P) not within K} coeff(P)^2, with that mass. Exhaustive;
    ties, up to 1e-12 of the total mass, break to the lexicographically
    first subset."""
    mat = as_matrix(rho)
    q = _qubit_count(mat.shape[0])
    if q > MAX_CONCENTRATION_QUBITS:
        raise ValueError(f"concentration search capped at {MAX_CONCENTRATION_QUBITS} qubits")
    if not 0 <= k <= q:
        raise ValueError("k out of range")
    squared = pauli_tensor(mat) ** 2
    total = float(squared.sum())
    subsets = list(itertools.combinations(range(1, q + 1), k))
    residuals = np.empty(len(subsets))
    for i, subset in enumerate(subsets):
        inside = squared[tuple(slice(None) if axis + 1 in subset else 0 for axis in range(q))]
        residuals[i] = max(total - float(inside.sum()), 0.0)
    # Residuals within 1e-12 of the total mass of the minimum are ties, so
    # rounding in the coefficients cannot pick the winner.
    best = int(np.argmax(residuals <= residuals.min() + 1e-12 * total))
    return subsets[best], float(residuals[best])


def removal_pauli_mass_shift(circuit: Qac0Circuit, arity: int) -> tuple[float, int]:
    """Total squared Pauli-coefficient shift of the full Choi state when all
    Toffolis of at least the given arity are removed, plus the removal count.

    This measures the perturbation; no universal constant is assumed."""
    pruned, removed = remove_long_toffolis(circuit, arity)
    t_full = pauli_tensor(choi_state_full(circuit))
    t_pruned = pauli_tensor(choi_state_full(pruned))
    return float(((t_full - t_pruned) ** 2).sum()), removed


def address_function(d: int) -> RealCubeFunction:
    """The selector f(x, y) = y_at(x) on d address bits and 2^d cell bits.

    The bijection from address words to cells is binary encoding with
    x_i = -1 read as bit 1 and x_1 as the most significant bit; cell j is
    variable d + j. Degree is d + 1 while 2^d + d variables are relevant.
    """
    if not 1 <= d <= 3:
        raise ValueError("address size capped at 3")
    cells = 1 << d
    n = d + cells
    idx = np.arange(1 << n)
    address = (idx >> cells) + 1
    bit = (idx >> (cells - address)) & 1
    return RealCubeFunction(n, (1 - 2 * bit).astype(np.float64))


def boolean_distance_to_junta(f: RealCubeFunction, k: int) -> float:
    """Exact distance min_{|K| = k} Pr[f != g_K] to the best k-junta.

    For each subset the optimal junta takes the majority label of f on each
    restriction (the sign of the conditional mean, ties to +1), so the
    distance is the mean shortfall (1 - |E[f | x_K]|) / 2.
    """
    n = f.n
    if n > MAX_DISTANCE_VARS:
        raise ValueError(f"exact junta distance capped at {MAX_DISTANCE_VARS} variables")
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    tensor = f.values.reshape((2,) * n)
    best = math.inf
    for subset in itertools.combinations(range(n), k):
        others = tuple(axis for axis in range(n) if axis not in subset)
        means = tensor.mean(axis=others) if others else tensor
        best = min(best, 0.5 * (1.0 - float(np.abs(means).mean())))
    return best


def haar_single_qubit(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary via QR of a complex Gaussian."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit(
    n: int,
    a: int,
    depth: int,
    rng: np.random.Generator,
    max_toffoli_arity: int = 3,
    toffoli_prob: float = 0.5,
    sigma: DensityMatrix | None = None,
) -> Qac0Circuit:
    """Random layered circuit for experiments: each layer packs disjoint
    Toffolis (arity capped) and Haar single-qubit gates, leaving some qubits
    idle."""
    total = n + a + 1
    layers = []
    for _ in range(depth):
        available = list(range(1, total + 1))
        rng.shuffle(available)
        gates: list[Gate] = []
        while available:
            if len(available) >= 2 and rng.random() < toffoli_prob:
                arity = int(rng.integers(2, min(max_toffoli_arity, len(available)) + 1))
                qubits = [available.pop() for _ in range(arity)]
                gates.append(ToffoliGate(tuple(qubits[:-1]), qubits[-1]))
            else:
                qubit = available.pop()
                if rng.random() < 0.5:
                    gates.append(SingleQubitGate(qubit, haar_single_qubit(rng)))
        layers.append(tuple(gates))
    return Qac0Circuit(n, a, tuple(layers), sigma)


def _gate_to_json(gate: Gate) -> dict:
    if isinstance(gate, SingleQubitGate):
        return {
            "type": "u1",
            "q": gate.qubit,
            "re": gate.matrix.real.tolist(),
            "im": gate.matrix.imag.tolist(),
        }
    return {"type": "toffoli", "controls": list(gate.controls), "target": gate.target}


def save_circuit(circuit: Qac0Circuit, path) -> None:
    sigma = circuit.sigma.entries
    payload = {
        "n": circuit.n,
        "a": circuit.a,
        "layers": [[_gate_to_json(g) for g in layer] for layer in circuit.layers],
        "sigma": {"n": circuit.sigma.n, "re": sigma.real.tolist(), "im": sigma.imag.tolist()},
    }
    Path(path).write_text(json.dumps(payload))


# gate type -> (required fields, integer fields among them)
_GATE_FIELDS = {"u1": (("q", "re", "im"), ("q",)), "toffoli": (("controls", "target"), ("target",))}


def _gate_from_json(obj: dict, source: str) -> Gate:
    kind = require_fields(obj, ("type",), source)["type"]
    if kind not in _GATE_FIELDS:
        raise ValueError(f"{source}: unknown gate type {kind!r}")
    fields, integers = _GATE_FIELDS[kind]
    require_fields(obj, fields, source, integers)
    if kind == "u1":
        return SingleQubitGate(obj["q"], complex_matrix(obj, source))
    controls = obj["controls"]
    if not isinstance(controls, list) or any(type(c) is not int for c in controls):
        got = json.dumps(controls)
        raise ValueError(f"{source}: field 'controls' must be a list of integers, got {got}")
    return ToffoliGate(tuple(controls), obj["target"])


def load_circuit(path) -> Qac0Circuit:
    payload = require_fields(
        json.loads(Path(path).read_text()), ("n", "a", "layers", "sigma"), path, ("n", "a")
    )
    sigma = complex_matrix(payload["sigma"], f"{path} sigma")
    json_layers = payload["layers"]
    if not isinstance(json_layers, list) or not all(isinstance(layer, list) for layer in json_layers):
        raise ValueError(f"{path}: field 'layers' must be a list of lists of gates")
    layers = tuple(
        tuple(_gate_from_json(g, f"{path} layer {i} gate {j}") for j, g in enumerate(layer))
        for i, layer in enumerate(json_layers)
    )
    return Qac0Circuit(payload["n"], payload["a"], layers, DensityMatrix(sigma))
