"""Dense density-matrix core: Pauli expansions, distances, and junta states.

Qubit ordering: qubit 1 is the most significant tensor factor everywhere, so
the computational-basis index of a product state is the qubits' bit string
read left to right. Pauli letters use codes I=0, X=1, Y=2, Z=3; a Pauli
word is packed as an integer, its base-4 reading with qubit 1 as the most
significant digit, which is also the flat index into dense (4,)*n tensors.
A full Pauli spectrum is such a tensor (``pauli_tensor``); a low-degree one
is a pair of arrays, the ascending packed words and their values.

Distance convention: ``trace_distance`` is the full trace norm of the
difference, with no 1/2 factor. Much of the literature halves it; callers
comparing against other sources must account for the factor themselves.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .hypercube import number_array, require_fields, transform_digits

MAX_STATE_QUBITS = 12
MAX_PROXY_QUBITS = 8

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_PSD_FLOOR = 1e-9


def qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 1 << n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def as_matrix(obj) -> np.ndarray:
    """Coerce a DensityMatrix or array to an ndarray."""
    if isinstance(obj, DensityMatrix):
        return obj.entries
    return np.asarray(obj, dtype=np.complex128)


class DensityMatrix:
    """A 2^n x 2^n Hermitian, trace-1, (near-)PSD matrix.

    Construction enforces finite entries, Hermiticity and unit trace to 1e-10
    and positive semidefiniteness down to eigenvalues of -1e-9, which
    accommodates thresholded spectral reconstructions.
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries) -> None:
        mat = np.array(entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        n = qubit_count(mat.shape[0])
        if n > MAX_STATE_QUBITS:
            raise ValueError(f"states capped at {MAX_STATE_QUBITS} qubits")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has a non-finite entry")
        adjoint = mat.conj().T
        if float(np.max(np.abs(mat - adjoint))) > _HERM_TOL:
            raise ValueError("matrix is not Hermitian within 1e-10")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace {trace} is not 1 within 1e-10")
        herm = mat + adjoint
        herm /= 2.0
        herm.flat[:: mat.shape[0] + 1] += _PSD_FLOOR + 1e-12
        try:
            np.linalg.cholesky(herm)
        except np.linalg.LinAlgError:
            raise ValueError(f"matrix has an eigenvalue below -{_PSD_FLOOR}") from None
        mat.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", mat)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @classmethod
    def from_diagonal(cls, diagonal) -> "DensityMatrix":
        return cls(np.diag(np.asarray(diagonal, dtype=np.complex128)))

    @classmethod
    def pure(cls, amplitudes) -> "DensityMatrix":
        vec = np.asarray(amplitudes, dtype=np.complex128)
        vec = vec / np.linalg.norm(vec)
        return cls(np.outer(vec, vec.conj()))


def pauli_tensor(mat) -> np.ndarray:
    """All 4^n Pauli coefficients of a Hermitian matrix as a real (4,)*n tensor.

    One 4x4 product per qubit on its (row, column) bit pair, O(n 4^n); entry
    [p1, ..., pn] is Tr[P M] / 2^n.
    """
    m = as_matrix(mat)
    n = qubit_count(m.shape[0])
    # A qubit's row bit r and column bit c form the base-4 digit 2r + c. The
    # digits run qubit n ... qubit 1 so qubit 1 is contracted first: pinned
    # records rest on the rounding of this order.
    to_pauli = [[0.5, 0, 0, 0.5], [0, 0.5, 0.5, 0], [0, 0.5j, -0.5j, 0], [0.5, 0, 0, -0.5]]
    pairs = [axis for q in reversed(range(n)) for axis in (q, n + q)]
    flat = transform_digits(to_pauli, m.reshape((2,) * (2 * n)).transpose(pairs), n)
    t = flat.reshape((4,) * n).transpose(tuple(reversed(range(n))))
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(t.imag))) > 1e-9 * scale:
        raise ValueError("matrix is not Hermitian: complex Pauli coefficients")
    return t.real.copy()


def pauli_tensor_to_matrix(tensor) -> np.ndarray:
    """Inverse of pauli_tensor: rebuild the 2^n x 2^n matrix."""
    t = np.asarray(tensor, dtype=np.complex128)
    n = t.ndim
    # Qubit n is expanded first, to base-4 digits 2r + c that interleave the
    # row and column bits; the transpose then separates them.
    from_pauli = [[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]]
    pairs = transform_digits(from_pauli, t, n).reshape((2,) * (2 * n))
    return pairs.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(1 << n, 1 << n)


def pauli_weight(words) -> np.ndarray:
    """Support size of each packed Pauli word: its count of nonzero base-4 digits."""
    words = np.asarray(words, dtype=np.int64)
    # int64, not bitwise_count's uint8, so that 3**weight cannot wrap.
    return np.bitwise_count((words | words >> 1) & 0x5555555555555555).astype(np.int64)


def scatter_pauli(words, values, n: int) -> np.ndarray:
    """The (4,)*n Pauli tensor holding ``values`` at the packed ``words``, zero elsewhere."""
    flat = np.zeros(4**n)
    flat[words] = values
    return flat.reshape((4,) * n)


def hermitian_matrix(matrix) -> np.ndarray:
    """The matrix as complex128; ValueError unless it is square and Hermitian
    to 1e-8 of its Frobenius norm (or of 1, if larger)."""
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.linalg.norm(mat)))
    if float(np.max(np.abs(mat - mat.conj().T))) > 1e-8 * scale:
        raise ValueError("matrix is not Hermitian")
    return mat


def trace_distance(a, b) -> float:
    """Full trace norm of the difference (no 1/2 factor), from LAPACK eigenvalues."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError("dimension mismatch")
    return float(np.sum(np.abs(np.linalg.eigvalsh(hermitian_matrix(ma - mb)))))


def frobenius_distance(a, b) -> float:
    """sqrt(Tr[(a-b)^2]) for Hermitian inputs."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError("dimension mismatch")
    return float(np.linalg.norm(ma - mb))


def partial_trace(rho, keep) -> DensityMatrix:
    """Reduced state on the 1-indexed qubits in ``keep``; empty keep gives dim 1."""
    mat = as_matrix(rho)
    n = qubit_count(mat.shape[0])
    keep = sorted(set(int(q) for q in keep))
    if any(q < 1 or q > n for q in keep):
        raise ValueError("keep set outside qubit range")
    # Row axes are labelled 0..n-1; a traced qubit's column axis reuses its row label.
    columns = [q - 1 if q not in keep else n + q - 1 for q in range(1, n + 1)]
    rows = [q - 1 for q in keep]
    tensor = mat.reshape((2,) * (2 * n))
    reduced = np.einsum(tensor, list(range(n)) + columns, rows + [n + r for r in rows])
    dim = 1 << len(keep)
    return DensityMatrix(reduced.reshape(dim, dim))


def embed_on(rho_k: DensityMatrix, variables, n: int) -> DensityMatrix:
    """The k-junta state rho_K tensor I / 2^(n-k) on the complement, in
    natural qubit order."""
    variables = tuple(sorted(int(q) for q in variables))
    k = len(variables)
    if len(set(variables)) != k:
        raise ValueError("duplicate qubits in junta set")
    if k > n or any(q < 1 or q > n for q in variables):
        raise ValueError("junta set outside qubit range")
    if rho_k.n != k:
        raise ValueError("junta block size does not match |K|")
    rest = 1 << (n - k)
    mat = np.kron(rho_k.entries, np.eye(rest) / rest)
    # The factors of mat are the junta qubits, then the rest; move each
    # qubit's row and column axes to its place in natural order.
    order = list(variables) + [q for q in range(1, n + 1) if q not in variables]
    src = sorted(range(n), key=order.__getitem__)
    axes = src + [n + j for j in src]
    return DensityMatrix(mat.reshape((2,) * (2 * n)).transpose(axes).reshape(1 << n, 1 << n))


def proxy_distance(rho, k: int) -> tuple[tuple[int, ...], float]:
    """min over |K| = k of || rho - rho_K (x) I/2^(n-k) ||_tr with its argmin.

    Exhaustive over the C(n, k) subsets; ties break to the lexicographically
    first subset.
    """
    mat = as_matrix(rho)
    n = qubit_count(mat.shape[0])
    if n > MAX_PROXY_QUBITS:
        raise ValueError(f"proxy distance capped at {MAX_PROXY_QUBITS} qubits")
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    distances = (
        (subset, trace_distance(mat, embed_on(partial_trace(mat, subset), subset, n)))
        for subset in itertools.combinations(range(1, n + 1), k)
    )
    return min(distances, key=lambda pair: pair[1])


def rho_eps(eps: float) -> DensityMatrix:
    """The single-qubit state (I + eps Z) / 2 = diag(1+eps, 1-eps) / 2."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must be in (0, 1/2)")
    return DensityMatrix.from_diagonal([(1.0 + eps) / 2.0, (1.0 - eps) / 2.0])


def rho_eps_family(n: int, eps: float) -> list[DensityMatrix]:
    """n single-qubit-junta states: rho_eps on qubit i, maximally mixed elsewhere."""
    block = rho_eps(eps)
    return [embed_on(block, (i,), n) for i in range(1, n + 1)]


def random_density_matrix(n: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Wishart-style random mixed state of the given rank (full rank by default)."""
    dim = 1 << n
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise ValueError("rank out of range")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real)


def save_state(state: DensityMatrix, path) -> None:
    mat = state.entries
    payload = {"n": state.n, "re": mat.real.tolist(), "im": mat.imag.tolist()}
    Path(path).write_text(json.dumps(payload))


def complex_matrix(payload, source) -> np.ndarray:
    """``re + 1j * im`` from the fields of those names of a JSON object;
    ValueError naming ``source`` unless both are 2-D lists of numbers of one
    shape."""
    require_fields(payload, ("re", "im"), source)
    re, im = (number_array(payload[name], source, name) for name in ("re", "im"))
    if re.ndim != 2 or re.shape != im.shape:
        raise ValueError(
            f"{source}: fields 're' and 'im' must be 2-D lists of one shape, got {re.shape} and {im.shape}"
        )
    return re + 1j * im


def load_state(path) -> DensityMatrix:
    """The state of a JSON file ``{"n", "re", "im"}``; the header ``n`` is
    checked against the cap, then against the shape of the body."""
    payload = require_fields(json.loads(Path(path).read_text()), ("n", "re", "im"), path, ("n",))
    n = payload["n"]
    if not 0 <= n <= MAX_STATE_QUBITS:
        raise ValueError(f"{path}: field 'n' must be in [0, {MAX_STATE_QUBITS}], got {n}")
    entries = complex_matrix(payload, path)
    if entries.shape != (1 << n, 1 << n):
        raise ValueError(
            f"{path}: header n={n} needs a {1 << n}x{1 << n} matrix, body has shape {entries.shape}"
        )
    return DensityMatrix(entries)
