"""Single-copy Pauli-basis measurement simulation and coefficient estimation.

Measurement model: pick a basis word Q in {X,Y,Z}^n and Born-sample the
joint +/-1 eigenvalues of its letters. With c(P) = Tr[P rho] / 2^n, the
outcome distribution is
``p_Q(x) = Tr[rho prod_i (I + x_i Q_i) / 2] = sum_{S subset [n]} c(Q_S) chi_S(x)``,
where Q_S keeps Q on S and puts I elsewhere: the Walsh transform of the
{I, Q_i} slice of the state's Pauli tensor (the inverse of the shadow
estimator below). The tensor is computed once per state; each sampling call,
a group of consecutive chunks, gathers the slices of its distinct basis words
with one index matrix, transforms them as one batch, and draws its rows in
place by one vectorized binary search per 4 CHUNK-row piece. Only the +/-1
eigenvalue labeling enters, so no eigenbasis phases are fixed.

The coefficient estimator for a Pauli word P averages
``3^|supp P| / 2^n * prod_{i in supp P} x_i [P_i == Q_i]`` over samples. It
is unbiased for Tr[P rho]/2^n and its single-sample second moment is
``3^|supp P| / 4^n``.

Determinism: there is one stream model. ``SimulatedStateAccess`` spends one
copy of the hidden state per outcome row and counts them; ``collect(T,
basis_seed)`` draws basis chunk c of CHUNK words from an RNG keyed
``(basis_seed, c)``, and piece c of the access's outcome stream draws its
uniforms from an RNG keyed ``(access seed, c)``. So the rows are a pure
function of the state and the two seeds however pieces are grouped into
calls, and the first T1 rows of a T2-row collection are the T1-row collection.
Shadows are a stream of batches of at most BATCH rows, uint8
basis codes (1 X, 2 Y, 3 Z) and int8 +/-1 outcomes, that concatenate to the same T
rows at any BATCH, so no path holds more than a batch. ``estimate_lowdeg`` checks
each batch and sums the exact ``block_totals`` of its rows' letter codes 2(Q - 1) +
[x == -1]; a block of m columns counts 6^m bins once per batch (365 KiB at m = 6,
460 MiB at m = 10, the one block of ``shadows bench --n 10 --k 10``).
"""

from __future__ import annotations

import math

import numpy as np

from .hypercube import block_totals, walsh_hadamard
from .qstate import as_matrix, pauli_tensor, pauli_weight, qubit_count

MAX_MEASURE_QUBITS = 10
CHUNK = 4096
BATCH = 1 << 20  # 256 CHUNKs


def _born_rows(coeffs: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Outcome distributions of a batch of basis words, one row per word.

    Row u is the Walsh transform of the {I, Q_i} slice of the Pauli tensor:
    entry S of the slice is the coefficient of Q restricted to the qubits
    whose bits are set in S.
    """
    count, n = words.shape
    index = np.zeros((count, 1), dtype=np.int64)
    for col in reversed(range(n)):
        # Qubit col becomes the most significant bit of S so far.
        digit = words[:, col, None].astype(np.int64) << 2 * (n - 1 - col)
        index = np.concatenate([index, index + digit], axis=1)
    probs = walsh_hadamard(coeffs[index])
    low = float(probs.min())
    if low < -1e-9:
        raise ValueError(f"negative outcome probability {low:.3e}")
    np.maximum(probs, 0.0, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def sample_outcomes(coeffs: np.ndarray, codes: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Born-sample one outcome row per basis row, using one provided uniform per row.

    ``coeffs`` is the state's flat Pauli tensor. Row r draws the outcome
    ``min(searchsorted(cum, u_r, side="right"), 2^n - 1)`` of its basis word's
    cumulative distribution, built once per call and word; each 4 CHUNK-row
    piece counts the entries at or below its uniforms by one in-place n-step
    binary search.
    """
    if codes.ndim != 2 or np.shape(uniforms) != codes.shape[:1]:
        shapes = f"codes of shape {codes.shape} and uniforms of shape {np.shape(uniforms)}"
        raise ValueError(f"need 2-D (rows, n) basis codes and one uniform per row, got {shapes}")
    rows, n = codes.shape
    if coeffs.size != 4**n:
        raise ValueError(f"basis length does not match state: {n} codes a row for {coeffs.size} coefficients")
    if codes.min() < 1 or codes.max() > 3:
        raise ValueError("basis codes must be 1 (X), 2 (Y), or 3 (Z)")
    keys = np.zeros(rows, dtype=np.int64)
    for col in codes.T:
        keys *= 3
        keys += col
    keys -= 3**n // 2
    present = np.zeros(3**n, dtype=bool)
    present[keys] = True
    words = np.flatnonzero(present)[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3 + 1
    cum = np.cumsum(_born_rows(coeffs, words), axis=1).reshape(-1)
    # A row searches its word's block of the flat cumulatives, [start, start + 2^n).
    starts = (np.cumsum(present) - 1) << n
    signs = (1 - 2 * (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1) & 1)).astype(np.int8)
    outs = np.empty((rows, n), dtype=np.int8)
    piece = min(rows, 4 * CHUNK)
    draws, moves, bounds = np.empty(piece, dtype=np.int64), np.empty(piece, dtype=np.int64), np.empty(piece)
    for at in range(0, rows, piece):
        d, m, c, u = draws[: rows - at], moves[: rows - at], bounds[: rows - at], uniforms[at : at + piece]
        # Every index below is in range, so mode="clip" never clips.
        np.take(starts, keys[at : at + piece], out=d, mode="clip")
        for step in (1 << bit for bit in reversed(range(n))):
            np.take(cum[step - 1 :], d, out=c, mode="clip")
            d += np.multiply(np.less_equal(c, u, out=m), step, out=m)
        d &= (1 << n) - 1
        np.take(signs, d, axis=0, out=outs[at : at + piece], mode="clip")
    return outs


class SimulatedStateAccess:
    """Copies of a hidden state, measured by the Born-rule simulator; each
    outcome row spends one copy, and ``copies_used`` is the only count."""

    def __init__(self, rho, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        mat = as_matrix(rho)
        self.n = qubit_count(mat.shape[0])
        if self.n < 1:
            raise ValueError("measurement needs a state of at least 1 qubit, got 0")
        if self.n > MAX_MEASURE_QUBITS:
            raise ValueError(f"measurement capped at {MAX_MEASURE_QUBITS} qubits")
        self._coeffs = pauli_tensor(mat).reshape(-1)
        self._seed = int(seed)
        self._pieces = 0
        self._copies = 0

    @property
    def copies_used(self) -> int:
        return self._copies

    def measure_chunk(self, basis_codes: np.ndarray) -> np.ndarray:
        """One outcome row per basis row; the stream's pieces run on across
        calls, so one call over several chunks equals one call per chunk.
        A call that raises spends no copy."""
        values = np.asarray(basis_codes)
        # Checked before the uint8 cast, which would wrap 257 to 1 and truncate 1.7 to 1.
        integral = values.dtype.kind in "iu" or np.all(values % 1 == 0)
        if values.size and not (integral and 1 <= values.min() and values.max() <= 3):
            bad = np.setdiff1d(values, [1, 2, 3])[:5].tolist()
            raise ValueError(f"basis codes must be 1 (X), 2 (Y), or 3 (Z), got {bad}")
        codes = np.ascontiguousarray(values, dtype=np.uint8)
        rows = len(codes)
        if rows == 0:
            return np.empty((0, self.n), dtype=np.int8)
        pieces = range(self._pieces, self._pieces + -(-rows // CHUNK))
        uniforms = np.empty(rows)
        for piece, at in zip(pieces, range(0, rows, CHUNK)):
            np.random.default_rng([self._seed, piece]).random(out=uniforms[at : at + CHUNK])
        outs = sample_outcomes(self._coeffs, codes, uniforms)
        self._pieces, self._copies = pieces.stop, self._copies + rows
        return outs

    def collect(self, T: int, basis_seed: int):
        """T uniform basis words and their outcomes, as a stream of BATCH-row batches.

        Chunk c of up to CHUNK words is drawn from an RNG keyed ``(basis_seed,
        c)``; each batch is measured max(CHUNK, 2^22 >> n) rows a call, so that
        a group's Born rows stay within 2^22 floats.
        """
        if T < 1:
            raise ValueError(f"need at least one sample, got T = {T}")
        if basis_seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        n, group = self.n, max(CHUNK, (1 << 22) >> self.n)

        def batch(start):
            codes = np.empty((min(BATCH, T - start), n), dtype=np.uint8)
            for at in range(0, len(codes), CHUNK):
                rng = np.random.default_rng([int(basis_seed), (start + at) // CHUNK])
                codes[at : at + CHUNK] = rng.integers(1, 4, size=(min(CHUNK, len(codes) - at), n), dtype=np.uint8)
            outs = np.empty_like(codes, dtype=np.int8)
            for at in range(0, len(codes), group):
                outs[at : at + group] = self.measure_chunk(codes[at : at + group])
            return codes, outs

        return (batch(start) for start in range(0, T, BATCH))


# Row P (I, X, Y, Z): x [Q == P] at letter code 2(Q - 1) + [x == -1], i.e. X+ X- Y+ Y- Z+ Z-.
_LETTER_SUMS = np.array([[1] * 6, [1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]])


def estimate_lowdeg(batches, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Estimates 3^|P| total(P) / (2^n T) of every Pauli word P with support
    size at most k, as ascending packed words and their values; total(P) sums,
    over (basis codes, outcomes) batches of T rows in all, the block totals of
    the rows' letter codes under the 4 x 6 letter matrix."""
    T = n = totals = 0
    for basis_codes, outcomes in batches:
        basis_codes, outcomes = np.asarray(basis_codes), np.asarray(outcomes)
        if basis_codes.ndim != 2 or outcomes.shape != basis_codes.shape:
            shapes = f"basis codes of shape {basis_codes.shape} and outcomes of shape {outcomes.shape}"
            raise ValueError(f"need basis codes and outcomes of one shape (T, n), got {shapes}")
        if T and basis_codes.shape[1] != n:
            raise ValueError(f"need batches of one width, got {basis_codes.shape[1]} columns after {n}")
        rows, n = basis_codes.shape
        if rows == 0:
            raise ValueError("need at least one sample")
        # Checked before the letter arithmetic, which would wrap silently on a bad unsigned code.
        if basis_codes.min() < 1 or basis_codes.max() > 3:
            raise ValueError("basis codes must be 1 (X), 2 (Y), or 3 (Z)")
        if np.any(np.abs(outcomes) != 1):
            raise ValueError("outcomes must be +/-1")
        letters = np.ascontiguousarray((2 * (basis_codes - 1) + (outcomes < 0)).T)

        def keys(cols):
            key = np.zeros(rows, dtype=np.int64)
            for col in cols:
                key *= 6
                key += letters[col]
            return key

        words, batch_totals = block_totals(_LETTER_SUMS, keys, rows, n, k)
        T, totals = T + rows, totals + batch_totals
    if T == 0:
        raise ValueError("need at least one sample")
    return words, 3 ** pauli_weight(words) * totals / float((1 << n) * T)


def shadow_sample_count(n: int, k: int, eps_coeff: float, delta: float, c: float = 8.0) -> int:
    """Samples for per-coefficient absolute accuracy eps_coeff on all |supp| <= k.

    ceil(c * 3^k * ln((3n)^k / delta) / (2^(2n) * eps_coeff^2)); the 2^(2n)
    cancels the natural 2^-n scale of the coefficients.
    """
    if not (0 < delta < 1 and eps_coeff > 0 and 0 <= k <= n and c > 0):
        raise ValueError("invalid sample-count parameters")
    log_term = k * math.log(3 * n) - math.log(delta)
    return max(1, math.ceil(c * 3**k * log_term / (4**n * eps_coeff**2)))

