"""Single-copy Pauli-basis measurement simulation and coefficient estimation.

Measurement model: pick a basis word Q in {X,Y,Z}^n and Born-sample the
joint +/-1 eigenvalues of its letters. With c(P) = Tr[P rho] / 2^n, the
outcome distribution is
``p_Q(x) = Tr[rho prod_i (I + x_i Q_i) / 2] = sum_{S subset [n]} c(Q_S) chi_S(x)``,
where Q_S keeps Q on S and puts I elsewhere: the Walsh transform of the
{I, Q_i} slice of the state's Pauli tensor (the inverse of the shadow
estimator below). A shadow row is two integers, qubit 1 most significant in
both, as in packed Pauli words: the word index sum_i (Q_i - 1) 3^(n - i),
Q_i = 1 (X), 2 (Y), 3 (Z), and the outcome index, bit n - i set iff x_i = -1.
The tensor is computed once per state; each sampling call gathers the slices
of its distinct basis words with one index matrix, transforms them as one
batch, and draws its rows in place by one vectorized binary search per 4
CHUNK-row piece. Only the +/-1 eigenvalue labeling enters, so no eigenbasis
phases are fixed.

The coefficient estimator for a Pauli word P averages
``3^|supp P| / 2^n * prod_{i in supp P} x_i [P_i == Q_i]`` over samples. It
is unbiased for Tr[P rho]/2^n and its single-sample second moment is
``3^|supp P| / 4^n``.

Determinism: each random stream is one generator, seeded once and read in
row order. ``SimulatedStateAccess`` spends and counts one copy of the hidden
state per outcome row, sampled with the next uniform of its RNG seeded with
the access seed; ``collect(T, basis_seed)`` draws the word indices from an RNG
seeded ``basis_seed``, one int32 draw a batch, which like int64 and unlike
uint8 or uint16 keeps no buffered bits of its own. So however calls split the
rows, they are a pure function of the state and the two seeds, and a T1-row
collection is a T2-row one's prefix. Shadows are a stream of batches of at
most BATCH rows, int32 word indices and uint16 outcome indices, that
concatenate to the same T rows at any BATCH, so no path holds more than a
batch. ``estimate_lowdeg`` checks each batch and sums the exact
``block_totals`` of its rows' letter codes 2(Q - 1) + [x == -1]; a block of m
columns counts 6^m bins once per batch (365 KiB at m = 6, 460 MiB at m = 10,
the one block of ``shadows bench --n 10 --k 10``).
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


def sample_outcomes(coeffs: np.ndarray, words: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Born-sample one outcome index per basis word index, using one provided uniform per row.

    ``coeffs`` is the state's flat Pauli tensor of n qubits and ``words`` a 1-D
    integer array in [0, 3^n). Row r draws the outcome
    ``min(searchsorted(cum, u_r, side="right"), 2^n - 1)`` of its word's
    cumulative distribution, built once per call and distinct word; each 4
    CHUNK-row piece counts the entries at or below its uniforms by one
    in-place n-step binary search. Outcomes are uint16.
    """
    if words.ndim != 1 or np.shape(uniforms) != words.shape:
        shapes = f"a {words.ndim}-D array of shape {words.shape} and uniforms of shape {np.shape(uniforms)}"
        raise ValueError(f"need 1-D basis word indices and one uniform per row, got {shapes}")
    n = (coeffs.size.bit_length() - 1) // 2
    if coeffs.size != 4**n:
        raise ValueError(f"need the 4^n Pauli coefficients of n qubits, got {coeffs.size}")
    _check_indices(words, 3**n, "basis word")
    rows = len(words)
    if rows == 0:
        return np.empty(0, dtype=np.uint16)
    present = np.zeros(3**n, dtype=bool)
    present[words] = True
    codes = np.flatnonzero(present)[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3 + 1
    cum = np.cumsum(_born_rows(coeffs, codes), axis=1).reshape(-1)
    # A row searches its word's block of the flat cumulatives, [start, start + 2^n).
    starts = (np.cumsum(present) - 1) << n
    outs = np.empty(rows, dtype=np.uint16)
    piece = min(rows, 4 * CHUNK)
    draws, moves, bounds = np.empty(piece, dtype=np.int64), np.empty(piece, dtype=np.int64), np.empty(piece)
    for at in range(0, rows, piece):
        d, m, c, u = draws[: rows - at], moves[: rows - at], bounds[: rows - at], uniforms[at : at + piece]
        # Every index below is in range, so mode="clip" never clips.
        np.take(starts, words[at : at + piece], out=d, mode="clip")
        for step in (1 << bit for bit in reversed(range(n))):
            np.take(cum[step - 1 :], d, out=c, mode="clip")
            d += np.multiply(np.less_equal(c, u, out=m), step, out=m)
        np.bitwise_and(d, (1 << n) - 1, out=outs[at : at + piece], casting="unsafe")
    return outs


def _check_indices(values: np.ndarray, bound: int, name: str) -> None:
    """Refuse a non-integer dtype, or an entry outside [0, bound), naming the defect."""
    if values.dtype.kind not in "iu":
        raise ValueError(f"{name} indices need an integer dtype, got {values.dtype}")
    if values.size and (values.min() < 0 or values.max() >= bound):
        bad = values[(values < 0) | (values >= bound)][:5].tolist()
        raise ValueError(f"{name} indices must lie in [0, {bound}), got {bad}")


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
        self._rng = np.random.default_rng(seed)
        self._copies = 0

    @property
    def copies_used(self) -> int:
        return self._copies

    def measure_chunk(self, basis_codes: np.ndarray) -> np.ndarray:
        """One outcome index per basis word index, each sampled with the next
        uniform of the outcome stream, so calls may split the rows anywhere. A
        call that raises spends no copy and leaves the stream where it was."""
        words = np.asarray(basis_codes)
        state = self._rng.bit_generator.state
        try:
            outs = sample_outcomes(self._coeffs, words, self._rng.random(words.size))
        except BaseException:
            self._rng.bit_generator.state = state
            raise
        self._copies += words.size
        return outs

    def collect(self, T: int, basis_seed: int):
        """T uniform basis words and their outcomes, as a stream of BATCH-row batches.

        Each batch's words are one int32 draw from an RNG seeded ``basis_seed``.
        A call's Born table holds min(rows, 3^n) rows of 2^n floats, so a
        batch is measured in one call while 6^n <= 2^22 (n <= 8), and
        otherwise 2^22 >> n rows a call.
        """
        if T < 1:
            raise ValueError(f"need at least one sample, got T = {T}")
        if basis_seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        n, rng = self.n, np.random.default_rng(basis_seed)
        group = BATCH if 6**n <= 1 << 22 else (1 << 22) >> n

        def batch(start):
            words = rng.integers(0, 3**n, size=min(BATCH, T - start), dtype=np.int32)
            outs = np.empty(len(words), dtype=np.uint16)
            for at in range(0, len(words), group):
                outs[at : at + group] = self.measure_chunk(words[at : at + group])
            return words, outs

        return (batch(start) for start in range(0, T, BATCH))


# Row P (I, X, Y, Z): x [Q == P] at letter code 2(Q - 1) + [x == -1], i.e. X+ X- Y+ Y- Z+ Z-.
_LETTER_SUMS = np.array([[1] * 6, [1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]])


def estimate_lowdeg(batches, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Estimates 3^|P| total(P) / (2^n T) of every Pauli word P with support
    size at most k, as ascending packed words and their values; total(P) sums,
    over (word indices, outcome indices) batches of T rows in all, the block
    totals of the rows' letter codes under the 4 x 6 letter matrix."""
    T = totals = 0
    for words, outcomes in batches:
        words, outcomes = np.asarray(words), np.asarray(outcomes)
        if words.ndim != 1 or outcomes.shape != words.shape:
            shapes = f"word indices of shape {words.shape} and outcome indices of shape {outcomes.shape}"
            raise ValueError(f"need 1-D word and outcome indices of one shape (T,), got {shapes}")
        if len(words) == 0:
            raise ValueError("need at least one sample in every batch")
        # Checked before the digit arithmetic, which would wrap silently on a bad index.
        _check_indices(words, 3**n, "basis word")
        _check_indices(outcomes, 1 << n, "outcome")

        def keys(cols):  # base-6 letter keys 2 * digit + bit over cols, by two table lookups
            width, shift = len(cols), n - cols.stop
            by_digit, by_bit = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
            for _ in range(width):
                by_digit = (6 * by_digit[:, None] + [0, 2, 4]).reshape(-1)
                by_bit = (6 * by_bit[:, None] + [0, 1]).reshape(-1)
            if width == n:  # every column: the indices are the digits and the bits
                return np.take(by_digit, words) + np.take(by_bit, outcomes)
            digits, bits = words.astype(np.int64) // 3**shift % 3**width, outcomes.astype(np.int64) >> shift
            return np.take(by_digit, digits) + np.take(by_bit, bits & (1 << width) - 1)

        found, batch_totals = block_totals(_LETTER_SUMS, keys, len(words), n, k)
        T, totals = T + len(words), totals + batch_totals
    if T == 0:
        raise ValueError("need at least one sample")
    return found, 3 ** pauli_weight(found) * totals / float((1 << n) * T)


def shadow_sample_count(n: int, k: int, eps_coeff: float, delta: float, c: float = 8.0) -> int:
    """Samples that estimate every Pauli word of support size 1..k to within
    eps_coeff, all with probability at least 1 - delta:
    ceil(c * 3^k * ln((3n)^k / delta) / (4^n * eps_coeff^2)).

    A word's single-sample term, less its mean, is at most M = (3^k + 1) / 2^n
    in magnitude and has variance at most s = 3^k / 4^n. By Bernstein, a mean
    of T terms misses by more than eps_coeff with probability at most
    2 exp(-T eps_coeff^2 / (2s + 2 M eps_coeff / 3)); at eps_coeff <= 2^-n,
    the coefficients' range, M eps_coeff <= 4s/3 for k >= 1, so a union bound
    over the at most (3n)^k words asks for T >= (26/9) s ln(2 (3n)^k / delta)
    / eps_coeff^2, which c = 8 covers whenever (3n)^k / delta >= 2^(13/23),
    about 1.48, so at every k >= 1.
    """
    if not (0 < delta < 1 and eps_coeff > 0 and 0 <= k <= n and c > 0):
        raise ValueError("invalid sample-count parameters")
    log_term = k * math.log(3 * n) - math.log(delta)
    return max(1, math.ceil(c * 3**k * log_term / (4**n * eps_coeff**2)))

