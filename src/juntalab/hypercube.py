"""Boolean-cube functions, Walsh transforms, and distribution distances.

Encoding conventions, fixed here and used by every other module:

* Variables (and later qubits) are 1-indexed, ``i in [n]``.
* A point ``x in {-1,+1}^n`` is stored as an ``n``-bit mask with bit
  ``n - i`` set iff ``x_i == -1``; variable 1 is the most significant bit.
  The mask doubles as the index into dense value arrays, so the all-``+1``
  point sits at index 0.
* A subset ``S of [n]`` uses the same bit layout.

Spectra are plain arrays. A full spectrum is a dense vector indexed by
subset mask; a low-degree spectrum is a pair of arrays, the ascending
unique int64 masks and their float64 values. ``n`` is capped at 24 so a
dense vector never exceeds 2^24 entries.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
import numpy as np

MAX_VARS = 24

_SUM_TOL = 1e-12


def _check_nvars(n: int) -> None:
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"variable count must be in [1, {MAX_VARS}], got {n}")


def variables_to_mask(variables, n: int) -> int:
    """Pack a collection of 1-indexed variables into a subset mask."""
    mask = 0
    for i in variables:
        if not 1 <= i <= n:
            raise ValueError(f"variable {i} outside [1, {n}]")
        mask |= 1 << (n - i)
    return mask


def mask_to_variables(mask: int, n: int) -> tuple[int, ...]:
    """Unpack a subset mask into a sorted tuple of 1-indexed variables."""
    return tuple(i for i in range(1, n + 1) if mask >> (n - i) & 1)


class RealCubeFunction:
    """A dense real-valued function on {-1,+1}^n, indexed by point mask."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values) -> None:
        _check_nvars(n)
        arr = np.array(values, dtype=np.float64)
        if arr.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} values for n={n}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("function values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Distribution(RealCubeFunction):
    """A probability distribution on {-1,+1}^n: nonnegative values summing to 1.

    The constructor renormalizes sums within 1e-12 of 1 and rejects anything
    further off, so drift cannot accumulate silently.
    """

    __slots__ = ()

    def __init__(self, n: int, values) -> None:
        super().__init__(n, values)
        if np.any(self.values < 0.0):
            raise ValueError("distribution values must be nonnegative")
        total = float(self.values.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"distribution values sum to {total}, outside 1 +/- {_SUM_TOL}")
        if total != 1.0:
            # The values are this object's own copy, so they divide in place.
            self.values.flags.writeable = True
            np.divide(self.values, total, out=self.values)
            self.values.flags.writeable = False

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls(n, np.full(1 << n, 2.0**-n))


def transform_digits(matrix, values, digits: int) -> np.ndarray:
    """The ``digits``-fold Kronecker power of the r x c ``matrix`` applied to
    every row of ``values.reshape(-1, c**digits)``; C-ordered, so that sums
    over a row of a batch round as they do for that row alone.

    One 2-D product per base-c digit, last digit first; each moves the digit
    it used to the front, so after ``digits`` products the order is restored.
    """
    matrix = np.asarray(matrix)
    r, c = matrix.shape
    flat = np.asarray(values).reshape(-1)
    lead = flat.size // c**digits
    for _ in range(digits):
        flat = matrix @ flat.reshape(-1, c).T
    return np.ascontiguousarray(flat.reshape(r**digits, lead).T)


def walsh_hadamard(values) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform W[s] = sum_x (-1)^{|s & x|} v[x].

    Transforms along the last axis, so a 2-D input is a batch of rows.
    The 2x2 Hadamard on each bit, lowest bit first, O(n 2^n); self-inverse
    up to 2^n.
    """
    v = np.atleast_1d(np.asarray(values, dtype=np.float64))
    size = v.shape[-1]
    if size & (size - 1) or size == 0:
        raise ValueError("input length must be a power of two")
    return transform_digits([[1.0, 1.0], [1.0, -1.0]], v, size.bit_length() - 1).reshape(v.shape)


def fourier_transform(f: RealCubeFunction) -> np.ndarray:
    """Coefficients c(S) = E_x[f(x) chi_S(x)] for every S, as a dense vector
    indexed by subset mask, via the fast transform."""
    return walsh_hadamard(f.values) / float(1 << f.n)


def inverse_transform(coeffs) -> RealCubeFunction:
    """Evaluate f(x) = sum_S c(S) chi_S(x) on the whole cube from the dense
    vector of all 2^n coefficients."""
    values = walsh_hadamard(coeffs)
    return RealCubeFunction(values.size.bit_length() - 1, values)


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance, half the l1 distance; always in [0, 1]."""
    if p.n != q.n:
        raise ValueError(f"distributions over {p.n} and {q.n} variables")
    diff = p.values - q.values
    return 0.5 * float(np.abs(diff, out=diff).sum())


def low_degree_masks(n: int, k: int) -> np.ndarray:
    """The masks of every subset of [n] with at most k elements, ascending."""
    masks = np.zeros(1, dtype=np.int64)
    for bit in range(n):
        masks = np.concatenate([masks, masks[np.bitwise_count(masks) < k] | 1 << bit])
    return np.sort(masks)


# The interpreter work of one histogram block in element operations: a block's
# NumPy calls take some tens of microseconds, an element operation a few ns.
BLOCK_COST = 1 << 14


def group_width(n: int, k: int, size: int, base: int) -> int:
    """The group width g in 1..n with the fewest element operations for a
    block-histogram estimate over n columns, ``size`` samples and sets of at
    most k columns: G*size + C(G, r) * (r*size + b*base^b + BLOCK_COST), for
    G groups of g columns, blocks of r = min(k, G) groups, b = min(n, r*g)
    columns a block and base^b bins."""

    def cost(g: int) -> int:
        groups = -(-n // g)
        r = min(k, groups)
        b = min(n, r * g)
        return groups * size + math.comb(groups, r) * (r * size + b * base**b + BLOCK_COST)

    return min(range(1, max(n, 1) + 1), key=cost)


def degree(coeffs) -> int:
    """Largest |S| carrying a nonzero coefficient of a dense spectrum; 0 for
    zero or constant spectra."""
    return int(np.bitwise_count(np.flatnonzero(coeffs)).max(initial=0))


def save_distribution(dist: Distribution, path) -> None:
    payload = {"n": dist.n, "values": [float(v) for v in dist.values]}
    Path(path).write_text(json.dumps(payload))


def require_fields(payload, fields, source, integers=()) -> dict:
    """``payload`` if it is a JSON object holding every one of ``fields``,
    each of ``integers`` among them an integer; otherwise a ValueError that
    names ``source`` and the bad field."""
    if not isinstance(payload, dict):
        raise ValueError(f"{source}: expected a JSON object")
    for name in fields:
        if name not in payload:
            raise ValueError(f"{source}: missing field {name!r}")
    for name in integers:
        value = payload[name]
        if type(value) is not int:
            raise ValueError(f"{source}: field {name!r} must be an integer, got {json.dumps(value)}")
    return payload


def load_distribution(path) -> Distribution:
    payload = require_fields(json.loads(Path(path).read_text()), ("n", "values"), path, ("n",))
    if not isinstance(payload["values"], list):
        raise ValueError(f"{path}: field 'values' must be a list of numbers")
    return Distribution(payload["n"], payload["values"])
