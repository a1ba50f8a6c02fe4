"""Boolean-cube functions, Walsh transforms, and distribution distances.

Encoding conventions, fixed here and used by every other module:

* Variables (and later qubits) are 1-indexed, ``i in [n]``.
* A point ``x in {-1,+1}^n`` is stored as an ``n``-bit mask with bit
  ``n - i`` set iff ``x_i == -1``; variable 1 is the most significant bit.
  The mask doubles as the index into dense value arrays, so the all-``+1``
  point sits at index 0.
* A subset ``S of [n]`` uses the same bit layout.

A function on the cube is a float64 array of its 2^n values, indexed by
point mask. Spectra are plain arrays too: a full spectrum is a dense vector
indexed by subset mask; a low-degree spectrum is a pair of arrays, the
ascending unique int64 masks and their float64 values.

A distribution is a junta value: a probability block on at most
``MAX_VARS = 24`` ascending variables, uniform on the rest, so its ``n``
reaches ``MAX_POINT_VARS = 62``, the int64 point-mask limit, and nothing
about it takes 2^n memory; a dense distribution, and so a dense truth file,
is the junta on all n variables. ``Distribution`` copies its block, so a
caller's array is never renormalized or frozen.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path
import numpy as np

MAX_VARS = 24
MAX_POINT_VARS = 62

_SUM_TOL = 1e-12


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


class Distribution:
    """A k-junta probability distribution on {-1,+1}^n: ``block`` holds the
    2^k probabilities of the ascending 1-indexed ``variables`` K, read with
    the first one most significant, and every completion of a block point to
    the other n - k variables is equally likely. ``Distribution(n, values)``
    is the dense distribution, the junta on all n variables.

    n is at most ``MAX_POINT_VARS`` and k at most ``MAX_VARS``. The block is
    copied; sums within 1e-12 of 1 are renormalized by one division and
    anything further off is rejected, so drift cannot accumulate silently.
    """

    __slots__ = ("n", "variables", "block")

    def __init__(self, n: int, block, variables=None) -> None:
        if not 1 <= n <= MAX_POINT_VARS:
            raise ValueError(
                f"variable count must be in [1, {MAX_POINT_VARS}], the int64 point-mask limit, got {n}"
            )
        variables = tuple(range(1, n + 1)) if variables is None else tuple(int(v) for v in variables)
        if list(variables) != sorted(set(variables)) or any(not 1 <= v <= n for v in variables):
            raise ValueError(f"junta variables must ascend within [1, {n}], got {list(variables)}")
        if len(variables) > MAX_VARS:
            raise ValueError(f"a junta block covers at most {MAX_VARS} variables, got {len(variables)}")
        arr = np.array(block, dtype=np.float64)
        if arr.shape != (1 << len(variables),):
            raise ValueError(
                f"expected {1 << len(variables)} values for {len(variables)} variables, got shape {arr.shape}"
            )
        # A min and a sum are finite when every entry is (NaN and -inf reach
        # the min, +inf the sum); only otherwise are the entries scanned, to
        # tell them from finite ones whose sum overflows.
        with np.errstate(all="ignore"):
            low, total = float(arr.min()), float(arr.sum())
        if not (math.isfinite(low) and math.isfinite(total)) and not np.all(np.isfinite(arr)):
            raise ValueError("function values must be finite")
        if low < 0.0:
            raise ValueError("distribution values must be nonnegative")
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"distribution values sum to {total}, outside 1 +/- {_SUM_TOL}")
        if total != 1.0:
            np.divide(arr, total, out=arr)
        arr.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "block", arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls(n, [1.0], ())


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
    del values  # so that an input no caller keeps is freed after the first product
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


def fourier_transform(values) -> np.ndarray:
    """Coefficients c(S) = E_x[f(x) chi_S(x)] for every S of the function
    with the 2^n ``values``, as a dense vector indexed by subset mask; the
    values are sum_S c(S) chi_S(x), ``walsh_hadamard`` of the vector."""
    coeffs = walsh_hadamard(values)
    return coeffs / coeffs.shape[-1]


def _broadcast_junta(block: np.ndarray, n: int, variables: tuple[int, ...]) -> np.ndarray:
    """The 2^n values of the function of ``variables`` alone whose 2^|K|
    block reads them in order, the first one most significant, as a fresh
    array. Each run of adjacent variables, in or out of ``variables``, is
    one axis of the copy, so at most 2|K| + 1 axes take the broadcast."""
    runs = [(inside, len(list(run))) for inside, run in
            itertools.groupby(var in variables for var in range(1, n + 1))]
    dense = np.empty(1 << n)
    dense.reshape([1 << width for _, width in runs])[...] = block.reshape(
        [1 << width if inside else 1 for inside, width in runs]
    )
    return dense


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance, half the l1 distance; always in [0, 1].

    Both are uniform given the union U of their variables, so the l1
    distance of their marginals on U, 2^|U| points, is the one on the cube."""
    if p.n != q.n:
        raise ValueError(f"distributions over {p.n} and {q.n} variables")
    union = sorted(set(p.variables) | set(q.variables))
    if len(union) > MAX_VARS:
        raise ValueError(f"juntas on {len(union)} variables together, past the {MAX_VARS}-variable cap")
    place = {var: at for at, var in enumerate(union, 1)}

    def marginal(d: Distribution) -> np.ndarray:
        scale = 2.0 ** (len(d.variables) - len(union))
        return _broadcast_junta(d.block * scale, len(union), tuple(place[var] for var in d.variables))

    diff = marginal(p) - marginal(q)
    return 0.5 * float(np.abs(diff, out=diff).sum())


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


def block_totals(matrix, keys, rows: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending packed words of weight at most k over n columns, with their
    exact int64 totals: a row of codes x adds prod_i matrix[w_i, x_i] to word
    w, for an r x c ``matrix`` with entries in {-1, 0, 1} whose row 0, the
    identity letter, is all ones. Words are base-r digits and ``keys(cols)``
    gives the ``rows`` rows' base-c codes over a range of columns, column 0
    most significant in both.

    Blocks of min(k, #groups) contiguous groups, of the width ``group_width``
    picks, hold every such word; each block's c^b-bin histogram goes through
    ``transform_digits`` in the matrix's dtype. Every partial sum is an
    integer of magnitude at most ``rows``, so a float64 matrix is exact too.
    """
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    matrix = np.asarray(matrix)
    r, c = matrix.shape
    g = group_width(n, k, rows, c)
    groups = []  # keys, width, packed words and weights of each group's r^width words; none at k = 0
    for cols in [range(at, min(at + g, n)) for at in range(0, n, g)] if k else []:
        local = np.arange(r ** len(cols))
        weight = sum(local // r**i % r > 0 for i in range(len(cols)))
        groups.append((keys(cols), len(cols), local * r ** (n - cols.stop), weight))
    found, totals, key = [], [], np.empty(rows, dtype=np.int64)
    for block in itertools.combinations(groups, min(k, len(groups))):
        key.fill(0)
        digits, words, weight = 0, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        for group_key, width, group_words, group_weight in block:
            key *= c**width
            key += group_key
            digits += width
            words = np.add.outer(words, group_words).reshape(-1)
            weight = np.add.outer(weight, group_weight).reshape(-1)
        keep = weight <= k
        found.append(words[keep])
        totals.append(transform_digits(matrix, np.bincount(key, minlength=c**digits), digits)[0, keep])
    words, first = np.unique(np.concatenate(found), return_index=True)
    return words, np.concatenate(totals)[first].astype(np.int64)


def degree(coeffs) -> int:
    """Largest |S| carrying a nonzero coefficient of a dense spectrum; 0 for
    zero or constant spectra."""
    return int(np.bitwise_count(np.flatnonzero(coeffs)).max(initial=0))


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


def number_array(value, source, name: str) -> np.ndarray:
    """The field ``name`` of ``source``, a list or rectangular nest of lists of JSON numbers, as float64;
    strings, booleans, null, objects and integers past float64 get a ValueError naming file and field."""
    if type(value) is not list:
        raise ValueError(f"{source}: field {name!r} must be a list of numbers")
    # A nest that is not rectangular leaves lists among the object array's entries.
    entries = np.array(value, dtype=object)
    for entry in entries.flat:
        if type(entry) is list:
            raise ValueError(f"{source}: field {name!r} must be a rectangular list of numbers")
        if type(entry) is not int and type(entry) is not float:
            raise ValueError(f"{source}: field {name!r} must hold numbers only, got {json.dumps(entry)}")
        if type(entry) is int and abs(entry) > sys.float_info.max:
            raise ValueError(f"{source}: field {name!r} holds {entry}, past the float64 range")
    return entries.astype(np.float64)


def load_distribution(path) -> Distribution:
    """The distribution of a JSON file ``{"n", "values"}``, the 2^n point
    probabilities, or ``{"n", "variables", "values"}``, a junta whose
    ``values`` are the 2^|K| probabilities of its ascending ``variables``;
    the header ``n`` is checked against the cap, then the body's length
    against the variables."""
    payload = require_fields(json.loads(Path(path).read_text()), ("n", "values"), path, ("n",))
    n, variables = payload["n"], payload.get("variables")
    cap = MAX_VARS if variables is None else MAX_POINT_VARS
    if not 1 <= n <= cap:
        raise ValueError(f"{path}: field 'n' must be in [1, {cap}], got {n}")
    if variables is not None and (type(variables) is not list or any(type(v) is not int for v in variables)):
        raise ValueError(f"{path}: field 'variables' must be a list of integers, got {json.dumps(variables)}")
    values = number_array(payload["values"], path, "values")
    k = n if variables is None else len(variables)
    if len(values) != 1 << k:
        header = f"header n={n}" if variables is None else f"a {k}-variable block"
        raise ValueError(f"{path}: {header} needs {1 << k} values, body has {len(values)}")
    return Distribution(n, values, variables)
