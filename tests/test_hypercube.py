"""Cube functions, Walsh transforms, and distribution distances."""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juntalab import hypercube
from juntalab.hypercube import (
    Distribution,
    block_totals,
    degree,
    fourier_transform,
    load_distribution,
    transform_digits,
    tv_distance,
    variables_to_mask,
    walsh_hadamard,
)


def signs_of(bits: int, n: int) -> list[int]:
    """The coordinates of a point mask: x_i = -1 iff bit n - i is set."""
    return [-1 if bits >> (n - i) & 1 else 1 for i in range(1, n + 1)]


def coefficient_by_sum(f: np.ndarray, mask: int) -> float:
    """Definition oracle: 2^-n sum_x f(x) chi_S(x), with chi_S(x) the
    product of the coordinates x_i for i in S."""
    n = f.size.bit_length() - 1
    total = 0.0
    for bits in range(1 << n):
        chi = 1.0
        for i, sign in enumerate(signs_of(bits, n), start=1):
            if mask >> (n - i) & 1:
                chi *= sign
        total += f[bits] * chi
    return total / (1 << n)


class TestPointEncoding:
    def test_variable_one_is_most_significant(self):
        assert variables_to_mask([1], 3) == 0b100
        assert variables_to_mask([3], 3) == 0b001


class TestFourierTransform:
    def test_constant_function(self):
        spec = fourier_transform(np.ones(8))
        assert spec.shape == (8,)
        assert spec[0] == 1.0
        assert np.count_nonzero(spec) == 1

    def test_dictator(self):
        # f(x) = x_1 on two variables
        f = np.array([1.0, 1.0, -1.0, -1.0])
        spec = fourier_transform(f)
        assert spec[variables_to_mask([1], 2)] == 1.0
        assert np.count_nonzero(spec) == 1

    def test_matches_definition_sum(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal(8)
        spec = fourier_transform(f)
        for mask in range(8):
            assert spec[mask] == pytest.approx(
                coefficient_by_sum(f, mask), abs=1e-12
            )

    def test_walsh_hadamard_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            walsh_hadamard(np.ones(3))
        with pytest.raises(ValueError):
            walsh_hadamard(np.ones((4, 3)))

    def test_walsh_hadamard_batches_rows(self):
        rows = np.random.default_rng(8).standard_normal((5, 16))
        batched = walsh_hadamard(rows)
        assert batched.shape == (5, 16)
        for row, out in zip(rows, batched):
            assert np.array_equal(out, walsh_hadamard(row))

    def test_walsh_hadamard_pinned_digest(self):
        # Pins the transform bit for bit, 1-D and batched, across versions.
        rng = np.random.default_rng(31)
        digest = hashlib.sha256()
        for n in range(15):
            digest.update(walsh_hadamard(rng.standard_normal(1 << n)).tobytes())
        for shape in [(81, 16), (729, 64)]:
            digest.update(walsh_hadamard(rng.standard_normal(shape)).tobytes())
        assert digest.hexdigest() == (
            "597337d346f96ea13ab5aabc5675d794ac26ff41dfedd2250c46325870d439ff"
        )


class TestTransformDigits:
    @pytest.mark.parametrize(
        "matrix",
        [[[1, 1], [1, -1]], [[1, 2j, 0, -1], [3, 1j, 1, 0], [0, -2, 1 + 1j, 2], [1j, 0, -1, 1]]],
    )
    @pytest.mark.parametrize("digits", [0, 1, 3])
    def test_matches_kronecker_power(self, matrix, digits):
        # Integer entries keep every product and sum exact, so the kernel
        # must equal the explicit Kronecker power applied to each row.
        matrix = np.array(matrix)
        c = matrix.shape[1]
        rows = np.random.default_rng(9).integers(-5, 6, size=(7, c**digits))
        power = np.ones((1, 1), dtype=matrix.dtype)
        for _ in range(digits):
            power = np.kron(power, matrix)
        assert np.array_equal(transform_digits(matrix, rows, digits), rows @ power.T)


class TestInverseTransform:
    """f(x) = sum_S c(S) chi_S(x) on the whole cube is ``walsh_hadamard`` of
    the dense vector of all 2^n coefficients."""

    def test_constant_spectrum(self):
        f = walsh_hadamard(np.array([0.5, 0.0, 0.0, 0.0]))
        assert f.shape == (4,)
        assert np.all(f == 0.5)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        spec = rng.standard_normal(16)
        back = fourier_transform(walsh_hadamard(spec))
        for mask in range(16):
            assert back[mask] == pytest.approx(spec[mask], abs=1e-12)

    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(ValueError):
            walsh_hadamard(np.ones(6))

    def test_two_term_spectrum_values(self):
        # x_1 - 0.5 x_1 x_2 evaluated at the four points
        spec = np.zeros(4)
        spec[variables_to_mask([1], 2)] = 1.0
        spec[variables_to_mask([1, 2], 2)] = -0.5
        f = walsh_hadamard(spec)
        for bits in range(4):
            signs = signs_of(bits, 2)
            expected = signs[0] - 0.5 * signs[0] * signs[1]
            assert f[bits] == pytest.approx(expected, abs=1e-15)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_parseval(n, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(1 << n)
    spec = fourier_transform(f)
    lhs = sum(v * v for v in spec)
    rhs = float(np.mean(f**2))
    assert abs(lhs - rhs) <= 1e-10


@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_transform_round_trip_exact(n, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(1 << n)
    back = walsh_hadamard(fourier_transform(f))
    assert np.max(np.abs(back - f)) <= 1e-12


class TestTvDistance:
    def test_identical(self):
        p = Distribution.uniform(3)
        assert tv_distance(p, p) == 0.0

    def test_point_masses(self):
        p = Distribution(2, [1, 0, 0, 0])
        q = Distribution(2, [0, 0, 1, 0])
        assert tv_distance(p, q) == 1.0

    def test_half(self):
        p = Distribution(1, [1.0, 0.0])
        assert tv_distance(p, Distribution.uniform(1)) == 0.5

    def test_metric_properties(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            dists = [
                Distribution(3, w / w.sum())
                for w in rng.random((3, 8))
            ]
            p, q, r = dists
            assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-15)
            assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-15
            assert 0.0 <= tv_distance(p, q) <= 1.0

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            tv_distance(Distribution.uniform(2), Distribution.uniform(3))

    @pytest.mark.parametrize("first,second", [
        ((2, 5), (1, 7)),  # disjoint
        ((3, 4, 8), (3, 4, 8)),  # equal
        ((2, 6), (1, 2, 6, 8)),  # nested
        ((), (4,)),  # k = 0 beside k = 1
        ((), ()),  # both k = 0
        ((1, 2, 3, 4, 5, 6, 7, 8), (3,)),  # a dense distribution beside a junta
    ], ids=["disjoint", "equal", "nested", "k0", "k0-k0", "dense"])
    def test_union_equals_dense(self, first, second):
        n = 8
        rng = np.random.default_rng(len(first) * 10 + len(second))
        for _ in range(3):
            p, q = (Distribution(n, rng.dirichlet([0.5] * (1 << len(vs))), vs) for vs in (first, second))
            dense = [hypercube._broadcast_junta(d.block * 2.0 ** (len(d.variables) - n), n, d.variables)
                     for d in (p, q)]
            want = 0.5 * float(np.abs(dense[0] - dense[1]).sum())
            assert abs(tv_distance(p, q) - want) <= 1e-15
            assert tv_distance(p, q) == tv_distance(q, p)

    def test_union_past_the_block_cap_is_refused(self):
        p = Distribution(60, np.full(1 << 13, 2.0**-13), range(1, 14))
        q = Distribution(60, np.full(1 << 12, 2.0**-12), range(40, 52))
        with pytest.raises(ValueError, match="juntas on 25 variables together, past the 24-variable cap"):
            tv_distance(p, q)


class TestDegreeSupport:
    def test_constant(self):
        assert degree(np.eye(1, 8)[0]) == 0
        assert degree(np.zeros(8)) == 0

    def test_junta_distribution_spectrum(self):
        # depends on variables {1, 3} only
        rng = np.random.default_rng(3)
        block = rng.random(4)
        block /= block.sum()
        values = np.zeros(16)
        for bits in range(16):
            local = (bits >> 3 & 1) << 1 | (bits >> 1 & 1)
            values[bits] = block[local] / 4
        spec = fourier_transform(Distribution(4, values).block)
        assert degree(spec) <= 2
        assert np.count_nonzero(spec) <= 4

    def test_random_degree_two(self):
        rng = np.random.default_rng(5)
        masks = [m for m in range(16) if m.bit_count() == 2]
        spec = np.zeros(16)
        spec[masks] = rng.standard_normal(len(masks))
        assert degree(spec) == max(m.bit_count() for m in np.flatnonzero(spec).tolist())
        assert degree(spec) == 2


class TestMaskArrays:
    @pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (5, 2), (6, 6), (10, 3)])
    def test_low_degree_masks_ascending_and_complete(self, n, k):
        # The masks of the block totals of one all-+1 point, counted once each.
        want = [m for m in range(1 << n) if m.bit_count() <= k]
        masks, totals = block_totals([[1, 1], [1, -1]], lambda cols: np.zeros(1, dtype=np.int64), 1, n, k)
        assert masks.dtype == totals.dtype == np.int64
        assert masks.tolist() == want
        assert totals.tolist() == [1] * len(want)


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution(1, [1.5, -0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution(1, [0.6, 0.6])

    def test_renormalizes_within_tolerance(self):
        p = Distribution(1, [0.5 + 4e-13, 0.5])
        assert float(p.block.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_renormalized_values_equal_one_division(self):
        values = np.full(8, 0.125)
        values[3] += 1e-13
        total = values.sum()
        assert total != 1.0 and abs(total - 1.0) <= 1e-12
        kept = values.copy()
        p = Distribution(3, values)
        assert p.block.tobytes() == (values / total).tobytes()
        assert not p.block.flags.writeable
        assert values.tobytes() == kept.tobytes()
        with pytest.raises(ValueError):
            p.block[0] = 0.0

    @pytest.mark.parametrize("k", [0, 1, 3, 6, 12])
    def test_renormalizing_is_idempotent(self, k):
        # Dirichlet blocks as planted juntas draw them, and the same blocks
        # off by up to 1e-13 in their sum: a Distribution of a
        # Distribution's block keeps it bit for bit.
        rng = np.random.default_rng(k)
        variables = tuple(range(1, k + 1))
        for trial in range(400 if k <= 3 else 40):
            block = rng.dirichlet([1.0] * (1 << k)) if k else np.array([1.0])
            if trial % 2:
                block = block * (1.0 + rng.uniform(-1e-13, 1e-13))
            d = Distribution(10 + k, block, variables)
            assert Distribution(10 + k, d.block, d.variables).block.tobytes() == d.block.tobytes()

    def test_constructor_copies_and_leaves_the_input_writeable(self):
        values = np.full(8, 0.125)
        values[3] += 1e-13
        kept = values.copy()
        held = Distribution(3, values).block
        assert held is not values and not held.flags.writeable
        assert values.flags.writeable and values.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("values,message", [
        ([np.nan, 1.0], "function values must be finite"),
        ([np.nan, -1.0], "function values must be finite"),
        ([np.inf, 0.0], "function values must be finite"),
        ([-np.inf, 1.0], "function values must be finite"),
        ([np.inf, -np.inf], "function values must be finite"),
        ([1.5, -0.5], "distribution values must be nonnegative"),
        ([-1e308, -1e308], "distribution values must be nonnegative"),
        ([0.5, 0.5 + 2e-12], "distribution values sum to 1.000000000002, outside 1 +/- 1e-12"),
        ([0.25, 0.25], "distribution values sum to 0.5, outside 1 +/- 1e-12"),
        ([1e308, 1e308], "distribution values sum to inf, outside 1 +/- 1e-12"),
    ])
    def test_rejections_on_both_paths(self, values, message):
        """A dense and a junta distribution reject the same blocks with the
        same messages; a rejected array is left as it was."""
        builders = [lambda arr: Distribution(1, arr), lambda arr: Distribution(3, arr, (2,))]
        for build in builders:
            arr = np.array(values)
            with pytest.raises(ValueError, match=re.escape(message)):
                build(arr)
            assert arr.flags.writeable
            assert arr.tobytes() == np.array(values).tobytes()

    @pytest.mark.parametrize("n,block,variables,message", [
        (2, [1 / 3] * 3, None, "expected 4 values for 2 variables, got shape (3,)"),
        (40, [0.5] * 2, (3, 4), "expected 4 values for 2 variables, got shape (2,)"),
        (5, [0.25] * 4, (4, 2), "junta variables must ascend within [1, 5], got [4, 2]"),
        (5, [0.25] * 4, (2, 2), "junta variables must ascend within [1, 5], got [2, 2]"),
        (5, [0.25] * 4, (0, 2), "junta variables must ascend within [1, 5], got [0, 2]"),
        (5, [0.25] * 4, (2, 6), "junta variables must ascend within [1, 5], got [2, 6]"),
        (25, [1.0], None, "a junta block covers at most 24 variables, got 25"),
        (63, [1.0], (), "variable count must be in [1, 62], the int64 point-mask limit, got 63"),
        (0, [1.0], (), "variable count must be in [1, 62], the int64 point-mask limit, got 0"),
    ])
    def test_junta_checks(self, n, block, variables, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Distribution(n, block, variables)

    def test_junta_value(self):
        p = Distribution(62, [0.125, 0.375, 0.5, 0.0], [1, 62])
        assert (p.n, p.variables, p.block.tolist()) == (62, (1, 62), [0.125, 0.375, 0.5, 0.0])
        assert Distribution.uniform(40).variables == () and Distribution.uniform(40).block.tolist() == [1.0]
        assert Distribution(3, np.full(8, 0.125)).variables == (1, 2, 3)
        with pytest.raises(AttributeError, match="Distribution is immutable"):
            p.n = 3

    def test_empty_coefficient_is_two_to_minus_n(self):
        rng = np.random.default_rng(19)
        for n in (1, 4, 10):
            w = rng.random(1 << n)
            p = Distribution(n, w / w.sum())
            c0 = fourier_transform(p.block)[0]
            # exact in exact arithmetic; allow a few ulp of renormalization noise
            assert abs(c0 - 2.0**-n) <= 8 * np.finfo(float).eps * 2.0**-n


class TestJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        w = rng.random(8)
        p = Distribution(3, w / w.sum())
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"n": 3, "values": p.block.tolist()}))
        q = load_distribution(path)
        assert q.n == 3
        assert np.allclose(p.block, q.block, atol=1e-15)

    def test_file_format(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text('{"n": 2, "values": [0.25, 0.25, 0.5, 0]}')
        q = load_distribution(path)
        assert (q.n, q.variables) == (2, (1, 2))
        assert q.block.tolist() == [0.25, 0.25, 0.5, 0.0]

    def test_junta_file_format(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text('{"n": 40, "variables": [3, 17], "values": [0.25, 0.25, 0.5, 0]}')
        q = load_distribution(path)
        assert (q.n, q.variables, q.block.tolist()) == (40, (3, 17), [0.25, 0.25, 0.5, 0.0])

    @pytest.mark.parametrize("payload,message", [
        ({"n": 63, "variables": [1], "values": [0.5, 0.5]}, "field 'n' must be in [1, 62], got 63"),
        ({"n": 30, "variables": [1, 2], "values": [0.5, 0.5]}, "a 2-variable block needs 4 values, body has 2"),
        ({"n": 30, "variables": [1.0], "values": [0.5, 0.5]}, "field 'variables' must be a list of integers, got [1.0]"),
        ({"n": 30, "variables": 1, "values": [0.5, 0.5]}, "field 'variables' must be a list of integers, got 1"),
    ])
    def test_junta_file_checks(self, payload, message, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_distribution(path)

    @pytest.mark.parametrize("n, count", [(2, 8), (3, 7), (3, 9)],
                             ids=["wrong_n", "truncated_body", "extra_rows"])
    def test_header_checked_against_body(self, n, count, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"n": n, "values": [1.0 / count] * count}))
        with pytest.raises(ValueError) as info:
            load_distribution(path)
        assert str(info.value) == f"{path}: header n={n} needs {1 << n} values, body has {count}"

    def test_header_checked_against_cap_first(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"n": 10**9, "values": [1.0]}))
        with pytest.raises(ValueError, match=r"dist.json: field 'n' must be in \[1, 24\], got 1000000000"):
            load_distribution(path)
