"""Cube functions, Walsh transforms, and distribution distances."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juntalab.hypercube import (
    Distribution,
    RealCubeFunction,
    degree,
    fourier_transform,
    inverse_transform,
    load_distribution,
    low_degree_masks,
    save_distribution,
    transform_digits,
    tv_distance,
    variables_to_mask,
    walsh_hadamard,
)


def signs_of(bits: int, n: int) -> list[int]:
    """The coordinates of a point mask: x_i = -1 iff bit n - i is set."""
    return [-1 if bits >> (n - i) & 1 else 1 for i in range(1, n + 1)]


def coefficient_by_sum(f: RealCubeFunction, mask: int) -> float:
    """Definition oracle: 2^-n sum_x f(x) chi_S(x), with chi_S(x) the
    product of the coordinates x_i for i in S."""
    n = f.n
    total = 0.0
    for bits in range(1 << n):
        chi = 1.0
        for i, sign in enumerate(signs_of(bits, n), start=1):
            if mask >> (n - i) & 1:
                chi *= sign
        total += f.values[bits] * chi
    return total / (1 << n)


class TestPointEncoding:
    def test_variable_one_is_most_significant(self):
        assert variables_to_mask([1], 3) == 0b100
        assert variables_to_mask([3], 3) == 0b001

    def test_size_cap(self):
        with pytest.raises(ValueError, match="variable count"):
            RealCubeFunction(25, [0.0])


class TestFourierTransform:
    def test_constant_function(self):
        spec = fourier_transform(RealCubeFunction(3, np.ones(8)))
        assert spec.shape == (8,)
        assert spec[0] == 1.0
        assert np.count_nonzero(spec) == 1

    def test_dictator(self):
        # f(x) = x_1 on two variables
        f = RealCubeFunction(2, [1.0, 1.0, -1.0, -1.0])
        spec = fourier_transform(f)
        assert spec[variables_to_mask([1], 2)] == 1.0
        assert np.count_nonzero(spec) == 1

    def test_matches_definition_sum(self):
        rng = np.random.default_rng(7)
        f = RealCubeFunction(3, rng.standard_normal(8))
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
    def test_constant_spectrum(self):
        f = inverse_transform(np.array([0.5, 0.0, 0.0, 0.0]))
        assert f.n == 2
        assert np.all(f.values == 0.5)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        spec = rng.standard_normal(16)
        back = fourier_transform(inverse_transform(spec))
        for mask in range(16):
            assert back[mask] == pytest.approx(spec[mask], abs=1e-12)

    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(ValueError):
            inverse_transform(np.ones(6))

    def test_two_term_spectrum_values(self):
        # x_1 - 0.5 x_1 x_2 evaluated at the four points
        spec = np.zeros(4)
        spec[variables_to_mask([1], 2)] = 1.0
        spec[variables_to_mask([1, 2], 2)] = -0.5
        f = inverse_transform(spec)
        for bits in range(4):
            signs = signs_of(bits, 2)
            expected = signs[0] - 0.5 * signs[0] * signs[1]
            assert f.values[bits] == pytest.approx(expected, abs=1e-15)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_parseval(n, seed):
    rng = np.random.default_rng(seed)
    f = RealCubeFunction(n, rng.standard_normal(1 << n))
    spec = fourier_transform(f)
    lhs = sum(v * v for v in spec)
    rhs = float(np.mean(f.values**2))
    assert abs(lhs - rhs) <= 1e-10


@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_transform_round_trip_exact(n, seed):
    rng = np.random.default_rng(seed)
    f = RealCubeFunction(n, rng.standard_normal(1 << n))
    back = inverse_transform(fourier_transform(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


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
        spec = fourier_transform(Distribution(4, values))
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
        want = [m for m in range(1 << n) if m.bit_count() <= k]
        got = low_degree_masks(n, k)
        assert got.dtype == np.int64
        assert got.tolist() == want


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution(1, [1.5, -0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution(1, [0.6, 0.6])

    def test_renormalizes_within_tolerance(self):
        p = Distribution(1, [0.5 + 4e-13, 0.5])
        assert float(p.values.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_renormalized_values_equal_one_division(self):
        values = np.full(8, 0.125)
        values[3] += 1e-13
        total = values.sum()
        assert total != 1.0 and abs(total - 1.0) <= 1e-12
        kept = values.copy()
        p = Distribution(3, values)
        assert p.values.tobytes() == (values / total).tobytes()
        assert not p.values.flags.writeable
        assert values.tobytes() == kept.tobytes()
        with pytest.raises(ValueError):
            p.values[0] = 0.0

    def test_empty_coefficient_is_two_to_minus_n(self):
        rng = np.random.default_rng(19)
        for n in (1, 4, 10):
            w = rng.random(1 << n)
            p = Distribution(n, w / w.sum())
            c0 = fourier_transform(p)[0]
            # exact in exact arithmetic; allow a few ulp of renormalization noise
            assert abs(c0 - 2.0**-n) <= 8 * np.finfo(float).eps * 2.0**-n


class TestJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        w = rng.random(8)
        p = Distribution(3, w / w.sum())
        path = tmp_path / "dist.json"
        save_distribution(p, path)
        q = load_distribution(path)
        assert q.n == 3
        assert np.allclose(p.values, q.values, atol=1e-15)

    def test_file_format(self, tmp_path):
        path = tmp_path / "dist.json"
        save_distribution(Distribution.uniform(2), path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"n", "values"}
        assert payload["n"] == 2
        assert len(payload["values"]) == 4
