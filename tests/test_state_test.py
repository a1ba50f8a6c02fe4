"""Junta tester: local tomography, the two statistics, and the subset sweep."""

import itertools
import json
import math

import numpy as np
import pytest

from juntalab.qstate import (
    DensityMatrix,
    embed_on,
    pauli_tensor_to_matrix,
    random_density_matrix,
    trace_distance,
)
from juntalab.shadows import estimate_lowdeg, shadow_sample_count
from juntalab.state_learn import SimulatedStateAccess, psd_project
from juntalab.state_test import (
    CLOSE,
    FAR,
    JUNTA_CLOSE,
    JUNTA_FAR,
    certifier_sample_count,
    frobenius_bound,
    local_tomography,
    tomography_coefficient_accuracy,
    tomography_sample_count,
)
from juntalab.state_test import test_junta as run_junta_test
from juntalab.state_test import test_junta_copy_budget as junta_copy_budget


def pure_basis_state(n: int, index: int = 0) -> DensityMatrix:
    amplitudes = np.zeros(1 << n)
    amplitudes[index] = 1.0
    return DensityMatrix.pure(amplitudes)


class TestLocalTomography:
    def test_empty_subset_is_scalar(self):
        access = SimulatedStateAccess(DensityMatrix(np.eye(4) / 4), seed=0)
        ((subset, reduced),) = local_tomography(access, 0, 0.1, 0.1, 0)
        assert subset == () and reduced.entries.shape == (1, 1)
        assert access.copies_used == 0

    def test_zero_block_recovered(self):
        truth = embed_on(DensityMatrix.pure([1, 0]), (1,), 4)
        for seed in (0, 1, 2):
            access = SimulatedStateAccess(truth, seed=seed)
            reduced = dict(local_tomography(access, 1, 0.1, 0.05, seed))[(1,)]
            assert trace_distance(reduced, DensityMatrix.pure([1, 0])) <= 0.1

    def test_maximally_mixed_hidden_state(self):
        truth = DensityMatrix(np.eye(8) / 8)
        access = SimulatedStateAccess(truth, seed=5)
        reduced = dict(local_tomography(access, 1, 0.15, 0.1, 3))[(2,)]
        assert trace_distance(reduced, DensityMatrix(np.eye(2) / 2)) <= 0.15

    def test_budget_formula(self):
        accuracy = tomography_coefficient_accuracy(1, 0.1) / 2 ** (4 - 1)
        assert tomography_sample_count(4, 1, 0.1, 0.05) == shadow_sample_count(
            4, 1, accuracy, 0.05, 8.0
        )

    def test_subset_cap(self):
        access = SimulatedStateAccess(DensityMatrix(np.eye(64) / 64), seed=0)
        with pytest.raises(ValueError):
            local_tomography(access, 5, 0.1, 0.1, 0)
        assert access.copies_used == 0

    # eps only sets T here; the large values keep the k = 3 and k = 4 collections short.
    @pytest.mark.parametrize("n, k, eps", [
        (3, 1, 0.3), (4, 1, 0.3), (4, 2, 1.0), (5, 2, 1.0), (6, 1, 0.3), (6, 3, 4.0), (4, 4, 16.0),
    ])
    def test_shared_blocks_equal_column_sliced_estimates(self, n, k, eps):
        """Each subset's block from the one shared collection is bitwise the
        estimate from that subset's columns of a fresh access with the same seeds."""
        rho = random_density_matrix(n, np.random.default_rng(10 * n + k))
        delta = 0.1
        shared = local_tomography(SimulatedStateAccess(rho, seed=5), k, eps, delta, 9)
        assert [subset for subset, _ in shared] == list(itertools.combinations(range(1, n + 1), k))
        T = tomography_sample_count(n, k, eps, delta)
        for subset, reduced in shared:
            cols = [q - 1 for q in subset]
            batches = SimulatedStateAccess(rho, seed=5).collect(T, 9)
            _, values = estimate_lowdeg(((c[:, cols], o[:, cols]) for c, o in batches), k)
            alone = psd_project(pauli_tensor_to_matrix(values.reshape((4,) * k)))
            assert np.array_equal(reduced.entries, alone.entries)

    @pytest.mark.parametrize("k", [4, -1])
    def test_k_out_of_range_spends_no_copy(self, k):
        access = SimulatedStateAccess(DensityMatrix(np.eye(8) / 8), seed=0)
        with pytest.raises(ValueError, match="k out of range"):
            local_tomography(access, k, 0.3, 0.1, 0)
        assert access.copies_used == 0


class TestOracleCertifier:
    """The statistic with an oracle: its exact trace distance, zero copies."""

    def test_thresholds(self):
        # k = 0: the one candidate is the maximally mixed state, at no copies
        mixed = DensityMatrix(np.eye(4) / 4)
        access = SimulatedStateAccess(mixed, seed=0)
        (close,) = run_junta_test(access, 0, 0.1, 0.1, oracle=mixed)["transcript"]
        assert close["verdict"] == CLOSE
        far_oracle = pure_basis_state(2)
        result = run_junta_test(access, 0, 0.1, 0.1, oracle=far_oracle)
        (far,) = result["transcript"]
        assert far["verdict"] == FAR
        assert far["statistic"] == trace_distance(far_oracle, mixed) == pytest.approx(1.5)
        assert result["certification_copies"] == result["copies_used"] == access.copies_used == 0
        # far iff the statistic exceeds 1.5 * (3 eps)
        for eps, verdict in ((0.34, CLOSE), (0.33, FAR)):
            (report,) = run_junta_test(access, 0, eps, 0.1, oracle=far_oracle)["transcript"]
            assert report["verdict"] == verdict


class TestFrobeniusCertifier:
    """The statistic without an oracle: ``frobenius_bound``."""

    def test_reference_equals_hidden(self):
        truth = random_density_matrix(3, np.random.default_rng(2))
        access = SimulatedStateAccess(truth, seed=1)
        assert frobenius_bound(access, [truth], 0.3, 0.1, 4)[0] <= 1.5 * 0.3
        assert access.copies_used == certifier_sample_count(3, 0.3, 0.1)

    def test_orthogonal_pure_states_are_far(self):
        truth = pure_basis_state(2, 0)
        reference = pure_basis_state(2, 3)
        access = SimulatedStateAccess(truth, seed=2)
        assert frobenius_bound(access, [reference], 0.3, 0.1, 5)[0] > 1.5 * 0.3

    def test_planted_diffuse_two_eps_instance(self):
        # diagonal pair at trace distance exactly 2 eps, spread over all entries
        eps = 0.3
        delta = np.array([1, 1, 1, 1, -1, -1, -1, -1]) * (2 * eps / 8)
        truth = DensityMatrix.from_diagonal(np.full(8, 1 / 8) + delta)
        reference = DensityMatrix(np.eye(8) / 8)
        assert trace_distance(truth, reference) == pytest.approx(2 * eps, abs=1e-12)
        for seed in (0, 1, 2):
            access = SimulatedStateAccess(truth, seed=seed)
            assert frobenius_bound(access, [reference], eps, 0.1, seed)[0] > 1.5 * eps

    def test_refuses_large_n(self):
        truth = DensityMatrix(np.eye(128) / 128)
        access = SimulatedStateAccess(truth, seed=0)
        with pytest.raises(ValueError, match="supply an oracle"):
            frobenius_bound(access, [truth], 0.3, 0.1, 0)

    def test_one_collection_bounds_every_reference(self):
        truth = random_density_matrix(3, np.random.default_rng(2))
        references = [truth, pure_basis_state(3, 0), DensityMatrix(np.eye(8) / 8)]
        access = SimulatedStateAccess(truth, seed=1)
        bounds = frobenius_bound(access, references, 0.3, 0.1, 4)
        assert access.copies_used == certifier_sample_count(3, 0.3, 0.1)
        for reference, bound in zip(references, bounds):
            alone = frobenius_bound(SimulatedStateAccess(truth, seed=1), [reference], 0.3, 0.1, 4)
            assert alone == [bound]

    def test_wrong_size_reference_spends_no_copy(self):
        truth = random_density_matrix(3, np.random.default_rng(2))
        access = SimulatedStateAccess(truth, seed=1)
        with pytest.raises(ValueError, match="reference dimension mismatch"):
            frobenius_bound(access, [truth, pure_basis_state(2)], 0.3, 0.1, 4)
        assert access.copies_used == 0

    def test_budget_formula(self):
        want = math.ceil(2 * 28.0**1.5 * math.log(2 / 0.1) / 0.3**2)
        assert certifier_sample_count(3, 0.3, 0.1) == want


class TestTestJunta:
    def test_planted_close_with_oracle(self):
        truth = embed_on(random_density_matrix(1, np.random.default_rng(3)), (2,), 4)
        access = SimulatedStateAccess(truth, seed=3)
        result = run_junta_test(access, 1, 0.1, 0.1, oracle=truth, seed=1)
        assert result["decision"] == JUNTA_CLOSE
        assert result["best_K"] == [2]

    def test_planted_far_with_oracle(self):
        truth = pure_basis_state(4)
        access = SimulatedStateAccess(truth, seed=4)
        result = run_junta_test(access, 1, 0.1, 0.1, oracle=truth, seed=2)
        assert result["decision"] == JUNTA_FAR
        assert all(r["verdict"] == FAR for r in result["transcript"])

    def test_k_zero_accepts_maximally_mixed(self):
        truth = DensityMatrix(np.eye(8) / 8)
        access = SimulatedStateAccess(truth, seed=9)
        result = run_junta_test(access, 0, 0.2, 0.1, oracle=truth, seed=1)
        assert result["decision"] == JUNTA_CLOSE
        assert result["best_K"] == []
        assert result["copies_used"] == 0  # tomography on the empty set is free

    def test_k_equals_n_always_close(self):
        truth = random_density_matrix(2, np.random.default_rng(6))
        access = SimulatedStateAccess(truth, seed=5)
        result = run_junta_test(access, 2, 0.2, 0.1, oracle=truth, seed=3)
        assert result["decision"] == JUNTA_CLOSE

    def test_copy_accounting_matches_budget(self):
        truth = embed_on(random_density_matrix(1, np.random.default_rng(7)), (1,), 4)
        access = SimulatedStateAccess(truth, seed=6)
        result = run_junta_test(access, 1, 0.1, 0.1, oracle=truth, seed=4)
        budget = junta_copy_budget(4, 1, 0.1, 0.1, frobenius_certifier=False)
        assert result["copies_used"] == budget == access.copies_used
        assert len(result["transcript"]) == 4

    def test_frobenius_budget(self):
        truth = embed_on(random_density_matrix(1, np.random.default_rng(8)), (3,), 4)
        access = SimulatedStateAccess(truth, seed=7)
        result = run_junta_test(access, 1, 0.1, 0.1, seed=5, certifier_seed=11)
        budget = junta_copy_budget(4, 1, 0.1, 0.1, frobenius_certifier=True)
        assert result["decision"] == JUNTA_CLOSE
        assert result["copies_used"] == budget == access.copies_used

    @pytest.mark.parametrize("frobenius_certifier", [False, True])
    def test_k_zero_budget_charges_no_tomography(self, frobenius_certifier):
        truth = DensityMatrix(np.eye(8) / 8)
        access = SimulatedStateAccess(truth, seed=13)
        oracle = None if frobenius_certifier else truth
        result = run_junta_test(access, 0, 0.3, 0.1, oracle=oracle, seed=2, certifier_seed=3)
        budget = junta_copy_budget(3, 0, 0.3, 0.1, frobenius_certifier=frobenius_certifier)
        assert result["copies_used"] == budget == access.copies_used

    def test_monotone_in_eps(self):
        # mid-range instance: accepted at a generous eps, rejected at a tiny one
        rng = np.random.default_rng(9)
        junta = embed_on(random_density_matrix(1, rng), (1,), 3)
        spike = pure_basis_state(3, 5)
        mixed = DensityMatrix(0.6 * junta.entries + 0.4 * spike.entries)
        for seed in range(3):
            accepted = {}
            for eps in (0.05, 0.4):
                access = SimulatedStateAccess(mixed, seed=seed)
                result = run_junta_test(access, 1, eps, 0.1, oracle=mixed, seed=seed)
                accepted[eps] = result["decision"] == JUNTA_CLOSE
            assert accepted[0.4] >= accepted[0.05]

    def test_transcript_serialization(self):
        truth = embed_on(random_density_matrix(1, np.random.default_rng(10)), (2,), 3)
        access = SimulatedStateAccess(truth, seed=8)
        result = run_junta_test(access, 1, 0.15, 0.1, oracle=truth, seed=6)
        assert set(result) == {
            "decision", "best_K", "copies_used", "tomography_copies", "certification_copies", "transcript",
        }
        assert len(result["transcript"]) == 3
        assert set(result["transcript"][0]) == {"K", "verdict", "statistic"}
        assert json.loads(json.dumps(result)) == result

    def test_replay_from_equal_arguments(self):
        """Equal arguments on fresh accesses with equal seeds give equal
        results: the Frobenius seeds come from the arguments alone."""
        truth = embed_on(random_density_matrix(1, np.random.default_rng(11)), (2,), 3)
        runs = [
            run_junta_test(SimulatedStateAccess(truth, seed=12), 1, 0.2, 0.1, seed=3, certifier_seed=4)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("frobenius_certifier", [False, True])
    @pytest.mark.parametrize("n, k", [(3, 0), (3, 1), (4, 2), (5, 2)])
    def test_copies_are_the_two_stage_budgets(self, n, k, frobenius_certifier):
        eps, delta = 0.3, 0.1
        truth = embed_on(random_density_matrix(1, np.random.default_rng(n)), (1,), n)
        access = SimulatedStateAccess(truth, seed=14)
        oracle = None if frobenius_certifier else truth
        result = run_junta_test(access, k, eps, delta, oracle=oracle, seed=3, certifier_seed=4)
        budget = junta_copy_budget(n, k, eps, delta, frobenius_certifier=frobenius_certifier)
        assert result["copies_used"] == budget == access.copies_used
        delta_sub = delta / n**k
        assert result["tomography_copies"] == (tomography_sample_count(n, k, eps, delta_sub) if k else 0)
        certified = certifier_sample_count(n, 3 * eps, delta_sub) if frobenius_certifier else 0
        assert result["certification_copies"] == certified
        assert budget == result["tomography_copies"] + result["certification_copies"]

    @pytest.mark.parametrize("frobenius_certifier", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_at_most_one_collection_per_stage(self, k, frobenius_certifier, monkeypatch):
        collect = SimulatedStateAccess.collect
        calls = []

        def counted(self, T, basis_seed):
            calls.append(T)
            return collect(self, T, basis_seed)

        monkeypatch.setattr(SimulatedStateAccess, "collect", counted)
        truth = embed_on(random_density_matrix(1, np.random.default_rng(4)), (2,), 3)
        oracle = None if frobenius_certifier else truth
        run_junta_test(SimulatedStateAccess(truth, seed=2), k, 0.3, 0.1, oracle=oracle, seed=1, certifier_seed=2)
        assert len(calls) == (k >= 1) + frobenius_certifier

    def test_qubit_cap(self):
        truth = DensityMatrix(np.eye(128) / 128)
        access = SimulatedStateAccess(truth, seed=0)
        with pytest.raises(ValueError):
            run_junta_test(access, 1, 0.1, 0.1, oracle=truth)
