"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single PASS line with its measured numbers (visible with
``pytest -s``); an assertion failure marks the criterion red.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from juntalab import cli, dist_learn, qac0, qstate, shadows, state_learn, state_test
from juntalab.hypercube import degree, fourier_transform, tv_distance, walsh_hadamard
from juntalab.qstate import DensityMatrix, pauli_weight
import paulis


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_01_parseval_and_round_trips():
    """Fourier/Pauli Parseval and transform round trips at 1e-10, under 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_fourier = worst_fourier_rt = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        f = rng.standard_normal(1 << n)
        spec = fourier_transform(f)
        parseval = abs(sum(v * v for v in spec) - float(np.mean(f**2)))
        round_trip = float(np.max(np.abs(walsh_hadamard(spec) - f)))
        worst_fourier = max(worst_fourier, parseval)
        worst_fourier_rt = max(worst_fourier_rt, round_trip)
    worst_pauli = worst_pauli_rt = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        rho = qstate.random_density_matrix(n, rng)
        tensor = qstate.pauli_tensor(rho)
        parseval = abs(float((tensor**2).sum()) - np.linalg.norm(rho.entries) ** 2 / (1 << n))
        rebuilt = qstate.pauli_tensor_to_matrix(tensor)
        round_trip = float(np.max(np.abs(rebuilt - rho.entries)))
        worst_pauli = max(worst_pauli, parseval)
        worst_pauli_rt = max(worst_pauli_rt, round_trip)
    elapsed = time.perf_counter() - start
    assert worst_fourier <= 1e-10 and worst_fourier_rt <= 1e-10
    assert worst_pauli <= 1e-10 and worst_pauli_rt <= 1e-10
    assert elapsed < 10.0
    report(
        1,
        f"worst Parseval {max(worst_fourier, worst_pauli):.2e}, worst round trip "
        f"{max(worst_fourier_rt, worst_pauli_rt):.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_shadow_unbiasedness_and_variance():
    """Shadow estimates within 5 sigma and second moments within 5%, under 2 min."""
    start = time.perf_counter()
    n, draws = 3, 200_000
    rng = np.random.default_rng(2002)
    worst_sigma_ratio = 0.0
    worst_moment_rel = 0.0
    for state_index in range(5):
        rho = qstate.random_density_matrix(n, rng)
        access = shadows.SimulatedStateAccess(rho, seed=3000 + state_index)
        rows = [np.concatenate(column) for column in zip(*access.collect(draws, 3001 + state_index))]
        codes = paulis.basis_codes(rows[0], n)
        exact = qstate.pauli_tensor(rho).reshape(-1)
        words, values = shadows.estimate_lowdeg([rows], n, 2)
        for word, value in zip(words.tolist(), values):
            weight = int(pauli_weight(word))
            second_moment = 3.0**weight / 4.0**n
            bound = 5.0 * math.sqrt(second_moment / draws)
            worst_sigma_ratio = max(worst_sigma_ratio, abs(value - exact[word]) / bound)
            if weight == 0:
                continue
            cols = [q - 1 for q in paulis.support(n, word)]
            letters = np.array([paulis.codes(n, word)[c] for c in cols], dtype=np.uint8)
            matches = np.all(codes[:, cols] == letters, axis=1)
            empirical = (9.0**weight / 4.0**n) * float(matches.mean())
            worst_moment_rel = max(
                worst_moment_rel, abs(empirical - second_moment) / second_moment
            )
    elapsed = time.perf_counter() - start
    assert worst_sigma_ratio <= 1.0
    assert worst_moment_rel <= 0.05
    assert elapsed < 120.0
    report(
        2,
        f"worst |error|/5sigma {worst_sigma_ratio:.2f}, worst moment deviation "
        f"{100 * worst_moment_rel:.2f}%, {elapsed:.1f}s",
    )


def test_criterion_03_junta_distribution_learning():
    """n=10, k=3, eps=0.2: exact TV <= eps in at least 45/50 trials, <2 s each."""
    n, k, eps, delta, c = 10, 3, 0.2, 0.1, 8.0
    instance_rng = np.random.default_rng(33)
    planted = [dist_learn.random_junta_distribution(n, k, instance_rng)[0] for _ in range(5)]
    successes = 0
    worst_trial_seconds = 0.0
    worst_tv = 0.0
    for trial in range(50):
        truth = planted[trial % 5]
        sampler = dist_learn.SimulatedSampler(truth, seed=5000 + trial)
        trial_start = time.perf_counter()
        result = dist_learn.learn_junta_distribution(sampler, k, eps, delta, c)
        worst_trial_seconds = max(worst_trial_seconds, time.perf_counter() - trial_start)
        assert sampler.samples_used == 22105
        tv = tv_distance(result.distribution, truth)
        worst_tv = max(worst_tv, tv)
        if tv <= eps:
            successes += 1
    assert successes >= 45
    assert worst_trial_seconds < 2.0
    report(
        3,
        f"{successes}/50 trials with TV <= {eps} (worst TV {worst_tv:.4f}), "
        f"slowest trial {worst_trial_seconds * 1000:.0f}ms",
    )


def gap_separated_block(rng, floor: float) -> DensityMatrix:
    """Random 2-qubit state whose nonzero Pauli coefficients all clear a floor:
    six random non-identity strings with signs and magnitudes in
    [floor, 1.75 floor]; the magnitude budget keeps the matrix PSD."""
    coeffs = np.zeros(16)
    coeffs[0] = 0.25
    chosen = rng.choice(np.arange(1, 16), size=6, replace=False)
    for packed in chosen:
        magnitude = float(rng.uniform(floor, 1.75 * floor))
        coeffs[packed] = float(rng.choice([-1.0, 1.0])) * magnitude
    return DensityMatrix(qstate.pauli_tensor_to_matrix(coeffs.reshape(4, 4)))


def test_criterion_04_junta_state_learning():
    """n=6, k=2, eps=0.25: PSD output within sqrt(2) eps in >= 18/20 trials,
    exact support recovery in >= 90% of the well-separated trials.

    Half the planted blocks are plain random states; the other half have all
    nonzero coefficients above 2x the cutoff so the support-recovery premise
    is exercised on a real population.
    """
    n, k, eps, delta, c = 6, 2, 0.25, 0.1, 8.0
    cutoff = state_learn.pauli_threshold_cutoff(n, k, eps)
    block_floor = 2.5 * cutoff * 2 ** (n - k)  # embedded coefficients are block/2^(n-k)
    instance_rng = np.random.default_rng(44)
    trace_successes = 0
    qualifying = 0
    recovered = 0
    for trial in range(20):
        variables = tuple(sorted(int(v) + 1 for v in instance_rng.choice(n, size=k, replace=False)))
        if trial % 2:
            block = gap_separated_block(instance_rng, block_floor)
        else:
            block = qstate.random_density_matrix(k, instance_rng)
        truth = qstate.embed_on(block, variables, n)
        access = state_learn.SimulatedStateAccess(truth, seed=7000 + trial)
        result = state_learn.learn_junta_state(access, k, eps, delta, c, basis_seed=100 + trial)
        if qstate.trace_distance(result.psd_projected, truth) <= math.sqrt(2.0) * eps:
            trace_successes += 1
        exact = qstate.pauli_tensor(truth).reshape(-1)
        words = np.flatnonzero(np.abs(exact) > 1e-12)
        nonzero = np.abs(exact[words[qstate.pauli_weight(words) > 0]])
        if nonzero.size and nonzero.min() > 2.0 * cutoff:
            qualifying += 1
            if np.array_equal(words, result.words):
                recovered += 1
    assert trace_successes >= 18
    assert qualifying > 0
    assert recovered >= math.ceil(0.9 * qualifying)
    report(
        4,
        f"{trace_successes}/20 within sqrt(2)*eps, support recovered "
        f"{recovered}/{qualifying} well-separated trials",
    )


def test_criterion_05_light_cone_junta_law():
    """50 random shallow circuits: off-cone Pauli mass at most 1e-10."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))  # n+a+1 in [2, 5], within every cap
        a = int(rng.integers(0, min(2, 5 - n - 1) + 1))
        circuit = qac0.random_circuit(n, a, depth=int(rng.integers(1, 3)), rng=rng)
        cone = qac0.light_cone(circuit, circuit.output_qubit)
        choi = qac0.choi_state_full(circuit)
        _, residual = qac0.concentration_search(qstate.pauli_tensor(choi), len(cone) + 1)
        worst = max(worst, residual)
    assert worst <= 1e-10
    report(5, f"worst off-cone residual {worst:.2e} over 50 circuits")


def test_criterion_06_ancilla_choi_relation():
    """Ancilla contraction identity to 1e-9 per coefficient on 20 circuits."""
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        a = int(rng.integers(0, 2))
        sigma = qstate.random_density_matrix(a + 1, rng)
        circuit = replace(qac0.random_circuit(n, a, depth=int(rng.integers(1, 3)), rng=rng),
                          sigma=sigma)
        worst = max(worst, qac0.ancilla_choi_relation_residual(circuit))
    assert worst <= 1e-9
    report(6, f"worst per-coefficient gap {worst:.2e} over 20 circuits")


def test_criterion_07_boolean_choi_agreement_identity():
    """A single kappa = 2^(n-1) matches Pr[f != g] across random pairs."""
    # exhaustive check at n=2 first: every pair of Boolean functions
    exhaustive = []
    for f_bits in range(16):
        for g_bits in range(16):
            f = np.array([1.0 - 2.0 * (f_bits >> i & 1) for i in range(4)])
            g = np.array([1.0 - 2.0 * (g_bits >> i & 1) for i in range(4)])
            exhaustive.append((f, g))
    kappa2, residual2 = qac0.fnorm_agreement_identity(exhaustive)
    assert kappa2 == pytest.approx(2.0, abs=1e-10)
    assert residual2 <= 1e-10

    rng = np.random.default_rng(77)
    details = []
    for n in (1, 2, 3):
        pairs = []
        while len(pairs) < 20:
            f = rng.choice([-1.0, 1.0], size=1 << n)
            g = rng.choice([-1.0, 1.0], size=1 << n)
            pairs.append((f, g))
        kappa, residual = qac0.fnorm_agreement_identity(pairs)
        assert kappa == pytest.approx(2.0 ** (n - 1), abs=1e-10)
        assert residual <= 1e-10
        details.append(f"n={n}: kappa={kappa:.6f} residual={residual:.1e}")
    report(7, "; ".join(details) + f"; exhaustive n=2 kappa={kappa2:.6f}")


def test_criterion_08_address_function():
    """Degree D+1 and junta distance at least (2^D - k)/2^(D+1), tight at (1,1)."""
    for d in (1, 2):
        f = qac0.address_function(d)
        assert degree(fourier_transform(f)) == d + 1
        for k in range(0, (1 << d) + 1):
            bound = ((1 << d) - k) / (1 << (d + 1))
            distance = qac0.boolean_distance_to_junta(f, k)
            assert distance >= bound - 1e-12
    tight = qac0.boolean_distance_to_junta(qac0.address_function(1), 1)
    assert tight == pytest.approx(0.25, abs=1e-15)
    report(8, f"degrees D+1 for D in (1,2); all bounds hold; d(D=1,k=1)={tight}")


def test_criterion_09_junta_tester():
    """Oracle certifier: deterministic correct verdicts. Frobenius certifier:
    >= 90% correct over 20 seeds per case. Copies match the budget exactly."""
    n, k, eps, delta = 4, 1, 0.1, 0.1
    instance_rng = np.random.default_rng(99)

    def close_instance(rng):
        variables = (int(rng.integers(1, n + 1)),)
        return qstate.embed_on(qstate.random_density_matrix(1, rng), variables, n)

    def far_instance():
        amplitudes = np.zeros(1 << n)
        amplitudes[0] = 1.0
        return DensityMatrix.pure(amplitudes)

    oracle_budget = state_test.test_junta_copy_budget(n, k, eps, delta, frobenius_certifier=False)
    for seed in range(5):
        truth = close_instance(instance_rng)
        access = state_learn.SimulatedStateAccess(truth, seed=1000 + seed)
        verdict = state_test.test_junta(access, k, eps, delta, oracle=truth, seed=seed)
        assert verdict["decision"] == state_test.JUNTA_CLOSE
        assert verdict["copies_used"] == oracle_budget
        truth = far_instance()
        access = state_learn.SimulatedStateAccess(truth, seed=2000 + seed)
        verdict = state_test.test_junta(access, k, eps, delta, oracle=truth, seed=seed)
        assert verdict["decision"] == state_test.JUNTA_FAR
        assert verdict["copies_used"] == oracle_budget
    # determinism: an identical rerun reproduces the verdict
    truth = close_instance(np.random.default_rng(5))
    runs = []
    for _ in range(2):
        access = state_learn.SimulatedStateAccess(truth, seed=123)
        runs.append(state_test.test_junta(access, k, eps, delta, oracle=truth, seed=7))
    assert runs[0] == runs[1]

    frob_budget = state_test.test_junta_copy_budget(n, k, eps, delta, frobenius_certifier=True)
    correct_close = correct_far = 0
    for seed in range(20):
        truth = close_instance(instance_rng)
        access = state_learn.SimulatedStateAccess(truth, seed=3000 + seed)
        verdict = state_test.test_junta(access, k, eps, delta, seed=seed, certifier_seed=seed)
        assert verdict["copies_used"] == frob_budget
        correct_close += verdict["decision"] == state_test.JUNTA_CLOSE
        truth = far_instance()
        access = state_learn.SimulatedStateAccess(truth, seed=4000 + seed)
        verdict = state_test.test_junta(access, k, eps, delta, seed=seed, certifier_seed=100 + seed)
        assert verdict["copies_used"] == frob_budget
        correct_far += verdict["decision"] == state_test.JUNTA_FAR
    assert correct_close >= 18 and correct_far >= 18
    report(
        9,
        f"oracle 10/10 deterministic; frobenius close {correct_close}/20, "
        f"far {correct_far}/20; copies == budget ({oracle_budget} / {frob_budget})",
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Experiment replay is byte-identical from (spec, seed) at any thread count."""
    specs = [
        {
            "command": "learn-dist",
            "grid": {"n": [6], "k": [1, 2], "eps": [0.25], "delta": [0.1]},
            "trials": 3,
            "seed": 17,
        },
        {
            "command": "learn-state",
            "grid": {"n": [4], "k": [1], "eps": [0.3], "delta": [0.1]},
            "trials": 2,
            "seed": 18,
        },
    ]
    total_bytes = 0
    for index, payload in enumerate(specs):
        spec_path = tmp_path / f"spec{index}.json"
        spec_path.write_text(json.dumps(payload))
        outputs = []
        for threads, name in ((1, "a"), (3, "b"), (2, "c")):
            out = tmp_path / f"out{index}{name}.jsonl"
            rc = cli.main(["run", str(spec_path), "--threads", str(threads), "--out", str(out)])
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        total_bytes += len(outputs[0])
    report(10, f"two commands, three thread counts each, {total_bytes} bytes identical")
