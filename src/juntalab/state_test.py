"""Junta-state property tester: one statistic per subset, one rule.

The tester tomographs the reduced state of every size-k qubit subset, embeds
each against the maximally mixed complement, and computes one distance
statistic between that candidate and the hidden state. A subset is far iff
its statistic exceeds 1.5 * (3 eps), the midpoint of the (3 eps, 6 eps)
certification gap, and the state is declared junta-close iff some subset is
not far. Each stage draws one collection that every subset reads, at failure
budget delta / n^k: tomography's budget covers every Pauli word of weight at
most k on all n qubits, and delta / n^k pays the union bound over the at most
n^k subsets whether or not their estimates share rows.

The statistic is the exact trace distance to ``oracle`` when the caller knows
the hidden state (zero copies; it isolates the tester's combinatorial logic
from subroutine noise), and otherwise ``frobenius_bound``: the trace-distance
upper bound 2^(n/2) ||.||_F from a shadow estimate of the Frobenius distance.
Its far verdicts are sound whenever the estimate is accurate; close verdicts
rely on the difference spreading over many eigenvalues, which holds for the
junta-vs-mixed candidates this tester builds, so they are heuristic. It
refuses above 6 qubits, where the budget outgrows desk scale.

The copy budgets are fixed: ``TOMOGRAPHY_C`` scales the tomography budget and
``CERTIFIER_C`` the certifier budget, so a copy count depends only on
(n, k, eps, delta) and the certifier.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .qstate import (
    DensityMatrix,
    embed_on,
    pauli_tensor,
    pauli_tensor_to_matrix,
    pauli_weight,
    scatter_pauli,
    trace_distance,
)
from .shadows import SimulatedStateAccess, estimate_lowdeg, shadow_sample_count
from .state_learn import psd_project

TOMOGRAPHY_C = 8.0
CERTIFIER_C = 2.0
MAX_TEST_QUBITS = 6
MAX_TOMOGRAPHY_QUBITS = 4

CLOSE = "close"
FAR = "far"


def tomography_coefficient_accuracy(kappa: int, eps: float) -> float:
    """Per-coefficient accuracy on the reduced state: eps / (2^2k * 2^(k/2)).

    With all 4^k coefficients this accurate, the Frobenius-to-trace chain
    bounds the reduced-state trace error by eps / 2^(k/2) < eps, leaving
    headroom for the PSD projection.
    """
    return eps / (2 ** (2 * kappa) * 2 ** (kappa / 2.0))


def tomography_sample_count(n: int, kappa: int, eps: float, delta: float) -> int:
    """Shadow budget for local tomography of every size-kappa subset at once,
    at constant ``TOMOGRAPHY_C``."""
    accuracy = tomography_coefficient_accuracy(kappa, eps) / 2 ** (n - kappa)
    return shadow_sample_count(n, kappa, accuracy, delta, TOMOGRAPHY_C)


def local_tomography(
    access: SimulatedStateAccess, k: int, eps: float, delta: float, basis_seed: int
) -> list[tuple[tuple[int, ...], DensityMatrix]]:
    """The reduced state of every size-k subset to trace error eps, all whp,
    as ``[(subset, reduced), ...]`` in ``itertools.combinations`` order.

    One collection estimates every Pauli coefficient of weight at most k. A
    subset's block, its words rescaled by 2^(n - k), is bitwise the estimate
    from its columns alone (the scale is a power of two); it is rebuilt and
    PSD-projected.
    """
    n = access.n
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    if k > MAX_TOMOGRAPHY_QUBITS:
        raise ValueError(f"local tomography capped at {MAX_TOMOGRAPHY_QUBITS} qubits")
    if k == 0:
        return [((), DensityMatrix(np.ones((1, 1))))]
    words, values = estimate_lowdeg(access.collect(tomography_sample_count(n, k, eps, delta), basis_seed), k)
    tensor = scatter_pauli(words, values * 2.0 ** (n - k), n)
    reduced = []
    for subset in itertools.combinations(range(1, n + 1), k):
        block = tensor[tuple(slice(None) if q in subset else 0 for q in range(1, n + 1))]
        reduced.append((subset, psd_project(pauli_tensor_to_matrix(block))))
    return reduced


def certifier_sample_count(n: int, eps: float, delta: float) -> int:
    """Budget for ``frobenius_bound``: ceil(CERTIFIER_C * 28^(n/2) * ln(2/delta) / eps^2).

    Its unbiased quadratic estimator has standard deviation about
    sqrt(2) * 7^(n/2) / T around the squared Frobenius distance; this budget
    pushes the deviation far under the decision margin eps^2 / 2^n.
    """
    if not (0 < delta < 1 and eps > 0):
        raise ValueError("invalid certifier parameters")
    return max(1, math.ceil(CERTIFIER_C * 28.0 ** (n / 2.0) * math.log(2.0 / delta) / eps**2))


def frobenius_bound(
    access: SimulatedStateAccess, references: list[DensityMatrix], eps: float, delta: float, seed: int
) -> list[float]:
    """2^(n/2) * sqrt(D) for each reference, an upper bound on the trace
    distance between the hidden state and that reference when D is accurate.

    D estimates 2^n * sum_P (rho^(P) - ref^(P))^2 = ||rho - ref||_F^2 without
    bias: each squared coefficient error is debiased with the exact
    single-sample second moment 3^|supp P| / 4^n of the shadow estimator. One
    collection of ``certifier_sample_count(n, eps, delta)`` rows, at failure
    probability delta for each reference, resolves the distances eps and 2 eps.
    """
    n = access.n
    if n > MAX_TEST_QUBITS:
        raise ValueError(f"the Frobenius bound refuses above {MAX_TEST_QUBITS} qubits; supply an oracle")
    if any(reference.n != n for reference in references):
        raise ValueError("reference dimension mismatch")
    T = certifier_sample_count(n, eps, delta)
    # At k = n the words are all 4^n packed words in order.
    words, est_flat = estimate_lowdeg(access.collect(T, seed), n)
    second_moment = 3.0 ** pauli_weight(words) / 4.0**n
    variance_hat = (second_moment - est_flat**2) / max(T - 1, 1)
    bounds = []
    for reference in references:
        d_hat = float((1 << n) * np.sum((est_flat - pauli_tensor(reference).reshape(-1)) ** 2 - variance_hat))
        bounds.append(2.0 ** (n / 2.0) * math.sqrt(max(d_hat, 0.0)))
    return bounds


JUNTA_CLOSE = "junta-close"
JUNTA_FAR = "junta-far"


def test_junta(
    access: SimulatedStateAccess, k: int, eps: float, delta: float,
    oracle: DensityMatrix | None = None, seed: int = 0, certifier_seed: int = 0,
) -> dict:
    """Accept iff some size-k subset's tomographed junta candidate is not far
    at the (3 eps, 6 eps) thresholds.

    Tomography collects once with basis seed ``seed`` and, without ``oracle``,
    the certifier once with ``certifier_seed``, so equal arguments replay.
    Sharing a collection leaves the union bound as it was: each stage runs at
    delta / n^k, one n^k-th per subset. The copy count is the sum of the two
    stage budgets, fixed by ``TOMOGRAPHY_C`` and ``CERTIFIER_C``. ``best_K`` is
    the subset with the smallest statistic, ties to the lexicographically first.
    """
    n = access.n
    if n > MAX_TEST_QUBITS:
        raise ValueError(f"junta testing capped at {MAX_TEST_QUBITS} qubits")
    if oracle is not None and oracle.n != n:
        raise ValueError("oracle dimension mismatch")
    delta_sub = delta / n**k
    start = access.copies_used
    learned = local_tomography(access, k, eps, delta_sub, seed)
    tomographed = access.copies_used
    candidates = [embed_on(reduced, subset, n) for subset, reduced in learned]
    if oracle is None:
        statistics = frobenius_bound(access, candidates, 3.0 * eps, delta_sub, certifier_seed)
    else:
        statistics = [trace_distance(oracle, candidate) for candidate in candidates]
    transcript = [
        {"K": list(subset), "verdict": FAR if statistic > 1.5 * (3.0 * eps) else CLOSE, "statistic": statistic}
        for (subset, _), statistic in zip(learned, statistics)
    ]
    return {
        "decision": JUNTA_CLOSE if any(r["verdict"] == CLOSE for r in transcript) else JUNTA_FAR,
        "best_K": min(transcript, key=lambda r: r["statistic"])["K"],
        "copies_used": access.copies_used - start,
        "tomography_copies": tomographed - start,
        "certification_copies": access.copies_used - tomographed,
        "transcript": transcript,
    }


def test_junta_copy_budget(n: int, k: int, eps: float, delta: float, frobenius_certifier: bool) -> int:
    """Exact copy count test_junta will consume at these parameters, with
    ``frobenius_certifier`` true when it runs without an oracle: one
    tomography collection (none at k = 0) plus one certifier collection."""
    delta_sub = delta / n**k
    copies = tomography_sample_count(n, k, eps, delta_sub) if k else 0
    if frobenius_certifier:
        copies += certifier_sample_count(n, 3.0 * eps, delta_sub)
    return copies
