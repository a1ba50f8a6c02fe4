"""Junta-state property tester: one statistic per subset, one rule.

The tester sweeps every size-k qubit subset: it tomographs the reduced state
on the subset, embeds it against the maximally mixed complement, and computes
one distance statistic between that candidate and the hidden state. A subset
is far iff its statistic exceeds 1.5 * (3 eps), the midpoint of the
(3 eps, 6 eps) certification gap, and the state is declared junta-close iff
some subset is not far. Each subroutine runs at failure budget delta / n^k.

The statistic is the exact trace distance to ``oracle`` when the caller knows
the hidden state (zero copies; it isolates the tester's combinatorial logic
from subroutine noise), and otherwise ``frobenius_bound``: the trace-distance
upper bound 2^(n/2) ||.||_F from a shadow estimate of the Frobenius distance.
Its far verdicts are sound whenever the estimate is accurate; close verdicts
rely on the difference spreading over many eigenvalues, which holds for the
junta-vs-mixed candidates this tester builds, so they are heuristic. It
refuses above 6 qubits, where the budget outgrows desk scale.

The copy budgets are fixed: ``TOMOGRAPHY_C`` scales every tomography budget
and ``CERTIFIER_C`` every certifier budget, so a copy count depends only on
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


def _stream_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def tomography_coefficient_accuracy(kappa: int, eps: float) -> float:
    """Per-coefficient accuracy on the reduced state: eps / (2^2k * 2^(k/2)).

    With all 4^k coefficients this accurate, the Frobenius-to-trace chain
    bounds the reduced-state trace error by eps / 2^(k/2) < eps, leaving
    headroom for the PSD projection.
    """
    return eps / (2 ** (2 * kappa) * 2 ** (kappa / 2.0))


def tomography_sample_count(n: int, kappa: int, eps: float, delta: float) -> int:
    """Shadow budget for local tomography on a size-kappa subset, at
    constant ``TOMOGRAPHY_C``."""
    accuracy = tomography_coefficient_accuracy(kappa, eps) / 2 ** (n - kappa)
    return shadow_sample_count(n, kappa, accuracy, delta, TOMOGRAPHY_C)


def local_tomography(
    access: SimulatedStateAccess, subset, eps: float, delta: float, basis_seed: int = 0
) -> DensityMatrix:
    """Learn the reduced state on ``subset`` to trace error eps, whp.

    Estimates the reduced state's 4^|subset| Pauli coefficients from the
    subset's columns of the shadows and PSD-projects the rebuilt matrix.
    """
    n = access.n
    subset = tuple(sorted(int(q) for q in subset))
    kappa = len(subset)
    if any(q < 1 or q > n for q in subset) or len(set(subset)) != kappa:
        raise ValueError("invalid qubit subset")
    if kappa > MAX_TOMOGRAPHY_QUBITS:
        raise ValueError(f"local tomography capped at {MAX_TOMOGRAPHY_QUBITS} qubits")
    if kappa == 0:
        return DensityMatrix(np.ones((1, 1)))
    cols = [q - 1 for q in subset]
    batches = access.collect(tomography_sample_count(n, kappa, eps, delta), basis_seed)
    _, values = estimate_lowdeg(((c[:, cols], o[:, cols]) for c, o in batches), kappa)
    return psd_project(pauli_tensor_to_matrix(values.reshape((4,) * kappa)))


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
    access: SimulatedStateAccess, reference: DensityMatrix, eps: float, delta: float, seed: int = 0
) -> float:
    """2^(n/2) * sqrt(D), an upper bound on the trace distance between the
    hidden state and ``reference`` when D is accurate.

    D estimates 2^n * sum_P (rho^(P) - ref^(P))^2 = ||rho - ref||_F^2 without
    bias: each squared coefficient error is debiased with the exact
    single-sample second moment 3^|supp P| / 4^n of the shadow estimator. The
    budget ``certifier_sample_count(n, eps, delta)`` resolves the distances
    eps and 2 eps.
    """
    n = access.n
    if n > MAX_TEST_QUBITS:
        raise ValueError(
            f"the Frobenius bound refuses above {MAX_TEST_QUBITS} qubits; supply an oracle"
        )
    if reference.n != n:
        raise ValueError("reference dimension mismatch")
    T = certifier_sample_count(n, eps, delta)
    # At k = n the words are all 4^n packed words in order.
    words, est_flat = estimate_lowdeg(access.collect(T, seed), n)
    ref_flat = pauli_tensor(reference).reshape(-1)
    second_moment = 3.0 ** pauli_weight(words) / 4.0**n
    variance_hat = (second_moment - est_flat**2) / max(T - 1, 1)
    d_hat = float((1 << n) * np.sum((est_flat - ref_flat) ** 2 - variance_hat))
    return 2.0 ** (n / 2.0) * math.sqrt(max(d_hat, 0.0))


JUNTA_CLOSE = "junta-close"
JUNTA_FAR = "junta-far"


def test_junta(
    access: SimulatedStateAccess,
    k: int,
    eps: float,
    delta: float,
    oracle: DensityMatrix | None = None,
    seed: int = 0,
    certifier_seed: int = 0,
) -> dict:
    """Accept iff some size-k subset's tomographed junta candidate is not far
    at the (3 eps, 6 eps) thresholds.

    Subset i tomographs with basis seed (seed, i) and, without ``oracle``,
    bounds with seed (certifier_seed, i), so equal arguments replay. Every
    subset is evaluated (no early exit), so the copy count is the
    deterministic sum of the per-subset budgets, fixed by the module's
    ``TOMOGRAPHY_C`` and ``CERTIFIER_C``, and the transcript is complete.
    ``best_K`` is the subset with the smallest statistic, ties to the
    lexicographically first.
    """
    n = access.n
    if n > MAX_TEST_QUBITS:
        raise ValueError(f"junta testing capped at {MAX_TEST_QUBITS} qubits")
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    delta_sub = delta / n**k
    start = access.copies_used
    transcript = []
    for index, subset in enumerate(itertools.combinations(range(1, n + 1), k)):
        before = access.copies_used
        reduced = local_tomography(access, subset, eps, delta_sub, _stream_seed(seed, index))
        tomographed = access.copies_used
        candidate = embed_on(reduced, subset, n)
        if oracle is None:
            statistic = frobenius_bound(
                access, candidate, 3.0 * eps, delta_sub, _stream_seed(certifier_seed, index)
            )
        else:
            statistic = trace_distance(oracle, candidate)
        transcript.append({
            "K": list(subset),
            "verdict": FAR if statistic > 1.5 * (3.0 * eps) else CLOSE,
            "statistic": statistic,
            "tomography_copies": tomographed - before,
            "certification_copies": access.copies_used - tomographed,
        })
    return {
        "decision": JUNTA_CLOSE if any(r["verdict"] == CLOSE for r in transcript) else JUNTA_FAR,
        "best_K": min(transcript, key=lambda r: r["statistic"])["K"],
        "copies_used": access.copies_used - start,
        "transcript": transcript,
    }


def test_junta_copy_budget(n: int, k: int, eps: float, delta: float, frobenius_certifier: bool) -> int:
    """Exact copy count test_junta will consume at these parameters, with
    ``frobenius_certifier`` true when it runs without an oracle; tomography
    on the empty subset (k = 0) spends none."""
    delta_sub = delta / n**k
    per_subset = tomography_sample_count(n, k, eps, delta_sub) if k else 0
    if frobenius_certifier:
        per_subset += certifier_sample_count(n, 3.0 * eps, delta_sub)
    return math.comb(n, k) * per_subset
