"""Spectral learning lab: junta distributions, junta quantum states,
classical shadows, and Choi-state analysis of shallow Toffoli circuits."""

from .hypercube import (
    Distribution,
    RealCubeFunction,
    degree,
    fourier_transform,
    inverse_transform,
    tv_distance,
)
from .qstate import (
    DensityMatrix,
    embed_on,
    frobenius_distance,
    partial_trace,
    pauli_tensor,
    pauli_tensor_to_matrix,
    proxy_distance,
    rho_eps,
    rho_eps_family,
    trace_distance,
)
from .shadows import (
    collect_shadows,
    estimate_lowdeg,
    shadow_sample_count,
)
from .dist_learn import (
    learn_junta_distribution,
    sample_count_dist,
    threshold_spectrum,
)
from .state_learn import (
    LearnedState,
    SimulatedStateAccess,
    learn_junta_state,
    learn_qac0_choi,
    psd_project,
    threshold_pauli,
)
from .state_test import (
    frobenius_bound,
    local_tomography,
    test_junta,
)
from .qac0 import (
    Qac0Circuit,
    SingleQubitGate,
    ToffoliGate,
    address_function,
    boolean_distance_to_junta,
    choi_of_boolean_function,
    choi_state_full,
    choi_state_with_ancilla,
    circuit_unitary,
    concentration_search,
    fnorm_agreement_identity,
    light_cone,
    remove_long_toffolis,
)

__version__ = "0.1.0"
