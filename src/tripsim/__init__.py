"""tripsim: dense simulation of tripartite-entanglement constructions.

Canonical entangled bases, twirl-invariant mixed-state families, a
three-party nonlocality paradox report, five teleportation protocols with
full branch enumeration, pure-state classification, and Kraus-noise
sweeps, all on an exact small-register state-vector/density-matrix core.
"""

from .core import (
    DensityOp,
    InputQubit,
    InvariantViolation,
    LocalOperator,
    RegisterCapacityError,
    SchmidtData,
    StateVector,
    UnnormalizedState,
    apply_local,
    fidelity_pure,
    haar_unitaries,
    haar_unitary,
    partial_inner,
    partial_trace,
    project,
    schmidt_decompose,
    tensor,
)
from .bases import (
    BellLabel,
    GeneralBellSpec,
    GhzLabel,
    WChannelSpec,
    basis_family,
    basis_json,
    bell2,
    bob_x_basis,
    general_bell,
    ghz_basis,
    w_basis,
)
from .twirl import (
    GenWerner3Q,
    IsotropicParams,
    WernerParams,
    gen_werner_3q,
    isotropic,
    isotropic_invariant,
    trace_distance,
    twirl_uu,
    twirl_uustar,
    werner,
    werner_invariant,
)
from .nonlocality import ParadoxReport, PauliString, ghz_paradox, pauli_expectation
from .classify import EntClass, ReducedDiagnostics, classify, diagnostics, three_tangle
from .teleport import (
    BranchRecord,
    FidelitySurface,
    TeleportReport,
    avg_fidelity_surface,
    average_fidelity_ghz_meas,
    closed_form_avg_fidelity,
    teleport_epr_via_ghz,
    teleport_ghz_epr,
    teleport_ghz_measurement,
    teleport_ghz_via_3epr,
    teleport_w_channel,
)
from .noise import KrausChannel, apply_channel, make_channel, noisy_teleport_sweep

__version__ = "0.1.0"
