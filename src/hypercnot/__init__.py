"""Simulator for heralded hyperparallel photonic CNOT gates.

A single emitter-in-cavity unit ("basic block") either transmits a photon
with a spin-conditioned polarization flip or reflects it into a heralding
detector. Two such blocks plus linear optics implement a CNOT -- and, with
more target photons, a CNOT^N -- acting simultaneously on the polarization
and spatial-mode qubits of each photon. The simulation runs the gate in
factored form (a control coefficient vector and one 4-vector per target),
records each stage's heralded-failure click and absorbed mass, and
reproduces the gate's closed-form success probability |T|^(4(N+1)).

The names from ``analysis`` (sweeps, scans and reports) load on first use, so
a process that only runs gates never imports that module or ``csv``.
"""

from .circuit import (
    block_interact,
    stage_polarization,
    stage_spatial,
)
from .errors import (
    AmplitudeLostError,
    DegeneratePhysicsError,
    RoutingContractError,
    ValidationError,
)
from .gates import (
    GateConfig,
    GateOutcome,
    OutcomeBranch,
    SampleStats,
    hyper_cnot,
    hyper_cnot_n,
    ideal_hyper_cnot,
    ideal_hyper_cnot_n,
    sample_shots,
    truth_table,
)
from .hyperstate import (
    ABSORBED,
    DETECTOR_B1,
    DETECTOR_B2,
    BasisLabel,
    FactoredState,
    HyperState,
    PhotonSpec,
    Pol,
    Spatial,
    Spin,
    fidelity,
    init_state,
    pack_label,
)
from .scattering import (
    BlockCoeffs,
    CavityParams,
    DephasingParams,
    ScatterCoeffs,
    block_coeffs,
    dephasing_penalty,
    efficiency,
    scatter_coeffs,
)

__version__ = "0.1.0"

__all__ = [
    "ABSORBED",
    "AmplitudeLostError",
    "BasisLabel",
    "BlockCoeffs",
    "CavityParams",
    "DETECTOR_B1",
    "DETECTOR_B2",
    "DegeneratePhysicsError",
    "DephasingParams",
    "GateConfig",
    "GateOutcome",
    "FactoredState",
    "HyperState",
    "OutcomeBranch",
    "PhotonSpec",
    "Pol",
    "RoutingContractError",
    "SampleStats",
    "ScanSummary",
    "ScatterCoeffs",
    "Spatial",
    "Spin",
    "SweepGrid",
    "SweepRow",
    "ValidationError",
    "block_coeffs",
    "block_interact",
    "dephasing_penalty",
    "efficiency",
    "emit_report",
    "fidelity",
    "fidelity_scan",
    "hyper_cnot",
    "hyper_cnot_n",
    "ideal_hyper_cnot",
    "ideal_hyper_cnot_n",
    "init_state",
    "load_report",
    "pack_label",
    "random_photon_spec",
    "sample_shots",
    "scatter_coeffs",
    "stage_polarization",
    "stage_spatial",
    "sweep_efficiency",
    "truth_table",
]

_ANALYSIS_NAMES = frozenset({
    "ScanSummary",
    "SweepGrid",
    "SweepRow",
    "emit_report",
    "fidelity_scan",
    "load_report",
    "random_photon_spec",
    "sweep_efficiency",
})


def __getattr__(name: str):
    # PEP 562: called only for names not in the module's globals. Binding all
    # the analysis names at once makes every later lookup a plain dict hit.
    if name not in _ANALYSIS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import analysis
    globals().update({n: getattr(analysis, n) for n in _ANALYSIS_NAMES})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(globals().keys() | _ANALYSIS_NAMES)
