"""Simulator for heralded hyperparallel photonic CNOT gates.

A single emitter-in-cavity unit ("basic block") either transmits a photon
with a spin-conditioned polarization flip or reflects it into a heralding
detector. Two such blocks plus linear optics implement a CNOT -- and, with
more target photons, a CNOT^N -- acting simultaneously on the polarization
and spatial-mode qubits of each photon. The simulation runs the gate in
factored form (a control coefficient vector and one 4-vector per target),
records each stage's heralded-failure click and absorbed mass, and
reproduces the gate's closed-form success probability |T|^(4(N+1)).

Every public name, and every submodule, loads its module on first read, so a
bare ``import hypercnot`` imports neither numpy nor any submodule, and a
process that only runs gates never imports ``analysis`` or ``csv``.
"""

__version__ = "0.1.0"

# The one table of the namespace: each submodule and the public names it
# exports. ``__all__``, ``__dir__`` and ``__getattr__`` all read it.
_EXPORTS = {
    "analysis": ("ScanSummary", "SweepGrid", "SweepRow", "emit_report",
                 "fidelity_scan", "load_report", "random_photon_spec",
                 "sweep_efficiency"),
    "circuit": ("stage_polarization", "stage_spatial"),
    "cli": (),
    "errors": ("AmplitudeLostError", "DegeneratePhysicsError", "ValidationError"),
    "gates": ("GateConfig", "GateOutcome", "OutcomeBranch", "SampleStats",
              "hyper_cnot", "hyper_cnot_n", "ideal_hyper_cnot",
              "ideal_hyper_cnot_n", "sample_shots", "truth_table"),
    "hyperstate": ("ABSORBED", "DETECTOR_B1", "DETECTOR_B2", "BasisLabel",
                   "FactoredState", "HyperState", "PhotonSpec", "Pol", "Spatial",
                   "Spin", "fidelity", "init_state", "pack_label"),
    "scattering": ("BlockCoeffs", "CavityParams", "DephasingParams",
                   "ScatterCoeffs", "block_coeffs", "dephasing_penalty",
                   "efficiency", "scatter_coeffs"),
}

_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names)}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    # PEP 562: called only for names not in the module's globals. Importing a
    # submodule binds it here; binding all of its exported names at once
    # makes every later lookup of any of them a plain dict hit.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    mod = import_module(f"{__name__}.{module}")
    globals().update({n: getattr(mod, n) for n in _EXPORTS[module]})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
