"""repro — reproduction of "Quantum Communication Advantage for Leader Election
and Agreement" (Dufoulon, Magniez, Pandurangan; PODC 2025, arXiv:2502.07416).

The package implements the paper's distributed quantum subroutines (Grover
search, quantum counting, search via quantum walk), its five protocols
(QuantumLE, QuantumRWLE, QuantumQWLE, QuantumGeneralLE, QuantumAgreement),
the classical baselines they are measured against, and the CONGEST network
substrate underneath — see DESIGN.md for the full inventory.

Quickstart::

    from repro import RandomSource, quantum_le_complete

    result = quantum_le_complete(n=1024, rng=RandomSource(0))
    assert result.success
    print(result.leader, result.messages, result.rounds)
"""

import importlib

__version__ = "1.2.0"

# Public names by defining module.  Nothing is imported when the package
# loads; each name is imported on first access (PEP 562), so a process
# pays only for the layers it touches.
_EXPORTS = {
    "repro.adversary": ("AdversarySpec",),
    "repro.classical": (
        "classical_agreement_private", "classical_agreement_shared",
        "classical_le_complete", "classical_le_diameter2", "classical_le_general",
        "classical_le_mixing", "classical_mst", "hirschberg_sinclair_ring", "lcr_ring",
    ),
    "repro.core": (
        "AgreementResult", "LeaderElectionResult", "approx_count",
        "distributed_grover_search", "quantum_count", "quantum_minimum", "walk_search",
    ),
    "repro.core.agreement": ("quantum_agreement",),
    "repro.core.leader_election": (
        "MSTResult", "QWLEParameters", "make_explicit", "quantum_general_le",
        "quantum_le_complete", "quantum_mst", "quantum_qwle", "quantum_rwle",
    ),
    "repro.quantum": ("exact_star_grover",),
    "repro.network": ("MetricsRecorder", "Status"),
    "repro.runtime": (
        "ProtocolRegistry", "ProtocolSpec", "Scenario", "ScenarioRun", "TopologySpec",
        "TrialOutcome", "TrialSet", "default_registry", "get_scenario", "run_scenario",
    ),
    "repro.util": ("FaultInjector", "RandomSource", "SharedCoin"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
