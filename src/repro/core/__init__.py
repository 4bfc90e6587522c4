"""Core RISPP model: Atoms, Molecules, Special Instructions, selection.

This package implements the paper's primary contribution — the formal
Atom/Molecule model (section 3), the Pareto trade-off analysis (Fig. 13),
dataflow scheduling of Atom operations, and run-time molecule selection
(section 5b).
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "atom": "AtomCatalogue AtomKind",
    "atomshare": "AtomProposal common_subsequence longest_common_subsequence suggest_shared_atoms",
    "backend": "ComputeBackend NumpyBackend ReferenceBackend",
    "library": "SILibrary",
    "molecule": "AtomSpace infimum Molecule supremum",
    "molgen": "enumerate_molecules generate_si GenerationReport prune_dominated",
    "pareto": "is_pareto_optimal pareto_front pareto_front_of ParetoPoint tradeoff_points",
    "schedule": (
        "AtomOp Dataflow estimate_cycles layered_dataflow list_schedule Schedule ScheduledOp"
    ),
    "selection": "ForecastedSI select_exhaustive select_greedy SelectionResult upgrade_path",
    "si": "MoleculeImpl SpecialInstruction",
})
