"""Core RISPP model: Atoms, Molecules, Special Instructions, selection.

This package implements the paper's primary contribution — the formal
Atom/Molecule model (section 3), the Pareto trade-off analysis (Fig. 13),
dataflow scheduling of Atom operations, and run-time molecule selection
(section 5b).
"""

from .atom import AtomCatalogue, AtomKind
from .backend import ComputeBackend, NumpyBackend, ReferenceBackend
from .atomshare import (
    AtomProposal,
    common_subsequence,
    longest_common_subsequence,
    suggest_shared_atoms,
)
from .library import SILibrary
from .molecule import AtomSpace, Molecule, infimum, supremum
from .molgen import GenerationReport, enumerate_molecules, generate_si, prune_dominated
from .serialize import (
    library_from_dict,
    library_to_dict,
    load_library,
    save_library,
)
from .pareto import ParetoPoint, is_pareto_optimal, pareto_front, pareto_front_of, tradeoff_points
from .schedule import (
    AtomOp,
    Dataflow,
    Schedule,
    ScheduledOp,
    estimate_cycles,
    layered_dataflow,
    list_schedule,
)
from .selection import (
    ForecastedSI,
    SelectionResult,
    select_exhaustive,
    select_greedy,
    upgrade_path,
)
from .si import MoleculeImpl, SpecialInstruction

__all__ = [
    "AtomCatalogue",
    "AtomKind",
    "AtomProposal",
    "ComputeBackend",
    "NumpyBackend",
    "ReferenceBackend",
    "GenerationReport",
    "AtomOp",
    "AtomSpace",
    "Dataflow",
    "ForecastedSI",
    "Molecule",
    "MoleculeImpl",
    "ParetoPoint",
    "Schedule",
    "ScheduledOp",
    "SelectionResult",
    "SILibrary",
    "SpecialInstruction",
    "common_subsequence",
    "enumerate_molecules",
    "estimate_cycles",
    "generate_si",
    "infimum",
    "is_pareto_optimal",
    "layered_dataflow",
    "list_schedule",
    "longest_common_subsequence",
    "pareto_front",
    "pareto_front_of",
    "prune_dominated",
    "select_exhaustive",
    "select_greedy",
    "library_from_dict",
    "library_to_dict",
    "load_library",
    "save_library",
    "suggest_shared_atoms",
    "supremum",
    "tradeoff_points",
    "upgrade_path",
]
