"""Control-flow-graph substrate: BB graphs, SCCs, probabilities, distances.

Everything the compile-time forecast pipeline (:mod:`repro.forecast`)
needs to know about the application's basic-block structure and profile.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "distance": "expected_distance max_distance min_distance",
    "dominators": "immediate_dominators",
    "graph": "BasicBlock ControlFlowGraph Edge",
    "probability": "reach_probability_markov reach_probability_scc",
    "profile": "collect_si_stats expected_si_executions SIStats",
    "scc": "Condensation condense SCCNode strongly_connected_components",
})
