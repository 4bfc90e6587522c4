"""Design-time compiler passes: SI identification and generation.

The automation the paper names as adjacent/future work (§6): enumerate
candidate Special Instructions in a basic block's operation graph under
register-port constraints ([17]/[18]-style), then emit rotatable SIs with
auto-generated molecule catalogues.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "emit": "candidate_dataflow catalogue_for_candidate DEFAULT_KIND_MAP si_from_candidate",
    "identify": "best_candidates Constraints enumerate_si_candidates SICandidate",
    "opgraph": "is_external Operation OperationGraph",
})
