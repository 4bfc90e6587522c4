"""``repro.bench`` — the seeded scenario inputs shared across the repo.

The shipped suites (:mod:`repro.sim.suites`), the tests and ``perf/``
all drive the runtime with these: the Fig. 7 macroblock call mix, the
forecast-then-execute SI stream, the small synthetic library, and the
trace signature two runs are compared by.  Wall-time measurement lives
in ``perf/`` (``python3 -m perf run``).
"""

from .harness import trace_signature
from .suites import H264_MACROBLOCK_CALLS, build_synthetic_library, run_si_stream

__all__ = [
    "H264_MACROBLOCK_CALLS",
    "build_synthetic_library",
    "run_si_stream",
    "trace_signature",
]
