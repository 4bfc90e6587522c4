"""``repro.bench`` — the performance harness (``python -m repro bench``).

Times the end-to-end RISPP flows and the run-time hot paths, replays
each timed end-to-end trace through rispp-verify's reference machine,
and emits the schema-stable ``BENCH_runtime.json`` performance report
that CI uploads on every push.
"""

from .harness import (
    SCHEMA_VERSION,
    StageResult,
    build_report,
    render_report,
    time_best,
    time_stage,
    trace_signature,
    write_report,
)
from .suites import (
    H264_MACROBLOCK_CALLS,
    SUITES,
    build_synthetic_library,
    run_si_stream,
    run_suite,
)

__all__ = [
    "SCHEMA_VERSION",
    "StageResult",
    "build_report",
    "render_report",
    "time_best",
    "time_stage",
    "trace_signature",
    "write_report",
    "H264_MACROBLOCK_CALLS",
    "SUITES",
    "build_synthetic_library",
    "run_si_stream",
    "run_suite",
]
