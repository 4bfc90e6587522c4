"""``repro.faults`` — deterministic fault injection and recovery.

The rotating fabric's dominant real-world failure modes on Virtex-class
parts are configuration-memory upsets (SEUs) and SelectMap write errors
(see PAPERS.md: Carmichael et al. on Virtex SEU correction, Li/Hauck on
reconfiguration management).  This package models them deterministically:

* :class:`FaultSchedule` — a seeded (or explicit) timeline of
  :class:`FaultEvent`\\ s: transient SEUs in loaded containers, mid-write
  bitstream corruption, and permanent container defects;
* :class:`FaultInjector` — delivers the schedule into the simulation
  clock through ``RisppRuntime.advance``, runs the periodic
  readback-scrubber that detects silent corruption, quarantines and
  repairs containers through the normal rotation port (bounded retry,
  exponential backoff), and accumulates :class:`ResilienceStats`;
* :func:`run_chaos_suite` / ``python -m repro chaos`` — seeded chaos
  runs of the shipped suites with a deterministic resilience report, a
  verified trace and a functional-equivalence check against the
  fault-free baseline;
* :func:`static_repair_bound` — the provable worst-case
  detect-plus-repair latency (MTTR ceiling) for a library/fabric pair.

Everything is reproducible: same seed, same schedule, same trace, same
report — byte for byte.  The fault model and recovery state machine are
documented in ``docs/faults.md``.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "chaos": "chaos_ok render_chaos_report run_chaos_suite static_repair_bound",
    "injector": "FaultInjector",
    "model": "FaultEvent FaultKind FaultSchedule",
    "stats": "ResilienceStats",
})

# Bound at import, not on first use: callers look ``run_chaos_suite`` up
# on the package at each call, so a wrapper installed on the package
# (perf's layer tracer) must find it there.  Every user of the package
# runs chaos, which loads all four submodules anyway.
__getattr__("run_chaos_suite")
