"""The wall-clock seam: the single sanctioned sink for host time.

Everything the platform computes is driven by *simulated* cycles, so
seeded runs stay byte-identical; host time is read only to measure
latency — the span timers of :mod:`repro.obs.registry` and the serve
facade's request-duration histogram.  Concentrating those reads here
gives the rispp-audit determinism sanitizer (rule AUD002) exactly one
allowed sink: any other ``time.*`` / ``datetime.now`` read inside
``src/repro`` is flagged as a determinism hazard, because a model path
that consults the host clock can never replay byte-identically.

Keep this module tiny and boring — it exists to be allowlisted.
"""

from __future__ import annotations

import time

__all__ = ["perf_counter"]


def perf_counter() -> float:
    """Monotonic high-resolution timer (seconds, arbitrary epoch)."""
    return time.perf_counter()

