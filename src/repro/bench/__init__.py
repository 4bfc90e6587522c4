"""``repro.bench`` — the seeded scenario inputs ``perf/`` imports.

:mod:`.suites` holds the Fig. 7 macroblock call mix and the small
synthetic library, :mod:`.harness` the trace signature two runs are
compared by.  The stream loop is :func:`repro.sim.suites.run_si_stream`;
wall-time measurement lives in ``perf/`` (``python3 -m perf run``).
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {})
