"""Compile-time forecast pipeline (paper section 4).

The scheme's three steps map to submodules:

1. :mod:`~repro.forecast.candidates` — per SI type, determine the FC
   candidates via the :mod:`~repro.forecast.fdf` decision function;
2. :mod:`~repro.forecast.trimming` — per block, remove candidates whose
   SIs can never fit the Atom Containers together (Fig. 5);
3. :mod:`~repro.forecast.placement` / :mod:`~repro.forecast.annotate` —
   choose actual Forecast points on the transposed BB graph and bundle
   them into FC Blocks for the run-time system.

:func:`~repro.forecast.pipeline.run_forecast_pipeline` wires the whole
flow together.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "annotate": "build_fc_blocks FCBlock ForecastAnnotation",
    "candidates": "candidates_by_block determine_candidates evaluate_block FCCandidate",
    "fdf": "ForecastDecisionFunction rotation_offset",
    "pipeline": "run_forecast_pipeline",
    "placement": "choose_forecast_points ForecastPoint place_all",
    "trimming": "BlockTrim trim_all_blocks trim_block_candidates TrimResult",
})
