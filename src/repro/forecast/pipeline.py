"""The compile-time forecast pipeline end to end (paper section 4).

:func:`run_forecast_pipeline` wires the package's three steps together:
candidates, trimming, then placement bundled into FC Blocks.
"""

from __future__ import annotations

from ..cfg.graph import ControlFlowGraph
from ..core.library import SILibrary
from .annotate import ForecastAnnotation
from .candidates import FCCandidate, candidates_by_block, determine_candidates
from .fdf import ForecastDecisionFunction
from .placement import place_all
from .trimming import trim_all_blocks


def run_forecast_pipeline(
    cfg: ControlFlowGraph,
    library: SILibrary,
    fdfs: dict[str, ForecastDecisionFunction],
    available_containers: int,
    *,
    distance: str = "expected",
    far_threshold: float = 0.0,
) -> ForecastAnnotation:
    """End-to-end compile-time phase: candidates -> trimming -> FC blocks.

    Parameters
    ----------
    cfg:
        Profiled basic-block graph of the application.
    library:
        The SI library (provides ``Rep(S)`` and speed-ups for trimming).
    fdfs:
        One Forecast Decision Function per SI name to forecast.  SIs
        absent from the map are not forecasted.
    available_containers:
        Atom Containers of the target platform (the trimming bound).
    distance, far_threshold:
        Passed through to candidate evaluation and placement.
    """
    all_candidates: list[FCCandidate] = []
    for si_name, fdf in fdfs.items():
        if si_name not in library:
            raise ValueError(f"FDF given for unknown SI {si_name!r}")
        all_candidates.extend(
            determine_candidates(cfg, si_name, fdf, distance=distance)
        )
    trim = trim_all_blocks(
        library, candidates_by_block(all_candidates), available_containers
    )
    points = place_all(cfg, trim.kept_candidates(), far_threshold=far_threshold)
    annotation = ForecastAnnotation.from_points(points)
    annotation.validate_against(cfg)
    return annotation
