"""Terminal rendering of the paper's tables and figures."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "figures": "render_bars render_series render_surface",
    "tables": "render_table",
    "timeline": "container_occupancy render_container_timeline",
})
