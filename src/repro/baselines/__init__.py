"""Baselines the paper compares against: fixed-SI ASIP and pure software."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "asip": "ExtensibleProcessor",
    "software": "SoftwareProcessor",
})
