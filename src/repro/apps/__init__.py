"""Case-study applications: the H.264 encoder pipeline and AES."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {})
