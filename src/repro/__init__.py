"""RISPP: Rotating Instruction Set Processing Platform — behavioural reproduction.

Reproduction of Bauer, Shafique, Kramer, Henkel: *RISPP: Rotating
Instruction Set Processing Platform*, DAC 2007.

Top-level exports are the Atom/Molecule formal model
(:mod:`repro.core`); the other layers are subpackages: the compile-time
forecast pipeline (:mod:`repro.forecast`), the run-time rotation manager
(:mod:`repro.runtime`), the hardware model (:mod:`repro.hardware`) and
the H.264 case-study library (:mod:`repro.apps.h264`).  Every package
loads a submodule only when one of its names is first used
(:mod:`repro.exports`).
"""

from .exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core": (
        "AtomCatalogue AtomKind AtomSpace ForecastedSI infimum Molecule MoleculeImpl "
        "pareto_front_of select_greedy SILibrary SpecialInstruction supremum"
    ),
})
