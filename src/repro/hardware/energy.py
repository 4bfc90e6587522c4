"""Energy model (paper §1/§2: MIPS/mW, "power/energy loss" of idle SIs).

The paper motivates RISPP partly by energy: an extensible processor keeps
*all* hot spots' SI hardware on silicon, leaking while unused ("The
hardware for LF, TQ, and MC is not used while processing ME, resulting in
power/energy loss"), whereas RISPP leaks only over ``alpha x GE_max``
worth of fabric — but pays reconfiguration energy per rotation.  The FDF
offset ``alpha * E_rot / (T_sw - T_hw)`` prices exactly this trade.

Behavioural model with three components:

* **static** — leakage proportional to configured slices and time;
* **dynamic** — per-execution energy proportional to the active
  molecule's slices;
* **rotation** — per-rotation energy proportional to the bitstream size
  (the SelectMap write burns roughly constant energy per byte).

Default coefficients are representative 130 nm-era figures; only ratios
matter for every comparison in this repository.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping

from ..core.library import SILibrary
from .atom_specs import AtomHardwareSpec


@dataclass(frozen=True)
class EnergyModel:
    """Energy coefficients of the reconfigurable fabric.

    Parameters
    ----------
    leakage_nw_per_slice:
        Static power per configured slice, nanowatts.
    dynamic_pj_per_slice_cycle:
        Dynamic energy per slice per active cycle, picojoules.
    rotation_nj_per_byte:
        Energy per bitstream byte written through the port, nanojoules.
    core_mhz:
        Core frequency (converts cycles to time for leakage).
    """

    leakage_nw_per_slice: float = 12.0
    dynamic_pj_per_slice_cycle: float = 0.25
    rotation_nj_per_byte: float = 1.2
    core_mhz: float = 100.0

    def __post_init__(self) -> None:
        for value in (
            self.leakage_nw_per_slice,
            self.dynamic_pj_per_slice_cycle,
            self.rotation_nj_per_byte,
        ):
            if value < 0:
                raise ValueError("energy coefficients cannot be negative")
        if self.core_mhz <= 0:
            raise ValueError("core frequency must be positive")

    # -- components ----------------------------------------------------------

    def rotation_energy_nj(self, spec: AtomHardwareSpec) -> float:
        """Energy of rotating one Atom in (bitstream write)."""
        return spec.bitstream_bytes * self.rotation_nj_per_byte

    def static_energy_nj(self, slices: int, cycles: int) -> float:
        """Leakage over ``cycles`` with ``slices`` configured."""
        if slices < 0 or cycles < 0:
            raise ValueError("slices and cycles cannot be negative")
        seconds = cycles / (self.core_mhz * 1e6)
        return self.leakage_nw_per_slice * slices * seconds * 1e9 / 1e9  # nW*s = nJ

    def execution_energy_nj(self, active_slices: int, cycles: int) -> float:
        """Dynamic energy of one SI execution on ``active_slices``."""
        if active_slices < 0 or cycles < 0:
            raise ValueError("slices and cycles cannot be negative")
        return active_slices * cycles * self.dynamic_pj_per_slice_cycle / 1000.0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one platform over one workload window."""

    static_nj: float
    dynamic_nj: float
    rotation_nj: float

    @property
    def total_nj(self) -> float:
        return self.static_nj + self.dynamic_nj + self.rotation_nj


def _slices_of(library: SILibrary, molecule) -> int:
    total = 0
    for kind_name in molecule.kinds_used():
        kind = library.catalogue.get(kind_name)
        total += kind.slices * molecule.count(kind_name)
    return total


def extensible_energy(
    model: EnergyModel,
    library: SILibrary,
    chosen: Mapping[str, object],
    executions: Mapping[str, int],
    si_cycles: Mapping[str, int],
    window_cycles: int,
) -> EnergyBreakdown:
    """Energy of a design-time-fixed processor over a workload window.

    All chosen SIs' hardware leaks for the *whole* window (this is the
    paper's §2 complaint); executions burn dynamic energy; there are no
    rotations.
    """
    configured = 0
    for impl in chosen.values():
        if impl is None:
            continue
        configured += _slices_of(library, impl.molecule)
    static = model.static_energy_nj(configured, window_cycles)
    dynamic = 0.0
    for name, count in executions.items():
        impl = chosen.get(name)
        slices = _slices_of(library, impl.molecule) if impl is not None else 0
        dynamic += count * model.execution_energy_nj(slices, si_cycles[name])
    return EnergyBreakdown(static_nj=static, dynamic_nj=dynamic, rotation_nj=0.0)


def rispp_energy(
    model: EnergyModel,
    library: SILibrary,
    container_slices: int,
    num_containers: int,
    executions: Mapping[str, int],
    si_cycles: Mapping[str, int],
    active_molecules: Mapping[str, object],
    rotations: Iterable[str],
    window_cycles: int,
) -> EnergyBreakdown:
    """Energy of the RISPP fabric over a workload window.

    Only the Atom Containers leak; rotations pay bitstream energy;
    executions burn dynamic energy on their molecule's slices.
    """
    if container_slices < 0 or num_containers < 0:
        raise ValueError("container geometry cannot be negative")
    static = model.static_energy_nj(container_slices * num_containers, window_cycles)
    dynamic = 0.0
    for name, count in executions.items():
        impl = active_molecules.get(name)
        slices = _slices_of(library, impl.molecule) if impl is not None else 0
        dynamic += count * model.execution_energy_nj(slices, si_cycles[name])
    rotation = 0.0
    for atom_name in rotations:
        kind = library.catalogue.get(atom_name)
        rotation += kind.bitstream_bytes * model.rotation_nj_per_byte
    return EnergyBreakdown(
        static_nj=static, dynamic_nj=dynamic, rotation_nj=rotation
    )
