"""Hardware figures of the case-study Atoms (paper Table 1).

The paper implements four Atoms on a Xilinx Virtex-II XC2V3000-6 and
reports per-Atom slices, LUTs, Atom-Container utilization, partial
bitstream size and rotation time over the SelectMap configuration
interface.  All four rotation times equal ``bitstream / 69.2 MB/s``
(nominal SelectMap throughput on Virtex-II is 66 MB/s; the implied
effective rate is consistent across all rows, which is how we calibrate
the port model).

Every Atom Container spans 4 CLB columns over the full device height:
1024 slices / 2048 4-input LUTs (paper §6, Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Slices per Atom Container (4 CLB columns, full FPGA height).
CONTAINER_SLICES = 1024
#: 4-input LUTs per Atom Container.
CONTAINER_LUTS = 2048
#: CLB columns per Atom Container.
CONTAINER_CLB_COLUMNS = 4
#: Number of Atom Containers in the paper's prototype (Fig. 10).
PROTOTYPE_CONTAINERS = 4

#: Effective SelectMap transfer rate implied by Table 1 (bytes / microsecond):
#: 59_353 B / 857.63 us.  The nominal Virtex-II figure is 66 MB/s.
SELECTMAP_BYTES_PER_US = 59_353 / 857.63
#: Nominal SelectMap rate quoted in the paper text (bytes / microsecond).
NOMINAL_SELECTMAP_BYTES_PER_US = 66.0


@dataclass(frozen=True)
class AtomHardwareSpec:
    """One row of Table 1."""

    name: str
    slices: int
    luts: int
    bitstream_bytes: int
    #: Rotation time reported by the paper, microseconds.
    reported_rotation_us: float

    @property
    def utilization(self) -> float:
        """Fraction of an Atom Container's slices this Atom occupies."""
        return self.slices / CONTAINER_SLICES

    def rotation_time_us(
        self, bytes_per_us: float = SELECTMAP_BYTES_PER_US
    ) -> float:
        """Model rotation latency: bitstream size over configuration rate."""
        if bytes_per_us <= 0:
            raise ValueError("configuration rate must be positive")
        return self.bitstream_bytes / bytes_per_us


#: Table 1, verbatim.  Pack's bitstream (and hence rotation time) is
#: significantly bigger because its container covers an embedded BlockRAM
#: row, despite moderate logic utilization (paper §6).
TABLE1_SPECS: dict[str, AtomHardwareSpec] = {
    "Transform": AtomHardwareSpec("Transform", 517, 1034, 59_353, 857.63),
    "SATD": AtomHardwareSpec("SATD", 407, 808, 58_141, 840.11),
    "Pack": AtomHardwareSpec("Pack", 406, 812, 65_713, 949.53),
    "QuadSub": AtomHardwareSpec("QuadSub", 352, 700, 58_745, 848.84),
}


def average_rotation_us(names: list[str] | None = None) -> float:
    """Mean modelled rotation time over the given Atoms (default: all)."""
    names = names or list(TABLE1_SPECS)
    specs = [TABLE1_SPECS[n] for n in names]
    return sum(s.rotation_time_us() for s in specs) / len(specs)
