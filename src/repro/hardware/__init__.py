"""Hardware model: Atom Containers, fabric, reconfiguration port, area.

Behavioural substitute for the paper's Virtex-II prototype (Fig. 10,
Table 1): rotation latencies are calibrated to the published bitstream
sizes and SelectMap rate; placement geometry is reduced to container
counts and per-container capacity, which is all the RISPP algorithms
consume.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "area": (
        "AreaComparison extensible_processor_area ge_max ge_saving_pct H264_PHASES "
        "max_alpha_for_constraint meets_constraint PhaseProfile rispp_area"
    ),
    "atom_specs": (
        "AtomHardwareSpec average_rotation_us CONTAINER_CLB_COLUMNS CONTAINER_LUTS "
        "CONTAINER_SLICES NOMINAL_SELECTMAP_BYTES_PER_US PROTOTYPE_CONTAINERS "
        "SELECTMAP_BYTES_PER_US TABLE1_SPECS"
    ),
    "container": "AtomContainer ContainerState",
    "energy": "EnergyBreakdown EnergyModel extensible_energy rispp_energy",
    "fabric": "Fabric",
    "reconfig": "ReconfigurationPort RotationJob",
})
