"""The H.264 Special Instructions: the architectural Table 2 catalogue.

:func:`build_h264_library` returns the
:class:`~repro.core.library.SILibrary` of the four SIs (SATD_4x4,
DCT_4x4, HT_4x4, HT_2x2, plus the SAD extension the paper sketches) with
the paper's Table 2 molecule catalogue — 30 molecules whose cycles row
is reproduced verbatim.  The library is plain data and imports no
numpy; the functional executors that run the SIs on real pixels
(:func:`~repro.apps.h264.atoms.si_dct_4x4` & friends) live next to the
behavioural atoms they compose.

Table 2 reconstruction (the supplied paper text is OCR-garbled in the
QuadSub/Pack/SATD/Add/Store rows; the Load and Transform rows and the
cycles row survived intact): we fixed the remaining rows as the unique
monotone assignment consistent with (a) the intact rows, (b) the Fig. 11
series (SATD 544/24/20/18, DCT 488/24/19/15, HT 298/22/22/17 cycles at
Opt.SW/4/5/6 Atoms), and (c) Fig. 13's x-axis reaching 18 atoms for the
largest SATD molecule.  Consistency requires the platform to offer one
built-in Load lane in the static fabric (``baseline=1``) with further
Load atoms rotatable into containers — this reproduces all nine Fig. 11
points exactly with the container configurations
``4 Atoms = {QuadSub, Pack, Transform, SATD}``, ``5 = +Load``,
``6 = +Transform``.
"""

from __future__ import annotations

from ...core.atom import AtomCatalogue, AtomKind
from ...core.library import SILibrary
from ...core.molecule import Molecule
from ...core.si import MoleculeImpl, SpecialInstruction
from ...hardware.atom_specs import TABLE1_SPECS

# ---------------------------------------------------------------------------
# Atom catalogue (Table 1 + static helpers + the rotatable Load lane)
# ---------------------------------------------------------------------------

#: Synthetic bitstream size for the rotatable Load atom (not in Table 1;
#: sized like the other logic-only atoms).
LOAD_BITSTREAM_BYTES = 57_500


def build_h264_catalogue() -> AtomCatalogue:
    """The case-study atom architecture.

    ``QuadSub``/``Pack``/``Transform``/``SATD`` carry their Table 1
    hardware figures; ``Load`` is rotatable with one static-fabric
    baseline lane; ``Add``/``Store`` are static helpers.
    """
    def from_table1(name: str, description: str) -> AtomKind:
        spec = TABLE1_SPECS[name]
        return AtomKind(
            name,
            reconfigurable=True,
            bitstream_bytes=spec.bitstream_bytes,
            slices=spec.slices,
            luts=spec.luts,
            description=description,
        )

    return AtomCatalogue.of(
        [
            AtomKind(
                "Load",
                reconfigurable=True,
                bitstream_bytes=LOAD_BITSTREAM_BYTES,
                baseline=1,
                description="operand fetch lane; one lane built into the static fabric",
            ),
            from_table1("QuadSub", "four parallel 16-bit subtractions"),
            from_table1("Pack", "Pack_LSB_MSB: packed-register transposition"),
            from_table1("Transform", "shared DCT/HT butterfly (Fig. 9)"),
            from_table1("SATD", "absolute-value adder tree"),
            AtomKind("Add", reconfigurable=False, description="static adder"),
            AtomKind("Store", reconfigurable=False, description="static store port"),
        ]
    )


# ---------------------------------------------------------------------------
# Table 2: the molecule catalogue
# ---------------------------------------------------------------------------

#: (Load, QuadSub, Pack, Transform, SATD, Add, Store) -> cycles.
#: Column order follows the paper left to right; the cycles row is the
#: paper's verbatim.
TABLE2: dict[str, list[tuple[tuple[int, int, int, int, int, int, int], int]]] = {
    "HT_2x2": [
        ((1, 0, 0, 1, 0, 1, 1), 5),
    ],
    "HT_4x4": [
        ((1, 0, 1, 1, 0, 0, 0), 22),
        ((1, 0, 1, 2, 0, 0, 0), 17),
        ((2, 0, 2, 1, 0, 0, 0), 17),
        ((2, 0, 2, 2, 0, 0, 0), 12),
        ((4, 0, 4, 2, 0, 0, 0), 11),
        ((4, 0, 4, 4, 0, 0, 0), 8),
    ],
    "DCT_4x4": [
        ((1, 0, 1, 1, 0, 0, 0), 24),
        ((1, 0, 1, 2, 0, 0, 0), 23),
        ((2, 0, 1, 1, 0, 0, 0), 19),
        ((2, 0, 1, 2, 0, 0, 0), 15),
        ((4, 0, 2, 1, 0, 0, 0), 18),
        ((4, 0, 2, 2, 0, 0, 0), 12),
        ((4, 0, 4, 2, 0, 0, 0), 12),
        ((4, 0, 4, 4, 0, 0, 0), 9),
    ],
    "SATD_4x4": [
        ((1, 1, 1, 1, 1, 0, 0), 24),
        ((1, 1, 1, 2, 1, 0, 0), 22),
        ((1, 1, 1, 2, 2, 0, 0), 22),
        ((2, 1, 1, 1, 1, 0, 0), 20),
        ((2, 1, 1, 2, 1, 0, 0), 18),
        ((2, 1, 1, 2, 2, 0, 0), 18),
        ((4, 2, 1, 1, 1, 0, 0), 17),
        ((4, 2, 1, 2, 1, 0, 0), 15),
        ((4, 2, 1, 2, 2, 0, 0), 14),
        ((4, 2, 2, 2, 1, 0, 0), 15),
        ((4, 2, 2, 2, 2, 0, 0), 14),
        ((4, 4, 2, 2, 1, 0, 0), 14),
        ((4, 4, 2, 4, 1, 0, 0), 13),
        ((4, 4, 4, 4, 1, 0, 0), 13),
        ((4, 4, 4, 4, 2, 0, 0), 12),
    ],
}

#: Optimised-software latencies (Fig. 11's "Opt. SW" bars; HT_2x2 and SAD
#: are not plotted there and use consistent estimates).
SOFTWARE_CYCLES: dict[str, int] = {
    "SATD_4x4": 544,
    "DCT_4x4": 488,
    "HT_4x4": 298,
    "HT_2x2": 60,
    "SAD_4x4": 130,
}

#: The SAD extension SI (§6: "QuadSub and SATD can also be combined to
#: form an SI that can execute the SAD operation used in Integer-Pixel
#: Motion Estimation").  Not part of Table 2.
SAD_MOLECULES: list[tuple[tuple[int, int, int, int, int, int, int], int]] = [
    ((1, 1, 0, 0, 1, 0, 0), 10),
    ((2, 2, 0, 0, 2, 0, 0), 6),
    ((4, 4, 0, 0, 4, 0, 0), 4),
]

_KIND_ORDER = ("Load", "QuadSub", "Pack", "Transform", "SATD", "Add", "Store")


def _impls(
    space, rows: list[tuple[tuple[int, int, int, int, int, int, int], int]]
) -> list[MoleculeImpl]:
    impls = []
    for counts, cycles in rows:
        molecule = space.molecule(dict(zip(_KIND_ORDER, counts)))
        label = " ".join(
            f"{k[0]}{c}" for k, c in zip(_KIND_ORDER, counts) if c
        )
        impls.append(MoleculeImpl(molecule, cycles, label=label))
    return impls


def build_h264_library(*, include_sad: bool = False) -> SILibrary:
    """The case-study SI library over :func:`build_h264_catalogue`.

    ``include_sad`` adds the SAD extension SI (off by default so the
    Table 2 / Fig. 11-13 benches see exactly the paper's catalogue).
    """
    catalogue = build_h264_catalogue()
    space = catalogue.space
    sis = [
        SpecialInstruction(
            name,
            space,
            SOFTWARE_CYCLES[name],
            _impls(space, rows),
            description=f"H.264 {name} special instruction",
        )
        for name, rows in TABLE2.items()
    ]
    if include_sad:
        sis.append(
            SpecialInstruction(
                "SAD_4x4",
                space,
                SOFTWARE_CYCLES["SAD_4x4"],
                _impls(space, SAD_MOLECULES),
                description="integer-pel ME cost from QuadSub + SATD atoms",
            )
        )
    return SILibrary(catalogue, sis)


# ---------------------------------------------------------------------------
# The Fig. 11 / Fig. 12 platform configurations
# ---------------------------------------------------------------------------

#: Reconfigurable atoms loaded in containers for each published
#: configuration (on top of the static baseline Load lane).
REFERENCE_CONFIGS: dict[str, dict[str, int]] = {
    "Opt. SW": {},
    "4 Atoms": {"QuadSub": 1, "Pack": 1, "Transform": 1, "SATD": 1},
    "5 Atoms": {"QuadSub": 1, "Pack": 1, "Transform": 1, "SATD": 1, "Load": 1},
    "6 Atoms": {"QuadSub": 1, "Pack": 1, "Transform": 2, "SATD": 1, "Load": 1},
}


def available_atoms_for_config(library: SILibrary, config: str) -> Molecule:
    """Usable atoms under a named configuration: containers + static fabric."""
    if config not in REFERENCE_CONFIGS:
        raise ValueError(f"unknown configuration {config!r}")
    counts = dict(REFERENCE_CONFIGS[config])
    for kind in library.catalogue.static_kinds():
        counts[kind.name] = 16
    for name, baseline in library.catalogue.baseline_counts().items():
        counts[name] = counts.get(name, 0) + baseline
    return library.space.molecule(counts)


def si_cycles_for_config(library: SILibrary, si_name: str, config: str) -> int:
    """Latency of one SI execution under a named configuration (Fig. 11)."""
    available = available_atoms_for_config(library, config)
    return library.get(si_name).cycles_with(available)
