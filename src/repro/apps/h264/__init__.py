"""H.264 case study (paper §6): atoms, SIs, Table 2 catalogue, encoder flow.

Public names resolve on first access (PEP 562 ``__getattr__``): the
Table 2 library in :mod:`.sis` is plain data, while the pixel models
(atoms, transforms, encoder, decoder, ...) import numpy.  So
``from repro.apps.h264 import build_h264_library`` loads the library
and nothing else, and a runtime that never touches a pixel never loads
numpy.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .atoms import (
        AtomExecutionCounter,
        add_atom,
        load_atom,
        pack_atom,
        pack_words,
        quadsub_atom,
        satd_atom,
        si_dct_4x4,
        si_ht_2x2,
        si_ht_4x4,
        si_sad_4x4,
        si_satd_4x4,
        store_atom,
        transform_atom,
        unpack_words,
    )
    from .blocks import (
        assemble_from_4x4,
        extract_block,
        macroblock_positions,
        split_into_4x4,
    )
    from .decoder import (
        decode_intra_frame_bitstream,
        roundtrip_intra_frame,
        serialize_intra_frame,
    )
    from .encoder import (
        CHROMA_SI_COUNTS,
        CORE_OVERHEAD_CYCLES,
        LUMA_SI_COUNTS,
        EncodedMacroblock,
        EncoderPipeline,
        macroblock_cycles,
    )
    from .entropy import block_bits, decode_block, encode_block, macroblock_bits
    from .extensions import (
        EXTENSION_SI_COUNTS,
        EXTENSION_SOFTWARE_CYCLES,
        build_extended_catalogue,
        build_extended_library,
        deblock_block_edge,
        deblock_edge,
        extended_macroblock_cycles,
        interpolate_half_pel_row,
        mc_half_pel_block,
        sixtap_half_pel,
    )
    from .intra import (
        best_intra_mode,
        encode_intra_frame,
        intra_predict_4x4,
    )
    from .phases import (
        PHASES,
        PhaseRotationReport,
        phase_area_comparison,
        run_phase_rotation,
    )
    from .quant import (
        dequantize_4x4,
        inverse_dct_4x4,
        quantization_step,
        quantize_4x4,
        reconstruct_4x4,
    )
    from .scenario import build_scenario_library, run_fig6_scenario
    from .sequence import FrameStats, SequenceReport, encode_sequence
    from .sis import (
        REFERENCE_CONFIGS,
        SOFTWARE_CYCLES,
        TABLE2,
        available_atoms_for_config,
        build_h264_catalogue,
        build_h264_library,
        si_cycles_for_config,
    )
    from .transforms import (
        dc_coefficients,
        dct_4x4,
        hadamard_2x2,
        hadamard_4x4,
        residual,
        sad_4x4,
        satd_4x4,
    )
    from .workload import (
        CANDIDATES_PER_SUBBLOCK,
        MacroblockData,
        build_macroblock,
        candidate_offsets,
        chroma_from_luma,
        macroblock_stream,
        synthetic_frame,
    )

#: The submodule that defines each public name.
_HOMES: dict[str, str] = {
    name: module
    for module, names in (
        ("atoms", (
            "AtomExecutionCounter add_atom load_atom pack_atom pack_words "
            "quadsub_atom satd_atom si_dct_4x4 si_ht_2x2 si_ht_4x4 "
            "si_sad_4x4 si_satd_4x4 store_atom transform_atom "
            "unpack_words"
        )),
        ("blocks", (
            "assemble_from_4x4 extract_block macroblock_positions "
            "split_into_4x4"
        )),
        ("decoder", (
            "decode_intra_frame_bitstream roundtrip_intra_frame "
            "serialize_intra_frame"
        )),
        ("encoder", (
            "CHROMA_SI_COUNTS CORE_OVERHEAD_CYCLES LUMA_SI_COUNTS "
            "EncodedMacroblock EncoderPipeline macroblock_cycles"
        )),
        ("entropy", "block_bits decode_block encode_block macroblock_bits"),
        ("extensions", (
            "EXTENSION_SI_COUNTS EXTENSION_SOFTWARE_CYCLES "
            "build_extended_catalogue build_extended_library "
            "deblock_block_edge deblock_edge extended_macroblock_cycles "
            "interpolate_half_pel_row mc_half_pel_block sixtap_half_pel"
        )),
        ("intra", "best_intra_mode encode_intra_frame intra_predict_4x4"),
        ("phases", (
            "PHASES PhaseRotationReport phase_area_comparison "
            "run_phase_rotation"
        )),
        ("quant", (
            "dequantize_4x4 inverse_dct_4x4 quantization_step "
            "quantize_4x4 reconstruct_4x4"
        )),
        ("scenario", "build_scenario_library run_fig6_scenario"),
        ("sequence", "FrameStats SequenceReport encode_sequence"),
        ("sis", (
            "REFERENCE_CONFIGS SOFTWARE_CYCLES TABLE2 "
            "available_atoms_for_config build_h264_catalogue "
            "build_h264_library si_cycles_for_config"
        )),
        ("transforms", (
            "dc_coefficients dct_4x4 hadamard_2x2 hadamard_4x4 residual "
            "sad_4x4 satd_4x4"
        )),
        ("workload", (
            "CANDIDATES_PER_SUBBLOCK MacroblockData build_macroblock "
            "candidate_offsets chroma_from_luma macroblock_stream "
            "synthetic_frame"
        )),
    )
    for name in names.split()
}

__all__ = [
    "AtomExecutionCounter",
    "CANDIDATES_PER_SUBBLOCK",
    "CHROMA_SI_COUNTS",
    "CORE_OVERHEAD_CYCLES",
    "EXTENSION_SI_COUNTS",
    "EXTENSION_SOFTWARE_CYCLES",
    "EncodedMacroblock",
    "FrameStats",
    "SequenceReport",
    "EncoderPipeline",
    "LUMA_SI_COUNTS",
    "MacroblockData",
    "PHASES",
    "PhaseRotationReport",
    "REFERENCE_CONFIGS",
    "SOFTWARE_CYCLES",
    "TABLE2",
    "add_atom",
    "assemble_from_4x4",
    "block_bits",
    "available_atoms_for_config",
    "best_intra_mode",
    "build_extended_catalogue",
    "build_extended_library",
    "build_h264_catalogue",
    "build_h264_library",
    "build_scenario_library",
    "build_macroblock",
    "candidate_offsets",
    "chroma_from_luma",
    "dc_coefficients",
    "deblock_block_edge",
    "deblock_edge",
    "dequantize_4x4",
    "extended_macroblock_cycles",
    "dct_4x4",
    "decode_block",
    "decode_intra_frame_bitstream",
    "encode_block",
    "encode_intra_frame",
    "encode_sequence",
    "extract_block",
    "hadamard_2x2",
    "hadamard_4x4",
    "interpolate_half_pel_row",
    "intra_predict_4x4",
    "inverse_dct_4x4",
    "load_atom",
    "macroblock_bits",
    "macroblock_cycles",
    "macroblock_positions",
    "macroblock_stream",
    "mc_half_pel_block",
    "pack_atom",
    "phase_area_comparison",
    "pack_words",
    "quadsub_atom",
    "quantization_step",
    "quantize_4x4",
    "reconstruct_4x4",
    "residual",
    "roundtrip_intra_frame",
    "run_fig6_scenario",
    "run_phase_rotation",
    "sad_4x4",
    "satd_4x4",
    "satd_atom",
    "serialize_intra_frame",
    "si_cycles_for_config",
    "si_dct_4x4",
    "si_ht_2x2",
    "si_ht_4x4",
    "si_sad_4x4",
    "si_satd_4x4",
    "sixtap_half_pel",
    "split_into_4x4",
    "store_atom",
    "synthetic_frame",
    "transform_atom",
    "unpack_words",
]


def __getattr__(name: str) -> Any:
    try:
        module = _HOMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
