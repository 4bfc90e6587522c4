"""H.264 case study (paper §6): atoms, SIs, Table 2 catalogue, encoder flow.

Public names resolve on first access (PEP 562 ``__getattr__``): the
Table 2 library in :mod:`.sis` is plain data, while the pixel models
(atoms, transforms, encoder, ...) import numpy.  So
``from repro.apps.h264 import build_h264_library`` loads the library
and nothing else, and a runtime that never touches a pixel never loads
numpy.
"""

from ...exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "atoms": (
        "add_atom AtomExecutionCounter load_atom pack_atom pack_words quadsub_atom satd_atom "
        "si_dct_4x4 si_ht_2x2 si_ht_4x4 si_sad_4x4 si_satd_4x4 store_atom transform_atom "
        "unpack_words"
    ),
    "blocks": "extract_block split_into_4x4",
    "encoder": (
        "CHROMA_SI_COUNTS EncodedMacroblock EncoderPipeline LUMA_SI_COUNTS macroblock_cycles"
    ),
    "entropy": "block_bits macroblock_bits",
    "extensions": (
        "build_extended_catalogue build_extended_library extended_macroblock_cycles "
        "EXTENSION_SI_COUNTS EXTENSION_SOFTWARE_CYCLES"
    ),
    "intra": "best_intra_mode encode_intra_frame intra_predict_4x4",
    "phases": "phase_area_comparison PhaseRotationReport PHASES run_phase_rotation",
    "quant": "dequantize_4x4 inverse_dct_4x4 quantize_4x4 reconstruct_4x4",
    "scenario": "build_scenario_library run_fig6_scenario",
    "sequence": "encode_sequence FrameStats SequenceReport",
    "sis": (
        "available_atoms_for_config build_h264_catalogue build_h264_library CORE_OVERHEAD_CYCLES "
        "REFERENCE_CONFIGS si_cycles_for_config SOFTWARE_CYCLES TABLE2"
    ),
    "transforms": "dc_coefficients dct_4x4 residual satd_4x4",
    "workload": (
        "build_macroblock candidate_offsets CANDIDATES_PER_SUBBLOCK chroma_from_luma "
        "macroblock_stream MacroblockData synthetic_frame"
    ),
})
