"""Tests for the future-work MC/LF extension SIs."""

from repro.apps.h264 import SOFTWARE_CYCLES
from repro.apps.h264.extensions import (
    EXTENSION_SI_COUNTS,
    EXTENSION_SOFTWARE_CYCLES,
    EXTENSION_SW_CYCLES_PER_MB,
    RESIDUAL_CORE_OVERHEAD,
    build_extended_catalogue,
    build_extended_library,
    extended_macroblock_cycles,
)


class TestExtendedLibrary:
    def test_catalogue_adds_two_atoms(self):
        cat = build_extended_catalogue()
        assert "SixTap" in cat and "Clip" in cat
        assert cat.get("SixTap").reconfigurable

    def test_library_contains_generated_sis(self):
        lib = build_extended_library()
        assert {"MC_HPEL", "LF_EDGE"} <= set(lib.names())
        for name in ("MC_HPEL", "LF_EDGE"):
            si = lib.get(name)
            assert len(si.implementations) >= 3
            assert si.max_expected_speedup() > 20
            # Auto-generated catalogue uses only the extension atoms.
            for m in si.molecules():
                assert set(m.kinds_used()) <= {"SixTap", "Clip"}

    def test_table2_sis_unchanged(self):
        lib = build_extended_library()
        assert lib.get("SATD_4x4").software_cycles == 544
        assert len(lib.get("SATD_4x4").implementations) == 15

    def test_carve_out_is_latency_neutral(self):
        # All extension SIs in software == the original Fig. 12 Opt. SW.
        sw = {
            "SATD_4x4": SOFTWARE_CYCLES["SATD_4x4"],
            "DCT_4x4": SOFTWARE_CYCLES["DCT_4x4"],
            "HT_4x4": SOFTWARE_CYCLES["HT_4x4"],
            **EXTENSION_SOFTWARE_CYCLES,
        }
        assert extended_macroblock_cycles(sw) == 201_065

    def test_overhead_accounting(self):
        assert EXTENSION_SW_CYCLES_PER_MB == sum(
            EXTENSION_SI_COUNTS[n] * EXTENSION_SOFTWARE_CYCLES[n]
            for n in EXTENSION_SI_COUNTS
        )
        assert RESIDUAL_CORE_OVERHEAD + EXTENSION_SW_CYCLES_PER_MB == 53_695
        assert RESIDUAL_CORE_OVERHEAD > 0

    def test_accelerating_extensions_lifts_amdahl_ceiling(self):
        lib = build_extended_library()
        base = {
            "SATD_4x4": 18,
            "DCT_4x4": 15,
            "HT_4x4": 17,
            **EXTENSION_SOFTWARE_CYCLES,
        }
        ceiling = extended_macroblock_cycles(base)
        accelerated = dict(base)
        accelerated["MC_HPEL"] = lib.get("MC_HPEL").fastest_molecule().cycles
        accelerated["LF_EDGE"] = lib.get("LF_EDGE").fastest_molecule().cycles
        lifted = extended_macroblock_cycles(accelerated)
        # The new hot spots unlock a large further gain.
        assert lifted < ceiling - 20_000
