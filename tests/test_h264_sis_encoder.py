"""Tests for the H.264 SIs, the Table 2 catalogue, and the Fig. 7 encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.h264 import (
    AtomExecutionCounter,
    EncoderPipeline,
    REFERENCE_CONFIGS,
    SOFTWARE_CYCLES,
    TABLE2,
    available_atoms_for_config,
    build_h264_catalogue,
    build_h264_library,
    build_macroblock,
    dct_4x4,
    macroblock_cycles,
    macroblock_stream,
    satd_4x4,
    si_cycles_for_config,
    si_dct_4x4,
    si_ht_2x2,
    si_ht_4x4,
    si_sad_4x4,
    si_satd_4x4,
    synthetic_frame,
)
from tests.oracles import hadamard_2x2, hadamard_4x4, sad_4x4

blocks_4x4 = arrays(np.int64, (4, 4), elements=st.integers(-255, 255))
pixels_4x4 = arrays(np.int64, (4, 4), elements=st.integers(0, 255))


class TestFunctionalSIs:
    @given(blocks_4x4)
    @settings(max_examples=30)
    def test_dct_si_bit_exact(self, x):
        assert (si_dct_4x4(x) == dct_4x4(x)).all()

    @given(blocks_4x4)
    @settings(max_examples=30)
    def test_ht_si_bit_exact(self, x):
        assert (si_ht_4x4(x) == hadamard_4x4(x)).all()

    @given(pixels_4x4, pixels_4x4)
    @settings(max_examples=30)
    def test_satd_si_bit_exact(self, a, b):
        assert si_satd_4x4(a, b) == satd_4x4(a, b)

    @given(pixels_4x4, pixels_4x4)
    @settings(max_examples=30)
    def test_sad_si_bit_exact(self, a, b):
        assert si_sad_4x4(a, b) == sad_4x4(a, b)

    def test_ht_2x2_bit_exact(self):
        x = np.array([[10, -3], [7, 2]])
        assert (si_ht_2x2(x) == hadamard_2x2(x)).all()

    def test_ht_4x4_atom_requirements(self):
        # "each HT_4x4 requires 4 Transform- and 4 Pack-executions" (§3).
        c = AtomExecutionCounter()
        si_ht_4x4(np.zeros((4, 4), dtype=np.int64), c)
        assert c.counts == {"Transform": 4, "Pack": 4}

    def test_satd_atom_requirements(self):
        # Fig. 8: QuadSub -> Transform -> Pack -> Transform -> SATD.
        c = AtomExecutionCounter()
        si_satd_4x4(
            np.zeros((4, 4), dtype=np.int64), np.zeros((4, 4), dtype=np.int64), c
        )
        assert c.counts == {"QuadSub": 4, "Transform": 4, "Pack": 4, "SATD": 4}

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            si_dct_4x4(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            si_ht_2x2(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            si_satd_4x4(np.zeros((4, 4)), np.zeros((2, 2)))


class TestCatalogue:
    def test_atom_kinds(self):
        cat = build_h264_catalogue()
        assert set(k.name for k in cat) == {
            "Load",
            "QuadSub",
            "Pack",
            "Transform",
            "SATD",
            "Add",
            "Store",
        }
        assert cat.get("Load").baseline == 1
        assert not cat.get("Add").reconfigurable
        assert cat.get("Transform").bitstream_bytes == 59_353

    def test_table2_column_counts(self):
        # 1 HT_2x2 + 6 HT_4x4 + 8 DCT_4x4 + 15 SATD_4x4 = 30 molecules.
        assert sum(len(v) for v in TABLE2.values()) == 30

    def test_table2_cycles_row_verbatim(self):
        assert [c for _, c in TABLE2["HT_2x2"]] == [5]
        assert [c for _, c in TABLE2["HT_4x4"]] == [22, 17, 17, 12, 11, 8]
        assert [c for _, c in TABLE2["DCT_4x4"]] == [24, 23, 19, 15, 18, 12, 12, 9]
        assert [c for _, c in TABLE2["SATD_4x4"]] == [
            24, 22, 22, 20, 18, 18, 17, 15, 14, 15, 14, 14, 13, 13, 12,
        ]

    def test_load_and_transform_rows_verbatim(self):
        # The two Table 2 rows that survived OCR intact.
        ht = TABLE2["HT_4x4"]
        assert [m[0][0] for m in ht] == [1, 1, 2, 2, 4, 4]
        assert [m[0][3] for m in ht] == [1, 2, 1, 2, 2, 4]
        dct = TABLE2["DCT_4x4"]
        assert [m[0][0] for m in dct] == [1, 1, 2, 2, 4, 4, 4, 4]
        assert [m[0][3] for m in dct] == [1, 2, 1, 2, 1, 2, 2, 4]
        satd = TABLE2["SATD_4x4"]
        assert [m[0][0] for m in satd] == [1, 1, 1, 2, 2, 2] + [4] * 9

    def test_largest_satd_molecule_is_18_atoms(self):
        # Fig. 13's x-axis tops out at 18 RISPP resources.
        lib = build_h264_library()
        satd = lib.get("SATD_4x4")
        assert max(abs(m) for m in satd.molecules()) == 18

    def test_monotone_more_atoms_never_slower(self):
        # Within one SI, a molecule dominating another must not be slower.
        lib = build_h264_library()
        for si in lib:
            for a in si.implementations:
                for b in si.implementations:
                    if a.molecule <= b.molecule:
                        assert b.cycles <= a.cycles

    def test_sad_extension_optional(self):
        assert "SAD_4x4" not in build_h264_library()
        lib = build_h264_library(include_sad=True)
        assert "SAD_4x4" in lib
        sad = lib.get("SAD_4x4")
        used = set()
        for m in sad.molecules():
            used.update(m.kinds_used())
        assert used == {"Load", "QuadSub", "SATD"}

    def test_atom_sharing_across_sis(self):
        # Fig. 2: Transform serves all four transform SIs.
        lib = build_h264_library()
        shared = lib.shared_atom_kinds()
        assert set(shared["Transform"]) == {
            "HT_2x2",
            "HT_4x4",
            "DCT_4x4",
            "SATD_4x4",
        }

    def test_speedup_over_22x(self):
        # §6: SIs are "more than 22 times faster" than optimised software.
        lib = build_h264_library()
        assert lib.get("SATD_4x4").max_expected_speedup() > 22
        assert lib.get("DCT_4x4").max_expected_speedup() > 22


class TestFig11Configs:
    @pytest.mark.parametrize(
        "config,expected",
        [
            ("Opt. SW", {"SATD_4x4": 544, "DCT_4x4": 488, "HT_4x4": 298}),
            ("4 Atoms", {"SATD_4x4": 24, "DCT_4x4": 24, "HT_4x4": 22}),
            ("5 Atoms", {"SATD_4x4": 20, "DCT_4x4": 19, "HT_4x4": 22}),
            ("6 Atoms", {"SATD_4x4": 18, "DCT_4x4": 15, "HT_4x4": 17}),
        ],
    )
    def test_fig11_points_exact(self, config, expected):
        lib = build_h264_library()
        for si_name, cycles in expected.items():
            assert si_cycles_for_config(lib, si_name, config) == cycles

    def test_config_atom_budgets(self):
        # "N Atoms" loads exactly N atoms into containers.
        for name, counts in REFERENCE_CONFIGS.items():
            loaded = sum(counts.values())
            if name != "Opt. SW":
                assert loaded == int(name.split()[0])

    def test_unknown_config_rejected(self):
        lib = build_h264_library()
        with pytest.raises(ValueError):
            available_atoms_for_config(lib, "7 Atoms")


class TestEncoderPipeline:
    @pytest.fixture(scope="class")
    def encoded(self):
        mbs = macroblock_stream(1, seed=3)
        pipe = EncoderPipeline(count_atoms=True)
        return pipe, pipe.encode_macroblock(mbs[0])

    def test_si_counts_match_fig7(self, encoded):
        _, out = encoded
        assert out.si_counts == {
            "SATD_4x4": 256,
            "DCT_4x4": 24,
            "HT_4x4": 1,
            "HT_2x2": 2,
        }

    def test_luma_only_counts(self):
        pipe = EncoderPipeline(include_chroma=False)
        out = pipe.encode_macroblock(macroblock_stream(1, seed=3)[0])
        assert out.si_counts == {
            "SATD_4x4": 256,
            "DCT_4x4": 16,
            "HT_4x4": 1,
        }

    def test_best_candidates_minimise_satd(self, encoded):
        pipe, out = encoded
        mbs = macroblock_stream(1, seed=3)
        mb = mbs[0]
        from repro.apps.h264.blocks import split_into_4x4

        grid = split_into_4x4(mb.luma)
        for sub in range(16):
            sy, sx = divmod(sub, 4)
            satds = [satd_4x4(grid[sy][sx], c) for c in mb.candidates[sub]]
            assert out.best_satd[sub] == min(satds)
            assert satds[out.best_candidate_index[sub]] == min(satds)

    def test_coefficients_are_dct_of_best_residual(self, encoded):
        _, out = encoded
        mbs = macroblock_stream(1, seed=3)
        mb = mbs[0]
        from repro.apps.h264.blocks import split_into_4x4

        grid = split_into_4x4(mb.luma)
        sy, sx = 0, 0
        best = mb.candidates[0][out.best_candidate_index[0]]
        assert (out.luma_coefficients[0][0] == dct_4x4(grid[0][0] - best)).all()

    def test_dc_block_is_ht_of_dcs(self, encoded):
        _, out = encoded
        from repro.apps.h264.transforms import dc_coefficients

        dc = dc_coefficients(out.luma_coefficients)
        assert (out.dc_block == hadamard_4x4(dc)).all()

    def test_intra_injection_threshold(self):
        mbs = macroblock_stream(1, seed=3)
        eager = EncoderPipeline(intra_threshold=0)
        assert eager.encode_macroblock(mbs[0]).intra_injected

    def test_atom_counter_accumulates(self, encoded):
        pipe, _ = encoded
        # 260 SATD/DCT-ish SIs each run 4 Transform+: counter must be busy.
        assert pipe.atom_counter.counts["Transform"] > 1000
        assert pipe.atom_counter.counts["QuadSub"] == 4 * 256


class TestCycleModel:
    def test_software_calibration_exact(self):
        # 256*544 + 16*488 + 298 + 53_695 == 201_065 (the paper's Opt. SW).
        total = macroblock_cycles(SOFTWARE_CYCLES)
        assert total == 201_065

    def test_fig12_shape(self):
        lib = build_h264_library()
        totals = {}
        for config in ("Opt. SW", "4 Atoms", "5 Atoms", "6 Atoms"):
            cyc = {
                n: si_cycles_for_config(lib, n, config)
                for n in ("SATD_4x4", "DCT_4x4", "HT_4x4", "HT_2x2")
            }
            totals[config] = macroblock_cycles(cyc)
        # >3x speed-up SW -> 4 Atoms ("more than 300% faster", §6) ...
        assert totals["Opt. SW"] / totals["4 Atoms"] > 3.0
        # ... then Amdahl-limited marginal gains.
        assert totals["4 Atoms"] > totals["5 Atoms"] > totals["6 Atoms"]
        assert (totals["4 Atoms"] - totals["6 Atoms"]) / totals["4 Atoms"] < 0.05

    def test_fig12_values_close_to_paper(self):
        lib = build_h264_library()
        paper = {
            "Opt. SW": 201_065,
            "4 Atoms": 60_244,
            "5 Atoms": 59_135,
            "6 Atoms": 58_287,
        }
        for config, expected in paper.items():
            cyc = {
                n: si_cycles_for_config(lib, n, config)
                for n in ("SATD_4x4", "DCT_4x4", "HT_4x4", "HT_2x2")
            }
            measured = macroblock_cycles(cyc)
            assert abs(measured - expected) / expected < 0.005

    def test_missing_si_latency_rejected(self):
        with pytest.raises(ValueError):
            macroblock_cycles({"SATD_4x4": 24})

    def test_macroblocks_scale_linearly(self):
        one = macroblock_cycles(SOFTWARE_CYCLES)
        ten = macroblock_cycles(SOFTWARE_CYCLES, macroblocks=10)
        assert ten == 10 * one


class TestWorkload:
    def test_frames_are_valid_pixels(self):
        f = synthetic_frame(48, 64, seed=2)
        assert f.shape == (48, 64)
        assert f.min() >= 0 and f.max() <= 255

    def test_motion_makes_reference_predictive(self):
        # The best candidate from the shifted reference must beat a flat
        # 128 prediction on average (the motion search finds real matches).
        ref = synthetic_frame(64, 64, seed=5, shift=0)
        cur = synthetic_frame(64, 64, seed=6, shift=1)
        mb = build_macroblock(cur, ref, 16, 16)
        from repro.apps.h264.blocks import split_into_4x4

        grid = split_into_4x4(mb.luma)
        flat = np.full((4, 4), 128, dtype=np.int64)
        best = [
            min(satd_4x4(grid[s // 4][s % 4], c) for c in mb.candidates[s])
            for s in range(16)
        ]
        flat_cost = [satd_4x4(grid[s // 4][s % 4], flat) for s in range(16)]
        assert sum(best) < sum(flat_cost)

    def test_stream_length(self):
        assert len(macroblock_stream(5, seed=0)) == 5
        with pytest.raises(ValueError):
            macroblock_stream(0)

    def test_macroblock_validation(self):
        ref = synthetic_frame(48, 48)
        with pytest.raises(ValueError):
            build_macroblock(ref, ref, 40, 40)  # chroma out of bounds
