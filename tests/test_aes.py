"""Tests for the AES-128 case study: cipher correctness + Fig. 3 pipeline."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.aes import (
    AES_SOFTWARE_CYCLES,
    aes_forecast_report,
    build_aes_library,
    build_aes_program,
    encrypt_block,
    expand_key,
    gf_mul,
    profile_aes,
    xtime,
)
from repro.sim import execute


class TestAESPrimitives:
    def test_xtime_known_values(self):
        assert xtime(0x57) == 0xAE
        assert xtime(0xAE) == 0x47  # wraps modulo the AES polynomial

    def test_gf_mul_fips_example(self):
        # FIPS-197 §4.2.1: {57} x {13} = {fe}
        assert gf_mul(0x57, 0x13) == 0xFE

    @given(st.integers(0, 255))
    def test_gf_mul_identity_and_zero(self, a):
        assert gf_mul(a, 1) == a
        assert gf_mul(a, 0) == 0

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_gf_mul_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    def test_key_expansion_fips_vector(self):
        # FIPS-197 Appendix A.1, last round key for the example cipher key.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        rks = expand_key(key)
        assert len(rks) == 11
        assert bytes(rks[10]).hex() == "d014f9a8c9ee2589e13f0cc8b6630ca6"

    def test_key_length_checked(self):
        with pytest.raises(ValueError):
            expand_key(b"short")


class TestAESCipher:
    def test_fips_197_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        assert encrypt_block(pt, key).hex() == "3925841d02dc09fbdc118597196a0b32"

    def test_fips_197_appendix_c(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert encrypt_block(pt, key).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_block_length_checked(self):
        with pytest.raises(ValueError):
            encrypt_block(b"short", b"0" * 16)


class TestAESProgram:
    def test_ir_program_really_encrypts(self):
        rng = random.Random(7)
        program = build_aes_program()
        for _ in range(5):
            env = {
                "plaintext": bytes(rng.randrange(256) for _ in range(16)),
                "key": bytes(rng.randrange(256) for _ in range(16)),
            }
            result = execute(program, dict(env))
            assert result.env["ciphertext"] == encrypt_block(
                env["plaintext"], env["key"]
            )

    def test_block_execution_counts(self):
        result = execute(
            build_aes_program(),
            {"plaintext": b"\x00" * 16, "key": b"\x01" * 16},
        )
        assert result.block_trace.count("keyexp") == 10
        assert result.block_trace.count("round") == 9
        assert result.block_trace.count("final") == 1
        assert result.si_executions == {
            "KEYEXP": 10,
            "SUBBYTES": 10,
            "MIXCOL": 9,
        }

    def test_profile_aes_counts(self):
        cfg = profile_aes(runs=4, seed=1)
        assert cfg.get("round").exec_count == 4 * 9
        assert cfg.edge_probability("round", "round") == pytest.approx(8 / 9)


class TestAESLibraryAndForecast:
    def test_library_sis(self):
        lib = build_aes_library()
        assert set(lib.names()) == {"SUBBYTES", "MIXCOL", "KEYEXP"}
        for name in lib.names():
            assert lib.get(name).software_cycles == AES_SOFTWARE_CYCLES[name]
            assert lib.get(name).max_expected_speedup() > 5

    def test_report_candidates_precede_usage(self):
        report = aes_forecast_report(runs=4, containers=6)
        assert report.candidates
        # Fig. 3: candidates sit upstream of the SI-using round loop.
        for c in report.candidates:
            assert c.block_id in ("setup", "keyexp", "init_ark")

    def test_report_places_forecasts(self):
        report = aes_forecast_report(runs=4, containers=6)
        points = report.annotation.all_points()
        assert points
        for p in points:
            assert p.block_id in report.cfg.block_ids()

    def test_report_dot_marks_candidates(self):
        report = aes_forecast_report(runs=4, containers=6)
        assert "digraph" in report.dot
        assert "shape=box" in report.dot  # at least one highlighted candidate
