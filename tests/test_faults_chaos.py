"""Chaos campaigns: ``run_chaos_suite`` and ``python -m repro chaos``.

Acceptance contract: a chaos run is deterministic in its seed (the JSON
report is byte-identical across invocations), its trace replays clean
through rispp-verify including the quarantine/repair rules, its MTTR
never exceeds the static repair bound, and the run stays functionally
identical to the fault-free baseline.
"""

import json

import pytest

from repro.cli import main
from repro.faults import chaos_ok, run_chaos_suite
from repro.faults.chaos import render_chaos_report
from repro.sim.suites import SUITES


@pytest.fixture(scope="module")
def synthetic_report():
    return run_chaos_suite("synthetic", seed=7, quick=True)


class TestChaosDriver:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite 'mp3'"):
            run_chaos_suite("mp3", seed=0)

    def test_suite_list_matches_verifier(self):
        # Chaos, verify and metrics all read the one suite table.
        assert SUITES == ("aes", "h264", "synthetic")

    def test_report_schema(self, synthetic_report):
        report = synthetic_report
        assert report["kind"] == "rispp-chaos-report"
        assert report["suite"] == "synthetic"
        assert report["seed"] == 7
        for key in (
            "horizon_cycles", "schedule", "resilience",
            "repair_bound_cycles", "mttr_within_bound", "trace",
            "feasibility", "functional", "totals",
        ):
            assert key in report, key
        # Determinism demands a timestamp-free report.
        assert "timestamp_utc" not in json.dumps(report)

    def test_report_is_deterministic(self, synthetic_report):
        again = run_chaos_suite("synthetic", seed=7, quick=True)
        a = json.dumps(synthetic_report, indent=2, sort_keys=True)
        b = json.dumps(again, indent=2, sort_keys=True)
        assert a == b

    def test_seed_changes_the_campaign(self, synthetic_report):
        other = run_chaos_suite("synthetic", seed=8, quick=True)
        assert other["schedule"] != synthetic_report["schedule"]

    def test_trace_verifies_and_passes(self, synthetic_report):
        assert synthetic_report["trace"]["verified"] is True
        assert synthetic_report["trace"]["findings"] == []
        assert synthetic_report["mttr_within_bound"] is True
        assert synthetic_report["functional"]["match"] is True
        assert synthetic_report["open_episodes"] == 0
        assert chaos_ok(synthetic_report)

    def test_h264_campaign_repairs_within_bound(self):
        # Seed 5 lands a transient on a loaded container: full
        # detect -> quarantine -> repair cycle, MTTR inside the bound.
        report = run_chaos_suite("h264", seed=5, quick=True)
        res = report["resilience"]
        assert res["faults_detected"] >= 1
        assert res["containers_repaired"] >= 1
        assert 0 < res["mttr_cycles_max"] <= report["repair_bound_cycles"]
        assert res["degraded_cycles"] > 0
        assert report["trace"]["verified"] is True
        assert chaos_ok(report)

    def test_aes_campaign_functionally_clean_under_high_rate(self):
        # The AES program is short; a high rate forces faults into it.
        # Whatever happens to the fabric, the ciphertext must not change.
        report = run_chaos_suite("aes", seed=3, quick=True, fault_rate=200.0)
        assert report["resilience"]["faults_injected"] >= 1
        assert report["functional"]["checked"] is True
        assert report["functional"]["match"] is True
        assert report["trace"]["verified"] is True
        assert chaos_ok(report)

    def test_render_text_report(self, synthetic_report):
        text = render_chaos_report(synthetic_report)
        assert "chaos suite 'synthetic'" in text
        assert "MTTR" in text
        assert "verdict: PASS" in text


class TestChaosCli:
    def test_json_output_byte_identical_across_runs(self, capsys):
        argv = [
            "chaos", "--suite", "synthetic", "--seed", "7",
            "--quick", "--format", "json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["suite"] == "synthetic"
        assert payload["resilience"]["faults_injected"] >= 1

    def test_text_output_and_exit_zero(self, capsys):
        assert main([
            "chaos", "--suite", "synthetic", "--seed", "3", "--quick",
        ]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out

    def test_json_file_emission(self, tmp_path, capsys):
        path = tmp_path / "chaos.json"
        assert main([
            "chaos", "--suite", "synthetic", "--seed", "7", "--quick",
            "--json", str(path),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["kind"] == "rispp-chaos-report"
        assert payload["seed"] == 7

    def test_bad_fault_rate_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--fault-rate", "-1"])
        assert exc.value.code == 2

    def test_unknown_suite_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--suite", "mp3"])
        assert exc.value.code == 2

    def test_chaos_listed_in_usage(self, capsys):
        assert main([]) == 0
        assert "chaos" in capsys.readouterr().out
