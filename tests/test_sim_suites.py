"""The one suite table (``repro.sim.suites``) behind chaos, verify and metrics.

Pins the byte-identity contract of the shared scenarios: the chaos
reports and verify golden traces below hash to the digests the suites
produced when each command still kept its own copy of them.  Any change
to a suite's library, call mix, rounds or run path shows up here first.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.analysis.verify import golden_from_runtime, run_verify_suite
from repro.cli import main
from repro.faults import run_chaos_suite
from repro.sim.suites import SUITES, run_suite, suite_library

#: sha256 of ``json.dumps(run_chaos_suite(S, seed=5, quick=True,
#: fault_rate=50.0), indent=2, sort_keys=True)``.
CHAOS_DIGESTS = {
    "aes": "fec5b171cab6b59d2d8fe111391b4ce91d866645271e168b9a7041c13793d9a6",
    "h264": "7ea3f5ff05eaa9c44bf1cd30db51345d759f6994724a8c8d67da16878d5e401d",
    "synthetic": (
        "717c24163a1da02a032fcc938e67e5f3625c2aabafa9819a74b8b3946f99f93b"
    ),
}

#: sha256 of the golden file ``repro verify --suite S --quick
#: --emit-golden`` writes (``write_golden``'s compact JSON, no newline).
GOLDEN_DIGESTS = {
    "aes": "d32e987fc628e6854906ab93c94def244139568c26b7df8d9bdd4201304e83dd",
    "h264": "8881ae597329ddebd7138ac56203ff9e0025698d0bfc4a8d685db174f9bf3f3f",
    "synthetic": (
        "a09575f9f1a26159f23dbd2530e426e22c149b601b5b9d6e968dd76e590823a3"
    ),
}

CI_WORKFLOW = Path(__file__).resolve().parents[1] / ".github/workflows/ci.yml"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def chaos_reports():
    return {
        name: run_chaos_suite(name, seed=5, quick=True, fault_rate=50.0)
        for name in SUITES
    }


class TestSuiteTable:
    def test_suites(self):
        assert SUITES == ("aes", "h264", "synthetic")

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite 'mp3'"):
            run_suite("mp3", quick=True)
        with pytest.raises(ValueError, match="unknown suite 'mp3'"):
            suite_library("mp3")

    @pytest.mark.parametrize("name", SUITES)
    def test_stream_windows_closed_and_aes_carries_env(self, name):
        run = run_suite(name, quick=True)
        if name == "aes":
            assert set(run.env) >= {"plaintext", "key"}
            assert run.placements
        else:
            assert run.env is None
            assert run.placements == []
            assert list(run.runtime.active_forecasts()) == []


class TestByteIdentity:
    @pytest.mark.parametrize("name", SUITES)
    def test_chaos_report_digest(self, name, chaos_reports):
        rendered = json.dumps(chaos_reports[name], indent=2, sort_keys=True)
        assert _sha256(rendered) == CHAOS_DIGESTS[name]

    @pytest.mark.parametrize("name", SUITES)
    def test_verify_golden_digest(self, name):
        result = run_verify_suite(name, quick=True)
        golden = golden_from_runtime(result.runtime, suite=name)
        rendered = json.dumps(golden, indent=None, separators=(",", ":"))
        assert _sha256(rendered) == GOLDEN_DIGESTS[name]


class TestMetricsRunsTheChaosScenario:
    @pytest.mark.parametrize("name", SUITES)
    def test_si_executions_match_chaos_baseline(
        self, name, chaos_reports, capsys
    ):
        assert main(["metrics", "--suite", name, "--quick", "--format", "json"]) == 0
        families = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()[1:]
        ]
        (executions,) = [
            family for family in families
            if family["name"] == "rispp_si_executions_total"
        ]
        total = sum(sample["value"] for sample in executions["samples"])
        baseline = chaos_reports[name]["functional"]["baseline_si_executions"]
        assert total == baseline


def _matrix_suites(workflow: str) -> dict[str, list[str]]:
    """``job -> matrix.suite`` for every job with a suite matrix."""
    suites: dict[str, list[str]] = {}
    job = None
    for line in workflow.splitlines():
        header = re.fullmatch(r"  ([A-Za-z0-9_-]+):\s*", line)
        if header:
            job = header.group(1)
            continue
        matrix = re.fullmatch(r"\s+suite:\s*\[([^\]]*)\]\s*", line)
        if matrix and job is not None:
            suites[job] = [s.strip() for s in matrix.group(1).split(",")]
    return suites


class TestCiMatrix:
    def test_ci_fuzzes_exactly_the_suite_table(self):
        matrices = _matrix_suites(CI_WORKFLOW.read_text(encoding="utf-8"))
        for job in ("verify", "chaos", "crash-recovery"):
            assert sorted(matrices[job]) == sorted(SUITES), job
