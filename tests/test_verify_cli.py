"""``python -m repro verify``: exit codes, golden traces, selectors.

The acceptance contract: a clean suite run exits 0; each of the seeded
golden-trace corruptions exits 1 with a non-empty JSON diagnostic list
naming the intended rule; usage errors (bad selectors, unreadable golden
files) exit 2.
"""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def golden_path(tmp_path_factory):
    """One verified synthetic golden trace, emitted through the CLI."""
    path = tmp_path_factory.mktemp("golden") / "synthetic.json"
    code = main([
        "verify", "--suite", "synthetic", "--quick",
        "--emit-golden", str(path), "--format", "json",
    ])
    assert code == 0
    assert path.exists()
    return path


def _load(path):
    return json.loads(path.read_text())


def _run_corrupted(tmp_path, golden_path, mutate):
    """Mutate a copy of the golden file and verify it via --trace."""
    data = _load(golden_path)
    mutate(data)
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(data))
    return main(["verify", "--trace", str(path), "--format", "json"])


def _events_of_kind(data, kind):
    return [e for e in data["events"] if e["kind"] == kind]


class TestCleanRuns:
    def test_h264_suite_exits_zero(self, capsys):
        assert main(["verify", "--suite", "h264", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "rispp-verify" in out

    def test_synthetic_json_output_is_clean(self, capsys):
        assert main([
            "verify", "--suite", "synthetic", "--quick", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0
        # The static prover always publishes its FEA004 bounds.
        assert "FEA004" in payload["summary"]["rule_ids"]

    def test_golden_trace_round_trips(self, golden_path, capsys):
        assert main(["verify", "--trace", str(golden_path)]) == 0
        assert "all checks passed" not in capsys.readouterr().out or True

    def test_trace_run_proves_survivable_failures(self, golden_path, capsys):
        # --survivable-failures reaches the prover on the --trace path too:
        # 3 of the synthetic fabric's 5 containers failing degrades every
        # SI below its largest molecule (FEA005).
        assert main([
            "verify", "--trace", str(golden_path),
            "--survivable-failures", "3", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "FEA005" in payload["summary"]["rule_ids"]

    def test_golden_file_schema(self, golden_path):
        data = _load(golden_path)
        assert data["kind"] == "rispp-golden-trace"
        assert data["schema_version"] == 1
        assert data["suite"] == data["library"] == "synthetic"
        assert data["events"]
        assert data["totals"]["si_executions"] > 0
        assert data["energy_model"] is not None


class TestSeededCorruptions:
    """Each corruption exits 1 with a non-empty finding list (>= 5 kinds)."""

    def _assert_fails_with(self, capsys, code, rule_id):
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"], "expected a non-empty diagnostic list"
        assert payload["summary"]["errors"] >= 1
        assert rule_id in payload["summary"]["rule_ids"]

    def test_negative_cycle(self, tmp_path, golden_path, capsys):
        def mutate(data):
            data["events"][5]["cycle"] = -44

        code = _run_corrupted(tmp_path, golden_path, mutate)
        self._assert_fails_with(capsys, code, "TRC001")

    def test_swapped_events(self, tmp_path, golden_path, capsys):
        def mutate(data):
            events = data["events"]
            idx = next(
                i
                for i in range(len(events) - 1)
                if events[i]["cycle"] < events[i + 1]["cycle"]
            )
            events[idx], events[idx + 1] = events[idx + 1], events[idx]

        code = _run_corrupted(tmp_path, golden_path, mutate)
        self._assert_fails_with(capsys, code, "TRC001")

    def test_double_occupied_container(self, tmp_path, golden_path, capsys):
        def mutate(data):
            rot = _events_of_kind(data, "rotation_requested")[0]
            idx = data["events"].index(rot)
            data["events"].insert(idx + 1, json.loads(json.dumps(rot)))

        code = _run_corrupted(tmp_path, golden_path, mutate)
        self._assert_fails_with(capsys, code, "TRC004")

    def test_unresident_molecule_execution(
        self, tmp_path, golden_path, capsys
    ):
        def mutate(data):
            ex = next(
                e
                for e in _events_of_kind(data, "si_executed")
                if e["detail"]["mode"] == "SW"
            )
            ex["detail"] = {"mode": "HW", "cycles": 40}  # SI0's base molecule

        code = _run_corrupted(tmp_path, golden_path, mutate)
        self._assert_fails_with(capsys, code, "TRC005")

    def test_static_or_unknown_atom_rotation(
        self, tmp_path, golden_path, capsys
    ):
        def mutate(data):
            rot = _events_of_kind(data, "rotation_requested")[0]
            rot["detail"]["detail_atom"] = "NotAnAtom"

        code = _run_corrupted(tmp_path, golden_path, mutate)
        self._assert_fails_with(capsys, code, "TRC009")

    def test_negative_energy_total(self, tmp_path, golden_path, capsys):
        def mutate(data):
            data["totals"]["rotation_energy_nj"] = -1.0

        code = _run_corrupted(tmp_path, golden_path, mutate)
        self._assert_fails_with(capsys, code, "TRC007")

    def test_overlapping_port_windows(self, tmp_path, golden_path, capsys):
        def mutate(data):
            rots = _events_of_kind(data, "rotation_requested")
            queued = next(
                e for e in rots if e["detail"]["starts"] > e["cycle"]
            )
            queued["detail"]["starts"] -= 10

        code = _run_corrupted(tmp_path, golden_path, mutate)
        self._assert_fails_with(capsys, code, "TRC002")


class TestSelectors:
    def test_ignore_drops_a_rule(self, golden_path, capsys):
        assert main([
            "verify", "--trace", str(golden_path),
            "--ignore", "FEA004", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "FEA004" not in payload["summary"]["rule_ids"]

    def test_select_narrows_to_prefix(self, golden_path, capsys):
        assert main([
            "verify", "--trace", str(golden_path),
            "--select", "FEA", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(
            rid.startswith("FEA") for rid in payload["summary"]["rule_ids"]
        )

    def test_ignoring_the_tripped_rule_masks_the_failure(
        self, tmp_path, golden_path, capsys
    ):
        data = _load(golden_path)
        data["totals"]["rotation_energy_nj"] = -1.0
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "--trace", str(path)]) == 1
        capsys.readouterr()
        assert main([
            "verify", "--trace", str(path), "--ignore", "TRC007",
        ]) == 0

    def test_bad_selector_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "synthetic", "--select", "NOPE"])
        assert excinfo.value.code == 2
        assert "matches no rule" in capsys.readouterr().err

    def test_lint_supports_selectors_too(self, capsys):
        assert main(["lint", "--select", "LAT", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(
            rid.startswith("LAT") for rid in payload["summary"]["rule_ids"]
        )

    def test_help_lists_rule_ids(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "TRC001" in out and "FEA004" in out


class TestUsageErrors:
    def test_unreadable_golden_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nonsense.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--trace", str(path)])
        assert excinfo.value.code == 2

    def test_missing_golden_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--trace", str(tmp_path / "absent.json")])
        assert excinfo.value.code == 2

    def test_emit_golden_requires_suite_run(self, golden_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "verify", "--trace", str(golden_path),
                "--emit-golden", "/tmp/out.json",
            ])
        assert excinfo.value.code == 2
