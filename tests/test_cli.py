"""Tests for the command-line interface."""

import json

import pytest

from repro.analysis.rules import RULES, families, rules_of_family
from repro.cli import EXPERIMENTS, TOOL_FAMILIES, main, tool_help


def epilog_rule_ids(tool):
    """Rule IDs the rule list of ``repro TOOL --help`` (its epilog) shows."""
    epilog = tool_help(tool).split("rule IDs (--select/--ignore", 1)[1]
    return {
        line.split()[0]
        for line in epilog.splitlines()
        if line.strip() and line.split()[0] in RULES
    }


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    @pytest.mark.parametrize(
        "name", ["fig1", "fig4", "fig11", "fig12", "fig13", "table1", "table2"]
    )
    def test_fast_experiments_render(self, name, capsys):
        assert main([name]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) >= 3

    def test_fig11_contains_paper_points(self, capsys):
        main(["fig11"])
        out = capsys.readouterr().out
        for value in ("544", "488", "298", "24", "20", "18"):
            assert value in out

    def test_fig12_reports_deviation(self, capsys):
        main(["fig12"])
        out = capsys.readouterr().out
        assert "201,065" in out and "%" in out

    def test_table2_has_30_molecules(self, capsys):
        main(["table2"])
        out = capsys.readouterr().out
        data_rows = [
            line
            for line in out.splitlines()
            if line.startswith("|") and "SI" not in line.split("|")[1]
        ]
        assert len(data_rows) == 30

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err and "fig99" in err
        assert "fig6" in err  # the close-match hint

    def test_unknown_command_usage_lists_audit(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        for tool in ("lint", "verify", "explore", "audit"):
            assert tool in err

    def test_experiment_rejects_extra_arguments(self, capsys):
        assert main(["fig1", "--bogus"]) == 2
        assert "unexpected arguments" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("name", [*EXPERIMENTS, "list"])
    def test_every_subcommand_smokes(self, name, capsys):
        assert main([name]) == 0
        assert capsys.readouterr().out.strip()


class TestLintCommand:
    def test_lint_text_exits_zero_on_shipped_artifacts(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "rispp-lint:" in out

    def test_lint_json_round_trips(self, capsys):
        assert main(["lint", "--format", "json", "--subject", "h264"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0
        assert payload["summary"]["exit_code"] == 0
        assert {f["rule_id"] for f in payload["findings"]} == set(
            payload["summary"]["rule_ids"]
        )

    def test_lint_subject_filter(self, capsys):
        assert main(["lint", "--subject", "aes"]) == 0
        out = capsys.readouterr().out
        assert "h264" not in out


class TestToolExitCodes:
    """Bad arguments must exit 2 (argparse convention), not crash or run."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--suite", "nope"],
            ["chaos", "--fault-rate", "-1"],
            ["chaos", "--scrub-period", "abc"],
            ["metrics", "--suite", "nope"],
            ["metrics", "--format", "xml"],
            ["explore", "--scope", "nope"],
            ["explore", "--max-states", "0"],
            ["explore", "--select", "TRC001"],
            ["explore", "--select", ""],
            ["audit", "--select", "NOPE"],
            ["audit", "--select", "MC001"],
            ["audit", "--format", "xml"],
            ["lint", "--list-rules"],
            ["audit", "--baseline", "x"],
            ["lint", "--select", "TRC002"],
            ["verify", "--select", "LIB003"],
            ["explore", "--select", "MC001,TRC002"],
        ],
    )
    def test_bad_arguments_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("tool", ["lint", "verify", "explore", "audit"])
    def test_list_rules_exits_zero(self, tool, capsys):
        # The rule list is the --help epilog; there is no --list-rules.
        with pytest.raises(SystemExit) as excinfo:
            main([tool, "--help"])
        assert excinfo.value.code == 0
        assert epilog_rule_ids(tool)

    def test_explore_list_rules_covers_all_mc_rules(self):
        assert epilog_rule_ids("explore") == {
            rule.rule_id for rule in rules_of_family("explore")
        }


class TestToolFamilySync:
    """The CLI's tool→family table must track the rule registry exactly."""

    def test_tool_families_cover_every_registered_family(self):
        covered = {f for fams in TOOL_FAMILIES.values() for f in fams}
        assert covered == set(families())

    def test_every_analysis_tool_has_a_family_entry(self):
        assert set(TOOL_FAMILIES) == {"lint", "verify", "explore", "audit"}

    @pytest.mark.parametrize("tool", ["lint", "verify", "explore", "audit"])
    def test_list_rules_matches_registry(self, tool):
        expected = {
            rule.rule_id
            for family in TOOL_FAMILIES[tool]
            for rule in rules_of_family(family)
        }
        assert epilog_rule_ids(tool) == expected


class TestChaosCommand:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--scrub-period", "0"], "--scrub-period must be positive"),
            (["--max-retries", "-1"], "--max-retries must be non-negative"),
            (["--backoff-cycles", "0"], "--backoff-cycles must be positive"),
        ],
    )
    def test_bad_knob_exits_two_before_the_run(
        self, argv, message, capsys, monkeypatch
    ):
        import repro.faults

        monkeypatch.setattr(repro.faults, "run_chaos_suite", TestOverwriteGuard._must_not_run)
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--quick", *argv])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_resume_store_naming_an_unknown_suite_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.faults
        from repro.cli import CHAOS_RUN_KIND, CHAOS_RUN_META
        from repro.recovery import JOURNAL_NAME
        from repro.scenario import Scenario

        monkeypatch.setattr(repro.faults, "run_chaos_suite", TestOverwriteGuard._must_not_run)
        (tmp_path / JOURNAL_NAME).write_text("")
        meta = {"kind": CHAOS_RUN_KIND, **Scenario().to_payload(), "suite": "nope"}
        (tmp_path / CHAOS_RUN_META).write_text(json.dumps(meta))
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--resume", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "unknown suite 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("quick", "false"), ("seed", 7.9)]
    )
    def test_resume_store_with_a_mistyped_field_exits_two(
        self, field, value, tmp_path, capsys, monkeypatch
    ):
        # run.json is read back through the same checks as a request:
        # a string is no bool and a float no seed, whatever it coerces to.
        import repro.faults
        from repro.cli import CHAOS_RUN_KIND, CHAOS_RUN_META
        from repro.recovery import JOURNAL_NAME
        from repro.scenario import Scenario

        monkeypatch.setattr(repro.faults, "run_chaos_suite", TestOverwriteGuard._must_not_run)
        (tmp_path / JOURNAL_NAME).write_text("")
        meta = {"kind": CHAOS_RUN_KIND, **Scenario().to_payload(), field: value}
        (tmp_path / CHAOS_RUN_META).write_text(json.dumps(meta))
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--resume", str(tmp_path)])
        assert excinfo.value.code == 2
        assert f"malformed scenario field: {field}" in capsys.readouterr().err

    def test_runtime_value_error_is_not_a_usage_error(self, monkeypatch):
        # An invariant break inside the campaign is a crash, not a bad
        # flag: it must not exit 2.
        import repro.faults

        def broken(*args, **kwargs):
            raise ValueError("container 1 is rotating")

        monkeypatch.setattr(repro.faults, "run_chaos_suite", broken)
        with pytest.raises(ValueError, match="rotating"):
            main(["chaos", "--suite", "synthetic", "--seed", "5", "--quick"])


class TestAuditCommand:
    def test_shipped_tree_is_clean(self, capsys):
        assert main(["audit"]) == 0
        captured = capsys.readouterr()
        assert "rispp-audit:" in captured.out
        assert "scanned" in captured.err

    def test_json_round_trips(self, capsys):
        assert main(["audit", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["exit_code"] == 0
        assert all(f["rule_id"].startswith("AUD") for f in payload["findings"])


class TestExploreCommand:
    def test_selection_leaving_no_rule_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--select", "MC001", "--ignore", "MC001"])
        assert excinfo.value.code == 2
        assert "no MC rule" in capsys.readouterr().err

    def test_runtime_value_error_is_not_a_usage_error(self, monkeypatch):
        # An invariant break inside the explored runtime is a crash, not a
        # bad flag: it must not exit 2.
        def broken(*args, **kwargs):
            raise ValueError("container 0 is rotating")

        monkeypatch.setattr("repro.analysis.explore.explore", broken)
        with pytest.raises(ValueError, match="rotating"):
            main(["explore", "--scope", "tiny"])

    def test_capped_tiny_run_exits_zero(self, capsys):
        assert main(["explore", "--scope", "tiny", "--max-states", "50"]) == 0
        out = capsys.readouterr().out
        assert "rispp-explore" in out
        assert "incomplete" in out.lower()

    def test_json_output_round_trips(self, capsys):
        assert (
            main(
                [
                    "explore",
                    "--scope",
                    "tiny",
                    "--max-states",
                    "50",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["scope"] == "tiny"
        assert payload["complete"] is False
        assert payload["rules_proven"] == []
        assert payload["states_explored"] == 50

    def test_emit_counterexample_without_violation_notes_it(self, capsys, tmp_path):
        target = tmp_path / "cx.json"
        assert (
            main(
                [
                    "explore",
                    "--scope",
                    "tiny",
                    "--max-states",
                    "50",
                    "--emit-counterexample",
                    str(target),
                ]
            )
            == 0
        )
        assert not target.exists()
        assert "no counterexample" in capsys.readouterr().err


class TestOverwriteGuard:
    """Output flags are checked before any work starts.

    ``--json``/``--output`` refuse to clobber files without ``--force``:
    a silent overwrite destroys evidence (a baseline report, a previous
    campaign), so an existing target without ``--force`` is a usage
    error — exit 2, file untouched.  A target in a missing directory is
    a usage error for every output flag.
    """

    def test_chaos_refuses_existing_json_target(self, tmp_path, capsys):
        target = tmp_path / "chaos.json"
        target.write_text("precious baseline\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--quick", "--json", str(target)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "refusing to overwrite existing file" in err
        assert "--force" in err
        assert target.read_text() == "precious baseline\n"

    def test_chaos_force_replaces_existing_json_target(self, tmp_path, capsys):
        target = tmp_path / "chaos.json"
        target.write_text("old report\n")
        assert (
            main(["chaos", "--quick", "--json", str(target), "--force"]) == 0
        )
        report = json.loads(target.read_text())
        assert report["kind"] == "rispp-chaos-report"

    def test_chaos_writes_fresh_target_without_force(self, tmp_path, capsys):
        target = tmp_path / "chaos.json"
        assert main(["chaos", "--quick", "--json", str(target)]) == 0
        assert json.loads(target.read_text())["kind"] == "rispp-chaos-report"

    def test_metrics_refuses_existing_output_target(self, tmp_path, capsys):
        target = tmp_path / "metrics.jsonl"
        target.write_text("precious snapshot\n")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "metrics", "--quick", "--format", "json",
                    "--output", str(target),
                ]
            )
        assert excinfo.value.code == 2
        assert "refusing to overwrite existing file" in capsys.readouterr().err
        assert target.read_text() == "precious snapshot\n"

    def test_metrics_force_replaces_existing_output_target(
        self, tmp_path, capsys
    ):
        target = tmp_path / "metrics.jsonl"
        target.write_text("old snapshot\n")
        assert (
            main(
                [
                    "metrics", "--quick", "--format", "json",
                    "--output", str(target), "--force",
                ]
            )
            == 0
        )
        first_line = target.read_text().splitlines()[0]
        json.loads(first_line)

    @staticmethod
    def _must_not_run(*args, **kwargs):
        raise AssertionError("the scenario ran before the pre-flight checks")

    def test_chaos_refuses_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.faults

        monkeypatch.setattr(repro.faults, "run_chaos_suite", self._must_not_run)
        target = tmp_path / "chaos.json"
        target.write_text("precious baseline\n")
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "chaos", "--quick", "--json", str(target),
                "--checkpoint-dir", str(store),
            ])
        assert excinfo.value.code == 2
        assert "refusing to overwrite existing file" in capsys.readouterr().err
        assert not store.exists()
        assert target.read_text() == "precious baseline\n"

    def test_metrics_refuses_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.obs

        monkeypatch.setattr(repro.obs, "run_metrics_suite", self._must_not_run)
        target = tmp_path / "metrics.jsonl"
        target.write_text("precious snapshot\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "--quick", "--output", str(target)])
        assert excinfo.value.code == 2
        assert "refusing to overwrite existing file" in capsys.readouterr().err
        assert target.read_text() == "precious snapshot\n"

    @pytest.mark.parametrize(
        "argv, seam",
        [
            (["verify", "--quick", "--emit-golden", "{missing}/g.json"],
             ("repro.analysis", "run_verify_suite")),
            (["metrics", "--quick", "--output", "{missing}/m.prom"],
             ("repro.obs", "run_metrics_suite")),
            (["chaos", "--quick", "--json", "{missing}/c.json"],
             ("repro.faults", "run_chaos_suite")),
            (["explore", "--scope", "tiny",
              "--emit-counterexample", "{missing}/cx.json"],
             ("repro.analysis", "explore")),
        ],
        ids=["verify", "metrics", "chaos", "explore"],
    )
    def test_output_in_missing_directory_exits_two_before_any_work(
        self, argv, seam, tmp_path, capsys, monkeypatch
    ):
        import importlib

        monkeypatch.setattr(
            importlib.import_module(seam[0]), seam[1], self._must_not_run
        )
        missing = tmp_path / "missing"
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(missing=missing) for arg in argv])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()
