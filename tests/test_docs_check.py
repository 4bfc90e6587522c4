"""The docs/code cross-checker behind the CI ``docs`` job."""

from pathlib import Path

import pytest

from repro.analysis.docs_check import check_docs, main
from repro.obs.catalogue import METRICS

REPO_ROOT = Path(__file__).resolve().parents[1]


def _observability_stub() -> str:
    """A minimal observability.md covering every declared metric."""
    lines = ["# Metrics", ""]
    lines += [f"- `{spec.full_name}`" for spec in METRICS.values()]
    return "\n".join(lines) + "\n"


def _analysis_stub() -> str:
    """A minimal analysis.md covering every coverage-checked rule."""
    from repro.analysis.docs_check import _DOCUMENTED_FAMILIES
    from repro.analysis.rules import rules_of_family

    lines = ["# Analysers", ""]
    lines += [
        f"- {rule.rule_id}"
        for family in _DOCUMENTED_FAMILIES
        for rule in rules_of_family(family)
    ]
    return "\n".join(lines) + "\n"


def _events_stub() -> str:
    """A minimal events.md covering the event taxonomy."""
    from repro.runtime import events as ev

    lines = ["# Events", ""]
    lines += [f"- `{t.__name__}`" for t in ev.EVENT_TYPES]
    return "\n".join(lines) + "\n"


def _serving_stub() -> str:
    """A minimal serving.md covering every endpoint and request field."""
    from repro.serve import ENDPOINTS, SCENARIO_DEFAULTS

    lines = ["# Serving", ""]
    lines += [f"- {method} {path}" for method, path, _ in ENDPOINTS]
    lines += [f"- `{field}`" for field in sorted(SCENARIO_DEFAULTS)]
    return "\n".join(lines) + "\n"


def _readme_stub() -> str:
    """A minimal README whose CLI table rows every tool command."""
    from repro.cli import TOOL_COMMANDS

    lines = ["# Stub", "", "| Command | What |", "|---|---|"]
    lines += [f"| `{name}` | the {name} tool |" for name in TOOL_COMMANDS]
    return "\n".join(lines) + "\n"


@pytest.fixture
def repo(tmp_path):
    """A minimal healthy repo layout the checker accepts."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "mod.py").write_text("x = 1\n")
    (tmp_path / "docs" / "observability.md").write_text(
        _observability_stub()
    )
    (tmp_path / "docs" / "analysis.md").write_text(_analysis_stub())
    (tmp_path / "docs" / "events.md").write_text(_events_stub())
    (tmp_path / "docs" / "serving.md").write_text(_serving_stub())
    (tmp_path / "README.md").write_text(_readme_stub())
    return tmp_path


def _findings(root):
    return [f.render() for f in check_docs(root)]


class TestChecks:
    def test_healthy_repo_is_clean(self, repo):
        assert _findings(repo) == []

    def test_missing_src_path_is_flagged(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "See `src/repro/nope.py` for details.\n"
        )
        assert any("src/repro/nope.py" in f for f in _findings(repo))

    def test_existing_src_path_passes(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "See `src/repro/mod.py` for details.\n"
        )
        assert _findings(repo) == []

    def test_src_paths_checked_even_in_fences(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "```\ncat src/repro/gone.py\n```\n"
        )
        assert any("src/repro/gone.py" in f for f in _findings(repo))

    def test_broken_relative_link_is_flagged(self, repo):
        (repo / "docs" / "guide.md").write_text("[x](missing.md)\n")
        assert any("missing.md" in f for f in _findings(repo))

    def test_working_link_and_anchors_pass(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "[obs](observability.md#metrics) and [web](https://x.test/)\n"
            "and [frag](#local)\n"
        )
        assert _findings(repo) == []

    def test_unknown_rule_id_is_flagged(self, repo):
        (repo / "docs" / "guide.md").write_text("Rule LAT999 applies.\n")
        assert any("LAT999" in f for f in _findings(repo))

    def test_known_rule_id_passes(self, repo):
        (repo / "docs" / "guide.md").write_text("Rule TRC001 applies.\n")
        assert _findings(repo) == []

    def test_rule_ids_in_fences_are_ignored(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "```\nerror: unknown rule LAT999\n```\n"
        )
        assert _findings(repo) == []

    def test_undeclared_metric_is_flagged(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "Watch rispp_bogus_series_total closely.\n"
        )
        assert any("rispp_bogus_series_total" in f for f in _findings(repo))

    def test_declared_metric_and_histogram_suffixes_pass(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "rispp_si_executions_total and rispp_si_latency_cycles_bucket\n"
        )
        assert _findings(repo) == []

    def test_code_identifiers_are_not_stale_metrics(self, repo):
        # rispp_* names that exist in the source tree are code
        # references (e.g. the rispp_area function), not metric drift.
        (repo / "src" / "repro" / "mod.py").write_text(
            "def rispp_custom_helper():\n    return 1\n"
        )
        (repo / "docs" / "guide.md").write_text(
            "Call `rispp_custom_helper` for the area.\n"
        )
        assert _findings(repo) == []


class TestObservabilityCoverage:
    def test_missing_catalogue_file_is_flagged(self, repo):
        (repo / "docs" / "observability.md").unlink()
        assert any("is missing" in f for f in _findings(repo))

    def test_undocumented_metric_is_flagged(self, repo):
        stub = _observability_stub().replace("rispp_quarantine_depth", "x")
        (repo / "docs" / "observability.md").write_text(stub)
        assert any("rispp_quarantine_depth" in f for f in _findings(repo))


class TestRuleCoverage:
    def test_missing_analysis_doc_is_flagged(self, repo):
        (repo / "docs" / "analysis.md").unlink()
        assert any(
            "analysis.md is missing" in f for f in _findings(repo)
        )

    def test_undocumented_mc_rule_is_flagged(self, repo):
        stub = _analysis_stub().replace("MC007", "MCxxx")
        (repo / "docs" / "analysis.md").write_text(stub)
        assert any("MC007" in f for f in _findings(repo))

    @pytest.mark.parametrize("rule_id", ["TRC005", "FEA004", "AUD006"])
    def test_undocumented_rule_of_each_family_is_flagged(self, repo, rule_id):
        stub = _analysis_stub().replace(rule_id, "redacted")
        (repo / "docs" / "analysis.md").write_text(stub)
        assert any(rule_id in f for f in _findings(repo))

    def test_unknown_aud_rule_id_is_flagged(self, repo):
        (repo / "docs" / "guide.md").write_text("Rule AUD999 applies.\n")
        assert any("AUD999" in f for f in _findings(repo))

    def test_known_aud_rule_id_passes(self, repo):
        (repo / "docs" / "guide.md").write_text("Rule AUD001 applies.\n")
        assert _findings(repo) == []


class TestEventsCoverage:
    def test_missing_events_doc_is_flagged(self, repo):
        (repo / "docs" / "events.md").unlink()
        assert any("events.md is missing" in f for f in _findings(repo))

    def test_undocumented_event_is_flagged(self, repo):
        stub = _events_stub().replace("`RotationCompleted`", "`x`")
        (repo / "docs" / "events.md").write_text(stub)
        assert any("'RotationCompleted'" in f for f in _findings(repo))

    def test_phantom_event_name_is_flagged(self, repo):
        (repo / "docs" / "events.md").write_text(
            _events_stub() + "\nAlso `MoleculeFired` fires here.\n"
        )
        assert any("'MoleculeFired'" in f for f in _findings(repo))

    def test_unknown_evt_rule_id_is_flagged(self, repo):
        # The EVT and ROT families are retired: any mention of them is stale.
        for rule_id in ("EVT001", "ROT001"):
            (repo / "docs" / "guide.md").write_text(f"Rule {rule_id} applies.\n")
            assert any(rule_id in f for f in _findings(repo))


class TestServingCoverage:
    def test_missing_serving_doc_is_flagged(self, repo):
        (repo / "docs" / "serving.md").unlink()
        assert any("serving.md is missing" in f for f in _findings(repo))

    def test_undocumented_endpoint_is_flagged(self, repo):
        stub = _serving_stub().replace("GET /readyz", "GET /")
        (repo / "docs" / "serving.md").write_text(stub)
        assert any("'GET /readyz'" in f for f in _findings(repo))

    def test_undocumented_scenario_field_is_flagged(self, repo):
        stub = _serving_stub().replace("`fault_rate`", "`x`")
        (repo / "docs" / "serving.md").write_text(stub)
        assert any("'fault_rate'" in f for f in _findings(repo))

    def test_phantom_endpoint_is_flagged(self, repo):
        (repo / "docs" / "serving.md").write_text(
            _serving_stub() + "\nPOST /reboot restarts everything.\n"
        )
        assert any("POST /reboot" in f for f in _findings(repo))

    def test_phantom_endpoint_in_fence_is_flagged(self, repo):
        # Unlike rule IDs, endpoint drift inside a curl example is
        # exactly what the check must catch.
        (repo / "docs" / "serving.md").write_text(
            _serving_stub() + "\n```\ncurl -X DELETE /scenario\n```\n"
        )
        assert any("DELETE /scenario" in f for f in _findings(repo))


class TestCliSurface:
    def test_tool_without_readme_row_is_flagged(self, repo):
        stub = "\n".join(
            line
            for line in _readme_stub().splitlines()
            if "`serve`" not in line
        )
        (repo / "README.md").write_text(stub + "\n")
        assert any("'repro serve' has no row" in f for f in _findings(repo))

    def test_unknown_tool_row_is_flagged(self, repo):
        (repo / "README.md").write_text(
            _readme_stub() + "| `transmogrify` | not a tool |\n"
        )
        assert any("'transmogrify'" in f for f in _findings(repo))

    def test_unknown_flag_in_tool_row_is_flagged(self, repo):
        (repo / "README.md").write_text(
            _readme_stub()
            + "| `serve` | with `--warp-speed 9` | example |\n"
        )
        assert any("'--warp-speed'" in f for f in _findings(repo))

    def test_real_flag_in_tool_row_passes(self, repo):
        (repo / "README.md").write_text(
            _readme_stub()
            + "| `serve --workers` | pool size | `repro serve --port 0` |\n"
        )
        assert _findings(repo) == []

    def test_filename_rows_are_not_commands(self, repo):
        (repo / "README.md").write_text(
            _readme_stub() + "| `quickstart.py` | an example file |\n"
        )
        assert _findings(repo) == []

    def test_placeholder_and_list_rows_are_exempt(self, repo):
        (repo / "README.md").write_text(
            _readme_stub()
            + "| `<figN>` / `all` | regenerate |\n| `list` | list |\n"
        )
        assert _findings(repo) == []


class TestMain:
    def test_exit_zero_when_clean(self, repo, capsys):
        assert main([str(repo)]) == 0
        assert "docs-check: OK" in capsys.readouterr().out

    def test_exit_one_on_findings(self, repo, capsys):
        (repo / "docs" / "guide.md").write_text("src/repro/nope.py\n")
        assert main([str(repo)]) == 1
        out = capsys.readouterr().out
        assert "docs-check: FAIL" in out
        assert "guide.md:1" in out

    def test_exit_one_without_docs_dir(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 1
        assert "no docs/" in capsys.readouterr().err


class TestRealRepo:
    def test_shipped_docs_are_clean(self):
        assert _findings(REPO_ROOT) == []
