"""Tests for rispp-audit, the AST-level source-contract analyzer.

Every AUD rule gets at least one positive (planted violation caught)
and one negative (conforming code stays clean) case over synthetic
source trees, plus the acceptance-critical planted violations that must
each be caught by *exactly* the intended rule.  The real ``src/repro``
tree must audit clean modulo the checked-in baseline.
"""

import json
import textwrap

import pytest

from repro.analysis.audit import (
    Baseline,
    Suppression,
    package_root,
    run_audit,
)


def audit_tree(tmp_path, files, baseline=None):
    """Write a synthetic tree and audit it."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_audit(tmp_path, baseline=baseline)


# ---------------------------------------------------------------------------
# AUD001: unseeded randomness / entropy sources
# ---------------------------------------------------------------------------


class TestAUD001Randomness:
    @pytest.mark.parametrize(
        "body",
        [
            "import random\nx = random.random()\n",
            "import random\nrng = random.Random()\n",
            "import random\nrandom.seed(3)\n",
            "from random import shuffle\n",
            "import secrets\nt = secrets.token_bytes(8)\n",
            "import os\nb = os.urandom(8)\n",
            "import uuid\nu = uuid.uuid4()\n",
            "import numpy as np\nx = np.random.rand(3)\n",
            "import numpy as np\nrng = np.random.default_rng()\n",
        ],
    )
    def test_entropy_sources_flagged(self, tmp_path, body):
        result = audit_tree(tmp_path, {"mod.py": body})
        assert result.report.rule_ids() == ["AUD001"]

    @pytest.mark.parametrize(
        "body",
        [
            "import random\nrng = random.Random(42)\n",
            "from random import Random\n",
            "import numpy as np\nrng = np.random.default_rng(7)\n",
            "import uuid\nu = uuid.UUID(int=0)\n",
            "import os\np = os.path.join('a', 'b')\n",
        ],
    )
    def test_seeded_and_benign_uses_clean(self, tmp_path, body):
        result = audit_tree(tmp_path, {"mod.py": body})
        assert result.report.clean(), result.report.render_text()

    def test_planted_unseeded_random_in_model_path(self, tmp_path):
        """Acceptance: unseeded random.random() caught by exactly AUD001."""
        result = audit_tree(
            tmp_path,
            {
                "runtime/planner.py": """\
                import random


                def pick_candidate(candidates):
                    return candidates[int(random.random() * len(candidates))]
                """
            },
        )
        assert result.report.rule_ids() == ["AUD001"]
        (finding,) = result.report.diagnostics
        assert finding.subject == "runtime/planner.py"
        assert finding.context["symbol"] == "pick_candidate"


# ---------------------------------------------------------------------------
# AUD002: wall-clock reads outside the seam
# ---------------------------------------------------------------------------


class TestAUD002WallClock:
    @pytest.mark.parametrize(
        "body",
        [
            "import time\nt = time.perf_counter()\n",
            "import time\ns = time.strftime('%Y')\n",
            "from time import perf_counter\n",
            "from datetime import datetime\nnow = datetime.now()\n",
            "import datetime\nd = datetime.date.today()\n",
        ],
    )
    def test_clock_reads_flagged(self, tmp_path, body):
        result = audit_tree(tmp_path, {"mod.py": body})
        assert result.report.rule_ids() == ["AUD002"]

    def test_clock_seam_file_is_allowlisted(self, tmp_path):
        result = audit_tree(
            tmp_path,
            {"obs/clock.py": "import time\n\n\ndef pc():\n    return time.perf_counter()\n"},
        )
        assert result.report.clean(), result.report.render_text()

    def test_importing_the_seam_is_clean(self, tmp_path):
        result = audit_tree(
            tmp_path,
            {"mod.py": "from repro.obs.clock import perf_counter\nt = perf_counter()\n"},
        )
        assert result.report.clean(), result.report.render_text()

    def test_non_clock_datetime_use_clean(self, tmp_path):
        result = audit_tree(
            tmp_path,
            {"mod.py": "from datetime import datetime\nd = datetime(2007, 6, 4)\n"},
        )
        assert result.report.clean(), result.report.render_text()


# ---------------------------------------------------------------------------
# AUD003: environment reads
# ---------------------------------------------------------------------------


class TestAUD003Environment:
    @pytest.mark.parametrize(
        "body",
        [
            "import os\nv = os.environ.get('X')\n",
            "import os\nv = os.environ['X']\n",
            "import os\nv = os.getenv('X', 'd')\n",
            "from os import environ\n",
        ],
    )
    def test_environment_reads_flagged(self, tmp_path, body):
        result = audit_tree(tmp_path, {"mod.py": body})
        assert result.report.rule_ids() == ["AUD003"]

    def test_other_os_uses_clean(self, tmp_path):
        result = audit_tree(
            tmp_path,
            {"mod.py": "import os\np = os.path.basename('a/b')\nsep = os.sep\n"},
        )
        assert result.report.clean(), result.report.render_text()


# ---------------------------------------------------------------------------
# AUD004: order-sensitive iteration over sets
# ---------------------------------------------------------------------------


class TestAUD004SetIteration:
    @pytest.mark.parametrize(
        "body",
        [
            "s = {1, 2, 3}\nfor x in s:\n    print(x)\n",
            "s = set()\nout = [x for x in s]\n",
            "s = frozenset({1})\nout = list(s)\n",
            "def f(a, b):\n    for x in set(a) | set(b):\n        print(x)\n",
            "s = {'a'}\ntext = ','.join(s)\n",
            "s = {1}\npairs = {x: 0 for x in s}\n",
            "s = {1}\nt = tuple(s)\n",
        ],
    )
    def test_order_sensitive_sinks_flagged(self, tmp_path, body):
        result = audit_tree(tmp_path, {"mod.py": body})
        assert result.report.rule_ids() == ["AUD004"]

    @pytest.mark.parametrize(
        "body",
        [
            "s = {1, 2}\nfor x in sorted(s):\n    print(x)\n",
            "s = {1, 2}\ntotal = sum(x for x in s)\n",
            "s = {1, 2}\nm = max(s)\n",
            "s = {1, 2}\nt = {x * 2 for x in s}\n",
            "s = {1, 2}\nok = 1 in s\n",
            "s = {1, 2}\ns = [1, 2]\nout = list(s)\n",
            "items = [3, 1]\nout = list(items)\n",
        ],
    )
    def test_order_free_uses_clean(self, tmp_path, body):
        result = audit_tree(tmp_path, {"mod.py": body})
        assert result.report.clean(), result.report.render_text()

    def test_module_set_iterated_inside_function_is_flagged(self, tmp_path):
        result = audit_tree(
            tmp_path,
            {"mod.py": "KINDS = {'a', 'b'}\n\n\ndef f():\n    return [k for k in KINDS]\n"},
        )
        assert result.report.rule_ids() == ["AUD004"]

    def test_shadowing_local_suppresses_module_set(self, tmp_path):
        result = audit_tree(
            tmp_path,
            {
                "mod.py": (
                    "KINDS = {'a', 'b'}\n\n\n"
                    "def f():\n    KINDS = ['a', 'b']\n    return [k for k in KINDS]\n"
                )
            },
        )
        assert result.report.clean(), result.report.render_text()


# ---------------------------------------------------------------------------
# AUD006: dead catalogue entries
# ---------------------------------------------------------------------------


class TestAUD006DeadMetric:
    def test_unused_metrics_flagged_when_catalogue_in_tree(self, tmp_path):
        result = audit_tree(
            tmp_path,
            {"obs/catalogue.py": "METRICS = {}\n"},
        )
        assert set(result.report.rule_ids()) == {"AUD006"}
        flagged = {d.context["metric"] for d in result.report.by_rule("AUD006")}
        assert "si_executions_total" in flagged

    def test_instrumented_metrics_not_flagged(self, tmp_path):
        result = audit_tree(
            tmp_path,
            {
                "obs/catalogue.py": "METRICS = {}\n",
                "mod.py": "def f(reg):\n    reg.counter('si_executions_total')\n",
            },
        )
        flagged = {d.context["metric"] for d in result.report.by_rule("AUD006")}
        assert flagged and "si_executions_total" not in flagged

    def test_no_catalogue_in_tree_no_dead_metric_findings(self, tmp_path):
        result = audit_tree(tmp_path, {"mod.py": "x = 1\n"})
        assert result.report.clean()


# ---------------------------------------------------------------------------
# AUD008: dead rules
# ---------------------------------------------------------------------------


class TestAUD008DeadRules:
    def test_unreferenced_rules_flagged_when_registry_in_tree(self, tmp_path):
        result = audit_tree(
            tmp_path,
            {"analysis/rules.py": "RULES = {}\n"},
        )
        assert set(result.report.rule_ids()) == {"AUD008"}
        flagged = {d.context["rule"] for d in result.report.by_rule("AUD008")}
        assert "LAT001" in flagged

    def test_referenced_rules_not_flagged(self, tmp_path):
        result = audit_tree(
            tmp_path,
            {
                "analysis/rules.py": "RULES = {}\n",
                "checker.py": "IDS = ['LAT001']\n",
            },
        )
        assert "LAT001" not in {
            d.context["rule"] for d in result.report.by_rule("AUD008")
        }


# ---------------------------------------------------------------------------
# Baseline handling (incl. AUD011)
# ---------------------------------------------------------------------------


class TestBaseline:
    def _tree(self):
        return {"mod.py": "import os\nv = os.getenv('X')\n"}

    def test_matching_suppression_hides_finding(self, tmp_path):
        baseline = Baseline(
            entries=[Suppression("AUD003", "mod.py", "<module>", "documented")]
        )
        result = audit_tree(tmp_path, self._tree(), baseline=baseline)
        assert result.report.clean(), result.report.render_text()
        assert result.suppressed == 1

    def test_stale_suppression_warns_aud011(self, tmp_path):
        baseline = Baseline(
            entries=[Suppression("AUD001", "gone.py", "nope", "stale entry")]
        )
        result = audit_tree(tmp_path, self._tree(), baseline=baseline)
        assert set(result.report.rule_ids()) == {"AUD003", "AUD011"}
        assert result.stale_suppressions == baseline.entries
        # AUD011 is a warning: it must not flip a clean run to exit 1.
        assert result.report.by_rule("AUD011")[0].severity.name == "WARNING"

    def test_baseline_file_round_trip(self, tmp_path):
        path = tmp_path / "audit_baseline.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "suppressions": [
                        {
                            "rule": "AUD003",
                            "path": "mod.py",
                            "symbol": "<module>",
                            "reason": "documented exception",
                        }
                    ],
                }
            )
        )
        result = audit_tree(tmp_path, self._tree(), baseline=path)
        assert result.report.clean()
        assert result.baseline_path == str(path)

    def test_auto_baseline_discovered_at_root(self, tmp_path):
        (tmp_path / "audit_baseline.json").write_text(
            json.dumps(
                {
                    "suppressions": [
                        {
                            "rule": "AUD003",
                            "path": "mod.py",
                            "symbol": "<module>",
                            "reason": "documented exception",
                        }
                    ]
                }
            )
        )
        result = audit_tree(tmp_path, self._tree(), baseline="auto")
        assert result.report.clean()
        assert result.suppressed == 1

    def test_baseline_without_reason_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"suppressions": [{"rule": "AUD003", "path": "m", "symbol": "s"}]}
            )
        )
        with pytest.raises(ValueError, match="documented"):
            Baseline.load(path)

    def test_baseline_empty_reason_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "suppressions": [
                        {"rule": "AUD003", "path": "m", "symbol": "s", "reason": "  "}
                    ]
                }
            )
        )
        with pytest.raises(ValueError, match="empty reason"):
            Baseline.load(path)


# ---------------------------------------------------------------------------
# The real tree
# ---------------------------------------------------------------------------


class TestRealTree:
    def test_src_repro_audits_clean_with_baseline(self):
        result = run_audit()
        assert result.report.clean(), result.report.render_text()
        assert result.exit_code() == 0
        assert result.files_scanned > 50

    def test_baseline_suppressions_are_minimal_and_live(self):
        result = run_audit()
        # Exactly the documented REPRO_BACKEND env read, nothing else.
        assert result.suppressed == 1
        assert result.stale_suppressions == []

    def test_without_baseline_only_documented_findings_remain(self):
        result = run_audit(baseline=None)
        assert result.report.rule_ids() == ["AUD003"]
        (finding,) = result.report.diagnostics
        assert finding.subject == "src/repro/core/backend.py"
        assert finding.context["symbol"] == "default_backend"

    def test_display_paths_are_repo_relative(self):
        result = run_audit(baseline=None)
        assert package_root().name == "repro"
        assert all(
            d.subject.startswith("src/repro/") for d in result.report.diagnostics
        )
