"""Docs/code cross-checker: keep the prose honest (CI ``docs`` job).

Scans ``docs/*.md`` and ``README.md`` and fails when documentation
references drift from the code:

* ``src/repro/...`` file paths that do not exist in the repository;
* relative markdown links (``[text](path)``) whose target is missing;
* analysis rule IDs (``LAT001`` .. ``AUD011``) absent from the
  :data:`repro.analysis.registry.RULES` registry;
* ``rispp_*`` metric names absent from the :mod:`repro.obs` catalogue;
* catalogue metrics *not documented* in ``docs/observability.md`` — the
  metric table must cover every declared family;
* the runtime event taxonomy against ``docs/events.md`` — every event
  type documented, no stale event names;
* the service surface against ``docs/serving.md`` — every endpoint of
  :data:`repro.serve.ENDPOINTS` and every scenario field documented,
  no phantom endpoints;
* the README CLI table against :data:`repro.cli.TOOL_COMMANDS` — every
  tool has a row, every row names a real tool, and every ``--flag`` a
  row shows exists in that tool's ``--help``.

Fenced code blocks are skipped for the rule-ID and metric-name checks:
examples there may legitimately show invalid IDs (e.g. the "unknown
rule" error message in ``docs/analysis.md``).

Run as ``python -m repro.analysis.docs_check [repo_root]``; exit code 0
when clean, 1 when any finding is reported.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from pathlib import Path

#: Families of rule IDs the analysis registries declare, plus the
#: retired ``EVT`` family, so a stale mention of it is flagged too.
_RULE_ID = re.compile(r"\b(?:LAT|LIB|CFG|FC|SCH|ROT|TRC|FEA|MC|AUD|EVT)\d{3}\b")
#: Exported metric names (the ``rispp_`` namespace) as written in prose.
_METRIC_NAME = re.compile(r"\brispp_[a-z][a-z0-9_]*\b")
#: Literal repository paths under the package root.
_SRC_PATH = re.compile(r"\bsrc/repro/[A-Za-z0-9_/.-]*[A-Za-z0-9_]")
#: Markdown inline links: [text](target).
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^\s*(```|~~~)")

#: Metric-name suffixes Prometheus synthesises for histograms; they are
#: valid in prose even though the catalogue only declares the base name.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


@dataclass(frozen=True)
class Finding:
    """One documentation defect."""

    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


def _doc_files(root: Path) -> list[Path]:
    files = sorted((root / "docs").glob("*.md"))
    readme = root / "README.md"
    if readme.exists():
        files.append(readme)
    return files


def _iter_lines(path: Path) -> list[tuple[int, str, bool]]:
    """(line_number, text, inside_fenced_code_block) per line."""
    out: list[tuple[int, str, bool]] = []
    fenced = False
    for number, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if _FENCE.match(text):
            fenced = not fenced
            out.append((number, text, True))
            continue
        out.append((number, text, fenced))
    return out


def _known_metric_names() -> set[str]:
    from ..obs.catalogue import METRICS

    names: set[str] = set()
    for spec in METRICS.values():
        names.add(spec.full_name)
        if spec.type == "histogram":
            for suffix in _HISTOGRAM_SUFFIXES:
                names.add(spec.full_name + suffix)
    return names


def _code_identifiers(root: Path) -> set[str]:
    """``rispp_*`` identifiers appearing in the source tree.

    Docs legitimately reference code named ``rispp_*`` (e.g. the
    ``rispp_area``/``rispp_energy`` functions of ``repro.hardware``);
    exported metric names never appear literally in code (the
    ``rispp_`` namespace is prepended at export time), so a token found
    in the source is a code reference, not a stale metric name.
    """
    found: set[str] = set()
    src = root / "src" / "repro"
    if not src.is_dir():
        return found
    for path in sorted(src.rglob("*.py")):
        found.update(_METRIC_NAME.findall(path.read_text(encoding="utf-8")))
    return found


def _check_file(
    path: Path,
    root: Path,
    rule_ids: set[str],
    metric_names: set[str],
    code_names: set[str],
) -> list[Finding]:
    rel = path.relative_to(root).as_posix()
    findings: list[Finding] = []
    for number, text, fenced in _iter_lines(path):
        # Paths and links are checked everywhere — a code block quoting a
        # nonexistent file is just as stale as prose doing it.
        for match in _SRC_PATH.finditer(text):
            target = match.group(0)
            if not (root / target).exists():
                findings.append(
                    Finding(rel, number, f"path {target!r} does not exist")
                )
        for match in _MD_LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                findings.append(
                    Finding(rel, number, f"broken link target {target!r}")
                )
        if fenced:
            continue
        for match in _RULE_ID.finditer(text):
            rule = match.group(0)
            if rule not in rule_ids:
                findings.append(
                    Finding(rel, number, f"unknown rule ID {rule!r}")
                )
        for match in _METRIC_NAME.finditer(text):
            name = match.group(0)
            if name not in metric_names and name not in code_names:
                findings.append(
                    Finding(
                        rel, number,
                        f"metric {name!r} is not declared in the "
                        "repro.obs catalogue",
                    )
                )
    return findings


def _check_observability_coverage(root: Path) -> list[Finding]:
    """Every declared metric family must appear in docs/observability.md."""
    from ..obs.catalogue import METRICS

    doc = root / "docs" / "observability.md"
    rel = doc.relative_to(root).as_posix()
    if not doc.exists():
        return [
            Finding(
                rel, 1,
                "docs/observability.md is missing; it must catalogue "
                f"all {len(METRICS)} declared metrics",
            )
        ]
    text = doc.read_text(encoding="utf-8")
    findings: list[Finding] = []
    for spec in METRICS.values():
        if spec.full_name not in text:
            findings.append(
                Finding(
                    rel, 1,
                    f"declared metric {spec.full_name!r} is not "
                    "documented in the metric catalogue",
                )
            )
    return findings


#: Rule families whose every member must appear in ``docs/analysis.md``
#: (the verifier TRC/FEA, model-checker MC and source-audit AUD
#: catalogues live there; the remaining lint families are documented
#: per-module).
_DOCUMENTED_FAMILIES = ("trace", "feasibility", "explore", "audit")


def _check_rule_coverage(root: Path) -> list[Finding]:
    """Every TRC/FEA/MC/AUD rule must appear in docs/analysis.md."""
    from .registry import rules_of_family

    doc = root / "docs" / "analysis.md"
    rel = doc.relative_to(root).as_posix()
    rules = [r for fam in _DOCUMENTED_FAMILIES for r in rules_of_family(fam)]
    if not doc.exists():
        return [
            Finding(
                rel, 1,
                "docs/analysis.md is missing; it must catalogue the "
                f"{len(rules)} verifier/model-checking/audit rules",
            )
        ]
    text = doc.read_text(encoding="utf-8")
    findings: list[Finding] = []
    for r in rules:
        if r.rule_id not in text:
            findings.append(
                Finding(
                    rel, 1,
                    f"declared {r.family} rule {r.rule_id!r} is not "
                    "documented in the rule catalogue",
                )
            )
    return findings


#: Backticked identifiers in ``docs/events.md`` that look like event
#: names (CamelCase ending in the taxonomy's participle vocabulary).
_EVENTISH = re.compile(
    r"`([A-Z][A-Za-z]*(?:Fired|Ended|Executed|Switched|Requested|Completed"
    r"|Reallocated|Failed|Injected|Detected|Quarantined|Repaired|Retried))`"
)


def _check_events_coverage(root: Path) -> list[Finding]:
    """``docs/events.md`` ↔ the live taxonomy, both directions.

    Forward: every event type must appear in the doc.  Reverse: every
    backticked event-like token in the doc must be in
    :data:`repro.runtime.events.EVENT_TYPES`.
    """
    from ..runtime import events as ev

    doc = root / "docs" / "events.md"
    rel = doc.relative_to(root).as_posix()
    event_names = {t.__name__ for t in ev.EVENT_TYPES}
    if not doc.exists():
        return [
            Finding(
                rel, 1,
                "docs/events.md is missing; it must document the "
                f"{len(event_names)}-event taxonomy",
            )
        ]
    findings: list[Finding] = []
    text = doc.read_text(encoding="utf-8")
    for name in sorted(event_names):
        if name not in text:
            findings.append(
                Finding(rel, 1, f"runtime event {name!r} is not documented")
            )
    for number, line, fenced in _iter_lines(doc):
        if fenced:
            continue
        for match in _EVENTISH.finditer(line):
            if match.group(1) not in event_names:
                findings.append(
                    Finding(
                        rel, number,
                        f"unknown runtime event {match.group(1)!r}; the "
                        "taxonomy is repro.runtime.events.EVENT_TYPES",
                    )
                )
    return findings


#: ``METHOD /path`` endpoint tokens as written in ``docs/serving.md``.
_ENDPOINTISH = re.compile(r"\b(GET|POST|PUT|DELETE|PATCH|HEAD)\s+(/[a-z]*)")


def _check_serving_coverage(root: Path) -> list[Finding]:
    """``docs/serving.md`` ↔ the daemon surface, both directions.

    Forward: every endpoint of :data:`repro.serve.ENDPOINTS` and every
    scenario field of :data:`repro.serve.SCENARIO_DEFAULTS` must appear
    in the doc.  Reverse: every ``METHOD /path`` token the doc shows
    must be a real endpoint.
    """
    from ..serve import ENDPOINTS, SCENARIO_DEFAULTS

    doc = root / "docs" / "serving.md"
    rel = doc.relative_to(root).as_posix()
    endpoints = {(method, path) for method, path, _ in ENDPOINTS}
    if not doc.exists():
        return [
            Finding(
                rel, 1,
                "docs/serving.md is missing; it must document the "
                f"{len(endpoints)} service endpoints",
            )
        ]
    findings: list[Finding] = []
    text = doc.read_text(encoding="utf-8")
    for method, path in sorted(endpoints):
        if f"{method} {path}" not in text:
            findings.append(
                Finding(
                    rel, 1,
                    f"endpoint '{method} {path}' is not documented",
                )
            )
    for field in sorted(SCENARIO_DEFAULTS):
        if f"`{field}`" not in text:
            findings.append(
                Finding(
                    rel, 1,
                    f"scenario request field {field!r} is not documented",
                )
            )
    for number, line, _fenced in _iter_lines(doc):
        # Endpoint tokens are checked inside code fences too: a fenced
        # curl example hitting a phantom endpoint is exactly the drift
        # this check exists to catch.
        for match in _ENDPOINTISH.finditer(line):
            if (match.group(1), match.group(2)) not in endpoints:
                findings.append(
                    Finding(
                        rel, number,
                        f"unknown endpoint '{match.group(1)} "
                        f"{match.group(2)}'; the surface is "
                        "repro.serve.ENDPOINTS",
                    )
                )
    return findings


#: CLI long flags (``--flag``) as written in README table rows.
_FLAG = re.compile(r"--[a-z][a-z0-9-]*")
#: Non-tool README table commands that need no TOOL_COMMANDS entry.
_CLI_EXTRAS = frozenset({"list", "all"})


def _check_cli_surface(root: Path) -> list[Finding]:
    """README CLI table ↔ :data:`repro.cli.TOOL_COMMANDS`, both directions.

    Every tool command must have a table row; every row's command must
    be a real tool (or ``list``/``all``/a ``<figN>`` placeholder); every
    ``--flag`` a tool's row mentions must appear in that tool's
    ``--help`` output.
    """
    from ..cli import TOOL_COMMANDS, tool_help

    readme = root / "README.md"
    rel = "README.md"
    if not readme.exists():
        return [Finding(rel, 1, "README.md is missing")]
    findings: list[Finding] = []
    seen: set[str] = set()
    help_flags: dict[str, set[str]] = {}
    for number, line, fenced in _iter_lines(readme):
        if fenced or not line.lstrip().startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not cells or not cells[0].startswith("`"):
            continue
        first = re.match(r"`([^`]+)`", cells[0])
        if first is None:
            continue
        words = first.group(1).split()
        command = words[0]
        # Only command-shaped tokens: README also tables filenames
        # (examples/) and paths, which are not CLI rows.
        if "." in command or "/" in command:
            continue
        if command.startswith("<") or command in _CLI_EXTRAS:
            continue
        if command not in TOOL_COMMANDS:
            findings.append(
                Finding(
                    rel, number,
                    f"CLI table row names unknown tool {command!r}; "
                    "the surface is repro.cli.TOOL_COMMANDS",
                )
            )
            continue
        seen.add(command)
        if command not in help_flags:
            help_flags[command] = set(_FLAG.findall(tool_help(command)))
        for flag in _FLAG.findall(line):
            if flag not in help_flags[command]:
                findings.append(
                    Finding(
                        rel, number,
                        f"flag {flag!r} is not accepted by "
                        f"'repro {command}' (per its --help)",
                    )
                )
    for command in sorted(set(TOOL_COMMANDS) - seen):
        findings.append(
            Finding(
                rel, 1,
                f"tool 'repro {command}' has no row in the README "
                "CLI table",
            )
        )
    return findings


def check_docs(root: Path) -> list[Finding]:
    """All documentation findings for the repository at ``root``."""
    from .registry import RULES

    rule_ids = set(RULES)
    metric_names = _known_metric_names()
    code_names = _code_identifiers(root)
    findings: list[Finding] = []
    for path in _doc_files(root):
        findings.extend(
            _check_file(path, root, rule_ids, metric_names, code_names)
        )
    findings.extend(_check_observability_coverage(root))
    findings.extend(_check_rule_coverage(root))
    findings.extend(_check_events_coverage(root))
    findings.extend(_check_serving_coverage(root))
    findings.extend(_check_cli_surface(root))
    return findings


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    root = Path(args[0]) if args else Path.cwd()
    if not (root / "docs").is_dir():
        print(f"docs-check: no docs/ directory under {root}", file=sys.stderr)
        return 1
    findings = check_docs(root)
    for finding in findings:
        print(finding.render())
    checked = ", ".join(p.name for p in _doc_files(root))
    status = "FAIL" if findings else "OK"
    print(f"docs-check: {status} ({len(findings)} finding(s); checked {checked})")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
