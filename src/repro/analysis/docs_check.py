"""Docs/code cross-checker: keep the prose honest.

Scans ``docs/*.md`` and ``README.md`` and reports where the docs drift
from the code.  Each documented surface is one :class:`Surface` row:

* rule IDs (:data:`repro.analysis.rules.RULES`), home ``docs/analysis.md``;
* metrics (:data:`repro.obs.catalogue.METRICS`), home
  ``docs/observability.md``;
* runtime events (:data:`repro.runtime.events.EVENT_TYPES`), home
  ``docs/events.md``;
* endpoints (:data:`repro.serve.ENDPOINTS`), home ``docs/serving.md``;
* scenario request fields (:class:`repro.serve.ScenarioRequest`), home
  ``docs/serving.md``.

:func:`_check_surface` runs two checks per row: every name the code
declares must appear in the row's home doc (a missing home doc reads as
empty, so each name is reported), and every name-shaped token in any
doc must be known to the code.  Fenced code is read too, except for
rule IDs: ``docs/analysis.md`` shows an unknown rule ID as an error
example.  Scenario request fields are backticked lowercase words, a
shape too common to claim in other docs, so only the first check runs
for them.

Two checks stand outside the table: ``src/repro/...`` paths and
relative markdown links must resolve (fences included), and the README
CLI table must match :data:`repro.cli.TOOL_COMMANDS` — every tool has a
row, every row names a real tool, and every ``--flag`` a row shows is in
that tool's ``--help``.

Run as ``python -m repro.analysis.docs_check [repo_root]``; exit code 0
when clean, 1 when any finding is reported.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

#: A doc as read: ``(line_number, text, inside_fenced_code_block)``.
Lines = list[tuple[int, str, bool]]

#: Literal repository paths under the package root.
_SRC_PATH = re.compile(r"\bsrc/repro/[A-Za-z0-9_/.-]*[A-Za-z0-9_]")
#: Markdown inline links: [text](target).
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^\s*(```|~~~)")
#: Exported metric names (the ``rispp_`` namespace) as written in prose.
_METRIC_NAME = re.compile(r"\b(rispp_[a-z][a-z0-9_]*)\b")

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


@dataclass(frozen=True)
class Surface:
    """One documented surface: what the code declares and how docs name it."""

    #: What a name is, as findings call it ("runtime event").
    what: str
    #: Where the known names are declared, as findings point to it.
    declared_in: str
    #: The doc (relative to the repo root) that must list every required name.
    home: str
    #: The names the home doc must contain.
    required: frozenset[str]
    #: The names any doc may mention; ``None`` skips the reverse check.
    known: frozenset[str] | None
    #: A name as written in the docs; group 1 is the name.
    token: re.Pattern[str]
    #: Whether names inside fenced code blocks are read.
    fenced: bool


def _surfaces(root: Path) -> tuple[Surface, ...]:
    """The documented surfaces, one row each."""
    from ..obs.catalogue import METRICS
    from ..runtime.events import EVENT_TYPES
    from ..serve.daemon import ENDPOINTS
    from ..serve.facade import ScenarioRequest
    from .rules import RULES

    metrics = frozenset(spec.full_name for spec in METRICS.values())
    histograms = [s.full_name for s in METRICS.values() if s.type == "histogram"]
    events = frozenset(t.__name__ for t in EVENT_TYPES)
    endpoints = frozenset(f"{method} {path}" for method, path, _ in ENDPOINTS)
    return (
        Surface(
            "rule ID", "repro.analysis.rules.RULES", "docs/analysis.md",
            frozenset(RULES), frozenset(RULES),
            # The retired EVT, LAT and ROT families are matched too, so
            # a stale mention of them is flagged.
            re.compile(
                r"\b((?:LAT|LIB|CFG|FC|SCH|ROT|TRC|FEA|MC|AUD|EVT)\d{3})\b"
            ),
            fenced=False,
        ),
        Surface(
            "metric", "repro.obs.catalogue.METRICS", "docs/observability.md",
            metrics,
            metrics
            | {name + suffix for name in histograms
               for suffix in _HISTOGRAM_SUFFIXES}
            | _code_identifiers(root),
            _METRIC_NAME,
            fenced=True,
        ),
        Surface(
            "runtime event", "repro.runtime.events.EVENT_TYPES",
            "docs/events.md", events, events,
            # A backticked CamelCase name ending in a past participle.
            re.compile(r"`([A-Z][A-Za-z]*ed)`"),
            fenced=True,
        ),
        Surface(
            "endpoint", "repro.serve.ENDPOINTS", "docs/serving.md",
            endpoints, endpoints,
            re.compile(r"\b((?:GET|POST|PUT|DELETE|PATCH|HEAD) /[a-z]*)"),
            fenced=True,
        ),
        Surface(
            "scenario request field", "repro.serve.ScenarioRequest",
            "docs/serving.md",
            frozenset(f.name for f in fields(ScenarioRequest)), None,
            re.compile(r"`([a-z][a-z0-9_]*)`"),
            fenced=True,
        ),
    )


def _code_identifiers(root: Path) -> frozenset[str]:
    """``rispp_*`` identifiers appearing in the source tree.

    Docs legitimately reference code named ``rispp_*`` (e.g. the
    ``rispp_area``/``rispp_energy`` functions of ``repro.hardware``);
    exported metric names never appear literally in code (the
    ``rispp_`` namespace is prepended at export time), so a token found
    in the source is a code reference, not a stale metric name.
    """
    return frozenset(
        name
        for path in sorted((root / "src" / "repro").rglob("*.py"))
        for name in _METRIC_NAME.findall(path.read_text(encoding="utf-8"))
    )


def _doc_files(root: Path) -> list[Path]:
    files = sorted((root / "docs").glob("*.md"))
    readme = root / "README.md"
    if readme.exists():
        files.append(readme)
    return files


def _read_lines(path: Path) -> Lines:
    """Each line of ``path`` with its fence flag."""
    out: Lines = []
    fenced = False
    for number, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if _FENCE.match(text):
            fenced = not fenced
            out.append((number, text, True))
            continue
        out.append((number, text, fenced))
    return out


def _check_surface(surface: Surface, docs: dict[str, Lines]) -> list[Finding]:
    """Both directions of one surface over every doc."""
    findings: list[Finding] = []
    in_home: set[str] = set()
    for rel, lines in docs.items():
        for number, text, fenced in lines:
            if fenced and not surface.fenced:
                continue
            for match in surface.token.finditer(text):
                name = match.group(1)
                if rel == surface.home:
                    in_home.add(name)
                if surface.known is not None and name not in surface.known:
                    findings.append(
                        Finding(
                            rel, number,
                            f"unknown {surface.what} {name!r}; the declared "
                            f"set is {surface.declared_in}",
                        )
                    )
    for name in sorted(surface.required - in_home):
        findings.append(
            Finding(
                surface.home, 1,
                f"{surface.what} {name!r} is not documented in {surface.home}",
            )
        )
    return findings


def _check_paths_and_links(rel: str, lines: Lines, root: Path) -> list[Finding]:
    # Checked everywhere: a code block quoting a nonexistent file is
    # just as stale as prose doing it.
    findings: list[Finding] = []
    for number, text, _fenced in lines:
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
            resolved = (root / rel).parent / target.split("#", 1)[0]
            if not resolved.exists():
                findings.append(
                    Finding(rel, number, f"broken link target {target!r}")
                )
    return findings


#: CLI long flags (``--flag``) as written in README table rows.
_FLAG = re.compile(r"--[a-z][a-z0-9-]*")
#: Non-tool README table commands that need no TOOL_COMMANDS entry.
_CLI_EXTRAS = frozenset({"list", "all"})


def _check_cli_surface(readme: Lines) -> list[Finding]:
    """README CLI table ↔ :data:`repro.cli.TOOL_COMMANDS`, both directions.

    Every tool command must have a table row; every row's command must
    be a real tool (or ``list``/``all``/a ``<figN>`` placeholder); every
    ``--flag`` a tool's row mentions must appear in that tool's
    ``--help`` output.
    """
    from ..cli import TOOL_COMMANDS, tool_help

    rel = "README.md"
    findings: list[Finding] = []
    seen: set[str] = set()
    help_flags: dict[str, set[str]] = {}
    for number, line, fenced in readme:
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
    docs = {
        path.relative_to(root).as_posix(): _read_lines(path)
        for path in _doc_files(root)
    }
    findings: list[Finding] = []
    for rel, lines in docs.items():
        findings.extend(_check_paths_and_links(rel, lines, root))
    for surface in _surfaces(root):
        findings.extend(_check_surface(surface, docs))
    findings.extend(_check_cli_surface(docs.get("README.md", [])))
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
