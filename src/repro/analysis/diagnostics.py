"""Diagnostic primitives of the RISPP invariant checker ("rispp-lint").

A :class:`Diagnostic` is one finding of a static check: a stable rule ID
(``LAT003``, ``CFG004``, ...), a severity, a human-readable message, and
enough location/context information to find the offending artifact
without re-running the check.  :class:`DiagnosticReport` is an ordered
collection with the aggregation helpers the CLI, the integration layer
and the tests consume (text / JSON rendering, exit codes, fail-fast).

Severity semantics follow the usual compiler convention:

* ``ERROR``   — a paper invariant is violated; simulations built on the
  artifact would compute garbage.  Drivers fail fast on these.
* ``WARNING`` — the artifact is usable but suspicious (dead molecules,
  unreachable blocks, non-amortisable rotations).
* ``INFO``    — neutral observations, never affects exit codes.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Mapping


class Severity(enum.IntEnum):
    """Diagnostic severity; ordered so ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static check.

    Parameters
    ----------
    rule_id:
        Stable identifier from the rule catalogue (``docs/analysis.md``).
    severity:
        How bad the finding is (see module docstring).
    message:
        Human-readable description, self-contained.
    subject:
        The artifact the check ran on (e.g. ``"library:h264"``).
    location:
        Where inside the subject (e.g. ``"SI SATD_4x4 / molecule 2"``).
    context:
        Structured details for programmatic consumers (JSON-safe values).
    """

    rule_id: str
    severity: Severity
    message: str
    subject: str = ""
    location: str = ""
    context: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """A JSON-safe dictionary representation."""
        return {
            "rule_id": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
            "subject": self.subject,
            "location": self.location,
            "context": dict(self.context),
        }

    def render(self) -> str:
        """One-line text rendering: ``severity RULE [subject] location: msg``."""
        where = " ".join(p for p in (self.subject, self.location) if p)
        prefix = f"{self.severity}: {self.rule_id}"
        return f"{prefix} [{where}] {self.message}" if where else f"{prefix} {self.message}"

    def __str__(self) -> str:
        return self.render()


class LintError(ValueError):
    """Raised by fail-fast drivers when a report contains ERROR diagnostics.

    Subclasses ``ValueError`` so callers that already guard artifact
    validation with ``except ValueError`` keep working.
    """

    def __init__(self, report: "DiagnosticReport"):
        self.report = report
        errors = report.errors()
        lines = [d.render() for d in errors]
        super().__init__(
            f"{len(errors)} invariant violation(s):\n" + "\n".join(lines)
        )


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with aggregation helpers."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    # -- collection protocol -------------------------------------------------

    def append(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def merge(self, other: "DiagnosticReport") -> "DiagnosticReport":
        """Append another report's findings (returns ``self`` for chaining)."""
        self.diagnostics.extend(other.diagnostics)
        return self

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        # A report is truthy when it exists, regardless of findings;
        # use ``ok()`` / ``len()`` for content queries.
        return True

    # -- aggregation ---------------------------------------------------------

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    def ok(self) -> bool:
        """True when no ERROR-severity diagnostic is present."""
        return not self.errors()

    def clean(self) -> bool:
        """True when the report is entirely empty."""
        return not self.diagnostics

    def rule_ids(self) -> list[str]:
        """Rule IDs present, deduplicated, in first-seen order."""
        seen: dict[str, None] = {}
        for d in self.diagnostics:
            seen.setdefault(d.rule_id, None)
        return list(seen)

    def by_rule(self, rule_id: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule_id == rule_id]

    def filtered(
        self,
        *,
        select: "Iterable[str] | None" = None,
        ignore: "Iterable[str] | None" = None,
    ) -> "DiagnosticReport":
        """A new report narrowed to the given concrete rule IDs.

        ``select`` keeps only the named rules; ``ignore`` then drops its
        rules (ignore wins on overlap).  ``None`` means "no constraint".
        Callers expand user-facing prefixes into concrete IDs first (see
        :func:`repro.analysis.rules.expand_selectors`).
        """
        selected = set(select) if select is not None else None
        ignored = set(ignore) if ignore is not None else set()
        kept = [
            d
            for d in self.diagnostics
            if (selected is None or d.rule_id in selected)
            and d.rule_id not in ignored
        ]
        return DiagnosticReport(kept)

    def exit_code(self) -> int:
        """Process exit status: 1 when any ERROR is present, else 0."""
        return 1 if self.errors() else 0

    def raise_on_error(self) -> None:
        """Fail fast: raise :class:`LintError` when ERRORs are present."""
        if not self.ok():
            raise LintError(self)

    # -- rendering -----------------------------------------------------------

    def render_text(self, *, tool: str = "rispp-lint") -> str:
        """Multi-line human-readable rendering with a summary tail line."""
        lines = [d.render() for d in self.diagnostics]
        n_err, n_warn = len(self.errors()), len(self.warnings())
        if not self.diagnostics:
            lines.append(f"{tool}: all checks passed")
        else:
            lines.append(
                f"{tool}: {len(self.diagnostics)} finding(s) "
                f"({n_err} error(s), {n_warn} warning(s))"
            )
        return "\n".join(lines)

    def to_json(self, *, indent: int | None = 2) -> str:
        """JSON rendering."""
        payload = {
            "findings": [d.to_dict() for d in self.diagnostics],
            "summary": {
                "total": len(self.diagnostics),
                "errors": len(self.errors()),
                "warnings": len(self.warnings()),
                "rule_ids": self.rule_ids(),
                "exit_code": self.exit_code(),
            },
        }
        return json.dumps(payload, indent=indent)
