"""The rule-ID catalogue: one source of truth for every declared invariant.

rispp-lint (LAT/LIB/CFG/FC/SCH), rispp-verify (TRC/FEA) and
rispp-explore (MC) all judge artifacts against rules declared *here* —
one :class:`Rule` per invariant, with a stable ID, a default severity and
the paper section it formalises.  The CLIs' ``--select``/``--ignore``
flags, the ``--help`` epilogs and the docs cross-checker
(:mod:`.docs_check`) read this single catalogue, so a rule cannot exist
in one surface and be missing from another.  Gaps in a family's
numbering are retired rules; their IDs are never reused.

Checker *functions* live elsewhere (one ``check_*`` per artifact kind,
called by its ``lint_*`` helper in :mod:`.lint`; :mod:`.explore` holds
the model-checking drivers); this module is import-light on purpose so
CLI help and docs tooling can load the catalogue without pulling in the
domain packages.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from .diagnostics import Diagnostic, Severity


@dataclass(frozen=True)
class Rule:
    """One declared invariant."""

    rule_id: str
    family: str
    severity: Severity
    title: str
    paper_ref: str = ""


RULES: dict[str, Rule] = {}

#: Numeric tolerance of the lint checkers' probability sums and float
#: comparisons.
TOLERANCE = 1e-6


def _rule(rule_id: str, family: str, severity: Severity, title: str, paper_ref: str) -> None:
    if rule_id in RULES:  # pragma: no cover - catalogue authoring error
        raise ValueError(f"duplicate rule id {rule_id!r}")
    RULES[rule_id] = Rule(rule_id, family, severity, title, paper_ref)


# -- lattice family (§3.1 / §3.2): the Molecule vector algebra --------------
_rule("LAT003", "lattice", Severity.ERROR,
      "Rep(S) outside its lattice bounds [inf(S), sup(S)]", "§3.2")
_rule("LAT004", "lattice", Severity.ERROR,
      "molecule lives outside its SI's atom space", "§3.1")

# -- library family: SI/catalogue coherence ---------------------------------
_rule("LIB001", "library", Severity.ERROR,
      "SI has no usable software molecule", "§3.2")
_rule("LIB002", "library", Severity.ERROR,
      "SI built over a different atom space than its library", "§3.1")
_rule("LIB003", "library", Severity.WARNING,
      "hardware molecule is Pareto-dominated", "Fig. 13")
_rule("LIB004", "library", Severity.ERROR,
      "SI cannot fit the configured Atom Containers", "§3/§5")
_rule("LIB005", "library", Severity.WARNING,
      "hardware molecule exceeds the configured Atom Containers", "§3/§5")
_rule("LIB006", "library", Severity.WARNING,
      "hardware molecule not faster than the software molecule", "§4.1")
_rule("LIB007", "library", Severity.ERROR,
      "SI offers no hardware molecule", "§3.2")
_rule("LIB008", "library", Severity.WARNING,
      "atom kind unused by every SI of the library", "Fig. 2")

# -- cfg family (§4): profile well-formedness -------------------------------
_rule("CFG001", "cfg", Severity.ERROR,
      "entry block missing or unknown", "§4")
_rule("CFG002", "cfg", Severity.ERROR,
      "out-edge probabilities do not sum to 1", "§4.1")
_rule("CFG003", "cfg", Severity.ERROR,
      "edge probability outside [0, 1]", "§4.1")
_rule("CFG004", "cfg", Severity.WARNING,
      "block unreachable from the entry", "§4")
_rule("CFG006", "cfg", Severity.ERROR,
      "negative profile count", "§4.1")
_rule("CFG007", "cfg", Severity.WARNING,
      "profiled edge counts violate flow conservation", "§4.1")

# -- forecast family (§4.1/§4.2): FC placements -----------------------------
_rule("FC001", "forecast", Severity.ERROR,
      "forecast point targets an unknown block", "§4.2")
_rule("FC002", "forecast", Severity.ERROR,
      "forecast names an SI absent from the library", "§4.2")
_rule("FC003", "forecast", Severity.ERROR,
      "no use of the SI is reachable from the forecast block", "§4.2")
_rule("FC004", "forecast", Severity.ERROR,
      "forecast initial values out of range", "§4.2")
_rule("FC005", "forecast", Severity.ERROR,
      "expected executions below the FDF break-even offset", "§4.1")
_rule("FC006", "forecast", Severity.WARNING,
      "forecast block does not dominate any use of its SI", "§4.2")
_rule("FC007", "forecast", Severity.ERROR,
      "duplicate forecast for the same (block, SI) pair", "§4.2")

# -- schedule family (§3): dataflow schedules --------------------------------
_rule("SCH001", "schedule", Severity.ERROR,
      "two operations overlap on one atom instance", "§3")
_rule("SCH002", "schedule", Severity.ERROR,
      "operation placed on an atom instance the molecule does not offer", "§3")
_rule("SCH003", "schedule", Severity.ERROR,
      "operation timing violates the dataflow (dependency or latency)", "§3")
_rule("SCH004", "schedule", Severity.ERROR,
      "makespan below the latest operation finish", "§3")
_rule("SCH005", "schedule", Severity.ERROR,
      "scheduled operations do not match the dataflow", "§3")

# -- trace family (§3/§5): model-based replay of recorded run traces --------
_rule("TRC001", "trace", Severity.ERROR,
      "event cycles negative or out of order", "§5")
_rule("TRC002", "trace", Severity.ERROR,
      "rotations overlap on the single reconfiguration port", "§5")
_rule("TRC003", "trace", Severity.ERROR,
      "event references an unknown or failed Atom Container", "§5")
_rule("TRC004", "trace", Severity.ERROR,
      "Atom Container occupancy inconsistent with the replayed state", "§3/§5")
_rule("TRC005", "trace", Severity.ERROR,
      "SI executed without its molecule's atoms resident", "§3.1")
_rule("TRC006", "trace", Severity.ERROR,
      "SI execution mode/latency matches no library molecule", "§3.2")
_rule("TRC007", "trace", Severity.ERROR,
      "run totals inconsistent with the per-event deltas", "§1/§2")
_rule("TRC008", "trace", Severity.ERROR,
      "rotation timing deviates from the SelectMap port model", "§5")
_rule("TRC009", "trace", Severity.ERROR,
      "rotation of a static or unknown atom kind", "§3")
_rule("TRC010", "trace", Severity.ERROR,
      "event references an SI absent from the library", "§4.2")
_rule("TRC011", "trace", Severity.ERROR,
      "execution-mode switch bookkeeping inconsistent", "Fig. 6")
_rule("TRC012", "trace", Severity.ERROR,
      "forecast carries an invalid expectation or priority", "§4.2")
_rule("TRC013", "trace", Severity.ERROR,
      "SI did not execute the best available molecule", "§5")
_rule("TRC014", "trace", Severity.ERROR,
      "fault/recovery lifecycle inconsistent with the replayed state", "§5")
_rule("TRC015", "trace", Severity.ERROR,
      "quarantined Atom Container serves work", "§5")
_rule("TRC016", "trace", Severity.ERROR,
      "resume boundary incoherent with the recovery snapshot", "§5")

# -- feasibility family (§4/§5): static worst-case rotation guarantees ------
_rule("FEA001", "feasibility", Severity.WARNING,
      "forecast can never be satisfied before its hot spot", "§4.1")
_rule("FEA002", "feasibility", Severity.WARNING,
      "molecule can never be loaded on this platform", "§3/§5")
_rule("FEA003", "feasibility", Severity.WARNING,
      "atom kind only used by unloadable molecules", "§3")
_rule("FEA004", "feasibility", Severity.INFO,
      "worst-case rotation latency bound", "§5")
_rule("FEA005", "feasibility", Severity.WARNING,
      "degraded fabric cannot hold an SI's largest hardware molecule", "§5")

# -- explore family (§4/§5): exhaustive small-scope model checking ----------
# rispp-explore proves these over *every* reachable state of a bounded
# configuration, not just along one recorded trace; each MC rule names
# the TRC/FEA rule it generalises where one exists.
_rule("MC001", "explore", Severity.ERROR,
      "two bitstream writes overlap on the single SelectMap port", "§5")
_rule("MC004", "explore", Severity.ERROR,
      "quarantined Atom Container targeted or served without repair", "§5")
_rule("MC005", "explore", Severity.ERROR,
      "state cannot drain to an idle quiescent state (deadlock/livelock)", "§5")
_rule("MC006", "explore", Severity.ERROR,
      "replanning does not converge (re-replan issues new rotations)", "§5")
_rule("MC008", "explore", Severity.ERROR,
      "repair latency exceeds the static repair bound", "§5")
_rule("MC010", "explore", Severity.ERROR,
      "SI dispatch deviates from the best available molecule", "§5")

# -- audit family: rispp-audit, the source-contract analyzer ----------------
# AST-level checks over ``src/repro`` itself: the implementation
# contracts the verification story rests on (seeded determinism, no dead
# metric or rule catalogue entries), machine-checked instead of enforced
# by convention.  Gaps in the numbering are retired IDs; they are never
# reused.
_rule("AUD001", "audit", Severity.ERROR,
      "unseeded randomness or entropy source in platform code", "§5")
_rule("AUD002", "audit", Severity.ERROR,
      "wall-clock read outside the repro.obs.clock seam", "§5")
_rule("AUD003", "audit", Severity.ERROR,
      "environment read in platform code", "§5")
_rule("AUD004", "audit", Severity.ERROR,
      "order-sensitive iteration over an unordered set", "§5")
_rule("AUD006", "audit", Severity.ERROR,
      "declared metric is never instrumented (dead catalogue entry)", "§5")
_rule("AUD008", "audit", Severity.ERROR,
      "registered rule is never emitted by any checker", "§5")


def rule(rule_id: str) -> Rule:
    """Look up a rule; raises ``KeyError`` for unknown IDs."""
    return RULES[rule_id]


def rules_of_family(family: str) -> list[Rule]:
    return [r for r in RULES.values() if r.family == family]


def families() -> list[str]:
    """All declared rule families, sorted."""
    return sorted({r.family for r in RULES.values()})


def expand_selectors(
    selectors: Iterable[str],
    within: "Iterable[str] | None" = None,
) -> set[str]:
    """Expand ``--select``/``--ignore`` patterns into concrete rule IDs.

    A selector matches case-insensitively by rule-ID prefix, so ``TRC``
    selects the whole trace family and ``trc005`` one rule.  ``within``
    restricts matching to the rules of those families.  An empty or
    unmatched selector raises ``ValueError`` — a typo silently selecting
    nothing would defeat the point of filtering.
    """
    scope = sorted(within) if within is not None else families()
    expanded: set[str] = set()
    for selector in selectors:
        prefix = selector.strip().upper()
        matched = [
            rid
            for rid, r in RULES.items()
            if prefix and rid.startswith(prefix) and r.family in scope
        ]
        if not matched:
            raise ValueError(
                f"selector {selector!r} matches no rule ID "
                f"(families: {scope})"
            )
        expanded.update(matched)
    return expanded


def render_rule_list(wanted_families: "tuple[str, ...] | None" = None) -> str:
    """The ``--help`` epilog table: one line per rule of the given families."""
    lines = []
    for rule_id, r in sorted(RULES.items()):
        if wanted_families is not None and r.family not in wanted_families:
            continue
        ref = f"  ({r.paper_ref})" if r.paper_ref else ""
        lines.append(
            f"{rule_id}  [{r.severity}] {r.family:<11} {r.title}{ref}"
        )
    return "\n".join(lines)


def diag(
    rule_id: str,
    message: str,
    *,
    subject: str = "",
    location: str = "",
    severity: Severity | None = None,
    **context: object,
) -> Diagnostic:
    """Build a diagnostic for a catalogued rule (default severity from it)."""
    r = RULES[rule_id]
    return Diagnostic(
        rule_id=rule_id,
        severity=severity if severity is not None else r.severity,
        message=message,
        subject=subject,
        location=location,
        context=context,
    )
