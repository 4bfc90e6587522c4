"""``repro.analysis`` — rispp-lint, the static invariant checker.

A diagnostic framework plus domain checkers that statically analyse
already-constructed RISPP artifacts *without executing a simulation*:

* **lattice** — the §3.1 Molecule lattice laws and the §3.2 ``Rep(S)``
  bounds over a library's molecules;
* **library** — SI/catalogue coherence (software fallback, shared atom
  space, Pareto-dominated molecules, Atom Container capacity);
* **cfg** — profile well-formedness of the BB graph feeding the §4
  forecast pipeline (probability sums, reachability, SCC partition,
  flow conservation);
* **forecast** — placement soundness of Forecast points (§4.2) against
  their CFG, library and FDFs;
* **schedule** — feasibility of dataflow schedules (§3) and rotation
  job sequences on the single reconfiguration port (§5);
* **trace** — rispp-verify's model-based replay of simulation traces
  against a reference state machine of the §3/§5 runtime invariants;
* **feasibility** — rispp-verify's static prover of per-SI worst-case
  rotation latencies, upgrade starvation and dead molecules/atoms;
* **explore** — rispp-explore's bounded model checker: exhaustive
  small-scope state-space exploration of the live rotation runtime,
  proving the MC invariants or emitting verifier-replayable minimized
  counterexamples;
* **audit** — rispp-audit's AST-level source-contract analyzer over
  ``src/repro`` itself: determinism sanitizer, obs-catalogue and
  rule-registry resolution, compute-backend purity.

Entry points: :func:`run_checks` (registry driver over mixed artifacts),
the per-family ``lint_*`` helpers, :func:`verify_trace` /
:func:`verify_runtime` / :func:`prove_feasibility`, :func:`explore`,
:func:`run_audit`, and ``python -m repro lint`` / ``python -m repro
verify`` / ``python -m repro explore`` / ``python -m repro audit``.
The rule catalogue is documented in ``docs/analysis.md``.
"""

from .audit import AuditResult, Baseline, Suppression, run_audit
from .diagnostics import Diagnostic, DiagnosticReport, LintError, Severity
from .explore import (
    EXPLORE_SCOPES,
    Counterexample,
    ExploreResult,
    ExploreScope,
    build_explore_library,
    explore,
)
from .feasibility import (
    FeasibilityResult,
    MoleculeFeasibility,
    SIRotationBound,
    port_backlog_bound,
    prove_feasibility,
    rotation_cycle_table,
)
from .lint import (
    BUILTIN_SUBJECTS,
    lint_builtin,
    lint_cfg,
    lint_flow,
    lint_forecast,
    lint_library,
    lint_rotations,
    lint_schedule,
)
from .machine import ReferenceMachine
from .rules import families, render_rule_list
from .registry import (
    RULES,
    Checker,
    FeasibilityArtifact,
    ForecastArtifact,
    LintContext,
    RotationLog,
    Rule,
    ScheduleArtifact,
    TraceArtifact,
    checker,
    checkers,
    checkers_for,
    diag,
    expand_selectors,
    rule,
    rules_of_family,
    run_checks,
)
from .verify import (
    GoldenTrace,
    VerifyResult,
    golden_from_runtime,
    load_golden,
    run_verify_suite,
    verify_golden_result,
    verify_runtime,
    verify_trace,
    write_golden,
)

__all__ = [
    "AuditResult",
    "BUILTIN_SUBJECTS",
    "Baseline",
    "Checker",
    "Counterexample",
    "Diagnostic",
    "DiagnosticReport",
    "EXPLORE_SCOPES",
    "ExploreResult",
    "ExploreScope",
    "FeasibilityArtifact",
    "FeasibilityResult",
    "ForecastArtifact",
    "GoldenTrace",
    "LintContext",
    "LintError",
    "MoleculeFeasibility",
    "RULES",
    "ReferenceMachine",
    "RotationLog",
    "Rule",
    "SIRotationBound",
    "ScheduleArtifact",
    "Severity",
    "Suppression",
    "TraceArtifact",
    "VerifyResult",
    "build_explore_library",
    "checker",
    "checkers",
    "checkers_for",
    "diag",
    "expand_selectors",
    "explore",
    "families",
    "golden_from_runtime",
    "lint_builtin",
    "lint_cfg",
    "lint_flow",
    "lint_forecast",
    "lint_library",
    "lint_rotations",
    "lint_schedule",
    "load_golden",
    "port_backlog_bound",
    "prove_feasibility",
    "render_rule_list",
    "rotation_cycle_table",
    "rule",
    "rules_of_family",
    "run_audit",
    "run_checks",
    "run_verify_suite",
    "verify_golden_result",
    "verify_runtime",
    "verify_trace",
    "write_golden",
]
