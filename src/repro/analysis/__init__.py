"""``repro.analysis`` — rispp-lint, the static invariant checker.

A diagnostic framework plus domain checkers that statically analyse
already-constructed RISPP artifacts *without executing a simulation*:

* **lattice** — the §3.2 ``Rep(S)`` bounds and the §3.1 atom space of
  a library's molecules;
* **library** — SI/catalogue coherence (software fallback, shared atom
  space, Pareto-dominated molecules, Atom Container capacity);
* **cfg** — profile well-formedness of the BB graph feeding the §4
  forecast pipeline (probability sums, reachability, flow
  conservation);
* **forecast** — placement soundness of Forecast points (§4.2) against
  their CFG, library and FDFs;
* **schedule** — feasibility of dataflow schedules (§3);
* **trace** — rispp-verify's model-based replay of simulation traces
  against a reference state machine of the §3/§5 runtime invariants;
* **feasibility** — rispp-verify's static prover of per-SI worst-case
  rotation latencies, upgrade starvation and dead molecules/atoms;
* **explore** — rispp-explore's bounded model checker: exhaustive
  small-scope state-space exploration of the live rotation runtime,
  proving the MC invariants or emitting verifier-replayable minimized
  counterexamples;
* **audit** — rispp-audit's AST-level source-contract analyzer over
  ``src/repro`` itself: determinism sanitizer and dead obs/rule
  catalogue entries.

Entry points: the per-family ``lint_*`` helpers (each calls its
family's ``check_*`` function directly), :func:`verify_trace` /
:func:`verify_runtime` / :func:`prove_feasibility`, :func:`explore`,
:func:`run_audit`, and ``python -m repro lint`` / ``python -m repro
verify`` / ``python -m repro explore`` / ``python -m repro audit``.
The rule catalogue is documented in ``docs/analysis.md``.
"""

from .audit import AuditResult, run_audit
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
    lint_schedule,
)
from .machine import ReferenceMachine
from .rules import (
    RULES,
    Rule,
    diag,
    expand_selectors,
    families,
    render_rule_list,
    rule,
    rules_of_family,
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
    "Counterexample",
    "Diagnostic",
    "DiagnosticReport",
    "EXPLORE_SCOPES",
    "ExploreResult",
    "ExploreScope",
    "FeasibilityResult",
    "GoldenTrace",
    "LintError",
    "MoleculeFeasibility",
    "RULES",
    "ReferenceMachine",
    "Rule",
    "SIRotationBound",
    "Severity",
    "VerifyResult",
    "build_explore_library",
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
    "lint_schedule",
    "load_golden",
    "port_backlog_bound",
    "prove_feasibility",
    "render_rule_list",
    "rotation_cycle_table",
    "rule",
    "rules_of_family",
    "run_audit",
    "run_verify_suite",
    "verify_golden_result",
    "verify_runtime",
    "verify_trace",
    "write_golden",
]
