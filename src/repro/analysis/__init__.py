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
:func:`verify_runtime` / :func:`prove_feasibility`,
:func:`repro.analysis.explore.explore` (not re-exported: the package's
``explore`` is the submodule), :func:`run_audit`, and ``python -m repro
lint`` / ``python -m repro verify`` / ``python -m repro explore`` /
``python -m repro audit``.  The rule catalogue is documented in
``docs/analysis.md``.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "audit": "AuditResult run_audit",
    "diagnostics": "Diagnostic DiagnosticReport LintError Severity",
    "explore": "build_explore_library Counterexample EXPLORE_SCOPES ExploreResult ExploreScope",
    "feasibility": (
        "FeasibilityResult MoleculeFeasibility port_backlog_bound prove_feasibility "
        "rotation_cycle_table SIRotationBound"
    ),
    "lint": (
        "BUILTIN_SUBJECTS lint_builtin lint_cfg lint_flow lint_forecast lint_library "
        "lint_schedule"
    ),
    "machine": "ReferenceMachine",
    "rules": "diag expand_selectors families render_rule_list Rule rule RULES rules_of_family",
    "verify": (
        "golden_from_runtime GoldenTrace load_golden run_verify_suite verify_golden_result "
        "verify_runtime verify_trace VerifyResult write_golden"
    ),
})
