"""rispp-explore: the bounded model checker (`repro.analysis.explore`).

Three layers of acceptance:

* **proof** — exhausting the tiny scope visits every reachable state,
  proves all MC rules on the seed runtime and reports dedupe statistics;
* **counterexamples** — each hand-mutated runtime (one seeded bug per
  invariant) yields a *minimized* counterexample whose golden-trace
  payload rispp-verify independently flags with the matching TRC rule;
* **regressions** — explorer bugs found while bringing the tool up
  (half-advanced worlds after `forecast`/`si_cycles`) stay fixed.
"""

import pytest

from repro.commands import COMMANDS, Forecast
from repro.analysis.explore import (
    SCOPES,
    ExploreScope,
    _apply,
    _build_world,
    _next_interesting,
    _World,
    build_explore_library,
    explore,
)
from repro.faults.model import FaultKind
from repro.state import clone, fingerprint

# ---------------------------------------------------------------------------
# Micro scopes: smallest configurations that reach each seeded bug fast.
# ---------------------------------------------------------------------------

#: One SI, one fault, three ticks: enough to rotate, corrupt, detect via
#: the scrubber, quarantine and request the repair.
REPAIR_SCOPE = ExploreScope(
    name="micro-repair",
    library_name="explore-tiny",
    containers=2,
    si_budgets=(("SI_A", 1, 0, 1), ("SI_B", 0, 0, 0)),
    tick_budget=3,
    fault_budget=1,
    fault_actions=((FaultKind.TRANSIENT.value, 0),),
    expected=(("SI_A", 4.0),),
)

#: SI_B's best molecule needs two atoms -> one replan issues two port
#: jobs, which is what the overlap mutator needs to collide.
TWO_JOB_SCOPE = ExploreScope(
    name="micro-twojob",
    library_name="explore-tiny",
    containers=2,
    si_budgets=(("SI_A", 0, 0, 0), ("SI_B", 1, 0, 1)),
    tick_budget=2,
    fault_budget=0,
    expected=(("SI_B", 3.0),),
)

#: Forecast + tick to rotation completion: a loaded molecule the
#: dispatch mutator can then refuse to use.
DISPATCH_SCOPE = ExploreScope(
    name="micro-dispatch",
    library_name="explore-tiny",
    containers=2,
    si_budgets=(("SI_A", 1, 0, 1), ("SI_B", 0, 0, 0)),
    tick_budget=2,
    fault_budget=0,
    expected=(("SI_A", 4.0),),
)

#: SI_A's forecast stays active while SI_B's comes and goes, so a no-op
#: replan arms the skip key; a failed write then shrinks the future
#: population under unchanged weights.
SKIP_SCOPE = ExploreScope(
    name="micro-skip",
    library_name="explore-tiny",
    containers=2,
    si_budgets=(("SI_A", 1, 0, 0), ("SI_B", 1, 1, 0)),
    tick_budget=0,
    fault_budget=1,
    fault_actions=((FaultKind.WRITE_ERROR.value, 0),),
    expected=(("SI_A", 4.0), ("SI_B", 3.0)),
)


def _overlap_mutator(rt):
    """Seeded bug: the port forgets its busy window after every request,
    so a second job of the same replan starts while the first writes."""
    port = rt.port
    original = port.request

    def patched(*args, **kwargs):
        job = original(*args, **kwargs)
        port.busy_until = 0
        return job

    port.request = patched


def _drop_repair_flag_mutator(rt):
    """Seeded bug: repair requests are recorded as plain planner jobs."""
    original = rt._record_rotation_request

    def patched(job, now, **_kwargs):
        original(job, now, repair=False)

    rt._record_rotation_request = patched


def _slow_repair_mutator(rt):
    """Seeded bug: repair writes take three orders of magnitude too long."""
    port = rt.port
    original = port.request

    def patched(*args, **kwargs):
        job = original(*args, **kwargs)
        if kwargs.get("repair"):
            job.finish_at += 10_000
            port.busy_until = job.finish_at
        return job

    port.request = patched


def _no_release_mutator(rt):
    """Seeded bug: completed repairs never release their quarantine."""
    rt._faults.on_rotation_completed = lambda runtime, job: None


def _dispatch_mutator(rt):
    """Seeded bug: dispatch ignores every loaded molecule."""
    rt._dispatch = lambda si: (None, None)


class _AnyPopulation:
    """Compares equal to every future population."""

    def __eq__(self, other):
        return True

    __hash__ = None


def _skip_key_mutator(rt):
    """Seeded bug: the replan skip key leaves out the future population,
    so a round after the fabric lost an atom is skipped whenever the
    weights did not change."""
    original = rt._replan

    def patched(now, *, triggering_task):
        original(now, triggering_task=triggering_task)
        if rt._plan_key is not None:
            rt._plan_key = (rt._plan_key[0], _AnyPopulation())

    rt._replan = patched


class TestTinyProof:
    @pytest.fixture(scope="class")
    def tiny(self):
        return explore("tiny")

    def test_exhausts_the_scope(self, tiny):
        assert tiny.complete
        assert tiny.terminal_states > 0
        # Pinned: the caches are left out of the state key, so the
        # explored space is the one the uncached runtime had.
        assert tiny.states_explored == 30025
        assert tiny.transitions == 50641

    def test_proves_every_mc_rule_on_the_seed(self, tiny):
        assert tiny.report.exit_code() == 0
        assert not tiny.counterexamples
        assert tiny.rules_proven == tiny.rules_checked
        assert len(tiny.rules_proven) == 6

    def test_reports_dedupe_statistics(self, tiny):
        assert tiny.deduplicated > 0
        assert 0.0 < tiny.dedupe_ratio() < 1.0
        assert tiny.transitions > tiny.states_explored

    def test_to_dict_is_json_shaped(self, tiny):
        import json

        payload = tiny.to_dict()
        json.dumps(payload)  # must not raise
        assert payload["complete"] is True
        assert payload["rules_proven"] == list(tiny.rules_proven)
        assert payload["dedupe_ratio"] == round(tiny.dedupe_ratio(), 4)


class TestSelection:
    def test_select_narrows_the_checked_set(self):
        result = explore(REPAIR_SCOPE, select=["MC001", "MC004"])
        assert result.rules_checked == ("MC001", "MC004")
        assert result.rules_proven == ("MC001", "MC004")

    def test_ignore_drops_rules(self):
        result = explore(REPAIR_SCOPE, select=["MC001", "MC004"],
                         ignore=["MC004"])
        assert result.rules_checked == ("MC001",)

    def test_empty_selection_raises(self):
        with pytest.raises(ValueError, match="no MC rule"):
            explore(REPAIR_SCOPE, select=["MC001"], ignore=["MC001"])

    def test_non_mc_selector_raises(self):
        with pytest.raises(ValueError):
            explore(REPAIR_SCOPE, select=["NOPE"])

    def test_max_states_cap_reports_incomplete(self):
        result = explore(REPAIR_SCOPE, select=["MC001"], max_states=5)
        assert not result.complete
        assert result.rules_proven == ()
        assert result.states_explored <= 5


class TestCounterexamples:
    """Each seeded runtime bug must produce a minimized counterexample
    that rispp-verify independently flags with the matching TRC rule."""

    def _one(self, scope, mutator, rule_id):
        result = explore(scope, mutator=mutator, select=[rule_id])
        assert [c.rule_id for c in result.counterexamples] == [rule_id], (
            f"expected a {rule_id} counterexample, got "
            f"{[(c.rule_id, c.message) for c in result.counterexamples]}"
        )
        cx = result.counterexamples[0]
        assert result.report.exit_code() == 1
        assert cx.actions, "counterexample must retain at least one action"
        assert cx.golden["explore"]["rule"] == rule_id
        assert cx.golden["explore"]["scope"] == scope.name
        spelled = cx.golden["explore"]["actions"]
        assert len(spelled) == len(cx.actions)
        for action, (op, *args) in zip(cx.actions, spelled):
            if isinstance(action, tuple):  # the explorer's tick or fault
                assert [op, *args] == list(action)
            else:  # a runtime command, spelled as its journal op and args
                assert COMMANDS[op](**args[0]) == action
        return cx

    def test_port_overlap_is_found_and_verifier_confirms(self):
        cx = self._one(TWO_JOB_SCOPE, _overlap_mutator, "MC001")
        assert "TRC002" in cx.verified_rule_ids

    def test_dropped_repair_flag_is_found_and_verifier_confirms(self):
        cx = self._one(REPAIR_SCOPE, _drop_repair_flag_mutator, "MC004")
        assert "TRC015" in cx.verified_rule_ids

    def test_slow_repair_breaks_the_static_bound(self):
        cx = self._one(REPAIR_SCOPE, _slow_repair_mutator, "MC008")
        assert "TRC008" in cx.verified_rule_ids

    def test_mc008_proves_the_shipped_repair_bound(self, monkeypatch):
        # A repair bound that drops the port-backlog term (every repair
        # writes a bitstream) is unsound; MC008 must check the shipped
        # formula itself, so the broken one is caught on tiny.
        import repro.faults.chaos as chaos

        def no_backlog(library, containers, *, scrub_period, max_retries,
                       backoff_cycles, **port_rate):
            return scrub_period + sum(
                backoff_cycles * 2**i for i in range(max_retries)
            )

        monkeypatch.setattr(chaos, "static_repair_bound", no_backlog)
        result = explore("tiny", select=["MC008"], stop_on_violation=True)
        assert [c.rule_id for c in result.counterexamples] == ["MC008"]
        assert "static repair bound" in result.counterexamples[0].message

    def test_unreleased_quarantine_deadlocks(self):
        cx = self._one(REPAIR_SCOPE, _no_release_mutator, "MC005")
        assert "TRC014" in cx.verified_rule_ids

    def test_dispatch_regression_is_found_and_verifier_confirms(self):
        cx = self._one(DISPATCH_SCOPE, _dispatch_mutator, "MC010")
        assert "TRC013" in cx.verified_rule_ids

    def test_unsound_replan_skip_is_found(self):
        # A skipped round that would have issued rotations leaves a
        # valid but slower trace, so there is no TRC rule to confirm it;
        # MC006 catches it by replanning with the skip key cleared.
        cx = self._one(SKIP_SCOPE, _skip_key_mutator, "MC006")
        assert "skip" in cx.message
        assert ("fault", FaultKind.WRITE_ERROR.value, 0) in cx.actions

    def test_seed_replan_skip_is_proven_sound(self):
        result = explore(SKIP_SCOPE, select=["MC006"])
        assert result.complete
        assert result.rules_proven == ("MC006",)

    def test_minimization_shrinks_the_witness(self):
        full = explore(REPAIR_SCOPE, mutator=_drop_repair_flag_mutator,
                       select=["MC004"], minimize=False)
        minimized = explore(REPAIR_SCOPE, mutator=_drop_repair_flag_mutator,
                            select=["MC004"])
        assert len(minimized.counterexamples[0].actions) <= len(
            full.counterexamples[0].actions
        )

    def test_counterexample_golden_round_trips_through_verify(self, tmp_path):
        import json

        from repro.analysis import load_golden, verify_golden_result

        cx = self._one(REPAIR_SCOPE, _drop_repair_flag_mutator, "MC004")
        path = tmp_path / "counterexample.json"
        path.write_text(json.dumps(cx.golden, indent=2, sort_keys=True))
        golden = load_golden(path)  # the explore metadata key is tolerated
        result = verify_golden_result(golden)
        flagged = {d.rule_id for d in result.report}
        assert "TRC015" in flagged


class TestExplorerRegressions:
    """Bugs in the explorer itself, found against the seed runtime."""

    def test_apply_leaves_no_half_advanced_world(self):
        # rt.forecast() advances *before* replanning, so a freshly issued
        # job once sat unstarted at `now` — the explorer then saw a fake
        # deadlock (MC005) and a dispatch mismatch (MC010).  _apply must
        # re-advance after every action.
        world = _build_world(SCOPES["tiny"], None)
        _apply(world, Forecast("SI_A", expected=4.0))
        nxt = _next_interesting(world)
        assert nxt is None or nxt > world.now
        for job in world.runtime.port.pending_jobs():
            assert job.started or job.started_at > world.now

    def test_structural_clone_is_independent(self):
        scope = SCOPES["tiny"]
        world = _build_world(scope, None)
        _apply(world, Forecast("SI_A", expected=scope.expected_of("SI_A")))
        twin = _World(runtime=clone(world.runtime), now=world.now)
        assert fingerprint(world.runtime) == fingerprint(twin.runtime)
        _apply(twin, ("tick",))
        assert fingerprint(world.runtime) != fingerprint(twin.runtime)
        # The original world did not advance with the clone.
        assert world.now < twin.now

    def test_clone_preserves_repair_job_identity(self):
        # injector._repair_of must point at the SAME job objects as
        # port._pending after a clone, or repair release breaks.
        scope = REPAIR_SCOPE
        world = _build_world(scope, None)
        for action in (Forecast("SI_A", expected=scope.expected_of("SI_A")),
                       ("tick",), ("fault", FaultKind.TRANSIENT.value, 0),
                       ("tick",)):
            _apply(world, action)
        twin = clone(world.runtime)
        inj = twin._faults
        pending = twin.port.pending_jobs()
        for job in inj._repair_of.values():
            assert any(j is job for j in pending)

    def test_exploration_is_deterministic(self):
        a = explore(REPAIR_SCOPE)
        b = explore(REPAIR_SCOPE)
        assert a.to_dict() == b.to_dict()

    def test_explore_metrics_are_recorded(self):
        from repro.obs import MetricRegistry

        registry = MetricRegistry(enabled=True)
        result = explore(REPAIR_SCOPE, select=["MC001"], metrics=registry)
        counter = registry.counter("explore_states_total")
        visited = counter.labels(outcome="visited").value
        dedup = counter.labels(outcome="deduplicated").value
        assert visited == result.states_explored
        assert dedup == result.deduplicated


class TestLibraries:
    def test_explore_libraries_resolve_by_name(self):
        for name in ("explore-tiny", "explore-small"):
            library = build_explore_library(name)
            assert library.names()

    def test_unknown_library_raises(self):
        with pytest.raises(ValueError, match="unknown explore library"):
            build_explore_library("explore-huge")

    def test_verify_build_library_knows_explore_names(self):
        from repro.analysis.verify import build_library

        assert build_library("explore-tiny").names() == \
            build_explore_library("explore-tiny").names()

    def test_scopes_are_registered(self):
        assert set(SCOPES) == {"tiny", "small"}
        for scope in SCOPES.values():
            build_explore_library(scope.library_name)
