"""Unit tests for the run-time architecture: monitor, replacement, rotation, manager."""

import pytest

from repro.runtime import (
    ForecastMonitor,
    HighestIdPolicy,
    LRUPolicy,
    MRUPolicy,
    RisppRuntime,
    choose_victim,
    future_population,
    plan_rotations,
    victim_candidates,
)
from repro.hardware import Fabric, ReconfigurationPort
from repro.sim import EventKind


class TestForecastMonitor:
    def test_first_firing_uses_compile_time_value(self):
        m = ForecastMonitor()
        assert m.forecast_fired("A", "S", 40.0, now=0) == 40.0

    def test_observation_blends_into_estimate(self):
        m = ForecastMonitor(smoothing=0.5)
        m.forecast_fired("A", "S", 40.0, now=0)
        for _ in range(10):
            m.si_executed("A", "S")
        m.forecast_ended("A", "S", now=100)
        # (1-0.5)*40 + 0.5*10 = 25
        assert m.expectation("A", "S") == pytest.approx(25.0)

    def test_refires_close_previous_window(self):
        m = ForecastMonitor(smoothing=1.0)
        m.forecast_fired("A", "S", 40.0, now=0)
        for _ in range(8):
            m.si_executed("A", "S")
        # Second firing implicitly closes the first window.
        tuned = m.forecast_fired("A", "S", 40.0, now=50)
        assert tuned == pytest.approx(8.0)

    def test_tasks_are_independent(self):
        m = ForecastMonitor()
        m.forecast_fired("A", "S", 10.0, now=0)
        m.forecast_fired("B", "S", 99.0, now=0)
        m.si_executed("A", "S")
        m.forecast_ended("A", "S", now=10)
        assert m.expectation("B", "S") == 99.0

    def test_execution_without_window_ignored(self):
        m = ForecastMonitor()
        m.si_executed("A", "S")  # no crash, no state
        assert m.expectation("A", "S", default=-1) == -1

    def test_accuracy_stats(self):
        m = ForecastMonitor(smoothing=0.5)
        m.forecast_fired("A", "S", 10.0, now=0)
        for _ in range(6):
            m.si_executed("A", "S")
        m.forecast_ended("A", "S", now=5)
        stats = m.stats("A", "S")
        assert stats.windows == 1
        assert stats.total_observed == 6
        assert stats.total_predicted == pytest.approx(10.0)

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            ForecastMonitor(smoothing=0.0)
        with pytest.raises(ValueError):
            ForecastMonitor(smoothing=1.5)


class TestReplacement:
    def loaded_fabric(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 4)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        for cid, atom in [(0, "Pack"), (1, "Transform"), (2, "Transform")]:
            job = port.request(fabric, atom, cid, now=0)
            port.advance(fabric, job.finish_at)
        return fabric, port

    def test_empty_container_preferred(self, mini_catalogue):
        fabric, port = self.loaded_fabric(mini_catalogue)
        keep = fabric.space.molecule({"Pack": 1, "Transform": 2})
        victim = choose_victim(fabric, port, keep, LRUPolicy(), now=10)
        assert victim.container_id == 3  # the empty one

    def test_protected_atoms_never_victims(self, mini_catalogue):
        fabric, port = self.loaded_fabric(mini_catalogue)
        keep = fabric.space.molecule({"Pack": 1, "Transform": 2})
        cands = victim_candidates(fabric, port, keep)
        assert {c.container_id for c in cands} == {3}

    def test_surplus_atom_is_candidate(self, mini_catalogue):
        fabric, port = self.loaded_fabric(mini_catalogue)
        keep = fabric.space.molecule({"Pack": 1, "Transform": 1})
        cands = victim_candidates(fabric, port, keep)
        # one Transform is surplus, plus the empty container.
        ids = {c.container_id for c in cands}
        assert 3 in ids
        assert ids & {1, 2}

    def test_lru_vs_mru(self, mini_catalogue):
        fabric, port = self.loaded_fabric(mini_catalogue)
        fabric.container(1).last_used = 100
        fabric.container(2).last_used = 50
        keep = fabric.space.zero()
        lru_pick = LRUPolicy().select(
            [fabric.container(1), fabric.container(2)], now=200
        )
        mru_pick = MRUPolicy().select(
            [fabric.container(1), fabric.container(2)], now=200
        )
        assert lru_pick.container_id == 2
        assert mru_pick.container_id == 1

    def test_highest_id_policy(self, mini_catalogue):
        fabric, port = self.loaded_fabric(mini_catalogue)
        pick = HighestIdPolicy().select(
            [fabric.container(0), fabric.container(2)], now=0
        )
        assert pick.container_id == 2

    def test_reserved_container_excluded(self, mini_catalogue):
        fabric, port = self.loaded_fabric(mini_catalogue)
        port.request(fabric, "SATD", 3, now=5)
        keep = fabric.space.zero()
        cands = victim_candidates(fabric, port, keep)
        assert all(c.container_id != 3 for c in cands)

    def test_no_safe_victim_returns_none(self, mini_catalogue):
        fabric, port = self.loaded_fabric(mini_catalogue)
        port.request(fabric, "SATD", 3, now=5)
        keep = fabric.space.molecule({"Pack": 1, "Transform": 2, "SATD": 1})
        assert choose_victim(fabric, port, keep, LRUPolicy(), now=9) is None


class TestRotationPlanner:
    def test_plan_requests_only_missing(self, mini_library):
        fabric = Fabric(mini_library.catalogue, 4)
        port = ReconfigurationPort(mini_library.catalogue, core_mhz=100.0)
        job = port.request(fabric, "Pack", 0, now=0)
        port.advance(fabric, job.finish_at)
        demand = mini_library.space.molecule({"Pack": 1, "Transform": 1, "SATD": 1})
        plan = plan_rotations(
            mini_library, fabric, port, demand, LRUPolicy(), now=job.finish_at
        )
        assert sorted(j.atom for j in plan.jobs) == ["SATD", "Transform"]

    def test_in_flight_atoms_not_requested_again(self, mini_library):
        fabric = Fabric(mini_library.catalogue, 4)
        port = ReconfigurationPort(mini_library.catalogue, core_mhz=100.0)
        port.request(fabric, "Pack", 0, now=0)  # scheduled, not yet loaded
        demand = mini_library.space.molecule({"Pack": 1})
        plan = plan_rotations(mini_library, fabric, port, demand, LRUPolicy(), now=0)
        assert plan.jobs == []

    def test_unplaced_recorded_when_fabric_full(self, mini_library):
        fabric = Fabric(mini_library.catalogue, 1)
        port = ReconfigurationPort(mini_library.catalogue, core_mhz=100.0)
        demand = mini_library.space.molecule({"Pack": 1, "Transform": 1})
        plan = plan_rotations(mini_library, fabric, port, demand, LRUPolicy(), now=0)
        assert len(plan.jobs) == 1
        assert sum(plan.unplaced.values()) == 1

    def test_static_kinds_ignored(self, mini_library):
        fabric = Fabric(mini_library.catalogue, 2)
        port = ReconfigurationPort(mini_library.catalogue, core_mhz=100.0)
        demand = mini_library.space.molecule({"Load": 4, "Pack": 1})
        plan = plan_rotations(mini_library, fabric, port, demand, LRUPolicy(), now=0)
        assert [j.atom for j in plan.jobs] == ["Pack"]

    def test_reallocation_tracked(self, mini_library):
        fabric = Fabric(mini_library.catalogue, 1)
        port = ReconfigurationPort(mini_library.catalogue, core_mhz=100.0)
        job = port.request(fabric, "Pack", 0, now=0, owner="B")
        port.advance(fabric, job.finish_at)
        demand = mini_library.space.molecule({"Transform": 1})
        plan = plan_rotations(
            mini_library, fabric, port, demand, LRUPolicy(),
            now=job.finish_at, owner="A",
        )
        assert plan.reallocated == [(0, "B", "A")]

    def test_future_population(self, mini_library):
        fabric = Fabric(mini_library.catalogue, 2)
        port = ReconfigurationPort(mini_library.catalogue, core_mhz=100.0)
        port.request(fabric, "Pack", 0, now=0)
        pop = future_population(fabric, port)
        assert pop.count("Pack") == 1


class TestRisppRuntime:
    def make_runtime(self, mini_library, containers=4, **kw):
        return RisppRuntime(mini_library, containers, core_mhz=100.0, **kw)

    def test_si_runs_in_software_initially(self, mini_library):
        rt = self.make_runtime(mini_library)
        cycles = rt.execute_si("HT", 0)
        assert cycles == 298
        assert rt.stats.sw_executions == 1
        assert rt.si_mode("HT", 0) == "SW"

    def test_forecast_triggers_rotations(self, mini_library):
        rt = self.make_runtime(mini_library)
        rt.forecast("HT", 0, expected=100)
        assert rt.stats.rotations_requested > 0
        assert rt.trace.of_kind(EventKind.ROTATION_REQUESTED)

    def test_si_upgrades_after_rotation_completes(self, mini_library):
        rt = self.make_runtime(mini_library)
        rt.forecast("HT", 0, expected=100)
        finish = max(j.finish_at for j in rt.port.jobs)
        assert rt.execute_si("HT", finish + 1) < 298
        assert rt.stats.hw_executions == 1

    def test_gradual_upgrade_emits_mode_switch(self, mini_library):
        rt = self.make_runtime(mini_library)
        rt.forecast("HT", 0, expected=100)
        rt.execute_si("HT", 1)  # still software
        finish = max(j.finish_at for j in rt.port.jobs)
        rt.execute_si("HT", finish + 1)  # now hardware
        switches = rt.trace.of_kind(EventKind.SI_MODE_SWITCH)
        assert len(switches) == 1
        assert switches[0].detail["from_mode"] == "SW"

    def test_forecast_end_frees_containers_for_other_si(self, mini_library):
        rt = self.make_runtime(mini_library, containers=4)
        rt.forecast("HT", 0, expected=10)
        t1 = max(j.finish_at for j in rt.port.jobs) + 1
        rt.forecast_end("HT", t1)
        rt.forecast("SATD", t1, expected=1000)
        t2 = max(j.finish_at for j in rt.port.jobs) + 1
        assert rt.execute_si("SATD", t2) < 544

    def test_unknown_si_rejected(self, mini_library):
        rt = self.make_runtime(mini_library)
        with pytest.raises(ValueError):
            rt.forecast("NOPE", 0)

    def test_invalid_priority_rejected(self, mini_library):
        rt = self.make_runtime(mini_library)
        with pytest.raises(ValueError):
            rt.forecast("HT", 0, priority=0)

    def test_rotate_on_demand_mode(self, mini_library):
        rt = self.make_runtime(mini_library, forecasting=False)
        # First execution runs in SW but kicks off rotations.
        assert rt.execute_si("HT", 0) == 298
        assert rt.stats.rotations_requested > 0
        finish = max(j.finish_at for j in rt.port.jobs)
        assert rt.execute_si("HT", finish + 1) < 298

    def test_monitor_fine_tunes_weights(self, mini_library):
        rt = self.make_runtime(mini_library)
        rt.forecast("HT", 0, expected=50)
        for i in range(5):
            rt.execute_si("HT", 10 + i)
        rt.forecast_end("HT", 100)
        # Second firing should use the blended estimate, not 50.
        tuned = rt.monitor.forecast_fired("main", "HT", 50, now=200)
        assert tuned < 50

    def test_stats_accumulate(self, mini_library):
        rt = self.make_runtime(mini_library)
        rt.forecast("HT", 0, expected=10)
        rt.execute_si("HT", 0)
        assert rt.stats.si_executions == 1
        assert rt.stats.replans == 1
        assert rt.stats.si_cycles == 298

    def test_per_task_stats(self, mini_library):
        rt = self.make_runtime(mini_library)
        rt.execute_si("HT", 0, task="A")
        rt.execute_si("HT", 300, task="A")
        rt.execute_si("SATD", 600, task="B")
        assert rt.task_stats["A"].si_executions == 2
        assert rt.task_stats["A"].si_cycles == 2 * 298
        assert rt.task_stats["B"].si_executions == 1
        assert rt.task_stats["B"].sw_executions == 1
        # The global view is the sum of the task views.
        assert rt.stats.si_executions == sum(
            s.si_executions for s in rt.task_stats.values()
        )
