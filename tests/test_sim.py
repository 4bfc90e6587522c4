"""Tests for the simulation substrate: IR, executor, tasks, trace."""

import pytest

from repro.sim import (
    Branch,
    Compute,
    EventKind,
    ExecuteSI,
    Forecast,
    IRBlock,
    Jump,
    Label,
    MultiTaskSimulator,
    Program,
    ScriptedTask,
    Trace,
    execute,
    profile_program,
)
from repro.runtime import RisppRuntime


def counting_loop(iterations: int) -> Program:
    """entry -> loop(xN, uses SI "S") -> done."""
    p = Program("entry")
    p.block("entry", cycles=5, action=lambda env: env.setdefault("i", 0),
            terminator=Jump("loop"))

    def bump(env):
        env["i"] += 1

    p.block(
        "loop",
        cycles=10,
        si_calls={"S": 2},
        action=bump,
        terminator=Branch(lambda env: env["i"] < iterations, "loop", "done"),
    )
    p.block("done", cycles=1)
    return p


class TestIR:
    def test_validate_targets(self):
        p = Program("a")
        p.block("a", terminator=Jump("ghost"))
        with pytest.raises(ValueError):
            p.validate()

    def test_missing_entry(self):
        p = Program("nope")
        p.block("a")
        with pytest.raises(ValueError):
            p.validate()

    def test_duplicate_block(self):
        p = Program("a")
        p.block("a")
        with pytest.raises(ValueError):
            p.block("a")

    def test_block_validation(self):
        with pytest.raises(ValueError):
            IRBlock("")
        with pytest.raises(ValueError):
            IRBlock("x", cycles=-1)
        with pytest.raises(ValueError):
            IRBlock("x", si_calls={"S": 0})

    def test_to_cfg_structure(self):
        cfg = counting_loop(3).to_cfg()
        assert set(cfg.block_ids()) == {"entry", "loop", "done"}
        assert "loop" in cfg.successors("loop")
        assert cfg.get("loop").si_usages == {"S": 2}

    def test_branch_same_target_collapses(self):
        p = Program("a")
        p.block("a", terminator=Branch(lambda e: True, "b", "b"))
        p.block("b")
        assert p.successors_of("a") == ("b",)


class TestExecutor:
    def test_loop_executes_n_times(self):
        result = execute(counting_loop(4))
        assert result.block_trace.count("loop") == 4
        assert result.env["i"] == 4
        assert result.si_executions == {"S": 8}
        assert result.cycles == 5 + 4 * 10 + 1

    def test_infinite_loop_detected(self):
        p = Program("a")
        p.block("a", terminator=Jump("a"))
        with pytest.raises(RuntimeError):
            execute(p, max_blocks=100)

    def test_profile_program_installs_counts(self):
        cfg, results = profile_program(counting_loop(5))
        assert cfg.get("loop").exec_count == 5
        assert cfg.edge("loop", "loop").count == 4
        assert cfg.edge_probability("loop", "loop") == pytest.approx(0.8)

    def test_profile_multiple_runs(self):
        cfg, results = profile_program(
            counting_loop(3), runs=4, env_factory=lambda i: {}
        )
        assert len(results) == 4
        assert cfg.get("entry").exec_count == 4

    def test_profile_run_validation(self):
        with pytest.raises(ValueError):
            profile_program(counting_loop(1), runs=0)


class TestTrace:
    def test_record_and_filter(self):
        t = Trace()
        t.record(5, EventKind.FORECAST, task="A", si="S")
        t.record(9, EventKind.SI_EXECUTED, task="B", si="S", mode="SW")
        assert len(t) == 2
        assert len(t.of_kind(EventKind.FORECAST)) == 1
        assert [e.task for e in t] == ["A", "B"]
        assert [e.si for e in t] == ["S", "S"]

    def test_first_with_detail_filter(self):
        t = Trace()
        t.record(1, EventKind.SI_EXECUTED, si="S", mode="SW")
        t.record(2, EventKind.SI_EXECUTED, si="S", mode="HW")
        hit = t.first(EventKind.SI_EXECUTED, mode="HW")
        assert hit.cycle == 2
        assert t.first(EventKind.SI_EXECUTED, mode="none") is None

    def test_render_timeline(self):
        t = Trace()
        t.record(1, EventKind.FORECAST, task="A", si="S", expected=3)
        text = t.render_timeline()
        assert "forecast" in text and "expected=3" in text


class TestMultiTaskSimulator:
    def make_sim(self, mini_library, tasks):
        rt = RisppRuntime(mini_library, 4, core_mhz=100.0)
        return rt, MultiTaskSimulator(rt, tasks)

    def test_single_task_clock(self, mini_library):
        task = ScriptedTask("A", [Compute(100), ExecuteSI("HT", times=2), Label("x")])
        rt, sim = self.make_sim(mini_library, [task])
        sim.run()
        # two software executions of HT at 298 cycles each
        assert task.clock == 100 + 2 * 298
        assert sim.label_time("A", "x") == task.clock

    def test_si_executions_interleave(self, mini_library):
        # Two tasks each doing 3 SI executions: events must be globally
        # ordered by cycle, not grouped per task.
        a = ScriptedTask("A", [ExecuteSI("HT", times=3)])
        b = ScriptedTask("B", [ExecuteSI("SATD", times=3)])
        rt, sim = self.make_sim(mini_library, [a, b])
        sim.run()
        execs = rt.trace.of_kind(EventKind.SI_EXECUTED)
        assert len(execs) == 6
        tasks_in_order = [e.task for e in execs]
        assert tasks_in_order != ["A"] * 3 + ["B"] * 3

    def test_zero_times_executes_nothing(self, mini_library):
        a = ScriptedTask("A", [ExecuteSI("HT", times=0)])
        rt, sim = self.make_sim(mini_library, [a])
        sim.run()
        assert a.done() and a.clock == 0
        assert rt.trace.of_kind(EventKind.SI_EXECUTED) == []

    def test_negative_times_rejected(self, mini_library):
        a = ScriptedTask("A", [ExecuteSI("HT", times=-1)])
        rt, sim = self.make_sim(mini_library, [a])
        with pytest.raises(ValueError, match="negative"):
            sim.run()
        assert rt.trace.of_kind(EventKind.SI_EXECUTED) == []

    def test_forecast_actions_reach_runtime(self, mini_library):
        a = ScriptedTask("A", [Forecast("HT", expected=9), Compute(10)])
        rt, sim = self.make_sim(mini_library, [a])
        sim.run()
        fc = rt.trace.of_kind(EventKind.FORECAST)
        assert fc and fc[0].detail["expected"] == 9

    def test_duplicate_task_names_rejected(self, mini_library):
        rt = RisppRuntime(mini_library, 2)
        with pytest.raises(ValueError):
            MultiTaskSimulator(
                rt, [ScriptedTask("A", []), ScriptedTask("A", [])]
            )

    def test_max_steps_guard(self, mini_library):
        a = ScriptedTask("A", [Compute(1)] * 10)
        rt, sim = self.make_sim(mini_library, [a])
        with pytest.raises(RuntimeError):
            sim.run(max_steps=3)
