"""Every lint, feasibility and trace rule earns its place.

Each rule of the library, CFG, forecast, schedule and feasibility
families has a planted defect, built only through the public
constructors, that this rule catches and no other rule catches at the
same or a higher severity.  Each trace rule has one too: an edit of a
clean golden-trace file, read back through ``golden_from_dict`` (and for
TRC016, a tampered recovery store).  A rule without such a defect is
retired (docs/analysis.md lists the retired IDs and what refuses their
defect now); a new rule needs a row in ``PLANTS`` or ``TRACE_PLANTS``.
"""

import copy
import json

import pytest

from repro.analysis import (
    RULES,
    Severity,
    lint_cfg,
    lint_forecast,
    lint_library,
    lint_schedule,
    prove_feasibility,
)
from repro.analysis.verify import golden_from_dict, golden_from_runtime, verify_golden
from repro.cfg import ControlFlowGraph
from repro.core import (
    AtomCatalogue,
    AtomKind,
    AtomOp,
    Dataflow,
    MoleculeImpl,
    Schedule,
    ScheduledOp,
    SILibrary,
    SpecialInstruction,
)
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.forecast import ForecastDecisionFunction
from repro.forecast.placement import ForecastPoint
from repro.hardware.energy import EnergyModel
from repro.recovery import RecoverableRuntime, list_snapshots, verify_resume
from repro.runtime import RisppRuntime
from repro.sim.suites import suite_library

KINDS = (
    AtomKind("Load", reconfigurable=False),
    AtomKind("Pack", bitstream_bytes=65_713),
    AtomKind("Transform", bitstream_bytes=59_353),
    AtomKind("SATD", bitstream_bytes=58_141),
)
CONTAINERS = 12  # every molecule of the clean library fits
FAR = 1e9  # a distance beyond any upgrade latency: FEA001 stays quiet


def library(*, extra_kinds=(), ht_sw=298, ht_extra=(), big=False):
    catalogue = AtomCatalogue.of([*KINDS, *extra_kinds])
    space = catalogue.space
    ht = SpecialInstruction("HT", space, ht_sw, [
        MoleculeImpl(space.molecule({"Load": 1, "Pack": 1, "Transform": 1}), 22),
        MoleculeImpl(space.molecule({"Load": 1, "Pack": 1, "Transform": 2}), 17),
        MoleculeImpl(space.molecule({"Load": 4, "Pack": 4, "Transform": 4}), 8),
        *(MoleculeImpl(space.molecule(counts), cycles) for counts, cycles in ht_extra),
    ])
    satd = SpecialInstruction("SATD", space, 544, [
        MoleculeImpl(space.molecule({"Load": 1, "Pack": 1, "Transform": 1, "SATD": 1}), 24),
        MoleculeImpl(space.molecule({"Load": 2, "Pack": 1, "Transform": 2, "SATD": 1}), 18),
        MoleculeImpl(space.molecule({"Load": 4, "Pack": 4, "Transform": 4, "SATD": 2}), 12),
    ])
    sis = [ht, satd]
    if big:
        sis.append(SpecialInstruction(
            "BIG", space, 900,
            [MoleculeImpl(space.molecule({"Pack": 7, "Transform": 6}), 5)],
        ))
    return SILibrary(catalogue, sis)


def hotspot(*, entry=None, orphan=False, loop_b_extra=(), loop_a_runs=100):
    """``init -> warmA -> loopA(SATD) -> mid -> warmB -> loopB(HT) -> end``."""
    cfg = ControlFlowGraph(entry)
    cfg.block("init", cycles=50)
    cfg.block("warmA", cycles=120)
    cfg.block("loopA", cycles=100, si_usages={"SATD": 1})
    cfg.block("mid", cycles=30)
    cfg.block("warmB", cycles=90)
    cfg.block("loopB", cycles=80,
              si_usages={"HT": 1, **{si: 1 for si in loop_b_extra}})
    cfg.block("end", cycles=10)
    if orphan:
        cfg.block("orphan", cycles=5)
    for src, dst, count in [
        ("init", "warmA", 1), ("warmA", "loopA", 1), ("loopA", "loopA", 99),
        ("loopA", "mid", 1), ("mid", "warmB", 1), ("warmB", "loopB", 1),
        ("loopB", "loopB", 49), ("loopB", "end", 1),
    ]:
        cfg.add_edge(src, dst, count)
    cfg.set_profile({"init": 1, "warmA": 1, "loopA": loop_a_runs, "mid": 1,
                     "warmB": 1, "loopB": 50, "end": 1})
    return cfg


def diamond():
    """``entry -> (left | right) -> use(HT)``."""
    cfg = ControlFlowGraph()
    for block in ("entry", "left", "right"):
        cfg.block(block)
    cfg.block("use", si_usages={"HT": 1})
    for src, dst in [("entry", "left"), ("entry", "right"),
                     ("left", "use"), ("right", "use")]:
        cfg.add_edge(src, dst, count=1)
    cfg.set_profile({"entry": 2, "left": 1, "right": 1, "use": 2})
    return cfg


FDFS = {
    "SATD": ForecastDecisionFunction(
        t_rot=50.0, t_sw=544.0, t_hw=24.0, rotation_energy=100.0),
    "HT": ForecastDecisionFunction(
        t_rot=50.0, t_sw=298.0, t_hw=8.0, rotation_energy=100.0),
}
SATD_POINT = ForecastPoint("init", "SATD", 1.0, FAR, 100.0)
HT_POINT = ForecastPoint("mid", "HT", 1.0, FAR, 50.0)


def chain():
    """``a -> b``, two 2-cycle Pack operations."""
    return Dataflow([AtomOp("a", "Pack", (), 2), AtomOp("b", "Pack", ("a",), 2)])


def schedule(*placements, makespan=4):
    return Schedule(makespan=makespan,
                    placements=[ScheduledOp(*p) for p in placements])


CLEAN_SCHEDULE = (chain(), {"Pack": 1},
                  schedule(("a", "Pack", 0, 0, 2), ("b", "Pack", 0, 2, 4)))


def findings(*, lib=None, cfg=None, points=(SATD_POINT, HT_POINT),
             sched=CLEAN_SCHEDULE, survivable=1):
    """``(rule_id, location, message)`` of every analyser on one input."""
    lib = lib or library()
    cfg = cfg or hotspot()
    dataflow, counts, planned = sched
    reports = [
        lint_library(lib, containers=CONTAINERS),
        lint_cfg(cfg),
        lint_forecast(cfg, list(points), library=lib, fdfs=FDFS),
        lint_schedule(dataflow, lib.space.molecule(counts), planned),
        prove_feasibility(lib, CONTAINERS, placements=list(points),
                          survivable_failures=survivable).report,
    ]
    return {(d.rule_id, d.location, d.message) for r in reports for d in r}


#: rule -> (clean input, planted input), each as ``findings`` keywords.
PLANTS = {
    # HT gains a copy of its molecule 1 that is 13 cycles slower.
    "LIB003": ({}, {"lib": library(
        ht_extra=[({"Load": 1, "Pack": 1, "Transform": 2}, 30)])}),
    # A third SI whose only molecule needs 13 of the 12 containers.
    "LIB004": ({}, {"lib": library(big=True)}),
    # HT's software molecule is no slower than its molecule 0.
    "LIB006": ({}, {"lib": library(ht_sw=22)}),
    # A rotatable kind no molecule uses.
    "LIB008": ({}, {"lib": library(
        extra_kinds=[AtomKind("Spare", bitstream_bytes=50_000)])}),
    "CFG001": ({}, {"cfg": hotspot(entry="ghost")}),
    "CFG004": ({}, {"cfg": hotspot(orphan=True)}),
    # loopA's count disagrees with its edges.
    "CFG007": ({}, {"cfg": hotspot(loop_a_runs=170)}),
    "FC001": ({}, {"points": [SATD_POINT, HT_POINT,
                              ForecastPoint("ghost", "SATD", 1.0, FAR, 100.0)]}),
    # loopB also uses an SI the library lacks, and mid forecasts it.
    "FC002": ({}, {"cfg": hotspot(loop_b_extra=["DCT"]),
                   "points": [SATD_POINT, HT_POINT,
                              ForecastPoint("mid", "DCT", 1.0, FAR, 50.0)]}),
    # HT forecast after its only use.
    "FC003": ({}, {"points": [SATD_POINT, HT_POINT,
                              ForecastPoint("end", "HT", 1.0, FAR, 50.0)]}),
    "FC004": ({}, {"points": [ForecastPoint("init", "SATD", 1.5, FAR, 100.0),
                              HT_POINT]}),
    # Expected executions below the FDF's break-even offset.
    "FC005": ({}, {"points": [ForecastPoint("init", "SATD", 1.0, FAR, 0.1),
                              HT_POINT]}),
    # A forecast in one arm of a diamond dominates no use.
    "FC006": ({"cfg": diamond(),
               "points": [ForecastPoint("entry", "HT", 0.5, FAR, 50.0)]},
              {"cfg": diamond(),
               "points": [ForecastPoint("left", "HT", 0.5, FAR, 50.0)]}),
    "FC007": ({}, {"points": [SATD_POINT, HT_POINT, SATD_POINT]}),
    # Independent a [0,2) and b [1,3) share one Pack instance.
    "SCH001": ({}, {"sched": (
        Dataflow([AtomOp("a", "Pack", (), 2), AtomOp("b", "Pack", (), 2)]),
        {"Pack": 1},
        schedule(("a", "Pack", 0, 0, 2), ("b", "Pack", 0, 1, 3)))}),
    # b on Pack instance 3 of a one-Pack molecule.
    "SCH002": ({}, {"sched": (chain(), {"Pack": 1}, schedule(
        ("a", "Pack", 0, 0, 2), ("b", "Pack", 3, 2, 4)))}),
    # b starts before a, which it depends on, finishes.
    "SCH003": ({}, {"sched": (chain(), {"Pack": 2}, schedule(
        ("a", "Pack", 0, 0, 2), ("b", "Pack", 1, 1, 3)))}),
    "SCH004": ({}, {"sched": (chain(), {"Pack": 1}, schedule(
        ("a", "Pack", 0, 0, 2), ("b", "Pack", 0, 2, 4), makespan=3))}),
    "SCH005": ({}, {"sched": (chain(), {"Pack": 1}, schedule(
        ("a", "Pack", 0, 0, 2)))}),
    # SATD forecast 100 cycles ahead: no upgrade can land in time.
    "FEA001": ({}, {"points": [ForecastPoint("init", "SATD", 1.0, 100.0, 100.0),
                               HT_POINT]}),
    # HT gains a fast molecule of 13 rotatable atoms.
    "FEA002": ({}, {"lib": library(ht_extra=[({"Pack": 7, "Transform": 6}, 5)])}),
    # Three failures leave 9 containers; SATD's largest molecule needs 10.
    "FEA005": ({}, {"survivable": 3}),
}

#: FEA004 is INFO: it publishes the proven bounds and flags no defect.
NO_DEFECT = {"FEA004"}


def test_every_rule_of_the_static_families_has_a_plant():
    families = {"library", "cfg", "forecast", "schedule", "feasibility"}
    declared = {rid for rid, r in RULES.items() if r.family in families}
    assert set(PLANTS) == declared - NO_DEFECT


@pytest.mark.parametrize("rule_id", sorted(PLANTS))
def test_plant_is_caught_by_its_rule_alone(rule_id):
    clean, planted = PLANTS[rule_id]
    new = findings(**planted) - findings(**clean)
    assert rule_id in {r for r, _, _ in new}
    severity = RULES[rule_id].severity
    rivals = {r for r, _, _ in new if r != rule_id and RULES[r].severity >= severity}
    assert not rivals, f"{rule_id}'s defect is also caught by {sorted(rivals)}"


def test_clean_input_has_only_the_published_bounds():
    assert {r for r, _, _ in findings()} == NO_DEFECT
    assert RULES["FEA004"].severity is Severity.INFO


# -- trace rules: planted edits of one clean golden trace --------------------


def trace_scenario(wrap=lambda runtime: runtime):
    """A synthetic run through every event kind the replay judges: an
    SW -> HW upgrade, a transient fault from injection to repair, a
    container failure, and a last forecast whose two rotations are still
    in flight when the trace ends (so they can be edited in isolation)."""
    injector = FaultInjector(
        FaultSchedule([FaultEvent(300_000, FaultKind.TRANSIENT, container=0)]),
        scrub_period=10_000,
    )
    rt = RisppRuntime(suite_library("synthetic"), 5, core_mhz=100.0,
                      energy_model=EnergyModel(), faults=injector)
    rt = wrap(rt)
    rt.forecast("SI0", 0, expected=64.0)
    now = 1_000
    for _ in range(3):
        now += rt.execute_si("SI0", now)
    now = 260_094  # the last of the four rotations has landed
    for _ in range(8):
        now += rt.execute_si("SI0", now) + 10_000
    rt.forecast_end("SI0", 500_000)
    rt.advance(2_000_000)
    rt.fail_container(4, 2_000_000)
    rt.forecast("SI1", 2_000_001, expected=64.0)
    return rt


@pytest.fixture(scope="module")
def clean_golden():
    return golden_from_runtime(trace_scenario(), suite="synthetic")


def _find(events, kind, *, nth=0, **detail):
    """Index of the ``nth`` event of ``kind`` (negative: from the end)
    whose detail holds ``detail``."""
    hits = [
        i for i, e in enumerate(events)
        if e["kind"] == kind and all(e["detail"].get(k) == v for k, v in detail.items())
    ]
    return hits[nth]


def _edit(kind, nth=0, **changes):
    """Plant: set ``changes`` in the ``nth`` event of ``kind``."""
    def plant(golden):
        golden["events"][_find(golden["events"], kind, nth=nth)]["detail"].update(changes)
    return plant


def _shift(kind, key, delta, nth=0):
    def plant(golden):
        e = golden["events"][_find(golden["events"], kind, nth=nth)]
        e["detail"][key] += delta
    return plant


def _swap_sw_runs(golden):
    events = golden["events"]
    i = _find(events, "si_executed", nth=1)
    events[i], events[i + 1] = events[i + 1], events[i]


def _sw_run_as_hw(golden):
    e = golden["events"][_find(golden["events"], "si_executed")]
    impl = suite_library("synthetic").get(e["si"]).implementations[0]
    e["detail"].update(mode=impl.label or "HW", cycles=impl.cycles)


def _last_hw_run_as_sw(golden):
    e = golden["events"][_find(golden["events"], "si_executed", nth=-2, mode="HW")]
    e["detail"].update(mode="SW", cycles=suite_library("synthetic").get(e["si"]).software_cycles)


def _duplicate_last_rotation(golden):
    events = golden["events"]
    events.append(copy.deepcopy(events[-1]))


def _drop_second_mode_switch(golden):
    del golden["events"][_find(golden["events"], "si_mode_switch", nth=1)]


def _rotation_into_quarantine(golden):
    events = golden["events"]
    repair = _find(events, "rotation_requested", repair=True)
    planned = copy.deepcopy(events[repair])
    del planned["detail"]["repair"]
    events.insert(repair, planned)


def _rename_si(kind):
    def plant(golden):
        golden["events"][_find(golden["events"], kind)]["si"] = "GHOST"
    return plant


def _overstate_executions(golden):
    golden["totals"]["si_executions"] += 7


#: rule -> an edit of the clean golden trace that only this rule catches.
TRACE_PLANTS = {
    # Two SW runs of the same shape swap places: only the order breaks.
    "TRC001": _swap_sw_runs,
    # The queued second rotation of the last forecast starts 10 cycles
    # into the first one's write.
    "TRC002": _shift("rotation_requested", "starts", -10, nth=-1),
    "TRC003": _edit("reallocation", container=99),
    # The last rotation is requested twice: one container, two writes.
    "TRC004": _duplicate_last_rotation,
    # The first SW run claims a molecule before any rotation landed.
    "TRC005": _sw_run_as_hw,
    "TRC006": _edit("si_executed", cycles=999_999),
    "TRC007": _overstate_executions,
    # The last rotation's write takes 123 cycles longer than its bitstream.
    "TRC008": _shift("rotation_requested", "finishes", 123, nth=-1),
    "TRC009": _edit("rotation_requested", -1, detail_atom="NoSuchAtom"),
    "TRC010": _rename_si("forecast_end"),
    # The HW -> SW fallback after the quarantine loses its switch event.
    "TRC011": _drop_second_mode_switch,
    "TRC012": _edit("forecast", expected=-3.0),
    # An HW run mid-stream claims SW although its molecule is resident.
    "TRC013": _last_hw_run_as_sw,
    "TRC014": _edit("fault_injected", atom="Syn3"),
    # A planned (non-repair) write targets the quarantined container.
    "TRC015": _rotation_into_quarantine,
}


def trace_findings(golden):
    report = verify_golden(golden_from_dict(json.loads(json.dumps(golden))))
    return {(d.rule_id, d.location, d.message) for d in report}


def test_every_trace_rule_has_a_plant():
    declared = {rid for rid, r in RULES.items() if r.family == "trace"}
    assert set(TRACE_PLANTS) | {"TRC016"} == declared


def test_clean_golden_trace_has_no_findings(clean_golden):
    assert trace_findings(clean_golden) == set()


@pytest.mark.parametrize("rule_id", sorted(TRACE_PLANTS))
def test_trace_plant_is_caught_by_its_rule_alone(rule_id, clean_golden):
    planted = copy.deepcopy(clean_golden)
    TRACE_PLANTS[rule_id](planted)
    caught = {r for r, _, _ in trace_findings(planted)}
    assert caught == {rule_id}


def test_tampered_store_is_caught_by_trc016_alone(tmp_path):
    rt = trace_scenario(lambda rt: RecoverableRuntime(rt, tmp_path, checkpoint_every=5))
    rt.close()
    assert verify_resume(rt, tmp_path).clean()
    _seq, path = list_snapshots(tmp_path)[1]
    data = json.loads(path.read_text())
    data["state"]["trace"]["events"][0][0] += 1
    path.write_text(json.dumps(data) + "\n")
    assert set(verify_resume(rt, tmp_path).rule_ids()) == {"TRC016"}
