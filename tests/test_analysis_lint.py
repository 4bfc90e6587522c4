"""Tests for rispp-lint: the diagnostic framework and all checker families.

Two halves: the shipped artifacts must lint clean (zero ERRORs), and a
seeded mutation of each invariant must trigger exactly its rule ID.
"""

import json

import pytest

from repro.analysis import (
    RULES,
    Diagnostic,
    DiagnosticReport,
    LintError,
    Severity,
    diag,
    lint_builtin,
    lint_cfg,
    lint_forecast,
    lint_library,
    lint_schedule,
    rules_of_family,
)
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
    list_schedule,
)
from repro.forecast import ForecastDecisionFunction
from repro.forecast.placement import ForecastPoint


def ids_of(report: DiagnosticReport) -> set[str]:
    return set(report.rule_ids())


def error_ids(report: DiagnosticReport) -> set[str]:
    return {d.rule_id for d in report.errors()}


# ---------------------------------------------------------------------------
# Framework primitives
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_severity_orders_and_parses(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert Severity.parse("error") is Severity.ERROR
        assert Severity.parse(Severity.WARNING) is Severity.WARNING
        assert Severity.parse(int(Severity.INFO)) is Severity.INFO

    def test_render_contains_rule_and_location(self):
        d = Diagnostic("LIB001", Severity.ERROR, "boom", subject="lib", location="SI X")
        assert "LIB001" in d.render()
        assert "lib SI X" in d.render()

    def test_report_aggregation(self):
        report = DiagnosticReport()
        assert report.clean() and report.ok() and report.exit_code() == 0
        report.append(Diagnostic("LIB003", Severity.WARNING, "w"))
        assert report.ok() and report.exit_code() == 0 and not report.clean()
        report.append(Diagnostic("LIB001", Severity.ERROR, "e"))
        assert not report.ok()
        assert report.exit_code() == 1
        assert report.rule_ids() == ["LIB003", "LIB001"]
        assert len(report.by_rule("LIB001")) == 1

    def test_raise_on_error_is_a_value_error(self):
        report = DiagnosticReport([Diagnostic("CFG001", Severity.ERROR, "no entry")])
        with pytest.raises(ValueError) as exc:
            report.raise_on_error()
        assert isinstance(exc.value, LintError)
        assert "CFG001" in str(exc.value)
        assert exc.value.report is report

    def test_json_round_trip(self):
        report = DiagnosticReport(
            [
                Diagnostic("LAT003", Severity.ERROR, "a", subject="s",
                           location="l", context={"pair": ["x", "y"]}),
                Diagnostic("LIB008", Severity.WARNING, "b"),
            ]
        )
        payload = json.loads(report.to_json())
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["exit_code"] == 1
        back = DiagnosticReport.from_json(report.to_json())
        assert back.diagnostics == report.diagnostics

    def test_render_text_has_summary_tail(self):
        empty = DiagnosticReport()
        assert "all checks passed" in empty.render_text()
        report = DiagnosticReport([Diagnostic("SCH001", Severity.ERROR, "x")])
        assert "1 error(s)" in report.render_text()


class TestRuleCatalogue:
    def test_every_rule_has_family_and_severity(self):
        families = {
            "lattice", "library", "cfg", "forecast", "schedule",
            "trace", "feasibility", "explore", "audit",
        }
        for rule in RULES.values():
            assert rule.family in families
            assert rule.severity in (Severity.INFO, Severity.WARNING, Severity.ERROR)
            assert rule.title

    def test_all_four_checker_families_are_registered(self):
        for family in ("lattice", "library", "cfg", "forecast", "schedule"):
            assert rules_of_family(family), family

    def test_diag_refuses_unregistered_rule_id(self):
        with pytest.raises(KeyError):
            diag("TRC999", "a checker emitting an unregistered ID")


# ---------------------------------------------------------------------------
# Clean artifacts produce zero ERRORs
# ---------------------------------------------------------------------------


class TestCleanArtifacts:
    def test_mini_library_has_no_errors(self, mini_library):
        report = lint_library(mini_library, containers=6)
        assert report.ok(), report.render_text()

    def test_hotspot_cfg_is_well_formed(self, hotspot_cfg):
        report = lint_cfg(hotspot_cfg)
        assert report.ok(), report.render_text()
        assert not report.by_rule("CFG007")  # trace-derived profile conserves flow

    def test_pipeline_forecast_lints_clean(self, hotspot_cfg, mini_library):
        from repro.forecast import run_forecast_pipeline

        fdfs = {
            "SATD": ForecastDecisionFunction(
                t_rot=50.0, t_sw=544.0, t_hw=24.0, rotation_energy=100.0
            ),
            "HT": ForecastDecisionFunction(
                t_rot=50.0, t_sw=298.0, t_hw=8.0, rotation_energy=100.0
            ),
        }
        annotation = run_forecast_pipeline(hotspot_cfg, mini_library, fdfs, 6)
        report = lint_forecast(
            hotspot_cfg, annotation, library=mini_library, fdfs=fdfs
        )
        assert report.ok(), report.render_text()

    def test_list_scheduler_output_lints_clean(self, mini_library):
        from repro.core import layered_dataflow

        dataflow = layered_dataflow([("Pack", 4, 1), ("Transform", 4, 2)])
        molecule = mini_library.space.molecule({"Pack": 2, "Transform": 2})
        schedule = list_schedule(dataflow, molecule)
        report = lint_schedule(dataflow, molecule, schedule)
        assert report.clean(), report.render_text()

    def test_builtin_subjects_exit_zero(self):
        report = lint_builtin()
        assert report.exit_code() == 0, report.render_text()

    def test_builtin_rejects_unknown_subject(self):
        with pytest.raises(ValueError, match="unknown lint subject"):
            lint_builtin(["mpeg"])


# ---------------------------------------------------------------------------
# Seeded violations: each mutation triggers exactly its rule
# ---------------------------------------------------------------------------


def foreign_space():
    return AtomCatalogue.of([AtomKind("Alien"), AtomKind("Weird")]).space


class TestLatticeViolations:
    def test_foreign_space_molecule_is_lat004(self, mini_library):
        si = mini_library.get("HT")
        si.implementations = (
            *si.implementations,
            MoleculeImpl(foreign_space().molecule({"Alien": 1}), 5),
        )
        report = lint_library(mini_library)
        assert "LAT004" in error_ids(report)
        assert report.exit_code() == 1

    def test_broken_rep_override_is_lat003(self, mini_catalogue):
        space = mini_catalogue.space

        class BrokenRep(SpecialInstruction):
            def rep(self):
                return self.space.molecule({"Pack": 99, "Transform": 99})

        si = BrokenRep(
            "BROKEN", space, 100,
            [MoleculeImpl(space.molecule({"Pack": 1}), 10)],
        )
        report = lint_library(SILibrary(mini_catalogue, [si]))
        assert "LAT003" in error_ids(report)


class TestLibraryViolations:
    def test_zero_software_cycles_is_lib001(self, mini_library):
        mini_library.get("HT").software_cycles = 0
        report = lint_library(mini_library)
        assert "LIB001" in error_ids(report)

    def test_foreign_si_space_is_lib002(self, mini_library):
        mini_library.get("SATD").space = foreign_space()
        report = lint_library(mini_library)
        assert "LIB002" in error_ids(report)

    def test_no_hardware_molecules_is_lib007(self, mini_library):
        mini_library.get("HT").implementations = ()
        report = lint_library(mini_library)
        assert "LIB007" in error_ids(report)

    def test_undersized_platform_is_lib004(self, mini_library):
        # The smallest HT molecule needs 2 reconfigurable atoms (Pack +
        # Transform); on a 1-container platform it can never leave SW.
        report = lint_library(mini_library, containers=1)
        assert "LIB004" in error_ids(report)

    def test_dominated_molecule_is_lib003_warning(self, mini_library):
        si = mini_library.get("HT")
        dominated = MoleculeImpl(si.implementations[1].molecule, 30)
        si.implementations = (*si.implementations, dominated)
        report = lint_library(mini_library)
        assert "LIB003" in ids_of(report)
        assert report.ok()  # dead weight, not an invariant violation

    def test_unused_atom_kind_is_lib008_warning(self, mini_catalogue, mini_library):
        # HT alone never uses the SATD atom: dead fabric area.
        report = lint_library(SILibrary(mini_catalogue, [mini_library.get("HT")]))
        assert [d.context["kind"] for d in report.by_rule("LIB008")] == ["SATD"]
        assert report.ok()
        assert not lint_library(mini_library).by_rule("LIB008")

    def test_molecule_not_faster_than_software_is_lib006_warning(
        self, mini_library
    ):
        assert not lint_library(mini_library).by_rule("LIB006")
        # HT's molecule 0 takes 22 cycles: against a 22-cycle software
        # molecule it saves nothing, so a rotation towards it never pays.
        mini_library.get("HT").software_cycles = 22
        report = lint_library(mini_library)
        assert [d.context["molecule"] for d in report.by_rule("LIB006")] == [0]
        assert report.ok()  # a wasted molecule, not an invariant violation

    def test_capacity_rules_skipped_without_containers(self, mini_library):
        report = lint_library(mini_library)  # no containers in context
        assert not report.by_rule("LIB004")
        assert not report.by_rule("LIB005")


class TestCfgViolations:
    def test_negative_edge_count_is_cfg006(self, hotspot_cfg):
        hotspot_cfg.edge("loopA", "loopA").count = -5
        report = lint_cfg(hotspot_cfg)
        assert "CFG006" in error_ids(report)

    def test_missing_entry_is_cfg001(self):
        cfg = ControlFlowGraph("ghost")
        cfg.block("a")
        cfg.entry = "ghost"  # add_block never saw a None entry
        report = lint_cfg(cfg)
        assert "CFG001" in error_ids(report)

    def test_broken_probability_override_is_cfg002(self, hotspot_cfg):
        class HalfTrue(ControlFlowGraph):
            def edge_probability(self, src, dst):
                return 0.4

        broken = HalfTrue()
        for block in hotspot_cfg.blocks():
            broken.add_block(block)
        for edge in hotspot_cfg.edges():
            broken.add_edge(edge.src, edge.dst, edge.count)
        report = lint_cfg(broken)
        assert "CFG002" in error_ids(report)

    def test_unreachable_block_is_cfg004_warning(self, hotspot_cfg):
        hotspot_cfg.block("orphan", cycles=5)
        report = lint_cfg(hotspot_cfg)
        assert "CFG004" in ids_of(report)
        assert report.ok()

    def test_edited_profile_breaks_flow_conservation(self, hotspot_cfg):
        hotspot_cfg.get("loopA").exec_count = 170  # edges still say 100
        report = lint_cfg(hotspot_cfg)
        assert "CFG007" in ids_of(report)


class TestForecastViolations:
    def fdfs(self, rotation_energy=100.0):
        return {
            "SATD": ForecastDecisionFunction(
                t_rot=50.0, t_sw=544.0, t_hw=24.0, rotation_energy=rotation_energy
            )
        }

    def test_unknown_block_is_fc001(self, hotspot_cfg):
        point = ForecastPoint("ghost", "SATD", 1.0, 10.0, 100.0)
        report = lint_forecast(hotspot_cfg, [point])
        assert "FC001" in error_ids(report)

    def test_unknown_si_is_fc002(self, hotspot_cfg, mini_library):
        point = ForecastPoint("init", "NOPE", 1.0, 10.0, 100.0)
        report = lint_forecast(hotspot_cfg, [point], library=mini_library)
        assert "FC002" in error_ids(report)

    def test_unreachable_use_is_fc003(self, hotspot_cfg):
        # HT runs only in loopB; "end" is after it on every path.
        point = ForecastPoint("end", "HT", 1.0, 10.0, 50.0)
        report = lint_forecast(hotspot_cfg, [point])
        assert "FC003" in error_ids(report)

    def test_out_of_range_probability_is_fc004(self, hotspot_cfg):
        point = ForecastPoint("init", "SATD", 1.5, 10.0, 100.0)
        report = lint_forecast(hotspot_cfg, [point])
        assert "FC004" in error_ids(report)

    def test_below_break_even_offset_is_fc005(self, hotspot_cfg):
        fdfs = self.fdfs(rotation_energy=1e6)  # offset >> 1 execution
        point = ForecastPoint("init", "SATD", 1.0, 120.0, 1.0)
        report = lint_forecast(hotspot_cfg, [point], fdfs=fdfs)
        assert "FC005" in error_ids(report)
        assert fdfs["SATD"].offset > 1.0

    def test_duplicate_pair_is_fc007(self, hotspot_cfg):
        point = ForecastPoint("init", "SATD", 1.0, 120.0, 100.0)
        report = lint_forecast(hotspot_cfg, [point, point])
        assert "FC007" in error_ids(report)

    def test_non_dominating_forecast_is_fc006_warning(self, mini_library):
        # diamond: entry -> (left | right) -> use; "left" does not
        # dominate the use block, so its forecast may be skipped.
        cfg = ControlFlowGraph()
        cfg.block("entry")
        cfg.block("left")
        cfg.block("right")
        cfg.block("use", si_usages={"SATD": 1})
        cfg.add_edge("entry", "left", count=1)
        cfg.add_edge("entry", "right", count=1)
        cfg.add_edge("left", "use", count=1)
        cfg.add_edge("right", "use", count=1)
        point = ForecastPoint("left", "SATD", 0.5, 1.0, 10.0)
        report = lint_forecast(cfg, [point], library=mini_library)
        assert "FC006" in ids_of(report)
        assert report.ok()


class TestScheduleViolations:
    def two_op_dataflow(self):
        return Dataflow(
            [
                AtomOp("a", "Pack", (), 2),
                AtomOp("b", "Pack", ("a",), 2),
            ]
        )

    def molecule(self, mini_library, counts):
        return mini_library.space.molecule(counts)

    def test_instance_overlap_is_sch001(self, mini_library):
        dataflow = Dataflow([AtomOp("a", "Pack", (), 2), AtomOp("b", "Pack", (), 2)])
        molecule = self.molecule(mini_library, {"Pack": 1})
        schedule = Schedule(
            makespan=2,
            placements=[
                ScheduledOp("a", "Pack", 0, 0, 2),
                ScheduledOp("b", "Pack", 0, 1, 3),
            ],
        )
        report = lint_schedule(dataflow, molecule, schedule)
        assert "SCH001" in error_ids(report)

    def test_nonexistent_instance_is_sch002(self, mini_library):
        dataflow = Dataflow([AtomOp("a", "Pack", (), 2)])
        molecule = self.molecule(mini_library, {"Pack": 1})
        schedule = Schedule(
            makespan=2, placements=[ScheduledOp("a", "Pack", 3, 0, 2)]
        )
        report = lint_schedule(dataflow, molecule, schedule)
        assert "SCH002" in error_ids(report)

    def test_dependency_violation_is_sch003(self, mini_library):
        dataflow = self.two_op_dataflow()
        molecule = self.molecule(mini_library, {"Pack": 2})
        schedule = Schedule(
            makespan=3,
            placements=[
                ScheduledOp("a", "Pack", 0, 0, 2),
                ScheduledOp("b", "Pack", 1, 1, 3),  # starts before a finishes
            ],
        )
        report = lint_schedule(dataflow, molecule, schedule)
        assert "SCH003" in error_ids(report)

    def test_short_makespan_is_sch004(self, mini_library):
        dataflow = Dataflow([AtomOp("a", "Pack", (), 2)])
        molecule = self.molecule(mini_library, {"Pack": 1})
        schedule = Schedule(
            makespan=1, placements=[ScheduledOp("a", "Pack", 0, 0, 2)]
        )
        report = lint_schedule(dataflow, molecule, schedule)
        assert "SCH004" in error_ids(report)

    def test_missing_operation_is_sch005(self, mini_library):
        dataflow = self.two_op_dataflow()
        molecule = self.molecule(mini_library, {"Pack": 2})
        schedule = Schedule(
            makespan=2, placements=[ScheduledOp("a", "Pack", 0, 0, 2)]
        )
        report = lint_schedule(dataflow, molecule, schedule)
        assert "SCH005" in error_ids(report)


# ---------------------------------------------------------------------------
# Acceptance sweep: >= 8 seeded ERROR violations across all four families
# ---------------------------------------------------------------------------


def test_seeded_violations_cover_all_families(mini_library, hotspot_cfg):
    mini_library.get("HT").software_cycles = 0  # LIB001
    satd = mini_library.get("SATD")
    satd.implementations = (  # LAT004
        *satd.implementations,
        MoleculeImpl(foreign_space().molecule({"Alien": 1}), 5),
    )
    hotspot_cfg.edge("loopA", "loopA").count = -5  # CFG006

    report = lint_library(mini_library)
    report.merge(lint_cfg(hotspot_cfg))
    report.merge(
        lint_forecast(
            hotspot_cfg,
            [
                ForecastPoint("ghost", "SATD", 1.0, 10.0, 100.0),  # FC001
                ForecastPoint("init", "SATD", 1.5, 10.0, 100.0),  # FC004
                ForecastPoint("init", "SATD", 1.5, 10.0, 100.0),  # FC007
            ],
        )
    )
    dataflow = Dataflow([AtomOp("a", "Pack", (), 2)])
    molecule = mini_library.space.molecule({"Pack": 1})
    report.merge(
        lint_schedule(
            dataflow,
            molecule,
            Schedule(makespan=1, placements=[ScheduledOp("a", "Pack", 3, 0, 2)]),
        )
    )  # SCH002 + SCH004

    triggered = error_ids(report)
    assert triggered >= {
        "LIB001", "LAT004", "CFG006", "FC001", "FC004",
        "FC007", "SCH002", "SCH004",
    }
    families = {RULES[rid].family for rid in triggered}
    assert families == {"lattice", "library", "cfg", "forecast", "schedule"}
    assert report.exit_code() == 1


# ---------------------------------------------------------------------------
# Integration layer wiring
# ---------------------------------------------------------------------------


class TestIntegrationWiring:
    def test_compile_and_run_fails_fast_on_broken_library(self, mini_library):
        from repro.sim.integration import compile_and_run
        from tests.test_integration_endtoend import hotspot_program, ht_fdf

        mini_library.get("HT").software_cycles = 0  # LIB001
        with pytest.raises(LintError, match="LIB001"):
            compile_and_run(
                hotspot_program(), mini_library, {"HT": ht_fdf()}, containers=4
            )

    def test_compile_and_run_lint_opt_out(self, mini_library):
        from repro.sim.integration import compile_and_run
        from tests.test_integration_endtoend import hotspot_program, ht_fdf

        mini_library.get("HT").software_cycles = 0
        outcome = compile_and_run(
            hotspot_program(), mini_library, {"HT": ht_fdf()},
            containers=4, lint=False,
        )
        assert outcome.result.total_cycles > 0

    def test_run_annotated_program_lints_forecasts(self, mini_library):
        from repro.forecast import ForecastAnnotation
        from repro.runtime import RisppRuntime
        from repro.sim.integration import run_annotated_program
        from tests.test_integration_endtoend import hotspot_program

        annotation = ForecastAnnotation.from_points(
            [ForecastPoint("init", "HT", 1.5, 600_000.0, 200.0)]  # FC004
        )
        runtime = RisppRuntime(mini_library, 6, core_mhz=100.0)
        with pytest.raises(LintError, match="FC004"):
            run_annotated_program(hotspot_program(), annotation, runtime)
