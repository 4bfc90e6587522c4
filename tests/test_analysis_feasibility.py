"""rispp-verify's static feasibility prover (rules FEA001..FEA004).

The acceptance property: the prover's worst-case rotation-latency bound,
computed from the library alone, must dominate every rotation latency
actually observed in the shipped suite traces — including runs with
fault injection (resequencing only pulls jobs earlier).
"""

from types import SimpleNamespace

import pytest

from repro.analysis import (
    port_backlog_bound,
    prove_feasibility,
    rotation_cycle_table,
    run_verify_suite,
)
from repro.bench.suites import build_synthetic_library
from repro.core import (
    AtomCatalogue,
    AtomKind,
    MoleculeImpl,
    SILibrary,
    SpecialInstruction,
)
from repro.hardware.reconfig import ReconfigurationPort
from repro.sim import EventKind


@pytest.fixture(scope="module")
def library():
    return build_synthetic_library()


def _point(si_name, block_id, distance):
    return SimpleNamespace(si_name=si_name, block_id=block_id, distance=distance)


def _library_with_unwritable_kind():
    """'Ghost' has no bitstream: molecules demanding it can never load."""
    catalogue = AtomCatalogue.of(
        [
            AtomKind("Real", bitstream_bytes=50_000),
            AtomKind("Ghost", bitstream_bytes=0),
        ]
    )
    space = catalogue.space
    si = SpecialInstruction(
        "MIXED",
        space,
        400,
        [
            MoleculeImpl(space.molecule({"Real": 1}), 60),
            MoleculeImpl(space.molecule({"Real": 1, "Ghost": 1}), 20),
        ],
    )
    return SILibrary(catalogue, [si])


class TestRotationCycleTable:
    def test_matches_the_port_model(self, library):
        table = rotation_cycle_table(library)
        port = ReconfigurationPort(library.catalogue, core_mhz=100.0)
        for kind in library.catalogue.reconfigurable_kinds():
            assert table[kind.name] == port.rotation_cycles(kind.name)

    def test_omits_kinds_without_bitstream(self):
        lib = _library_with_unwritable_kind()
        table = rotation_cycle_table(lib)
        assert "Real" in table and "Ghost" not in table


class TestProver:
    def test_every_si_gets_a_bound_and_fea004(self, library):
        result = prove_feasibility(library, 5)
        assert set(result.bounds) == {si.name for si in library}
        fea4 = result.report.by_rule("FEA004")
        assert len(fea4) == len(result.bounds)
        for bound in result.bounds.values():
            assert bound.loadable
            assert bound.bound_cycles == bound.write_cycles + bound.queue_cycles
            assert bound.min_upgrade_cycles <= bound.write_cycles

    def test_bound_structure_is_sound(self, library):
        # write = serial port time of the worst molecule's own demand;
        # queue = the remaining containers' worst foreign writes.
        result = prove_feasibility(library, 5)
        table = rotation_cycle_table(library)
        max_rot = max(table.values())
        for bound in result.bounds.values():
            jobs = sum(bound.demand.values())
            assert bound.queue_cycles == max(0, 5 - jobs) * max_rot
            assert bound.write_cycles == sum(
                count * table[kind] for kind, count in bound.demand.items()
            )

    def test_container_starved_molecule_flagged_fea002(self, library):
        # On one container the 4-atom molecules can never be placed.
        result = prove_feasibility(library, 1)
        dead = result.report.by_rule("FEA002")
        assert dead
        assert all("container" in d.message for d in dead)

    def test_unwritable_molecule_and_dead_atom_flagged(self):
        lib = _library_with_unwritable_kind()
        result = prove_feasibility(lib, 4)
        assert result.report.by_rule("FEA002")
        fea3 = result.report.by_rule("FEA003")
        assert len(fea3) == 1
        assert fea3[0].context["atom"] == "Ghost"
        # The SW-fallback bound still exists via the loadable molecule.
        assert result.bounds["MIXED"].loadable

    def test_zero_containers_makes_everything_unloadable(self, library):
        result = prove_feasibility(library, 0)
        assert all(not b.loadable for b in result.bounds.values())
        assert result.port_backlog_cycles == 0

    def test_negative_containers_rejected(self, library):
        with pytest.raises(ValueError, match="negative"):
            prove_feasibility(library, -1)


class TestStarvation:
    def test_too_close_forecast_flagged_fea001(self, library):
        result = prove_feasibility(
            library, 5, placements=[_point("SI0", "bb_hot", 10.0)]
        )
        findings = result.report.by_rule("FEA001")
        assert len(findings) == 1
        assert findings[0].context["si"] == "SI0"

    def test_far_enough_forecast_is_clean(self, library):
        far = prove_feasibility(library, 5).bounds["SI0"].min_upgrade_cycles
        result = prove_feasibility(
            library, 5, placements=[_point("SI0", "bb_hot", float(far + 1))]
        )
        assert not result.report.by_rule("FEA001")

    def test_forecast_for_unloadable_si_flagged(self):
        lib = _library_with_unwritable_kind()
        result = prove_feasibility(
            lib, 0, placements=[_point("MIXED", "bb", 1e9)]
        )
        assert result.report.by_rule("FEA001")


class TestProverReport:
    def test_placements_flow_through_prove_feasibility(self, library):
        report = prove_feasibility(
            library, 5, placements=[_point("SI0", "bb", 1.0)], subject="unit"
        ).report
        ids = set(d.rule_id for d in report)
        assert "FEA004" in ids and "FEA001" in ids
        assert {d.subject for d in report} == {"unit"}
        assert report.ok()  # feasibility findings never ERROR


class TestBoundDominatesObservedLatency:
    """Acceptance: static bound >= every observed rotation latency."""

    @pytest.mark.parametrize("suite", ["synthetic", "h264", "aes"])
    def test_bound_covers_suite_traces(self, suite):
        result = run_verify_suite(suite, quick=True)
        rt = result.runtime
        assert rt is not None
        bound = port_backlog_bound(rt.library, len(rt.fabric))
        observed = [
            e.detail["finishes"] - e.cycle
            for e in rt.trace.events
            if e.kind is EventKind.ROTATION_REQUESTED
        ]
        assert observed, f"suite {suite} requested no rotations"
        assert max(observed) <= bound
        # The per-SI FEA004 bounds are also reported by the suite result.
        assert result.feasibility.port_backlog_cycles == bound
