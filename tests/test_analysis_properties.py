"""Property tests for rispp-lint: validity is closed under generation.

Any structurally valid random library or profiled CFG must lint with zero
ERROR diagnostics, and each seeded mutation must trigger exactly its rule.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import lint_cfg, lint_library, lint_schedule
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
    infimum,
    supremum,
)

KINDS = ("Pack", "Transform", "SATD")


def make_catalogue() -> AtomCatalogue:
    return AtomCatalogue.of(
        [
            AtomKind("Load", reconfigurable=False),
            AtomKind("Pack", bitstream_bytes=65_713),
            AtomKind("Transform", bitstream_bytes=59_353),
            AtomKind("SATD", bitstream_bytes=58_141),
        ]
    )


molecule_counts = st.fixed_dictionaries(
    {kind: st.integers(min_value=0, max_value=4) for kind in KINDS}
).filter(lambda counts: any(counts.values()))


@st.composite
def libraries(draw):
    catalogue = make_catalogue()
    space = catalogue.space
    n_sis = draw(st.integers(min_value=1, max_value=3))
    sis = []
    for i in range(n_sis):
        software_cycles = draw(st.integers(min_value=50, max_value=1000))
        impls = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            counts = draw(molecule_counts)
            cycles = draw(st.integers(min_value=1, max_value=software_cycles - 1))
            impls.append(MoleculeImpl(space.molecule(counts), cycles))
        sis.append(SpecialInstruction(f"SI{i}", space, software_cycles, impls))
    return SILibrary(catalogue, sis)


@st.composite
def profiled_cfgs(draw):
    """A chain of loop blocks with trace-consistent profile counts."""
    loop_counts = draw(
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=5)
    )
    cfg = ControlFlowGraph()
    cfg.block("entry", cycles=draw(st.integers(min_value=1, max_value=100)))
    profile = {"entry": 1}
    prev = "entry"
    for i, k in enumerate(loop_counts):
        name = f"loop{i}"
        cfg.block(name, cycles=10, si_usages={"SATD": 1})
        cfg.add_edge(prev, name, count=1)
        if k > 1:
            cfg.add_edge(name, name, count=k - 1)
        profile[name] = k
        prev = name
    cfg.block("end", cycles=1)
    cfg.add_edge(prev, "end", count=1)
    profile["end"] = 1
    cfg.set_profile(profile)
    return cfg


class TestValidArtifactsLintClean:
    @given(libraries())
    def test_random_valid_library_has_zero_errors(self, library):
        report = lint_library(library, containers=12)
        assert report.ok(), report.render_text()

    @given(profiled_cfgs())
    def test_random_profiled_cfg_has_zero_errors(self, cfg):
        report = lint_cfg(cfg)
        assert report.ok(), report.render_text()
        assert not report.by_rule("CFG007")


@st.composite
def random_cfgs(draw):
    """Any graph the public API builds: random edges, arbitrary counts."""
    n = draw(st.integers(min_value=1, max_value=6))
    cfg = ControlFlowGraph()
    for i in range(n):
        cfg.block(f"b{i}")
    pairs = draw(st.sets(st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )))
    for src, dst in sorted(pairs):
        cfg.add_edge(f"b{src}", f"b{dst}",
                     count=draw(st.integers(min_value=0, max_value=10**6)))
    return cfg


class TestRetiredRulesHoldByConstruction:
    """The invariants of retired rules that no constructed input can break."""

    @given(st.lists(
        st.fixed_dictionaries(
            {kind: st.integers(min_value=0, max_value=20)
             for kind in ("Load", *KINDS)}
        ).filter(lambda counts: any(counts.values())),
        min_size=1, max_size=8,
    ))
    def test_rep_lies_between_inf_and_sup(self, molecule_list):
        # LAT003's invariant: Rep(S) = ceil(avg) is within [inf(S), sup(S)].
        space = make_catalogue().space
        si = SpecialInstruction(
            "SI0", space, 1000,
            [MoleculeImpl(space.molecule(c), 10) for c in molecule_list],
        )
        molecules = si.molecules()
        assert infimum(molecules) <= si.rep() <= supremum(molecules)

    @given(random_cfgs())
    def test_edge_probabilities_form_a_distribution(self, cfg):
        # CFG002's and CFG003's invariants: out-edge probabilities lie in
        # [0, 1] and sum to 1 for every block with successors.
        for block_id in cfg.block_ids():
            successors = cfg.successors(block_id)
            if not successors:
                continue
            ps = [cfg.edge_probability(block_id, s) for s in successors]
            assert all(0.0 <= p <= 1.0 for p in ps)
            assert abs(sum(ps) - 1.0) <= 1e-9


class TestSeededMutationsTriggerTheirRule:
    @given(profiled_cfgs(), st.integers(min_value=-100, max_value=-1))
    def test_negative_count_triggers_cfg006(self, cfg, bad_count):
        """CFG006 is retired: ``set_profile`` refuses a negative count."""
        edge = cfg.edges()[0]
        with pytest.raises(ValueError, match="cannot be negative"):
            cfg.set_profile(edge_counts={(edge.src, edge.dst): bad_count})
        assert edge.count >= 0

    @given(
        molecule_counts,
        st.integers(min_value=10, max_value=100),
        st.integers(min_value=1, max_value=50),
    )
    def test_dominated_molecule_triggers_lib003(self, counts, cycles, slowdown):
        catalogue = make_catalogue()
        space = catalogue.space
        si = SpecialInstruction(
            "SI0", space, 1000,
            [
                MoleculeImpl(space.molecule(counts), cycles),
                MoleculeImpl(space.molecule(counts), cycles + slowdown),
            ],
        )
        report = lint_library(SILibrary(catalogue, [si]))
        findings = report.by_rule("LIB003")
        assert len(findings) == 1  # the slower copy, never the faster one
        assert findings[0].context["molecule"] == 1

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=5),
    )
    def test_over_capacity_placement_triggers_sch002(self, capacity, excess):
        space = make_catalogue().space
        dataflow = Dataflow([AtomOp("a", "Pack", (), 2)])
        molecule = space.molecule({"Pack": capacity})
        schedule = Schedule(
            makespan=2,
            placements=[ScheduledOp("a", "Pack", capacity + excess, 0, 2)],
        )
        report = lint_schedule(dataflow, molecule, schedule)
        assert {d.rule_id for d in report.errors()} == {"SCH002"}
