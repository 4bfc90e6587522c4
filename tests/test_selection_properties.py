"""Property tests for molecule selection and rotation planning."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AtomCatalogue,
    AtomKind,
    ForecastedSI,
    MoleculeImpl,
    SILibrary,
    SpecialInstruction,
    select_exhaustive,
    select_greedy,
    upgrade_path,
)
from repro.hardware import Fabric, ReconfigurationPort
from repro.runtime import LRUPolicy, plan_rotations

KINDS = ["A", "B", "C", "D"]


@st.composite
def random_library(draw):
    catalogue = AtomCatalogue.of(
        [AtomKind(k, bitstream_bytes=50_000) for k in KINDS]
    )
    space = catalogue.space
    sis = []
    n_sis = draw(st.integers(1, 3))
    for i in range(n_sis):
        sw = draw(st.integers(50, 600))
        impls = []
        n_impl = draw(st.integers(1, 4))
        for j in range(n_impl):
            counts = {
                k: draw(st.integers(0, 3)) for k in KINDS
            }
            if not any(counts.values()):
                counts["A"] = 1
            cycles = draw(st.integers(1, max(2, sw - 1)))
            impls.append(MoleculeImpl(space.molecule(counts), cycles))
        sis.append(SpecialInstruction(f"SI{i}", space, sw, impls))
    return SILibrary(catalogue, sis)


@st.composite
def library_and_workload(draw):
    library = draw(random_library())
    requests = [
        ForecastedSI(library.get(name), draw(st.floats(0.0, 100.0)))
        for name in library.names()
    ]
    budget = draw(st.integers(0, 10))
    return library, requests, budget


@settings(max_examples=60, deadline=None)
@given(library_and_workload())
def test_greedy_respects_budget(bundle):
    library, requests, budget = bundle
    result = select_greedy(library, requests, budget)
    assert result.containers_used <= budget
    # The reported demand covers every chosen molecule.
    for impl in result.chosen.values():
        if impl is not None:
            assert library.restricted_to_reconfigurable(impl.molecule) <= result.demand


@settings(max_examples=60, deadline=None)
@given(library_and_workload())
def test_greedy_never_beats_exhaustive(bundle):
    library, requests, budget = bundle
    g = select_greedy(library, requests, budget)
    e = select_exhaustive(library, requests, budget)
    assert g.total_benefit <= e.total_benefit + 1e-6
    assert e.containers_used <= budget


@settings(max_examples=40, deadline=None)
@given(library_and_workload())
def test_benefit_monotone_in_budget(bundle):
    library, requests, budget = bundle
    lesser = select_greedy(library, requests, budget)
    greater = select_greedy(library, requests, budget + 2)
    assert greater.total_benefit >= lesser.total_benefit - 1e-9


@settings(max_examples=40, deadline=None)
@given(library_and_workload())
def test_upgrade_path_benefits_monotone(bundle):
    # Greedy alone is not monotone in the budget (a different early pick
    # can strand a larger budget below a smaller one); upgrade_path
    # carries the best-so-far forward, so the published curve must be
    # non-decreasing step by step.
    library, requests, budget = bundle
    path = upgrade_path(library, requests, budget)
    assert len(path) == budget + 1
    benefits = [r.total_benefit for r in path]
    for lesser, greater in zip(benefits, benefits[1:]):
        assert greater >= lesser
    for cap, result in enumerate(path):
        assert result.containers_used <= cap


@settings(max_examples=40, deadline=None)
@given(library_and_workload(), st.integers(1, 8))
def test_rotation_plan_reaches_target_or_reports_unplaced(bundle, containers):
    library, requests, budget = bundle
    result = select_greedy(library, requests, min(budget, containers))
    fabric = Fabric(library.catalogue, containers)
    port = ReconfigurationPort(library.catalogue, core_mhz=100.0)
    plan = plan_rotations(
        library, fabric, port, result.demand, LRUPolicy(), now=0
    )
    # Everything missing is either scheduled or reported unplaced.
    scheduled: dict[str, int] = {}
    for job in plan.jobs:
        scheduled[job.atom] = scheduled.get(job.atom, 0) + 1
    for kind in plan.missing.kinds_used():
        need = plan.missing.count(kind)
        assert scheduled.get(kind, 0) + plan.unplaced.get(kind, 0) == need
    # Scheduled rotations never exceed the fabric size.
    assert len(plan.jobs) <= containers
    # After all rotations complete, the loaded population covers the
    # target up to the unplaced shortfall.
    port.advance(fabric, max((j.finish_at for j in plan.jobs), default=0))
    loaded = [c.atom for c in fabric.containers if c.is_available()]
    for kind in plan.target.kinds_used():
        short = plan.unplaced.get(kind, 0)
        assert loaded.count(kind) >= plan.target.count(kind) - short


@settings(max_examples=40, deadline=None)
@given(library_and_workload())
def test_chosen_molecules_belong_to_their_si(bundle):
    library, requests, budget = bundle
    result = select_greedy(library, requests, budget)
    for name, impl in result.chosen.items():
        if impl is not None:
            assert impl in library.get(name).implementations
