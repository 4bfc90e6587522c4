"""Reference/fast kernel equivalence: fuzzed, bit-for-bit.

The runtime runs :class:`NumpyBackend`: a linear pure-python greedy loop
(numpy only for exhaustive enumeration and Pareto masks).  The
pure-python :class:`ReferenceBackend` is its executable specification —
the quadratic greedy that rebuilds the demand supremum per candidate.
The fast kernels must reproduce the reference's ``SelectionResult``s
*exactly* (same chosen implementations, same float benefits, same
tie-breaks, same ``considered`` counters), and a runtime or chaos
campaign driven by either must emit identical traces and reports.
Hypothesis hunts for libraries and workloads where the two disagree,
every shipped library is checked at every budget it is run with, and
neither kernel set may mutate its inputs.
"""

import contextlib
import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.aes import build_aes_library
from repro.apps.h264 import build_extended_library, build_h264_library
from repro.bench import trace_signature
from repro.bench.suites import build_synthetic_library, run_si_stream
from repro.core import (
    AtomCatalogue,
    AtomKind,
    ForecastedSI,
    Molecule,
    MoleculeImpl,
    NumpyBackend,
    ReferenceBackend,
    SILibrary,
    SpecialInstruction,
    select_exhaustive,
    select_greedy,
    upgrade_path,
)
from repro.core import backend as backend_mod
from repro.faults import run_chaos_suite
from repro.sim.suites import SUITES

REFERENCE = ReferenceBackend()
NUMPY = NumpyBackend()


@contextlib.contextmanager
def running_on(kernel):
    """Swap the shared kernel instance for the duration of the block."""
    saved = backend_mod._kernel
    backend_mod._kernel = kernel
    try:
        yield
    finally:
        backend_mod._kernel = saved


def on_both(select, *args, **kwargs):
    """``select``'s result on the reference and on the runtime's kernels."""
    with running_on(REFERENCE):
        ref = select(*args, **kwargs)
    with running_on(NUMPY):
        fast = select(*args, **kwargs)
    return ref, fast

KINDS = ["A", "B", "C", "D"]


@st.composite
def random_library(draw, static_first_kind=False):
    kinds = []
    for k in KINDS:
        if static_first_kind and k == "A":
            kinds.append(AtomKind(k, reconfigurable=False))
        else:
            kinds.append(AtomKind(k, bitstream_bytes=50_000))
    catalogue = AtomCatalogue.of(kinds)
    space = catalogue.space
    sis = []
    for i in range(draw(st.integers(1, 3))):
        sw = draw(st.integers(50, 600))
        impls = []
        for _ in range(draw(st.integers(1, 4))):
            counts = {k: draw(st.integers(0, 3)) for k in KINDS}
            if not any(counts.values()):
                counts["A"] = 1
            # A few shared latencies make exact score ties common, so
            # the fuzz exercises the first-wins tie-break.
            cycles = draw(
                st.sampled_from([10, 20]) | st.integers(1, max(2, sw - 1))
            )
            impls.append(MoleculeImpl(space.molecule(counts), cycles))
        sis.append(SpecialInstruction(f"SI{i}", space, sw, impls))
    return SILibrary(catalogue, sis)


@st.composite
def library_and_workload(draw, static_first_kind=False):
    library = draw(random_library(static_first_kind=static_first_kind))
    requests = [
        ForecastedSI(library.get(name), draw(st.floats(0.0, 100.0)))
        for name in library.names()
    ]
    budget = draw(st.integers(0, 10))
    return library, requests, budget


@st.composite
def loaded_molecule(draw, library):
    space = library.catalogue.space
    counts = {k: draw(st.integers(0, 2)) for k in KINDS}
    return space.molecule(counts)


@settings(max_examples=80, deadline=None)
@given(library_and_workload())
def test_greedy_backends_agree_exactly(bundle):
    library, requests, budget = bundle
    ref, fast = on_both(select_greedy, library, requests, budget)
    # Full dataclass equality: chosen impls (identity through ==), float
    # benefit, demand molecule, containers and the considered counter.
    assert ref == fast


@settings(max_examples=60, deadline=None)
@given(library_and_workload())
def test_exhaustive_backends_agree_exactly(bundle):
    library, requests, budget = bundle
    ref, fast = on_both(select_exhaustive, library, requests, budget)
    assert ref == fast


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_greedy_backends_agree_with_loaded_atoms(data):
    library, requests, budget = data.draw(library_and_workload())
    loaded = data.draw(loaded_molecule(library))
    ref, fast = on_both(
        select_greedy, library, requests, budget, loaded=loaded
    )
    assert ref == fast


@settings(max_examples=40, deadline=None)
@given(library_and_workload(static_first_kind=True))
def test_backends_agree_with_static_kinds(bundle):
    # A non-reconfigurable kind exercises the rc-projection masking in
    # the vectorized candidate staging.
    library, requests, budget = bundle
    ref, fast = on_both(select_greedy, library, requests, budget)
    assert ref == fast
    ref, fast = on_both(select_exhaustive, library, requests, budget)
    assert ref == fast


@settings(max_examples=30, deadline=None)
@given(library_and_workload())
def test_upgrade_path_backends_agree(bundle):
    library, requests, budget = bundle
    ref, fast = on_both(upgrade_path, library, requests, budget)
    assert ref == fast


@settings(max_examples=30, deadline=None)
@given(library_and_workload())
def test_staging_cache_survives_weight_changes(bundle):
    # The greedy kernel caches each SI's candidate rows per library;
    # benefits depend on weights and must never be cached.  Re-run the
    # same library with scaled weights and check the cached staging
    # still matches the reference.
    library, requests, budget = bundle
    for scale in (1.0, 3.5, 0.0):
        scaled = [
            ForecastedSI(r.si, r.expected_executions * scale)
            for r in requests
        ]
        ref, fast = on_both(select_greedy, library, scaled, budget)
        assert ref == fast


SHIPPED_LIBRARIES = {
    "h264": build_h264_library,
    "h264+sad": lambda: build_h264_library(include_sad=True),
    "extended": build_extended_library,
    "synthetic": build_synthetic_library,
    "aes": build_aes_library,
}


@pytest.mark.parametrize("name", sorted(SHIPPED_LIBRARIES))
def test_greedy_matches_reference_on_shipped_libraries(name):
    # The fuzz draws small random libraries; these are the libraries the
    # runtime really selects over, at every budget 0..18, with seeded
    # weights (some zero) and a seeded already-loaded population.
    library = SHIPPED_LIBRARIES[name]()
    rng = random.Random(f"greedy:{name}")
    space = library.space
    for budget in range(19):
        requests = [
            ForecastedSI(si, rng.choice([0.0, 0.5, 1.0, rng.uniform(0, 300)]))
            for si in library
            if rng.random() < 0.8
        ]
        loaded = space.molecule([rng.randint(0, 2) for _ in space.kinds])
        for kwargs in ({}, {"loaded": loaded}):
            ref, fast = on_both(
                select_greedy, library, requests, budget, **kwargs
            )
            assert ref == fast


@pytest.mark.parametrize(
    "loaded, winner",
    [
        # Equal score, equal rotations: the first candidate scanned wins.
        ({}, 0),
        # Equal score: the candidate reusing a loaded atom wins, even
        # though it is scanned later.
        ({"B": 1}, 1),
    ],
)
def test_greedy_tie_breaks(loaded, winner):
    catalogue = AtomCatalogue.of([AtomKind("A"), AtomKind("B")])
    space = catalogue.space
    impls = [
        MoleculeImpl(space.molecule({"A": 1}), 10),
        MoleculeImpl(space.molecule({"B": 1}), 10),
    ]
    library = SILibrary(
        catalogue, [SpecialInstruction("X", space, 100, impls)]
    )
    requests = [ForecastedSI(library.get("X"), 5.0)]
    ref, fast = on_both(
        select_greedy, library, requests, 1, loaded=space.molecule(loaded)
    )
    assert ref == fast
    assert fast.chosen == {"X": impls[winner]}


def test_greedy_round_builds_no_molecule(monkeypatch):
    library = build_h264_library(include_sad=True)
    requests = [ForecastedSI(si, 10.0 + i) for i, si in enumerate(library)]
    kernel = NumpyBackend()
    loaded = library.space.zero()
    kernel.greedy_choose(library, requests, 8, loaded)  # stages the rows
    built = []
    original = Molecule.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Molecule, "__init__", counting)
    chosen, considered = kernel.greedy_choose(library, requests, 8, loaded)
    assert built == []
    # It did real work: several rounds over all 33 candidates.
    assert considered > 33 and any(chosen.values())


# Kernel purity: the runtime selects over one shared library for a whole
# run, so a kernel that mutated its inputs would corrupt every later
# selection.  Both kernel sets are driven over random libraries and checked
# for observed non-mutation.


def library_fingerprint(library):
    return tuple(
        (
            si.name,
            si.software_cycles,
            tuple(
                (impl.molecule.counts, impl.cycles, impl.label)
                for impl in si.implementations
            ),
        )
        for si in library
    )


def requests_fingerprint(requests):
    return tuple((f.si.name, f.expected_executions) for f in requests)


def exercise_kernels(backend, library, requests, budget):
    """Call every ComputeBackend kernel once on the given inputs."""
    space = library.catalogue.space
    dim = space.dimension
    rows = [list(impl.molecule.counts) for si in library for impl in si.implementations]
    rows_snapshot = copy.deepcopy(rows)
    available = [1] * dim

    backend.sup(rows, dim)
    backend.inf(rows)
    backend.residual(rows, available)
    backend.determinants(rows)
    atoms = [sum(r) for r in rows]
    cycles = list(range(1, len(rows) + 1))
    backend.pareto_mask(atoms, cycles)
    backend.greedy_choose(library, requests, budget, space.zero())
    backend.exhaustive_choose(library, requests, budget)

    assert rows == rows_snapshot, "a lattice kernel mutated its row input"
    assert available == [1] * dim, "residual mutated its available vector"


@settings(max_examples=40, deadline=None)
@given(library_and_workload())
def test_reference_kernels_do_not_mutate_inputs(bundle):
    library, requests, budget = bundle
    before_lib = library_fingerprint(library)
    before_req = requests_fingerprint(requests)
    exercise_kernels(REFERENCE, library, requests, budget)
    assert library_fingerprint(library) == before_lib
    assert requests_fingerprint(requests) == before_req


@settings(max_examples=40, deadline=None)
@given(library_and_workload())
def test_numpy_kernels_do_not_mutate_inputs(bundle):
    library, requests, budget = bundle
    before_lib = library_fingerprint(library)
    before_req = requests_fingerprint(requests)
    exercise_kernels(NUMPY, library, requests, budget)
    assert library_fingerprint(library) == before_lib
    assert requests_fingerprint(requests) == before_req


class TestRuntimeTraceEquality:
    """A runtime on the fast kernels emits the reference trace, byte for byte."""

    def run(self, mini_library, kernel):
        forecasts = [("SATD", 40.0), ("HT", 12.0)]
        blocks = [("SATD", 5), ("HT", 3)]
        # The long inter-block gaps let the requested rotations land, so
        # later rounds really execute in hardware (Fig. 6's SW->HW ramp).
        with running_on(kernel):
            return run_si_stream(
                mini_library, forecasts, blocks,
                containers=4, block_rounds=3, inter_block_cycles=200_000,
            )

    def test_traces_identical(self, mini_library):
        ref = self.run(mini_library, REFERENCE)
        fast = self.run(mini_library, NUMPY)
        assert trace_signature(ref.trace) == trace_signature(fast.trace)
        # Sanity: the scenario actually upgraded SIs to hardware, so the
        # equality above compares selections that did real work.
        from repro.sim import EventKind

        assert any(
            e.kind is EventKind.SI_EXECUTED and e.detail.get("mode") == "HW"
            for e in ref.trace
        )


def chaos_json(kernel, suite, seed, quick):
    """``repro chaos --format json`` bytes, run on ``kernel``."""
    with running_on(kernel):
        report = run_chaos_suite(suite, seed=seed, quick=quick)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_quick_chaos_reports_identical_on_reference(suite, seed):
    assert chaos_json(REFERENCE, suite, seed, True) == chaos_json(
        NUMPY, suite, seed, True
    )


def test_full_size_h264_chaos_report_identical_on_reference():
    assert chaos_json(REFERENCE, "h264", 1, False) == chaos_json(
        NUMPY, "h264", 1, False
    )
