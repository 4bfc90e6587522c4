"""Reference/numpy backend equivalence: fuzzed, bit-for-bit.

The numpy backend is only a fast path — it must reproduce the reference
backend's ``SelectionResult``s *exactly* (same chosen implementations,
same float benefits, same tie-breaks, same ``considered`` counters), and
a runtime driven by either backend must emit identical traces.  These
properties are the contract the CI backend matrix enforces on fixed
suites; here hypothesis hunts for libraries and workloads where the two
disagree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import trace_signature
from repro.bench.suites import run_si_stream
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
            cycles = draw(st.integers(1, max(2, sw - 1)))
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
    ref = select_greedy(library, requests, budget, backend="reference")
    fast = select_greedy(library, requests, budget, backend="numpy")
    # Full dataclass equality: chosen impls (identity through ==), float
    # benefit, demand molecule, containers and the considered counter.
    assert ref == fast


@settings(max_examples=60, deadline=None)
@given(library_and_workload())
def test_exhaustive_backends_agree_exactly(bundle):
    library, requests, budget = bundle
    ref = select_exhaustive(library, requests, budget, backend="reference")
    fast = select_exhaustive(library, requests, budget, backend="numpy")
    assert ref == fast


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_greedy_backends_agree_with_loaded_atoms(data):
    library, requests, budget = data.draw(library_and_workload())
    loaded = data.draw(loaded_molecule(library))
    ref = select_greedy(
        library, requests, budget, loaded=loaded, backend="reference"
    )
    fast = select_greedy(
        library, requests, budget, loaded=loaded, backend="numpy"
    )
    assert ref == fast


@settings(max_examples=40, deadline=None)
@given(library_and_workload(static_first_kind=True))
def test_backends_agree_with_static_kinds(bundle):
    # A non-reconfigurable kind exercises the rc-projection masking in
    # the vectorized candidate staging.
    library, requests, budget = bundle
    assert select_greedy(
        library, requests, budget, backend="reference"
    ) == select_greedy(library, requests, budget, backend="numpy")
    assert select_exhaustive(
        library, requests, budget, backend="reference"
    ) == select_exhaustive(library, requests, budget, backend="numpy")


@settings(max_examples=30, deadline=None)
@given(library_and_workload())
def test_upgrade_path_backends_agree(bundle):
    library, requests, budget = bundle
    ref = upgrade_path(library, requests, budget, backend="reference")
    fast = upgrade_path(library, requests, budget, backend="numpy")
    assert ref == fast


@settings(max_examples=30, deadline=None)
@given(library_and_workload())
def test_staging_cache_survives_weight_changes(bundle):
    # The numpy backend caches per-library candidate matrices keyed on
    # the request-name tuple; benefits depend on weights and must never
    # be cached.  Re-run the same library with scaled weights and check
    # the cached staging still matches the reference.
    library, requests, budget = bundle
    for scale in (1.0, 3.5, 0.0):
        scaled = [
            ForecastedSI(r.si, r.expected_executions * scale)
            for r in requests
        ]
        assert select_greedy(
            library, scaled, budget, backend="reference"
        ) == select_greedy(library, scaled, budget, backend="numpy")


class TestRuntimeTraceEquality:
    """A runtime on the numpy backend emits the reference trace, byte for byte."""

    def run(self, mini_library, backend):
        forecasts = [("SATD", 40.0), ("HT", 12.0)]
        blocks = [("SATD", 5), ("HT", 3)]
        # The long inter-block gaps let the requested rotations land, so
        # later rounds really execute in hardware (Fig. 6's SW->HW ramp).
        return run_si_stream(
            mini_library, forecasts, blocks,
            containers=4, block_rounds=3, inter_block_cycles=200_000,
            backend=backend,
        )

    def test_traces_identical(self, mini_library):
        ref = self.run(mini_library, "reference")
        fast = self.run(mini_library, "numpy")
        assert trace_signature(ref.trace) == trace_signature(fast.trace)
        # Sanity: the scenario actually upgraded SIs to hardware, so the
        # equality above compares selections that did real work.
        from repro.sim import EventKind

        assert any(
            e.kind is EventKind.SI_EXECUTED and e.detail.get("mode") == "HW"
            for e in ref.trace
        )

    def test_backend_default_matches_explicit(self, mini_library, monkeypatch):
        from repro.core import backend as backend_mod

        monkeypatch.setattr(backend_mod, "_default_spec", None)
        monkeypatch.setenv(backend_mod.DEFAULT_BACKEND_ENV, "numpy")
        via_env = self.run(mini_library, None)
        explicit = self.run(mini_library, "numpy")
        assert trace_signature(via_env.trace) == trace_signature(explicit.trace)
