"""Regressions for the run-time bugfixes and the hot-path caches.

Covers the three fixed bugs:

* ``_replan`` clamped every monitor-tuned weight up to 1.0, so an SI the
  monitor had learned was cold kept hogging Atom Containers;
* ``ReconfigurationPort`` kept a phantom ``busy_until`` reservation for
  unstarted jobs whose target container had failed, delaying every later
  rotation behind a bitstream write that would never happen;
* ``Trace.record`` accepted negative/out-of-order cycles (see
  ``test_trace_contract``).

And the optimization layer: the fabric generation counter, the
dispatch memo, the replan skip cache and the ``advance`` fast path must
all be *observably invisible* — the runtime still emits the exact trace
an uncached runtime produced before the caches became unconditional
(pinned below as a digest), and a stale cache is caught by rispp-verify's
reference machine on its own.
"""

import hashlib
import json

import pytest

from repro.analysis import verify_runtime

from repro.apps.h264 import build_h264_library
from repro.bench.harness import trace_signature
from repro.bench.suites import H264_MACROBLOCK_CALLS
from repro.core import select_greedy
from repro.hardware import Fabric, ReconfigurationPort
from repro.runtime import RisppRuntime
from repro.sim.suites import run_si_stream, si_stream


@pytest.fixture()
def library():
    return build_h264_library()


class TestWeightClampFix:
    def test_tuned_weight_below_one_reaches_selection(self, library):
        """The monitor's fine-tuned weight is used as-is, not clamped to 1."""
        seen = {}

        def spy(lib, requests, budget, *, loaded=None):
            for r in requests:
                seen[r.si.name] = r.expected_executions
            return select_greedy(lib, requests, budget, loaded=loaded)

        rt = RisppRuntime(library, 6, core_mhz=100.0, selection=spy)
        rt.forecast("DCT_4x4", 0, expected=0.25)
        assert seen["DCT_4x4"] == pytest.approx(0.25)

    def test_cold_si_loses_containers_to_hot_one(self, library, mini_library):
        """An SI the monitor learned is never executed frees its containers.

        HT fires with a large compile-time expectation but never executes;
        the smoothed estimate decays toward zero across re-firings.  Once
        its weight falls below SATD's, selection must stop granting HT the
        containers — with the old ``max(weight, 1.0)`` clamp the decayed
        estimate was invisible and HT kept its Atoms forever.
        """
        rt = RisppRuntime(mini_library, 3, core_mhz=100.0)
        now = 0
        rt.forecast("SATD", now, expected=4.0)
        rt.forecast("HT", now, expected=400.0)
        # HT wins the three containers at first: its weight dwarfs SATD's.
        now = max(j.finish_at for j in rt.port.jobs) + 1
        rt.advance(now)
        assert rt.si_mode("HT", now) != "SW"

        # Re-fire HT's forecast repeatedly with zero executions in between:
        # smoothing 0.5 halves the estimate each window (400 -> ... -> <2).
        for _ in range(9):
            now += 10_000
            rt.forecast("HT", now, expected=400.0)
            now += 10_000
            rt.execute_si("SATD", now)
        now = max(j.finish_at for j in rt.port.jobs) + 1
        rt.advance(now)

        # The decayed weight must have cost HT its exclusive Atom: SATD
        # now runs in hardware (its molecule needs the SATD atom kind,
        # which only fits if HT's selection shrank).
        assert rt.si_mode("SATD", now) != "SW"

    def test_zero_weight_forecast_selects_nothing(self, mini_library):
        """Weight 0 means zero benefit — no containers, software fallback."""
        rt = RisppRuntime(mini_library, 3, core_mhz=100.0)
        rt.forecast("HT", 0, expected=0.0)
        assert rt.port.total_rotations() == 0
        assert rt.execute_si("HT", 10) == 298  # software cycles


class TestPortPhantomReservationFix:
    def _three_queued(self, catalogue):
        fabric = Fabric(catalogue, 4)
        port = ReconfigurationPort(catalogue, core_mhz=100.0)
        j0 = port.request(fabric, "Pack", 0, now=0)
        j1 = port.request(fabric, "Transform", 1, now=0)
        j2 = port.request(fabric, "SATD", 2, now=0)
        assert (j0.started_at, j1.started_at) == (0, j0.finish_at)
        return fabric, port, j0, j1, j2

    def test_unstarted_jobs_pull_forward_after_failure(self, mini_catalogue):
        fabric, port, j0, j1, j2 = self._three_queued(mini_catalogue)
        port.advance(fabric, 10)  # j0 in flight, j1/j2 queued
        phantom_finish = j2.finish_at

        fabric.fail_container(1)  # j1's write will never happen
        port.advance(fabric, 10)

        assert not port.is_reserved(1)
        assert j2.started_at == j0.finish_at  # pulled into j1's old slot
        assert j2.finish_at < phantom_finish
        assert port.busy_until == j2.finish_at

    def test_next_rotation_starts_earlier_than_with_phantom(
        self, mini_catalogue
    ):
        fabric, port, j0, j1, j2 = self._three_queued(mini_catalogue)
        port.advance(fabric, 10)
        phantom_busy = port.busy_until

        fabric.fail_container(1)
        port.advance(fabric, 10)

        j3 = port.request(fabric, "Pack", 3, now=10)
        assert j3.started_at == j2.finish_at
        assert j3.started_at < phantom_busy

    def test_in_flight_job_keeps_its_schedule(self, mini_catalogue):
        fabric, port, j0, j1, j2 = self._three_queued(mini_catalogue)
        port.advance(fabric, 10)  # j0 started
        fabric.fail_container(2)  # kill the *last* queued job's target
        port.advance(fabric, 10)
        assert (j0.started_at, j0.finish_at) == (0, j0.finish_at)
        assert j1.started_at == j0.finish_at  # unchanged: no gap before it
        assert port.busy_until == j1.finish_at

    def test_runtime_fault_injection_shrinks_port_backlog(self, library):
        """End to end: failing a queued container frees the serial port."""
        rt = RisppRuntime(library, 6, core_mhz=100.0)
        rt.forecast("SATD_4x4", 0, expected=256.0)
        queued = [j for j in rt.port.pending_jobs() if not j.started]
        assert len(queued) >= 2, "scenario needs a rotation backlog"
        phantom_busy = rt.port.busy_until

        victim = queued[0].container_id
        rt.fail_container(victim, 1)

        assert rt.port.busy_until < phantom_busy
        survivors = [
            j for j in rt.port.pending_jobs() if j.container_id != victim
        ]
        assert all(j.finish_at <= phantom_busy for j in survivors)


class TestFabricGenerationCache:
    def test_generation_tracks_availability_changes(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 2)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        g0 = fabric.generation
        job = port.request(fabric, "Pack", 0, now=0)
        port.advance(fabric, 0)  # start: eviction + begin_rotation
        g1 = fabric.generation
        assert g1 > g0
        port.advance(fabric, job.finish_at)  # completion
        g2 = fabric.generation
        assert g2 > g1
        fabric.fail_container(1)
        assert fabric.generation > g2

    def test_touch_does_not_invalidate(self, mini_catalogue, mini_library):
        fabric = Fabric(mini_catalogue, 2)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        job = port.request(fabric, "Pack", 0, now=0)
        port.advance(fabric, job.finish_at)
        gen = fabric.generation
        before = fabric.available_atoms()
        fabric.touch_atoms(before, now=job.finish_at + 5)
        assert fabric.generation == gen
        # Same generation -> the memoized molecule is returned as-is.
        assert fabric.available_atoms() is before



#: The 3-macroblock Fig. 7 stream of the equivalence tests below.
H264_FORECASTS = [
    ("SATD_4x4", 256.0), ("DCT_4x4", 24.0),
    ("HT_4x4", 1.0), ("HT_2x2", 2.0),
]

#: SHA-256 of that stream's trace signature as the uncached runtime
#: (no generation memo, dispatch memo, replan skip or idle fast path)
#: recorded it; its 12 replan rounds all ran.
UNCACHED_H264_TRACE_SHA256 = (
    "40a25466e768d4a5a610947719b0afe9d75a3742ba09de03b0adae2d991d82d6"
)


def _h264_stream(library):
    return run_si_stream(
        library, si_stream(H264_FORECASTS, H264_MACROBLOCK_CALLS, rounds=3),
        containers=6,
    )


class TestOptimizedRuntimeEquivalence:
    def test_h264_stream_traces_identical(self, library):
        rt = _h264_stream(library)
        signature = json.dumps(trace_signature(rt.trace), sort_keys=True)
        digest = hashlib.sha256(signature.encode()).hexdigest()
        assert digest == UNCACHED_H264_TRACE_SHA256
        assert len(rt.trace) == 884
        assert rt.stats.si_cycles == 426_411
        assert rt.stats.hw_executions == 63
        assert rt.stats.rotations_requested == 6
        # The caches actually engaged: redundant replans were skipped...
        assert rt.stats.replans_skipped > 0
        # ...without changing how many replan rounds were requested.
        assert rt.stats.replans + rt.stats.replans_skipped == 12
        assert verify_runtime(rt).clean()

    def test_frozen_generation_trips_trc013(
        self, library, monkeypatch
    ):
        """A stale dispatch cache needs no uncached twin to be caught:
        with the fabric generation frozen, executions keep the molecule
        chosen before the rotations landed, and the reference machine
        flags the wrong-mode dispatch (TRC013)."""
        monkeypatch.setattr(Fabric, "generation", property(lambda self: 0))
        rt = _h264_stream(library)
        flagged = {d.rule_id for d in verify_runtime(rt).errors()}
        assert "TRC013" in flagged

    def test_plan_cache_invalidated_by_failure(self, mini_library):
        """A container failure must force a real replan, not a skip."""
        rt = RisppRuntime(mini_library, 3, core_mhz=100.0)
        rt.forecast("HT", 0, expected=10.0)
        now = max(j.finish_at for j in rt.port.jobs) + 1
        rt.advance(now)
        # Prime the skip cache: an identical no-op replan round.
        rt.forecast("HT", now, expected=10.0)
        replans = rt.stats.replans
        rt.fail_container(0, now + 1)
        assert rt.stats.replans > replans  # not skipped

    def test_advance_fast_path_when_port_idle(self, mini_library):
        rt = RisppRuntime(mini_library, 3, core_mhz=100.0)
        rt.forecast("HT", 0, expected=10.0)
        done = max(j.finish_at for j in rt.port.jobs)
        rt.advance(done)
        assert rt.port.is_idle()
        events = len(rt.trace)
        rt.advance(done + 1_000_000)  # fast path: nothing can change
        assert len(rt.trace) == events
        assert rt.si_mode("HT", done + 1_000_000) != "SW"


class TestLibraryProjectionsComputedOnce:
    """The library is immutable: its reconfigurable kinds, baseline and
    implementation projections are computed at construction, never per
    replan or per dispatch miss."""

    def test_replans_do_not_recompute_the_kind_set(
        self, library, monkeypatch
    ):
        from repro.core import AtomCatalogue

        runtime = RisppRuntime(library, 6, core_mhz=100.0)
        calls = []
        original = AtomCatalogue.reconfigurable_names

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(AtomCatalogue, "reconfigurable_names", counting)
        now = 0
        replans = []
        for step in range(12):
            # Drifting weights: every forecast is a real replan.
            runtime.forecast("SATD_4x4", now, expected=16.0 * (step + 1))
            runtime.forecast("DCT_4x4", now, expected=24.0 / (step + 1))
            for si, count in H264_MACROBLOCK_CALLS:
                for _ in range(count):
                    now += runtime.execute_si(si, now)
            replans.append((runtime.stats.replans, len(calls)))
        assert replans[-1][0] >= replans[0][0] + 10
        assert replans[-1][1] == replans[0][1] == 0

    def test_projections_are_shared_objects(self, library):
        impl = library.get("SATD_4x4").implementations[-1]
        assert library.baseline_molecule() is library.baseline_molecule()
        projected = library.restricted_to_reconfigurable(impl.molecule)
        assert projected is library.restricted_to_reconfigurable(impl.molecule)
        assert projected == impl.molecule.restricted_to(
            library.catalogue.reconfigurable_names()
        )
