"""Whole-world snapshots: capture/restore fidelity and forward compat.

A snapshot taken after command ``seq`` must restore a *freshly built*
identical scenario to a state from which the run continues exactly as
the original did.  Unknown schema versions, foreign files and truncated
payloads must surface as the typed :class:`RecoveryError` — never a
``KeyError`` leaking from dict access.
"""

import json

import pytest

from repro.bench.harness import trace_signature
from repro.bench.suites import build_synthetic_library
from repro.recovery import (
    RECOVERY_KIND,
    RECOVERY_SCHEMA_VERSION,
    RecoveryError,
    latest_snapshot,
    list_snapshots,
    load_snapshot,
    restore_runtime,
    snapshot_runtime,
    write_snapshot,
)
from repro.runtime import RisppRuntime


@pytest.fixture()
def library():
    return build_synthetic_library()


def fresh_runtime(library, *, containers=5):
    return RisppRuntime(library, containers, core_mhz=100.0)


def run_prefix(rt, commands):
    """Drive a deterministic little scenario for ``commands`` steps."""
    plan = []
    now = 1_000
    plan.append(("forecast", ("SI0",), {"expected": 16.0}))
    for _ in range(30):
        plan.append(("execute_si", ("SI0",), {}))
    done = 0
    for op, args, kwargs in plan:
        if done >= commands:
            break
        if op == "forecast":
            rt.forecast(*args, now, **kwargs)
        else:
            now += rt.execute_si(*args, now, **kwargs)
        done += 1
    return now


class TestRoundTrip:
    def test_mid_run_state_restores_and_continues_identically(
        self, library, tmp_path
    ):
        reference = fresh_runtime(library)
        run_prefix(reference, 31)

        original = fresh_runtime(library)
        now = run_prefix(original, 12)
        snap = snapshot_runtime(original, seq=12, cycle=0, results=[None] * 12)
        path = write_snapshot(tmp_path, snap)

        restored = fresh_runtime(library)
        restore_runtime(restored, load_snapshot(path))
        assert trace_signature(restored.trace) == trace_signature(
            original.trace
        )
        # The restored world keeps evolving exactly like the original:
        # the driver clock resumes at the same point in both.
        for rt in (original, restored):
            t = now
            for _ in range(19):
                t += rt.execute_si("SI0", t)
        assert trace_signature(restored.trace) == trace_signature(
            original.trace
        )
        assert trace_signature(restored.trace) == trace_signature(
            reference.trace
        )

    def test_restored_trace_shares_details_like_the_original(
        self, library, tmp_path
    ):
        original = fresh_runtime(library)
        run_prefix(original, 31)
        snap = snapshot_runtime(original, seq=31, cycle=0, results=[None] * 31)
        restored = fresh_runtime(library)
        restore_runtime(restored, load_snapshot(write_snapshot(tmp_path, snap)))

        # The restored trace reads back the same events, and equal
        # details come back as one shared table entry each, just as the
        # uninterrupted run stores them.
        assert trace_signature(restored.trace) == trace_signature(original.trace)
        assert restored.trace._shapes == original.trace._shapes
        assert len(restored.trace._table) == len(original.trace._table)
        assert len(restored.trace._table) < len(restored.trace)
        assert restored.trace._own.keys() == original.trace._own.keys()

    def test_snapshot_carrying_the_retired_optimize_key_restores(
        self, library, tmp_path
    ):
        # Stores written while the runtime still had an ``optimize``
        # switch carry it in their config; only live keys are compared.
        original = fresh_runtime(library)
        run_prefix(original, 12)
        snap = snapshot_runtime(original, seq=12, cycle=0, results=[None] * 12)
        assert "optimize" not in snap["config"]
        snap["config"]["optimize"] = True
        restored = fresh_runtime(library)
        restore_runtime(restored, load_snapshot(write_snapshot(tmp_path, snap)))
        assert trace_signature(restored.trace) == trace_signature(
            original.trace
        )
        assert restored._plan_key == original._plan_key

    def test_snapshot_is_versioned_and_kinded(self, library, tmp_path):
        rt = fresh_runtime(library)
        snap = snapshot_runtime(rt, seq=0, cycle=0, results=[])
        assert snap["schema_version"] == RECOVERY_SCHEMA_VERSION
        assert snap["kind"] == RECOVERY_KIND
        path = write_snapshot(tmp_path, snap)
        assert load_snapshot(path) == json.loads(path.read_text())

    def test_results_length_must_match_seq(self, library):
        rt = fresh_runtime(library)
        with pytest.raises(RecoveryError, match="results"):
            snapshot_runtime(rt, seq=3, cycle=0, results=[None])


class TestStoreListing:
    def test_list_and_latest_ordering(self, library, tmp_path):
        rt = fresh_runtime(library)
        for seq in (4, 2, 8):
            write_snapshot(
                tmp_path,
                snapshot_runtime(rt, seq=seq, cycle=0, results=[None] * seq),
            )
        assert [seq for seq, _ in list_snapshots(tmp_path)] == [2, 4, 8]
        assert latest_snapshot(tmp_path)[0] == 8
        # max_seq bounds the pick to snapshots the journal can replay onto.
        assert latest_snapshot(tmp_path, max_seq=7)[0] == 4
        assert latest_snapshot(tmp_path, max_seq=1) is None

    def test_empty_store_has_no_latest(self, tmp_path):
        assert latest_snapshot(tmp_path) is None
        assert list_snapshots(tmp_path) == []


class TestForwardCompatibility:
    """Unknown or damaged artifacts raise RecoveryError, not KeyError."""

    def make_store(self, library, tmp_path):
        rt = fresh_runtime(library)
        run_prefix(rt, 5)
        snap = snapshot_runtime(rt, seq=5, cycle=0, results=[None] * 5)
        return write_snapshot(tmp_path, snap)

    def test_unknown_schema_version(self, library, tmp_path):
        path = self.make_store(library, tmp_path)
        data = json.loads(path.read_text())
        data["schema_version"] = RECOVERY_SCHEMA_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(RecoveryError, match="schema"):
            load_snapshot(path)

    def test_foreign_kind(self, library, tmp_path):
        path = self.make_store(library, tmp_path)
        data = json.loads(path.read_text())
        data["kind"] = "some-other-artifact"
        path.write_text(json.dumps(data))
        with pytest.raises(RecoveryError):
            load_snapshot(path)

    def test_truncated_payload(self, library, tmp_path):
        path = self.make_store(library, tmp_path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        with pytest.raises(RecoveryError):
            load_snapshot(path)

    def test_missing_section(self, library, tmp_path):
        path = self.make_store(library, tmp_path)
        data = json.loads(path.read_text())
        del data["state"]
        path.write_text(json.dumps(data))
        with pytest.raises(RecoveryError):
            load_snapshot(path)

    def test_not_json_at_all(self, library, tmp_path):
        path = tmp_path / "snapshot-00000001.json"
        path.write_text("definitely not json")
        with pytest.raises(RecoveryError):
            load_snapshot(path)

    def test_config_mismatch_refuses_restore(self, library, tmp_path):
        path = self.make_store(library, tmp_path)
        other = fresh_runtime(library, containers=4)
        with pytest.raises(RecoveryError, match="containers"):
            restore_runtime(other, load_snapshot(path))

    def test_mangled_state_is_wrapped_not_leaked(self, library, tmp_path):
        path = self.make_store(library, tmp_path)
        data = json.loads(path.read_text())
        data["state"]["runtime"]["port"]["jobs"] = [{"bogus": True}]
        path.write_text(json.dumps(data))
        rt = fresh_runtime(library)
        with pytest.raises(RecoveryError, match="malformed"):
            restore_runtime(rt, load_snapshot(path))

    @pytest.mark.parametrize("ids", [[1, 0, 2, 3, 4], [0, 0, 2, 3, 4]])
    def test_container_ids_out_of_order_refuse_restore(
        self, library, tmp_path, ids
    ):
        # fabric.container(i) is positional; jobs and events use the id.
        path = self.make_store(library, tmp_path)
        data = json.loads(path.read_text())
        containers = data["state"]["runtime"]["fabric"]["containers"]
        for container, container_id in zip(containers, ids):
            container["container_id"] = container_id
        path.write_text(json.dumps(data))
        rt = fresh_runtime(library)
        with pytest.raises(RecoveryError, match="out of order"):
            restore_runtime(rt, load_snapshot(path))
