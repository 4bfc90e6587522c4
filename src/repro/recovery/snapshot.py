"""Deterministic whole-world snapshots of a :class:`RisppRuntime`.

A snapshot captures, at one journal sequence number, every piece of
durable simulation state in three sections: ``runtime`` (the ``state``
and ``counter`` slots the run-time classes declare, :mod:`repro.state`),
the full event ``trace``, and the deterministic ``metrics`` families.
Schema-versioned like golden traces (``schema_version`` + ``kind``; any
other version is refused), serialized as compact canonical JSON —
byte-identical for identical runs.

Restore works *in place*: the driver rebuilds the scenario exactly as a
fresh run would (library, runtime, injector, registry), then
:func:`restore_runtime` overwrites the mutable state of that world with
the snapshot's.  A configuration mismatch between the two — different
container count, clock, fault schedule parameters — raises
:class:`RecoveryError` instead of silently resuming a different
scenario.  Object identities the live code relies on (the injector's
in-flight repair job *is* an entry of ``port.jobs``) are preserved by
serializing cross-references as indices.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Any

from ..obs.catalogue import NAMESPACE, spec_of
from ..obs.exporters import snapshot as metrics_snapshot
from ..runtime.manager import RisppRuntime
from ..sim.trace import EventKind
from ..state import dump, load
from .journal import RecoveryError

RECOVERY_SCHEMA_VERSION = 2
RECOVERY_KIND = "rispp-recovery-snapshot"

#: Snapshot file name for one journal sequence number.
_SNAPSHOT_GLOB = "snapshot-*.json"


def snapshot_name(seq: int) -> str:
    return f"snapshot-{seq:08d}.json"


# -- capture ------------------------------------------------------------------


def _trace_state(runtime: RisppRuntime) -> dict[str, Any]:
    # Each row carries a fresh detail dict (a lazy one resolved once, for
    # good), so neither the live run nor the restored one observes a
    # difference.
    return {
        "events": [
            [cycle, kind.value, task, si, detail]
            for cycle, kind, task, si, detail in runtime.trace.rows()
        ],
        "last_cycle": runtime.trace.last_cycle,
    }


def _config_of(runtime: RisppRuntime) -> dict[str, Any]:
    injector = runtime._faults
    injector_config: dict[str, Any] | None = None
    if injector is not None:
        injector_config = {
            "scrub_period": injector.scrub_period,
            "max_retries": injector.max_retries,
            "backoff_cycles": injector.backoff_cycles,
        }
    energy = runtime.energy_model
    return {
        "containers": len(runtime.fabric),
        "core_mhz": runtime.port.core_mhz,
        "bytes_per_us": runtime.port.bytes_per_us,
        "static_multiplicity": runtime.fabric.static_multiplicity,
        "forecasting": runtime.forecasting,
        "metrics_enabled": runtime.metrics.enabled,
        "monitor_smoothing": runtime.monitor.smoothing,
        "atom_kinds": list(runtime.fabric.space.kinds),
        "energy_model": asdict(energy) if energy is not None else None,
        "injector": injector_config,
    }


def snapshot_runtime(
    runtime: RisppRuntime, *, seq: int, cycle: int, results: list[Any]
) -> dict[str, Any]:
    """The whole world at journal sequence ``seq``, as a JSON-safe dict.

    ``results`` are the return values of journal records ``1..seq`` (SI
    latencies and query answers; ``None`` for the rest) — the resumed
    run hands them back to the re-driving scenario code verbatim.
    """
    if len(results) != seq:
        raise RecoveryError(
            f"snapshot at seq {seq} needs {seq} command results, "
            f"got {len(results)}"
        )
    return {
        "schema_version": RECOVERY_SCHEMA_VERSION,
        "kind": RECOVERY_KIND,
        "seq": seq,
        "cycle": cycle,
        "config": _config_of(runtime),
        "state": {
            "runtime": dump(runtime),
            "trace": _trace_state(runtime),
            "metrics": (
                metrics_snapshot(runtime.metrics, deterministic_only=True)
                if runtime.metrics.enabled
                else None
            ),
        },
        "results": list(results),
    }


# -- store I/O ----------------------------------------------------------------


def write_snapshot(store: Path, snap: dict[str, Any]) -> Path:
    """Write one snapshot file (compact canonical JSON, golden style)."""
    import json

    path = store / snapshot_name(int(snap["seq"]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(snap, indent=None, separators=(",", ":")))
        fh.write("\n")
    return path


def list_snapshots(store: Path) -> list[tuple[int, Path]]:
    """``(seq, path)`` of every snapshot in the store, oldest first."""
    out: list[tuple[int, Path]] = []
    for path in sorted(store.glob(_SNAPSHOT_GLOB)):
        stem = path.stem.split("-", 1)
        if len(stem) == 2 and stem[1].isdigit():
            out.append((int(stem[1]), path))
    return sorted(out)


def latest_snapshot(
    store: Path, *, max_seq: int | None = None
) -> tuple[int, Path] | None:
    """The newest usable snapshot (optionally capped at ``max_seq``)."""
    usable = [
        (seq, path)
        for seq, path in list_snapshots(store)
        if max_seq is None or seq <= max_seq
    ]
    return usable[-1] if usable else None


def load_snapshot(path: Path) -> dict[str, Any]:
    """Read and schema-check one snapshot file."""
    import json

    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise RecoveryError(f"cannot read snapshot {path}: {exc}") from exc
    except ValueError as exc:
        raise RecoveryError(f"snapshot {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise RecoveryError(f"snapshot {path} is not a JSON object")
    version = data.get("schema_version")
    if version != RECOVERY_SCHEMA_VERSION:
        raise RecoveryError(
            f"unsupported snapshot schema version {version!r} "
            f"(this build reads version {RECOVERY_SCHEMA_VERSION})"
        )
    kind = data.get("kind")
    if kind != RECOVERY_KIND:
        raise RecoveryError(
            f"not a recovery snapshot: kind {kind!r} "
            f"(expected {RECOVERY_KIND!r})"
        )
    for key in ("seq", "cycle", "config", "state", "results"):
        if key not in data:
            raise RecoveryError(f"snapshot {path} is missing the {key!r} key")
    return data


# -- restore ------------------------------------------------------------------


def _check_config(runtime: RisppRuntime, config: dict[str, Any]) -> None:
    current = _config_of(runtime)
    mismatched = [
        key
        for key in sorted(current)
        if key != "injector" and config.get(key) != current[key]
    ]
    snap_inj = config.get("injector")
    live_inj = current["injector"]
    if (snap_inj is None) != (live_inj is None):
        mismatched.append("injector")
    elif snap_inj is not None and live_inj is not None:
        mismatched.extend(
            f"injector.{key}"
            for key in sorted(live_inj)
            if snap_inj.get(key) != live_inj[key]
        )
    if mismatched:
        raise RecoveryError(
            "snapshot does not match the rebuilt scenario; mismatched "
            "configuration keys: " + ", ".join(mismatched)
        )


def _restore_trace(runtime: RisppRuntime, data: dict[str, Any]) -> None:
    runtime.trace.load(
        (
            (cycle, EventKind(kind), task, si, detail)
            for cycle, kind, task, si, detail in data["events"]
        ),
        data["last_cycle"],
    )


def _restore_metrics(runtime: RisppRuntime, data: dict[str, Any] | None) -> None:
    registry = runtime.metrics
    if not registry.enabled or data is None:
        return
    prefix = NAMESPACE + "_"
    for family in data["metrics"]:
        full_name = family["name"]
        if not full_name.startswith(prefix):
            raise RecoveryError(f"metric {full_name!r} outside the namespace")
        base = full_name[len(prefix):]
        try:
            spec = spec_of(base)
        except ValueError as exc:
            raise RecoveryError(str(exc)) from exc
        if spec.type == "counter":
            instrument = registry.counter(base)
        elif spec.type == "gauge":
            instrument = registry.gauge(base)
        else:
            instrument = registry.histogram(base)
        for sample in family["samples"]:
            labels = {str(k): str(v) for k, v in sample["labels"].items()}
            leaf = instrument.labels(**labels) if labels else instrument
            if leaf.callback is not None:
                # Callback-driven samples recompute from restored state.
                continue
            if spec.type == "histogram":
                buckets = sample["buckets"]
                if len(buckets) != len(leaf.bounds) + 1:
                    raise RecoveryError(
                        f"metric {full_name!r} bucket layout changed"
                    )
                running = [int(cumulative) for _bound, cumulative in buckets]
                counts = [b - a for a, b in zip([0, *running], running)]
                leaf.load(counts, float(sample["sum"]), int(sample["count"]))
            else:
                leaf.value = float(sample["value"])


def restore_runtime(runtime: RisppRuntime, snap: dict[str, Any]) -> None:
    """Overwrite ``runtime``'s mutable state with the snapshot's.

    The runtime must have been rebuilt exactly as the original driver
    built it (same library, container count, injector parameters,
    metrics registry on/off); :class:`RecoveryError` otherwise.
    """
    try:
        _check_config(runtime, snap["config"])
        state = snap["state"]
        load(runtime, state["runtime"])
        # The loaded container list replaces the rebuilt one: check it too.
        _check_config(runtime, snap["config"])
        ids = [c.container_id for c in runtime.fabric.containers]
        if ids != list(range(len(ids))):
            raise RecoveryError("container ids out of order in snapshot")
        _restore_trace(runtime, state["trace"])
        _restore_metrics(runtime, state["metrics"])
    except RecoveryError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise RecoveryError(f"malformed recovery snapshot: {exc!r}") from exc
