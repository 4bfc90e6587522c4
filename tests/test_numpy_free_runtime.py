"""The runtime paths of all three suites never load numpy or networkx.

Importing numpy adds ~13.5 MB of resident memory to a process (CPython
3.11 on x86-64 Linux), and neither the runtime (selection, rotation,
dispatch, trace, verification, chaos, checkpoints), the Table 2 library
nor the AES flow's CFG solvers (a pure-Python elimination in
``repro.cfg.probability``) needs it: only the h264 pixel models (atoms,
transforms, quantization, intra prediction, the encoder and its
entropy costs), exhaustive enumeration and Pareto masks do.  networkx
is a test dependency only: the tests cross-check ``repro.cfg`` against
it, and nothing under ``src/`` imports it.  Each probe runs in a fresh
interpreter with numpy and networkx made unimportable
(``sys.modules["numpy"] = None``) and must render the same bytes as the
same probe run with both present.
"""

import json
import subprocess
import sys

# The package and the CLI, the import lines of the benchmark's runtime
# workloads, then a macroblock stream with replans, the extended library's
# phase rotation, quick chaos on all three suites, the quick AES verify
# golden, a checkpointed crash resumed under a RecoveryPlan, and quick
# `repro chaos` and `repro lint` through the CLI.
RUNTIME_PROBE = r"""
import contextlib, io, json, sys, tempfile
from pathlib import Path

if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
    sys.modules["networkx"] = None

import repro
import repro.cli
from repro.apps.h264 import build_extended_library, build_h264_library
from repro.apps.h264.phases import run_phase_rotation
from repro.bench.suites import H264_MACROBLOCK_CALLS, build_synthetic_library
from repro.bench.harness import trace_signature
from repro.obs import MetricRegistry
from repro.runtime.manager import RisppRuntime
from repro.analysis.verify import (
    golden_from_runtime, run_verify_suite, verify_runtime,
)
import repro.faults as faults
from repro.recovery import RecoveryPlan, SimulatedCrash

out = {}
runtime = RisppRuntime(
    build_h264_library(), 6, core_mhz=100.0, metrics=MetricRegistry()
)
now = 700_000
forecasts = (("SATD_4x4", 256.0), ("DCT_4x4", 24.0), ("HT_4x4", 1.0),
             ("HT_2x2", 2.0))
for macroblock in range(4):
    for si, expected in forecasts:
        # Drifting expectations keep the replans from being skipped.
        runtime.forecast(si, now, expected=expected * (1 + macroblock))
    for si, calls in H264_MACROBLOCK_CALLS:
        for _ in range(calls):
            now += runtime.execute_si(si, now)
    now += 5_000
out["stream"] = repr(trace_signature(runtime.trace.events))
out["replans"] = runtime.stats.replans
out["verified"] = verify_runtime(runtime, subject="h264-stream").ok()
extended = build_extended_library()
out["extended"] = sorted(extended.names())
out["phases"] = repr(run_phase_rotation(frames=2, library=extended))

def render(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"

for suite in ("aes", "h264", "synthetic"):
    out[suite] = render(
        faults.run_chaos_suite(suite, seed=5, fault_rate=50.0, quick=True)
    )
aes = run_verify_suite("aes", quick=True)
out["aes_verified"] = aes.report.ok()
out["aes_golden"] = render(golden_from_runtime(aes.runtime, suite=aes.suite))

with tempfile.TemporaryDirectory() as tmp:
    store = Path(tmp) / "store"
    try:
        faults.run_chaos_suite(
            "synthetic", seed=5, fault_rate=50.0, quick=True,
            recovery=RecoveryPlan(store, checkpoint_every=64,
                                  crash_at=1_200_000),
        )
        out["crashed"] = False
    except SimulatedCrash:
        out["crashed"] = True
    out["resumed"] = render(faults.run_chaos_suite(
        "synthetic", seed=5, fault_rate=50.0, quick=True,
        recovery=RecoveryPlan(store, checkpoint_every=64, resume=True),
    ))

for command in (["chaos", "--suite", "h264", "--quick", "--format", "json"],
                ["lint", "--format", "json"]):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = repro.cli.main(command)
    out[command[0]] = (code, stdout.getvalue())

out["numpy_loaded"] = sys.modules.get("numpy") is not None
out["networkx_loaded"] = sys.modules.get("networkx") is not None
print(json.dumps(out))
"""


def run_probe(mode):
    done = subprocess.run(
        [sys.executable, "-c", RUNTIME_PROBE, mode],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def test_runtime_paths_run_without_numpy_byte_identically():
    blocked = run_probe("blocked")
    present = run_probe("present")
    for module in ("numpy", "networkx"):
        assert blocked.pop(f"{module}_loaded") is False
        # With it importable, nothing on these paths imports it either.
        assert present.pop(f"{module}_loaded") is False
    assert blocked["replans"] >= 4
    assert blocked["verified"] is True
    assert blocked["aes_verified"] is True
    assert "MC_HPEL" in blocked["extended"]
    assert blocked["crashed"] is True
    assert blocked["resumed"] == blocked["synthetic"]
    assert blocked["chaos"][0] == 0 and json.loads(blocked["chaos"][1])
    assert blocked["lint"][0] == 0 and json.loads(blocked["lint"][1])
    assert blocked == present


def test_pixel_models_still_import_from_the_package():
    probe = (
        "import sys; "
        "from repro.apps.h264 import build_h264_library; "
        "assert 'numpy' not in sys.modules; "
        "from repro.apps.h264 import encode_intra_frame, si_satd_4x4; "
        "assert 'numpy' in sys.modules"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)
