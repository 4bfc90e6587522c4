"""The h264 and synthetic runtime paths never load numpy.

Importing numpy adds ~13.5 MB of resident memory to a process (CPython
3.11 on x86-64 Linux), and neither the runtime (selection, rotation,
dispatch, trace, verification, chaos, checkpoints) nor the Table 2
library needs it: only the AES flow's CFG solvers, the h264 pixel
models, exhaustive enumeration and Pareto masks do.  Each probe runs in a fresh interpreter with numpy made unimportable
(``sys.modules["numpy"] = None``) and must render the same bytes as the
same probe run with numpy present.
"""

import json
import subprocess
import sys

# The import lines of the benchmark's runtime workloads, then a macroblock
# stream with replans, quick chaos on both numpy-free suites and a
# checkpointed crash resumed under a RecoveryPlan.
RUNTIME_PROBE = r"""
import json, sys, tempfile
from pathlib import Path

if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None

from repro.apps.h264 import build_h264_library
from repro.bench.suites import H264_MACROBLOCK_CALLS, build_synthetic_library
from repro.bench.harness import trace_signature
from repro.obs import MetricRegistry
from repro.runtime.manager import RisppRuntime
from repro.analysis.verify import verify_runtime
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

def render(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"

for suite in ("h264", "synthetic"):
    out[suite] = render(
        faults.run_chaos_suite(suite, seed=5, fault_rate=50.0, quick=True)
    )

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

out["numpy_loaded"] = sys.modules.get("numpy") is not None
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
    assert blocked.pop("numpy_loaded") is False
    # With numpy importable, nothing on these paths imports it either.
    assert present.pop("numpy_loaded") is False
    assert blocked["replans"] >= 4
    assert blocked["verified"] is True
    assert blocked["crashed"] is True
    assert blocked["resumed"] == blocked["synthetic"]
    assert blocked == present


def test_pixel_models_still_import_from_the_package():
    probe = (
        "import sys; "
        "from repro.apps.h264 import build_h264_library; "
        "assert 'numpy' not in sys.modules; "
        "from repro.apps.h264 import encode_intra_frame, si_satd_4x4; "
        "assert 'numpy' in sys.modules; "
        "import repro.apps.h264 as h264; "
        "assert set(h264.__all__) <= set(dir(h264)); "
        "[getattr(h264, name) for name in h264.__all__]"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)
