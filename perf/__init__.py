"""perf — the end-to-end and per-layer benchmark of the RISPP runtime.

``python3 -m perf run`` runs the workloads in :mod:`perf.workloads`, each
in a fresh child process, and prints every metric ``BENCHMARK.json``
declares; ``python3 -m perf compare A.json B.json`` judges two result
files against the declared bounds.  See ``perf/README.md``.
"""

from pathlib import Path

#: The checkout the benchmark runs in: ``perf/``'s parent.
ROOT = Path(__file__).resolve().parent.parent
#: The program under test, imported from source.
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: What ``BENCHMARK.json``'s fixed schema has no key for: the run and
#: trace commands, the seeds, and which metric each layer should move.
DECLARED_JSON = Path(__file__).resolve().parent / "declared.json"
