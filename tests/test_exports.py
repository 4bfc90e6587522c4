"""Lazy package exports (``repro.exports``) and what each entry point loads.

Every package declares its exports once and imports a submodule only
when one of its names is first used.  Each probe runs in a fresh
interpreter, so no import made by another test can hide a missing name
or an extra module.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py")
)


def probe(code: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        check=True, capture_output=True, text=True,
    )
    return done.stdout


PACKAGE_PROBE = r"""
import importlib, pkgutil, sys

name = sys.argv[1]
package = importlib.import_module(name)
exported = list(getattr(package, "__all__", []))
submodules = sorted(
    info.name for info in pkgutil.iter_modules(package.__path__)
    if not info.name.startswith("_")
)
clashes = sorted(set(exported) & set(submodules))
assert not clashes, f"exports named like a submodule: {clashes}"
missing = sorted(set(exported) - set(dir(package)))
assert not missing, f"dir() misses {missing}"
for export in exported:
    getattr(package, export)
for sub in submodules:
    module = getattr(package, sub)
    assert module is sys.modules[f"{name}.{sub}"], sub
try:
    package.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_and_submodule_resolves(package):
    probe(PACKAGE_PROBE, package)


def test_lazy_exports_import_nothing_until_a_name_is_used():
    loaded = json.loads(probe(
        "import json, sys, repro.core as core; "
        "before = sorted(m for m in sys.modules if m.startswith('repro.core.')); "
        "core.SILibrary; "
        "after = sorted(m for m in sys.modules if m.startswith('repro.core.')); "
        "print(json.dumps([before, 'SILibrary' in vars(core), after]))"
    ))
    before, cached, after = loaded
    assert before == []
    assert cached is True
    assert "repro.core.library" in after
    assert "repro.core.pareto" not in after


class TestExploreIsTheSubmodule:
    """``repro.analysis.explore`` names the module, never the function."""

    @pytest.mark.parametrize("first", [
        "pass",
        "from repro.analysis import ExploreResult",
        "from repro.analysis.explore import explore",
        "import repro.analysis; repro.analysis.explore",
        "import repro.cli",
    ])
    def test_import_as_binds_the_module(self, first):
        probe(
            f"import types; {first}\n"
            "import repro.analysis.explore as m\n"
            "import repro.analysis as analysis\n"
            "assert isinstance(m, types.ModuleType), m\n"
            "assert analysis.explore is m\n"
            "assert callable(m.explore)\n"
        )

    @pytest.mark.parametrize("first", ["pass", "import repro.analysis.explore"])
    def test_cli_explores_whichever_was_imported_first(self, first):
        out = probe(
            f"{first}\n"
            "from repro.cli import main\n"
            "raise SystemExit(main(['explore', '--scope', 'tiny', "
            "'--max-states', '50']))\n"
        )
        assert "rispp-explore" in out


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"


def _loaded(code: str) -> list[str]:
    return json.loads(probe(f"import json, sys\n{code}\n{LOADED}"))


def _under(modules: list[str], *prefixes: str) -> list[str]:
    return [
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    ]


def test_an_h264_macroblock_loads_no_compile_time_or_fault_code():
    modules = _loaded(
        "from repro.apps.h264.sis import build_h264_library\n"
        "from repro.bench.suites import H264_MACROBLOCK_CALLS\n"
        "from repro.runtime.manager import RisppRuntime\n"
        "runtime = RisppRuntime(build_h264_library(), 6)\n"
        "now = 0\n"
        "for si, _ in H264_MACROBLOCK_CALLS:\n"
        "    runtime.forecast(si, now)\n"
        "for si, calls in H264_MACROBLOCK_CALLS:\n"
        "    for _ in range(calls):\n"
        "        now += runtime.execute_si(si, now)\n"
        "assert runtime.stats.si_executions > 0\n"
    )
    assert "repro.runtime.manager" in modules
    assert _under(
        modules, "repro.analysis", "repro.cfg", "repro.forecast",
        "repro.faults", "repro.recovery",
    ) == []


def test_a_quick_synthetic_chaos_run_loads_no_compile_time_code():
    modules = _loaded(
        "from repro.faults.chaos import chaos_ok, run_chaos_suite\n"
        "assert chaos_ok(run_chaos_suite('synthetic', seed=5, "
        "fault_rate=50.0, quick=True))\n"
    )
    assert "repro.analysis.verify" in modules
    assert _under(
        modules, "repro.cfg", "repro.forecast", "repro.recovery",
        "repro.analysis.lint", "repro.analysis.audit", "repro.analysis.explore",
    ) == []
