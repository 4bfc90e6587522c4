"""The compute kernels: the shared instance and the batched primitives."""

import subprocess
import sys

import pytest

from repro.core import (
    ForecastedSI,
    NumpyBackend,
    ReferenceBackend,
    pareto_front_of,
    select_exhaustive,
    select_greedy,
)
from repro.core import backend as backend_mod


class TestSharedKernel:
    def test_runtime_runs_one_numpy_instance(self):
        assert isinstance(backend_mod.kernel(), NumpyBackend)
        assert backend_mod.kernel() is backend_mod.kernel()

    def test_import_does_not_build_the_kernel(self):
        # The instance is built on first use, so importing the package
        # (selection and Pareto analysis included) never imports numpy;
        # nor do replans, whose greedy kernel is pure python.  Only the
        # exhaustive and Pareto kernels load it.
        probe = (
            "import sys, repro, repro.core; "
            "assert 'numpy' not in sys.modules; "
            "assert repro.core.backend._kernel is None; "
            "from repro.apps.h264 import build_h264_library; "
            "from repro.runtime.manager import RisppRuntime; "
            "rt = RisppRuntime(build_h264_library(), 6); "
            "rt.forecast('SATD_4x4', 0, expected=256.0); "
            "rt.forecast('DCT_4x4', 0, expected=24.0); "
            "assert rt.stats.replans == 2; "
            "assert isinstance(repro.core.backend._kernel, "
            "repro.core.NumpyBackend); "
            "assert 'numpy' not in sys.modules; "
            "repro.core.pareto_front_of(rt.library.get('SATD_4x4')); "
            "assert 'numpy' in sys.modules"
        )
        subprocess.run([sys.executable, "-c", probe], check=True)

    def test_swapped_kernel_steers_selection_and_pareto(
        self, mini_library, monkeypatch
    ):
        calls = []

        class Recording(ReferenceBackend):
            def greedy_choose(self, *a, **kw):
                calls.append("greedy")
                return super().greedy_choose(*a, **kw)

            def exhaustive_choose(self, *a, **kw):
                calls.append("exhaustive")
                return super().exhaustive_choose(*a, **kw)

            def pareto_mask(self, *a, **kw):
                calls.append("pareto")
                return super().pareto_mask(*a, **kw)

        monkeypatch.setattr(backend_mod, "_kernel", Recording())
        reqs = [ForecastedSI(mini_library.get("HT"), 10)]
        select_greedy(mini_library, reqs, 3)
        select_exhaustive(mini_library, reqs, 3)
        pareto_front_of(mini_library.get("HT"))
        assert calls == ["greedy", "exhaustive", "pareto"]


KERNELS = {"reference": ReferenceBackend, "numpy": NumpyBackend}


@pytest.fixture(params=list(KERNELS))
def kernel(request):
    return KERNELS[request.param]()


class TestBatchedKernels:
    ROWS = [(0, 2, 1), (3, 0, 1), (1, 1, 1)]

    def test_sup(self, kernel):
        assert kernel.sup(self.ROWS, 3) == (3, 2, 1)
        assert kernel.sup([], 3) == (0, 0, 0)

    def test_inf(self, kernel):
        assert kernel.inf(self.ROWS) == (0, 0, 1)
        with pytest.raises(ValueError):
            kernel.inf([])

    def test_residual(self, kernel):
        assert kernel.residual(self.ROWS, (1, 1, 1)) == [
            (0, 1, 0),
            (2, 0, 0),
            (0, 0, 0),
        ]
        assert kernel.residual([], (1, 1, 1)) == []

    def test_determinants(self, kernel):
        assert kernel.determinants(self.ROWS) == [3, 4, 3]
        assert kernel.determinants([]) == []

    def test_pareto_mask_drops_dominated(self, kernel):
        atoms = [1, 2, 3, 3]
        cycles = [9, 5, 5, 2]
        # (3, 5) is dominated by (2, 5); everything else survives.
        assert kernel.pareto_mask(atoms, cycles) == [
            True, True, False, True,
        ]

    def test_pareto_mask_keeps_exact_duplicates(self, kernel):
        assert kernel.pareto_mask([1, 1, 2], [5, 5, 9]) == [
            True, True, False,
        ]

    def test_pareto_mask_empty(self, kernel):
        assert kernel.pareto_mask([], []) == []
