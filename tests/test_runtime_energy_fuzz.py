"""Runtime energy accounting + forecast-pipeline fuzzing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forecast import ForecastDecisionFunction, run_forecast_pipeline
from repro.hardware import EnergyModel
from repro.runtime import RisppRuntime
from tests.test_cfg_properties import random_cfg


class TestRuntimeEnergyAccounting:
    def test_no_model_means_zero_energy(self, mini_library):
        rt = RisppRuntime(mini_library, 4)
        rt.forecast("HT", 0, expected=10)
        rt.execute_si("HT", 0)
        assert rt.stats.rotation_energy_nj == 0.0
        assert rt.stats.execution_energy_nj == 0.0

    def test_rotation_energy_accumulates(self, mini_library):
        model = EnergyModel()
        rt = RisppRuntime(mini_library, 4, energy_model=model)
        rt.forecast("HT", 0, expected=100)
        expected = 0.0
        for job in rt.port.jobs:
            kind = mini_library.catalogue.get(job.atom)
            expected += kind.bitstream_bytes * model.rotation_nj_per_byte
        assert rt.stats.rotation_energy_nj == pytest.approx(expected)
        assert expected > 0

    def test_execution_energy_only_in_hardware(self):
        from repro.apps.h264 import build_h264_library

        model = EnergyModel()
        rt = RisppRuntime(build_h264_library(), 4, energy_model=model)
        # Software execution: no SI data path active, zero dynamic energy
        # attributed to the fabric.
        rt.execute_si("HT_4x4", 0)
        assert rt.stats.execution_energy_nj == 0.0
        rt.forecast("HT_4x4", 10, expected=100)
        finish = max(j.finish_at for j in rt.port.jobs)
        rt.execute_si("HT_4x4", finish + 1)
        assert rt.stats.execution_energy_nj > 0.0
        assert rt.task_stats["main"].execution_energy_nj == pytest.approx(
            rt.stats.execution_energy_nj
        )

    def test_forecasting_saves_energy_vs_thrash(self, mini_library):
        # More rotations = more energy: a manager that rotates once spends
        # less rotation energy than one flip-flopping between SIs.
        model = EnergyModel()
        calm = RisppRuntime(mini_library, 4, energy_model=model)
        calm.forecast("HT", 0, expected=1000)
        thrash = RisppRuntime(mini_library, 4, energy_model=model)
        now = 0
        for i in range(4):
            si = ("HT", "SATD")[i % 2]
            other = ("SATD", "HT")[i % 2]
            thrash.forecast_end(other, now)
            thrash.forecast(si, now, expected=1000)
            now += 600_000
        assert (
            thrash.stats.rotation_energy_nj > calm.stats.rotation_energy_nj
        )


class TestForecastPipelineFuzz:
    """The compile-time pipeline must behave on arbitrary profiled CFGs."""

    @settings(max_examples=40, deadline=None)
    @given(random_cfg(), st.floats(50.0, 5000.0))
    def test_pipeline_never_crashes_and_annotations_are_valid(self, cfg, t_rot):
        from repro.core import (
            AtomCatalogue,
            AtomKind,
            MoleculeImpl,
            SILibrary,
            SpecialInstruction,
        )

        catalogue = AtomCatalogue.of([AtomKind("X", bitstream_bytes=1000)])
        space = catalogue.space
        library = SILibrary(
            catalogue,
            [
                SpecialInstruction(
                    "S",
                    space,
                    400,
                    [MoleculeImpl(space.unit("X"), 20)],
                )
            ],
        )
        fdf = ForecastDecisionFunction(t_rot=t_rot, t_sw=400.0, t_hw=20.0)
        annotation = run_forecast_pipeline(cfg, library, {"S": fdf}, 4)
        # Whatever came out is structurally sound.
        annotation.validate_against(cfg)
        for point in annotation.all_points():
            block = cfg.get(point.block_id)
            assert not block.uses_si("S")
            assert point.expected_executions >= 0
