"""Tests for the energy model and container-failure resilience."""

import pytest

from repro.apps.h264 import build_h264_library
from repro.hardware import TABLE1_SPECS, Fabric, ReconfigurationPort
from repro.hardware.energy import (
    EnergyBreakdown,
    EnergyModel,
    extensible_energy,
    rispp_energy,
)
from repro.runtime import RisppRuntime
from repro.sim import EventKind


@pytest.fixture()
def model():
    return EnergyModel()


@pytest.fixture()
def library():
    return build_h264_library()


class TestEnergyModel:
    def test_rotation_energy_scales_with_bitstream(self, model):
        pack = model.rotation_energy_nj(TABLE1_SPECS["Pack"])
        satd = model.rotation_energy_nj(TABLE1_SPECS["SATD"])
        assert pack > satd  # Pack's BlockRAM-row bitstream is bigger

    def test_static_energy_linear(self, model):
        one = model.static_energy_nj(1024, 1_000_000)
        two = model.static_energy_nj(2048, 1_000_000)
        assert two == pytest.approx(2 * one)
        assert model.static_energy_nj(0, 100) == 0.0

    def test_execution_energy(self, model):
        assert model.execution_energy_nj(517, 24) > 0
        assert model.execution_energy_nj(0, 24) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(leakage_nw_per_slice=-1)
        with pytest.raises(ValueError):
            EnergyModel(core_mhz=0)
        m = EnergyModel()
        with pytest.raises(ValueError):
            m.static_energy_nj(-1, 10)
        with pytest.raises(ValueError):
            m.execution_energy_nj(10, -1)


class TestPlatformEnergy:
    def workload(self, library):
        chosen = {
            name: library.get(name).fastest_molecule()
            for name in ("SATD_4x4", "DCT_4x4", "HT_4x4")
        }
        executions = {"SATD_4x4": 256, "DCT_4x4": 16, "HT_4x4": 1}
        si_cycles = {n: chosen[n].cycles for n in chosen}
        return chosen, executions, si_cycles

    def test_extensible_leaks_over_everything(self, model, library):
        chosen, executions, si_cycles = self.workload(library)
        window = 10_000_000
        full = extensible_energy(
            model, library, chosen, executions, si_cycles, window
        )
        # Doubling the idle window doubles only the static component.
        longer = extensible_energy(
            model, library, chosen, executions, si_cycles, 2 * window
        )
        assert longer.static_nj == pytest.approx(2 * full.static_nj)
        assert longer.dynamic_nj == pytest.approx(full.dynamic_nj)
        assert full.rotation_nj == 0.0

    def test_rispp_beats_extensible_on_long_idle_windows(self, model, library):
        # The paper's §2 argument: dedicated hardware for *all* hot spots
        # leaks while only one is active.  With the container budget sized
        # to one hot spot, RISPP's leakage is a fraction of the ASIP's.
        chosen, executions, si_cycles = self.workload(library)
        window = 1_000_000_000  # 10 s at 100 MHz: one rotation set amortised
        asip = extensible_energy(
            model, library, chosen, executions, si_cycles, window
        )
        rispp = rispp_energy(
            model,
            library,
            container_slices=1024,
            num_containers=6,
            executions=executions,
            si_cycles=si_cycles,
            active_molecules=chosen,
            rotations=["QuadSub", "Pack", "Transform", "SATD", "Load", "Transform"],
            window_cycles=window,
        )
        assert rispp.rotation_nj > 0
        assert rispp.total_nj < asip.total_nj

    def test_breakdown_total(self):
        b = EnergyBreakdown(static_nj=1.0, dynamic_nj=2.0, rotation_nj=3.0)
        assert b.total_nj == 6.0


class TestContainerFailure:
    def test_failed_container_unusable(self, library):
        fabric = Fabric(library.catalogue, 4)
        port = ReconfigurationPort(library.catalogue, core_mhz=100.0)
        job = port.request(fabric, "Pack", 0, now=0)
        port.advance(fabric, job.finish_at)
        lost = fabric.fail_container(0)
        assert lost == "Pack"
        assert fabric.available_atoms().count("Pack") == 0
        with pytest.raises(ValueError):
            port.request(fabric, "SATD", 0, now=job.finish_at)

    def test_pending_rotation_dropped_on_failure(self, library):
        fabric = Fabric(library.catalogue, 2)
        port = ReconfigurationPort(library.catalogue, core_mhz=100.0)
        job = port.request(fabric, "Pack", 0, now=0)
        fabric.fail_container(0)
        done = port.advance(fabric, job.finish_at)
        assert done == []
        assert not port.is_reserved(0)
        assert fabric.available_atoms().count("Pack") == 0

    def test_runtime_replans_around_failure(self, library):
        # 4 containers: the selected HT molecule holds exactly one Pack,
        # so losing that container forces the software fallback.
        rt = RisppRuntime(library, 4, core_mhz=100.0)
        rt.forecast("HT_4x4", 0, expected=100)
        finish = max(j.finish_at for j in rt.port.jobs)
        assert rt.execute_si("HT_4x4", finish + 1) < 298  # hardware

        # Kill the container holding the (single) Pack atom.
        victim = next(
            c for c in rt.fabric.containers if c.is_available() and c.atom == "Pack"
        )
        rt.fail_container(victim.container_id, finish + 10)
        events = rt.trace.of_kind(EventKind.CONTAINER_FAILED)
        assert events and events[0].detail["lost_atom"] == "Pack"

        # HT falls back to software until the replacement rotation lands
        # in a *different* container.
        assert rt.execute_si("HT_4x4", finish + 20) == 298
        new_jobs = [j for j in rt.port.jobs if j.requested_at >= finish + 10]
        assert new_jobs, "the manager must schedule a replacement rotation"
        assert all(j.container_id != victim.container_id for j in new_jobs)
        done = max(j.finish_at for j in new_jobs)
        assert rt.execute_si("HT_4x4", done + 1) < 298  # recovered

    def test_all_failed_containers_degrade_to_software(self, library):
        rt = RisppRuntime(library, 2, core_mhz=100.0)
        rt.forecast("HT_4x4", 0, expected=10)
        for cid in range(2):
            rt.fail_container(cid, 10)
        finish = max((j.finish_at for j in rt.port.jobs), default=10)
        # Nothing can ever be loaded; execution stays functional in SW.
        assert rt.execute_si("HT_4x4", finish + 1) == 298

    def test_healthy_containers_view(self, library):
        fabric = Fabric(library.catalogue, 3)
        fabric.fail_container(1)
        assert [c.container_id for c in fabric.containers if not c.failed] == [0, 2]
