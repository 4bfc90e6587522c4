"""Unit tests for the hardware model: specs, containers, fabric, port, area."""

import pytest

from repro.hardware import (
    CONTAINER_SLICES,
    SELECTMAP_BYTES_PER_US,
    TABLE1_SPECS,
    AreaComparison,
    AtomContainer,
    ContainerState,
    Fabric,
    H264_PHASES,
    PhaseProfile,
    ReconfigurationPort,
    average_rotation_us,
    extensible_processor_area,
    ge_max,
    ge_saving_pct,
    max_alpha_for_constraint,
    meets_constraint,
    rispp_area,
)


class TestAtomSpecs:
    @pytest.mark.parametrize("name", ["Transform", "SATD", "Pack", "QuadSub"])
    def test_rotation_time_matches_table1(self, name):
        spec = TABLE1_SPECS[name]
        modelled = spec.rotation_time_us()
        assert modelled == pytest.approx(spec.reported_rotation_us, rel=1e-3)

    def test_pack_has_biggest_bitstream(self):
        # The BlockRAM row under Pack's container inflates its bitstream.
        assert TABLE1_SPECS["Pack"].bitstream_bytes == max(
            s.bitstream_bytes for s in TABLE1_SPECS.values()
        )

    def test_utilization_matches_paper(self):
        assert TABLE1_SPECS["Transform"].utilization == pytest.approx(0.505, abs=0.01)
        assert TABLE1_SPECS["QuadSub"].utilization == pytest.approx(0.342, abs=0.01)

    def test_invalid_rates_rejected(self):
        spec = TABLE1_SPECS["SATD"]
        with pytest.raises(ValueError):
            spec.rotation_time_us(0)

    def test_average_rotation_in_milliseconds_range(self):
        # §4: "the rotation time is in the range of milliseconds".
        avg = average_rotation_us()
        assert 500 <= avg <= 1500

    def test_container_capacity(self):
        for spec in TABLE1_SPECS.values():
            assert spec.slices <= CONTAINER_SLICES


class TestAtomContainer:
    def test_lifecycle(self):
        c = AtomContainer(0)
        assert c.state is ContainerState.EMPTY
        c.begin_rotation("Pack", ready_at=100, owner="A")
        assert c.is_busy()
        c.complete_rotation(100)
        assert c.is_available()
        assert c.atom == "Pack"
        assert c.owner == "A"
        assert c.rotations == 1

    def test_cannot_rotate_while_loading(self):
        c = AtomContainer(0)
        c.begin_rotation("Pack", ready_at=100)
        with pytest.raises(ValueError):
            c.begin_rotation("SATD", ready_at=200)

    def test_cannot_complete_early(self):
        c = AtomContainer(0)
        c.begin_rotation("Pack", ready_at=100)
        with pytest.raises(ValueError):
            c.complete_rotation(50)

    def test_cannot_complete_idle(self):
        with pytest.raises(ValueError):
            AtomContainer(0).complete_rotation(0)

    def test_evict_returns_atom(self):
        c = AtomContainer(0)
        c.begin_rotation("Pack", ready_at=10)
        c.complete_rotation(10)
        assert c.evict() == "Pack"
        assert c.state is ContainerState.EMPTY

    def test_evict_while_loading_rejected(self):
        c = AtomContainer(0)
        c.begin_rotation("Pack", ready_at=10)
        with pytest.raises(ValueError):
            c.evict()

    def test_reassign_owner(self):
        c = AtomContainer(0)
        c.reassign("B")
        assert c.owner == "B"


class TestFabric:
    def test_static_atoms_always_available(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 4, static_multiplicity=8)
        atoms = fabric.available_atoms()
        assert atoms.count("Load") == 8
        assert atoms.count("Pack") == 0

    def test_loaded_atoms_counted(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 4)
        fabric.container(0).begin_rotation("Pack", ready_at=10)
        fabric.container(0).complete_rotation(10)
        fabric.container(1).begin_rotation("Pack", ready_at=20)
        assert fabric.available_atoms().count("Pack") == 1
        assert [c.atom for c in fabric.containers if c.is_busy()] == ["Pack"]

    def test_container_buckets(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 3)
        fabric.container(0).begin_rotation("SATD", ready_at=5)
        fabric.container(0).complete_rotation(5)
        fabric.container(1).begin_rotation("Pack", ready_at=9)
        assert [c.state for c in fabric.containers] == [
            ContainerState.LOADED, ContainerState.LOADING, ContainerState.EMPTY
        ]
        assert [
            c.container_id
            for c in fabric.containers
            if c.is_available() and c.atom == "SATD"
        ] == [0]

    def test_check_rotatable(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 2)
        with pytest.raises(ValueError):
            fabric.check_rotatable("Load")  # static
        with pytest.raises(ValueError):
            fabric.check_rotatable("Ghost")
        fabric.check_rotatable("Pack")  # fine

    def test_utilisation(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 4)
        assert fabric.utilisation() == 0.0
        fabric.container(0).begin_rotation("Pack", ready_at=1)
        assert fabric.utilisation() == 0.25

    def test_describe_one_line_per_container(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 6)
        assert len(fabric.describe()) == 6

    def test_touch_atoms_updates_lru(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 2)
        fabric.container(0).begin_rotation("Pack", ready_at=1)
        fabric.container(0).complete_rotation(1)
        m = fabric.space.molecule({"Pack": 1, "Load": 1})
        fabric.touch_atoms(m, now=50)
        assert fabric.container(0).last_used == 50


class TestReconfigurationPort:
    def test_rotation_cycles_from_bitstream(self, mini_catalogue):
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        # Transform: 59_353 B / 69.2 B/us = 857.6 us -> 85_763 cycles @100MHz
        cycles = port.rotation_cycles("Transform")
        expected = 59_353 / SELECTMAP_BYTES_PER_US * 100.0
        assert cycles == pytest.approx(expected, rel=1e-3)

    def test_static_atom_rejected(self, mini_catalogue):
        port = ReconfigurationPort(mini_catalogue)
        with pytest.raises(ValueError):
            port.rotation_cycles("Load")

    def test_rotations_serialise(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 4)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        j1 = port.request(fabric, "Pack", 0, now=0)
        j2 = port.request(fabric, "SATD", 1, now=0)
        assert j2.started_at == j1.finish_at
        assert j2.queue_delay == j1.duration

    def test_advance_completes_jobs(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 2)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        job = port.request(fabric, "Pack", 0, now=0)
        # Request reserves but does not disturb the container yet.
        assert port.is_reserved(0)
        assert not fabric.container(0).is_busy()
        port.advance(fabric, job.started_at)
        assert fabric.container(0).is_busy()
        done = port.advance(fabric, job.finish_at)
        assert [j.atom for j in done] == ["Pack"]
        assert fabric.container(0).is_available()
        assert not port.is_reserved(0)

    def test_container_serves_old_atom_until_rotation_starts(self, mini_catalogue):
        # The Fig. 6 T3 property: a container queued for rotation keeps
        # serving its current Atom while earlier jobs occupy the port.
        fabric = Fabric(mini_catalogue, 2)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        j0 = port.request(fabric, "Pack", 0, now=0)
        port.advance(fabric, j0.finish_at)
        assert fabric.container(0).atom == "Pack"
        # Queue two rotations: SATD into AC1 (starts now), Transform into
        # AC0 (starts only when the port frees up).
        j1 = port.request(fabric, "SATD", 1, now=j0.finish_at)
        j2 = port.request(fabric, "Transform", 0, now=j0.finish_at)
        assert j2.started_at == j1.finish_at
        mid = (j1.started_at + j1.finish_at) // 2
        port.advance(fabric, mid)
        # While SATD is being written, AC0 still offers Pack.
        assert fabric.available_atoms().count("Pack") == 1
        port.advance(fabric, j2.started_at)
        assert fabric.available_atoms().count("Pack") == 0

    def test_double_reservation_rejected(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 2)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        port.request(fabric, "Pack", 0, now=0)
        with pytest.raises(ValueError):
            port.request(fabric, "SATD", 0, now=0)

    @pytest.mark.parametrize(
        "atom, prepare, match",
        [
            ("Load", lambda port, fabric: None, "static"),
            ("Nope", lambda port, fabric: None, "unknown atom kind"),
            (
                "SATD",
                lambda port, fabric: port.request(fabric, "Pack", 0, now=0),
                "already has a rotation scheduled",
            ),
            ("SATD", lambda port, fabric: fabric.container(0).mark_failed(), "failed"),
            ("SATD", lambda port, fabric: fabric.container(0).quarantine(), "quarantined"),
        ],
        ids=["static-atom", "unknown-atom", "reserved", "failed", "quarantined"],
    )
    def test_request_refusals_leave_port_untouched(
        self, mini_catalogue, atom, prepare, match
    ):
        fabric = Fabric(mini_catalogue, 2)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        prepare(port, fabric)
        before = (list(port.jobs), port.busy_until, port.is_reserved(0))
        with pytest.raises(ValueError, match=match):
            port.request(fabric, atom, 0, now=0)
        assert (list(port.jobs), port.busy_until, port.is_reserved(0)) == before

    def test_quarantined_container_accepts_repair(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 2)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        fabric.container(0).quarantine()
        job = port.request(fabric, "SATD", 0, now=0, repair=True)
        assert job.repair and port.is_reserved(0)

    def test_next_completion(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 2)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        assert port.next_completion() is None
        job = port.request(fabric, "Pack", 0, now=10)
        assert port.next_completion() == job.finish_at

    def test_eviction_recorded(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 1)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        j1 = port.request(fabric, "Pack", 0, now=0)
        port.advance(fabric, j1.finish_at)
        j2 = port.request(fabric, "SATD", 0, now=j1.finish_at)
        assert j2.evicted == "Pack"

    def test_busy_accounting(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 2)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        port.request(fabric, "Pack", 0, now=0)
        port.request(fabric, "SATD", 1, now=0)
        assert port.total_rotations() == 2
        assert sum(j.duration for j in port.jobs) == port.busy_until


class TestAreaModel:
    def test_paper_facts_encoded(self):
        mc = next(p for p in H264_PHASES if p.name == "MC")
        assert mc.time_pct == 17.0
        assert mc.gate_equivalents == ge_max(list(H264_PHASES))
        me = next(p for p in H264_PHASES if p.name == "ME")
        assert me.gate_equivalents == min(p.gate_equivalents for p in H264_PHASES)
        assert me.time_pct == max(p.time_pct for p in H264_PHASES)

    def test_saving_formula(self):
        phases = list(H264_PHASES)
        total = extensible_processor_area(phases)
        saving = ge_saving_pct(phases, alpha=1.25)
        assert saving == pytest.approx(
            (total - 1.25 * ge_max(phases)) * 100 / total
        )
        assert 0 < saving < 100

    def test_rispp_always_smaller_at_reasonable_alpha(self):
        phases = list(H264_PHASES)
        assert rispp_area(phases, 1.25) < extensible_processor_area(phases)

    def test_constraint_check(self):
        phases = list(H264_PHASES)
        limit = rispp_area(phases, 1.25)
        assert meets_constraint(phases, 1.25, limit)
        assert not meets_constraint(phases, 1.3, limit)
        assert max_alpha_for_constraint(phases, limit) == pytest.approx(1.25)

    def test_comparison_bundle(self):
        cmp = AreaComparison.build(list(H264_PHASES), 1.25)
        assert cmp.extensible_ge > cmp.rispp_ge
        assert cmp.saving_pct > 40

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseProfile("X", 120.0, 100)
        with pytest.raises(ValueError):
            PhaseProfile("X", 10.0, 0)
        with pytest.raises(ValueError):
            rispp_area(list(H264_PHASES), 0)
        with pytest.raises(ValueError):
            extensible_processor_area([])
