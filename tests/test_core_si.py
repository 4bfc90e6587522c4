"""Unit tests for Special Instructions, Rep(S), and the SI library."""

import pytest

from repro.core import (
    AtomCatalogue,
    AtomKind,
    MoleculeImpl,
    SILibrary,
    SpecialInstruction,
)


@pytest.fixture()
def catalogue():
    return AtomCatalogue.of(
        [
            AtomKind("Load", reconfigurable=False),
            AtomKind("Pack", bitstream_bytes=65_713, slices=406, luts=812),
            AtomKind("Transform", bitstream_bytes=59_353, slices=517, luts=1034),
            AtomKind("SATD", bitstream_bytes=58_141, slices=407, luts=808),
        ]
    )


@pytest.fixture()
def space(catalogue):
    return catalogue.space


def make_si(space, name="HT", sw=298, impls=None):
    impls = impls or [
        MoleculeImpl(space.molecule({"Load": 1, "Pack": 1, "Transform": 1}), 22),
        MoleculeImpl(space.molecule({"Load": 1, "Pack": 1, "Transform": 2}), 17),
        MoleculeImpl(space.molecule({"Load": 4, "Pack": 4, "Transform": 4}), 8),
    ]
    return SpecialInstruction(name, space, sw, impls)


class TestAtomKind:
    def test_valid(self):
        k = AtomKind("Transform", bitstream_bytes=100, latency_cycles=2)
        assert k.reconfigurable

    def test_static_atom_has_no_bitstream(self):
        with pytest.raises(ValueError):
            AtomKind("Load", reconfigurable=False, bitstream_bytes=10)

    def test_rejects_bad_latency(self):
        with pytest.raises(ValueError):
            AtomKind("X", latency_cycles=0)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            AtomKind("")

    def test_rejects_negative_hw(self):
        with pytest.raises(ValueError):
            AtomKind("X", slices=-1)


class TestAtomCatalogue:
    def test_space_matches_kinds(self, catalogue):
        assert catalogue.space.kinds == ("Load", "Pack", "Transform", "SATD")

    def test_reconfigurable_partition(self, catalogue):
        assert [k.name for k in catalogue.static_kinds()] == ["Load"]
        assert catalogue.reconfigurable_names() == ("Pack", "Transform", "SATD")

    def test_lookup(self, catalogue):
        assert catalogue.get("Pack").slices == 406
        assert "Pack" in catalogue
        with pytest.raises(KeyError):
            catalogue.get("nope")

    def test_duplicate_kinds_rejected(self):
        with pytest.raises(ValueError):
            AtomCatalogue.of([AtomKind("A"), AtomKind("A")])


class TestMoleculeImpl:
    def test_atoms_is_determinant(self, space):
        impl = MoleculeImpl(space.molecule({"Pack": 2, "Transform": 1}), 10)
        assert impl.atoms() == 3

    def test_rejects_zero_molecule(self, space):
        with pytest.raises(ValueError):
            MoleculeImpl(space.zero(), 10)

    def test_rejects_zero_cycles(self, space):
        with pytest.raises(ValueError):
            MoleculeImpl(space.unit("Pack"), 0)

    def test_sw_label_is_reserved(self, space):
        """The trace records a label as the execution's mode, so a
        hardware molecule labelled "SW" would pass for the fallback."""
        with pytest.raises(ValueError, match="reserved"):
            MoleculeImpl(space.unit("Pack"), 10, label="SW")
        assert MoleculeImpl(space.unit("Pack"), 10, label="sw").label == "sw"


class TestSpecialInstruction:
    def test_minimal_and_fastest(self, space):
        si = make_si(space)
        assert si.minimal_molecule().cycles == 22
        assert si.fastest_molecule().cycles == 8

    def test_supremum_covers_all(self, space):
        si = make_si(space)
        sup = si.supremum()
        assert all(m <= sup for m in si.molecules())

    def test_rep_is_ceil_of_average(self, space):
        si = make_si(space)
        rep = si.rep()
        # Load: (1+1+4)/3 = 2 -> 2; Pack: 2 -> 2; Transform: (1+2+4)/3 -> ceil(2.33)=3
        assert rep.as_dict() == {"Load": 2, "Pack": 2, "Transform": 3}

    def test_rep_between_inf_and_sup(self, space):
        si = make_si(space)
        from repro.core import infimum, supremum

        assert infimum(si.molecules()) <= si.rep() <= supremum(si.molecules())

    def test_best_available_none_when_insufficient(self, space):
        si = make_si(space)
        assert si.best_available(space.unit("Pack")) is None

    def test_best_available_picks_fastest_fitting(self, space):
        si = make_si(space)
        avail = space.molecule({"Load": 2, "Pack": 2, "Transform": 2})
        assert si.best_available(avail).cycles == 17

    def test_cycles_with_falls_back_to_software(self, space):
        si = make_si(space)
        assert si.cycles_with(space.zero()) == 298
        avail = space.molecule({"Load": 4, "Pack": 4, "Transform": 4, "SATD": 1})
        assert si.cycles_with(avail) == 8

    def test_expected_speedup(self, space):
        si = make_si(space)
        assert si.expected_speedup(si.fastest_molecule()) == pytest.approx(298 / 8)
        assert si.max_expected_speedup() >= si.expected_speedup(si.minimal_molecule())

    def test_needs_at_least_one_molecule(self, space):
        with pytest.raises(ValueError):
            SpecialInstruction("empty", space, 100, [])

    def test_rejects_foreign_space_molecule(self, space):
        from repro.core import AtomSpace

        foreign = AtomSpace(["X"])
        with pytest.raises(ValueError):
            SpecialInstruction(
                "bad", space, 100, [MoleculeImpl(foreign.unit("X"), 5)]
            )

    @pytest.mark.parametrize(
        "field",
        ["name", "space", "software_cycles", "implementations", "description"],
    )
    def test_fields_cannot_be_assigned_or_deleted(self, space, field):
        si = make_si(space)
        before = getattr(si, field)
        with pytest.raises(AttributeError):
            setattr(si, field, None)
        with pytest.raises(AttributeError):
            delattr(si, field)
        assert getattr(si, field) is before

    def test_equality_and_hash_are_by_identity(self, space):
        first, second = make_si(space), make_si(space)
        assert first == first and first != second
        assert len({first: 1, second: 2}) == 2
        assert hash(first) == object.__hash__(first)


class TestSILibrary:
    def test_lookup_and_iteration(self, catalogue, space):
        lib = SILibrary(catalogue, [make_si(space, "HT"), make_si(space, "DCT", sw=488)])
        assert len(lib) == 2
        assert lib.get("DCT").software_cycles == 488
        assert set(lib.names()) == {"HT", "DCT"}
        assert "HT" in lib

    def test_duplicate_si_rejected(self, catalogue, space):
        with pytest.raises(ValueError):
            SILibrary(catalogue, [make_si(space), make_si(space)])

    def test_shared_atom_kinds(self, catalogue, space):
        lib = SILibrary(catalogue, [make_si(space, "HT"), make_si(space, "DCT")])
        shared = lib.shared_atom_kinds()
        assert set(shared["Transform"]) == {"HT", "DCT"}
        assert shared["SATD"] == ()

    def test_container_demand_ignores_static_atoms(self, catalogue, space):
        lib = SILibrary(catalogue, [make_si(space)])
        m = space.molecule({"Load": 4, "Pack": 1, "Transform": 2})
        assert lib.container_demand(m) == 3

    def test_library_supremum(self, catalogue, space):
        lib = SILibrary(catalogue, [make_si(space)])
        assert lib.supremum() == space.molecule(
            {"Load": 4, "Pack": 4, "Transform": 4}
        )
