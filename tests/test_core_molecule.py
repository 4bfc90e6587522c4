"""Unit tests for the Molecule vector algebra (paper section 3.1)."""

import pytest

from repro.core import AtomSpace, Molecule, infimum, supremum

SPACE = AtomSpace(["Load", "QuadSub", "Pack", "Transform", "SATD"])


def mol(**counts):
    return SPACE.molecule(counts)


class TestAtomSpace:
    def test_dimension_and_kinds(self):
        assert SPACE.dimension == 5
        assert SPACE.kinds[0] == "Load"
        assert "SATD" in SPACE
        assert "DCT" not in SPACE

    def test_index_of(self):
        assert SPACE.index_of("Pack") == 2
        with pytest.raises(KeyError):
            SPACE.index_of("nope")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AtomSpace([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            AtomSpace(["A", "A"])

    def test_rejects_non_string_kind(self):
        with pytest.raises(ValueError):
            AtomSpace(["A", 3])

    def test_zero(self):
        z = SPACE.zero()
        assert z.is_zero()
        assert abs(z) == 0

    def test_unit(self):
        u = SPACE.unit("Transform")
        assert u.count("Transform") == 1
        assert abs(u) == 1

    def test_equality_and_hash(self):
        other = AtomSpace(["Load", "QuadSub", "Pack", "Transform", "SATD"])
        assert other == SPACE
        assert hash(other) == hash(SPACE)
        assert AtomSpace(["X"]) != SPACE


class TestMoleculeConstruction:
    def test_from_mapping_defaults_zero(self):
        m = mol(Pack=2)
        assert m.counts == (0, 0, 2, 0, 0)

    def test_from_vector(self):
        m = SPACE.molecule([1, 0, 2, 1, 0])
        assert m.count("Load") == 1
        assert m["Pack"] == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SPACE.molecule([1, -1, 0, 0, 0])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            Molecule(SPACE, (1, 2))

    def test_rejects_unknown_kind(self):
        with pytest.raises(KeyError):
            mol(Nope=1)

    def test_as_dict_skips_zero(self):
        m = mol(Load=1, SATD=2)
        assert m.as_dict() == {"Load": 1, "SATD": 2}
        assert m.as_dict(skip_zero=False)["Pack"] == 0

    def test_kinds_used(self):
        assert mol(Pack=1, SATD=1).kinds_used() == ("Pack", "SATD")

    def test_repr_compact(self):
        assert "Pack=2" in repr(mol(Pack=2))
        assert repr(SPACE.zero()) == "Molecule(0)"


class TestLatticeOperators:
    def test_union_is_elementwise_max(self):
        a = mol(Load=1, Pack=3)
        b = mol(Load=2, Transform=1)
        assert (a | b) == mol(Load=2, Pack=3, Transform=1)

    def test_intersection_is_elementwise_min(self):
        a = mol(Load=1, Pack=3)
        b = mol(Load=2, Pack=1, Transform=1)
        assert (a & b) == mol(Load=1, Pack=1)

    def test_union_neutral_element(self):
        a = mol(Pack=2, SATD=1)
        assert (a | SPACE.zero()) == a

    def test_residual_clamps_at_zero(self):
        want = mol(Pack=3, Transform=2)
        have = mol(Pack=1, Transform=4, SATD=2)
        assert (want - have) == mol(Pack=2)

    def test_residual_zero_when_available(self):
        want = mol(Pack=1)
        have = mol(Pack=2, Load=1)
        assert (want - have).is_zero()

    def test_plus(self):
        assert (mol(Pack=1) + mol(Pack=2, Load=1)) == mol(Pack=3, Load=1)

    def test_determinant(self):
        assert abs(mol(Load=1, Pack=2, SATD=4)) == 7

    def test_scaled(self):
        assert mol(Pack=2).scaled(3) == mol(Pack=6)
        with pytest.raises(ValueError):
            mol(Pack=1).scaled(-1)

    def test_partial_order(self):
        small = mol(Pack=1, Transform=1)
        big = mol(Pack=2, Transform=1, SATD=1)
        assert small <= big
        assert small < big
        assert big >= small
        assert not (big <= small)

    def test_incomparable_molecules(self):
        a = mol(Pack=2)
        b = mol(Transform=2)
        assert not (a <= b)
        assert not (b <= a)

    def test_dominates_and_fits(self):
        avail = mol(Pack=2, Transform=2)
        assert mol(Pack=1, Transform=2) <= avail
        assert avail.dominates(mol(Pack=2))

    def test_restricted_to(self):
        m = mol(Load=2, Pack=1, SATD=1)
        assert m.restricted_to(["Pack", "SATD"]) == mol(Pack=1, SATD=1)

    def test_cross_space_raises(self):
        other = AtomSpace(["X", "Y"])
        with pytest.raises(ValueError):
            mol(Pack=1).union(other.molecule({"X": 1}))

    def test_hash_by_value(self):
        assert hash(mol(Pack=1)) == hash(mol(Pack=1))
        assert mol(Pack=1) in {mol(Pack=1)}


class TestSupInf:
    def test_supremum(self):
        ms = [mol(Pack=1, Transform=2), mol(Pack=3), mol(SATD=1)]
        assert supremum(ms) == mol(Pack=3, Transform=2, SATD=1)

    def test_supremum_upper_bound_property(self):
        ms = [mol(Pack=1, Transform=2), mol(Load=4)]
        sup = supremum(ms)
        assert all(m <= sup for m in ms)

    def test_supremum_empty_needs_space(self):
        assert supremum([], space=SPACE).is_zero()
        with pytest.raises(ValueError):
            supremum([])

    def test_infimum(self):
        ms = [mol(Pack=2, Transform=1), mol(Pack=1, Transform=3, SATD=1)]
        assert infimum(ms) == mol(Pack=1, Transform=1)

    def test_infimum_lower_bound_property(self):
        ms = [mol(Pack=2, Transform=1), mol(Pack=1)]
        inf = infimum(ms)
        assert all(inf <= m for m in ms)

    def test_infimum_empty_raises(self):
        with pytest.raises(ValueError):
            infimum([])
