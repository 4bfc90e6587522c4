"""Molecule vector algebra (paper section 3.1).

The paper models Molecules as vectors in ``N^n`` where ``n`` is the number
of available Atom kinds and component ``m_i`` is the number of instances
of Atom ``i`` required to implement the Molecule.  The structure
``(N^n, union, intersection, <=)`` is a complete lattice:

* ``m | o``   -- element-wise ``max`` (the paper's Meta-Molecule operator,
  written as a set-union symbol): the Atoms required to implement *both*
  ``m`` and ``o`` (not necessarily concurrently).
* ``m & o``   -- element-wise ``min``: Atoms collectively needed by both.
* ``m <= o``  -- component-wise order; reflexive, anti-symmetric and
  transitive, hence a partial order.
* ``sup(M)``  -- supremum: Atoms needed to implement *any* molecule in M.
* ``inf(M)``  -- infimum: Atoms needed by *all* molecules in M.
* ``abs(m)``  -- the determinant ``|m| = sum(m_i)``: total Atom count.
* ``o - m``   -- the residual (paper's subtraction-like operator): the
  minimum Meta-Molecule that still has to be loaded to implement ``o``
  given the Atoms of ``m`` are already available; clamped at zero.

Molecules only combine within one :class:`AtomSpace` (a fixed, ordered
universe of Atom kinds).  All values are validated to be non-negative
integers, and all operations return new immutable molecules.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import reduce
from typing import Iterator


class AtomSpace:
    """An ordered universe of Atom kind names.

    Every :class:`Molecule` belongs to exactly one space; the space fixes
    the dimension ``n`` of the vector model and the meaning of each
    component.  Atom kinds are identified by name (e.g. ``"Transform"``).

    Parameters
    ----------
    kinds:
        Ordered atom-kind names.  Must be unique and non-empty strings.
    """

    __slots__ = ("_kinds", "_index")

    def __init__(self, kinds: Iterable[str]):
        kinds = tuple(kinds)
        if not kinds:
            raise ValueError("AtomSpace requires at least one atom kind")
        seen = set()
        for kind in kinds:
            if not isinstance(kind, str) or not kind:
                raise ValueError(f"atom kind must be a non-empty string, got {kind!r}")
            if kind in seen:
                raise ValueError(f"duplicate atom kind {kind!r}")
            seen.add(kind)
        self._kinds = kinds
        self._index = {kind: i for i, kind in enumerate(kinds)}

    @property
    def kinds(self) -> tuple[str, ...]:
        """The ordered atom-kind names."""
        return self._kinds

    @property
    def dimension(self) -> int:
        """The number of atom kinds ``n``."""
        return len(self._kinds)

    def index_of(self, kind: str) -> int:
        """Return the vector index of ``kind``; raise ``KeyError`` if unknown."""
        return self._index[kind]

    def __contains__(self, kind: object) -> bool:
        return kind in self._index

    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> Iterator[str]:
        return iter(self._kinds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomSpace):
            return NotImplemented
        return self._kinds == other._kinds

    def __hash__(self) -> int:
        return hash(self._kinds)

    def __repr__(self) -> str:
        return f"AtomSpace({list(self._kinds)!r})"

    # -- molecule constructors -------------------------------------------

    def zero(self) -> "Molecule":
        """The neutral element ``(0, ..., 0)`` of the union semigroup."""
        return Molecule(self, (0,) * self.dimension)

    def molecule(self, counts: Mapping[str, int] | Iterable[int]) -> "Molecule":
        """Build a molecule from a ``{kind: count}`` mapping or a count vector.

        Kinds absent from a mapping default to zero.
        """
        if isinstance(counts, Mapping):
            vector = [0] * self.dimension
            for kind, count in counts.items():
                vector[self.index_of(kind)] = count
            return Molecule(self, vector)
        return Molecule(self, counts)

    def unit(self, kind: str) -> "Molecule":
        """A molecule with exactly one instance of ``kind``."""
        return self.molecule({kind: 1})


class Molecule:
    """An immutable Atom-count vector in an :class:`AtomSpace`.

    Supports the full lattice algebra of the paper (see module docstring).
    Molecules compare, hash and combine by value; mixing spaces raises
    ``ValueError``.
    """

    __slots__ = ("_space", "_counts")

    def __init__(self, space: AtomSpace, counts: Iterable[int]):
        counts = tuple(int(c) for c in counts)
        if len(counts) != space.dimension:
            raise ValueError(
                f"expected {space.dimension} counts for {space!r}, got {len(counts)}"
            )
        if any(c < 0 for c in counts):
            raise ValueError(f"atom counts must be non-negative, got {counts}")
        self._space = space
        self._counts = counts

    # -- basic accessors ---------------------------------------------------

    @property
    def space(self) -> AtomSpace:
        """The atom space this molecule lives in."""
        return self._space

    @property
    def counts(self) -> tuple[int, ...]:
        """The raw count vector, ordered like ``space.kinds``."""
        return self._counts

    def count(self, kind: str) -> int:
        """Number of instances of atom ``kind`` this molecule requires."""
        return self._counts[self._space.index_of(kind)]

    def __getitem__(self, kind: str) -> int:
        return self.count(kind)

    def as_dict(self, *, skip_zero: bool = True) -> dict[str, int]:
        """Return ``{kind: count}``, omitting zero entries by default."""
        return {
            kind: count
            for kind, count in zip(self._space.kinds, self._counts)
            if count or not skip_zero
        }

    def kinds_used(self) -> tuple[str, ...]:
        """Atom kinds with a non-zero count, in space order."""
        return tuple(k for k, c in zip(self._space.kinds, self._counts) if c)

    def is_zero(self) -> bool:
        """True for the neutral element ``(0, ..., 0)``."""
        return not any(self._counts)

    # -- the paper's operators ----------------------------------------------

    def union(self, other: "Molecule") -> "Molecule":
        """Meta-Molecule ``p_i = max(m_i, o_i)`` (paper's set-union operator)."""
        self._check_space(other)
        return Molecule(self._space, map(max, self._counts, other._counts))

    def intersection(self, other: "Molecule") -> "Molecule":
        """Meta-Molecule ``p_i = min(m_i, o_i)``."""
        self._check_space(other)
        return Molecule(self._space, map(min, self._counts, other._counts))

    def residual(self, available: "Molecule") -> "Molecule":
        """Atoms still missing to implement ``self`` given ``available``.

        This is the paper's operator ``p_i = max(o_i - m_i, 0)`` with
        ``o = self`` and ``m = available``: the minimum set of Atoms that
        additionally have to be offered (loaded) to implement ``self``.
        """
        self._check_space(available)
        return Molecule(
            self._space,
            (max(o - m, 0) for o, m in zip(self._counts, available._counts)),
        )

    def determinant(self) -> int:
        """``|m| = sum(m_i)``: the total number of Atom instances required."""
        return sum(self._counts)

    def scaled(self, factor: int) -> "Molecule":
        """Component-wise multiple ``factor * m`` (``factor >= 0``)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return Molecule(self._space, (c * factor for c in self._counts))

    def plus(self, other: "Molecule") -> "Molecule":
        """Component-wise sum (used e.g. to total a fabric's loaded atoms)."""
        self._check_space(other)
        return Molecule(self._space, (a + b for a, b in zip(self._counts, other._counts)))

    def dominates(self, other: "Molecule") -> bool:
        """True iff ``other <= self`` (self offers at least other's atoms)."""
        return other <= self

    def restricted_to(self, kinds: Iterable[str]) -> "Molecule":
        """Zero out every component not in ``kinds`` (projection)."""
        keep = set(kinds)
        return Molecule(
            self._space,
            (c if k in keep else 0 for k, c in zip(self._space.kinds, self._counts)),
        )

    # -- operator sugar ------------------------------------------------------

    def __or__(self, other: "Molecule") -> "Molecule":
        return self.union(other)

    def __and__(self, other: "Molecule") -> "Molecule":
        return self.intersection(other)

    def __sub__(self, other: "Molecule") -> "Molecule":
        return self.residual(other)

    def __add__(self, other: "Molecule") -> "Molecule":
        return self.plus(other)

    def __abs__(self) -> int:
        return self.determinant()

    def __le__(self, other: "Molecule") -> bool:
        self._check_space(other)
        return all(a <= b for a, b in zip(self._counts, other._counts))

    def __lt__(self, other: "Molecule") -> bool:
        return self <= other and self._counts != other._counts

    def __ge__(self, other: "Molecule") -> bool:
        self._check_space(other)
        return all(a >= b for a, b in zip(self._counts, other._counts))

    def __gt__(self, other: "Molecule") -> bool:
        return self >= other and self._counts != other._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Molecule):
            return NotImplemented
        return self._space == other._space and self._counts == other._counts

    def __hash__(self) -> int:
        return hash((self._space, self._counts))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={c}" for k, c in self.as_dict().items())
        return f"Molecule({inner or '0'})"

    # -- internals -----------------------------------------------------------

    def _check_space(self, other: "Molecule") -> None:
        if self._space != other._space:
            raise ValueError(
                f"molecules live in different atom spaces: "
                f"{self._space!r} vs {other._space!r}"
            )


def supremum(
    molecules: Iterable[Molecule], *, space: AtomSpace | None = None
) -> Molecule:
    """``sup(M)``: the Meta-Molecule of Atoms needed for *any* molecule in M.

    For an empty iterable a ``space`` is required and the zero molecule
    (the supremum of the empty set in the lattice) is returned.
    """
    molecules = list(molecules)
    if not molecules:
        if space is None:
            raise ValueError("supremum of an empty set needs an explicit space")
        return space.zero()
    return reduce(Molecule.union, molecules)


def infimum(molecules: Iterable[Molecule]) -> Molecule:
    """``inf(M)``: Atoms collectively needed by *all* molecules of M.

    The infimum of an empty set is undefined here (it would be the top
    element, which is unbounded in ``N^n``); raises ``ValueError``.
    """
    molecules = list(molecules)
    if not molecules:
        raise ValueError("infimum of an empty molecule set is unbounded")
    return reduce(Molecule.intersection, molecules)
