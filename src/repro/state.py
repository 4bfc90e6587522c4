"""One declaration of the run-time system's mutable state.

Each stateful run-time class declares every instance attribute once, in
a ``STATE_ROLES`` class attribute (name -> :class:`Slot`), with one role:

* ``state`` — fingerprinted, copied and persisted;
* ``counter`` — copied and persisted, not fingerprinted: bookkeeping
  that never steers what the machine does next;
* ``cache`` — reset to its declared value on copy and load;
* ``wiring`` — shared, never copied or persisted; a back-reference to an
  object cloned along with its owner follows the clone.

A dataclass is handled field by field, each field ``state`` unless its
metadata names another role (``metadata={"role": "counter"}``).  A
:class:`Ref` holds an element of another slot's list: clones keep the
identity, dumps store the index.  ``load`` takes every type from the
declarations, never from the data.  The module imports nothing from the
package, so every layer can declare its state.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache, partial
from operator import attrgetter
from types import NoneType, UnionType
from typing import Any, Callable, NamedTuple, cast, get_args, get_origin, get_type_hints

STATE, COUNTER, CACHE, WIRING = "state", "counter", "cache", "wiring"


@dataclass(frozen=True)
class Slot:
    """A role, with the value's type or a cache's reset value (or factory)."""

    role: str
    kind: Any = None
    reset: Any = None


state = partial(Slot, STATE)
counter = partial(Slot, COUNTER)
cache = partial(Slot, CACHE, None)


def wiring(*names: str) -> dict[str, Slot]:
    return {name: Slot(WIRING) for name in names}


@dataclass(frozen=True)
class Ref:
    """Kind of an element of the list at ``path`` (dotted, from the owner)."""

    path: str


class Component:
    """Kind of a declared object whose class its declarer cannot import."""


class Section:
    """Kind of a slot persisted by its own snapshot section (copied only)."""


def clone(obj: Any) -> Any:
    """An independent copy of a declared object and everything it owns."""
    return _plan(type(obj)).clone(obj, {})


def fingerprint(obj: Any) -> Any:
    """Hashable key of a declared object's ``state`` slots."""
    return _plan(type(obj)).fp(obj)


def dump(obj: Any) -> dict[str, Any]:
    """JSON-safe ``state`` and ``counter`` slots (keys lose a leading ``_``)."""
    return _plan(type(obj)).dump(obj)


def load(obj: Any, data: Any) -> None:
    """Overwrite ``obj``'s slots in place from :func:`dump` output."""
    _plan(type(obj)).load_into(obj, data)


def _keep(value: Any, _context: Any = None) -> Any:
    return value


class _Codec(NamedTuple):
    copy: Callable[[Any, dict[int, Any]], Any] = _keep  # (value, memo)
    fp: Callable[[Any], Any] = _keep
    dump: Callable[[Any, Any], Any] = _keep  # (value, owner)
    load: Callable[[Any, Any], Any] = _keep  # (data, owner)
    inplace: bool = False  # a declared object, loaded into the live one
    persist: bool = True  # False: a Section


@lru_cache(maxsize=None)
def _codec(kind: Any) -> _Codec:
    """The derived operations of one declared kind, compiled once."""
    args = get_args(kind)
    if isinstance(kind, UnionType):  # X | None
        (inner,) = [_codec(arg) for arg in args if arg is not NoneType]
        return _Codec(*map(_or_none, inner[:4]), *inner[4:])
    origin = get_origin(kind)
    if origin is list:
        c = _codec(args[0])
        return _Codec(
            lambda v, memo: [c.copy(x, memo) for x in v],
            lambda v: tuple([c.fp(x) for x in v]),
            lambda v, owner: [c.dump(x, owner) for x in v],
            lambda data, owner: [c.load(x, owner) for x in data],
        )
    if origin is dict:
        k, c = _codec(args[0]), _codec(args[1])
        return _Codec(
            lambda v, memo: {key: c.copy(x, memo) for key, x in v.items()},
            lambda v: frozenset([(key, c.fp(x)) for key, x in v.items()]),
            lambda v, owner: [[key, c.dump(x, owner)] for key, x in v.items()],
            lambda data, owner: {k.load(key, owner): c.load(x, owner) for key, x in data},
        )
    if origin is tuple:  # of plain values; JSON turns them into lists
        return _Codec(load=lambda data, owner: _tuples(data))
    if isinstance(kind, Ref):
        items = attrgetter(kind.path)
        return _Codec(
            lambda v, memo: memo[id(v)],
            lambda v: _plan(type(v)).fp(v),
            lambda v, owner: [id(x) for x in items(owner)].index(id(v)),
            lambda data, owner: _at(items(owner), data),
        )
    if kind is Section:
        return _Codec(lambda v, memo: copy.copy(v), persist=False)
    if kind is Component or "STATE_ROLES" in vars(kind):
        return _Codec(
            lambda v, memo: _plan(type(v)).clone(v, memo),
            lambda v: _plan(type(v)).fp(v),
            lambda v, owner: _plan(type(v)).dump(v),
            inplace=True,
        )
    if issubclass(kind, enum.Enum):
        return _Codec(dump=lambda v, owner: v.value, load=lambda data, owner: kind(data))
    if is_dataclass(kind):
        plan = _plan(kind)
        return _Codec(plan.clone, plan.fp, lambda v, o: plan.dump(v), plan.construct)
    if kind in (int, float, str, bool, NoneType):
        return _Codec()
    raise TypeError(f"no state codec for {kind!r}")


def _or_none(f: Callable[..., Any]) -> Callable[..., Any]:
    return f if f is _keep else (lambda v, *rest: None if v is None else f(v, *rest))


def _tuples(data: Any) -> Any:
    return tuple(map(_tuples, data)) if isinstance(data, list) else data


def _at(items: list[Any], index: Any) -> Any:
    if type(index) is not int or not 0 <= index < len(items):
        raise IndexError(f"no element {index!r} among {len(items)}")
    return items[index]


def roles(cls: type) -> dict[str, Slot]:
    """The slots ``cls`` declares (its fields, for a dataclass)."""
    if "STATE_ROLES" in vars(cls):
        return cast("dict[str, Slot]", vars(cls)["STATE_ROLES"])
    hints = get_type_hints(cls)
    return {f.name: Slot(f.metadata.get("role", STATE), hints[f.name]) for f in fields(cls)}


class _Plan:
    """The derived operations of one declared class or dataclass."""

    def __init__(self, cls: type) -> None:
        declared = roles(cls)
        self.cls = cls
        self.key = {name: name.lstrip("_") for name in declared}
        codecs = {n: _codec(s.kind) for n, s in declared.items() if s.role in (STATE, COUNTER)}
        self.copies = [(n, c.copy) for n, c in codecs.items() if c.copy is not _keep]
        self.resets = [(n, s.reset) for n, s in declared.items() if s.role == CACHE]
        self.wired = [n for n, s in declared.items() if s.role == WIRING]
        self.persisted = [(n, c) for n, c in codecs.items() if c.persist]
        fps = [(n, codecs[n].fp) for n, s in declared.items() if s.role == STATE]
        if all(f is _keep for _n, f in fps):
            self.fp: Callable[[Any], Any] = attrgetter(*[n for n, _f in fps])
        else:
            self.fp = lambda v: tuple([f(getattr(v, n)) for n, f in fps])

    def clone(self, v: Any, memo: dict[int, Any]) -> Any:
        twin = memo[id(v)] = object.__new__(self.cls)
        slots = twin.__dict__
        slots.update(v.__dict__)
        for name, copy_slot in self.copies:
            slots[name] = copy_slot(slots[name], memo)
        for name, reset in self.resets:
            slots[name] = reset() if callable(reset) else reset
        for name in self.wired:
            slots[name] = memo.get(id(slots[name]), slots[name])
        return twin

    def dump(self, v: Any) -> dict[str, Any]:
        return {self.key[n]: c.dump(getattr(v, n), v) for n, c in self.persisted}

    def construct(self, data: Any, owner: Any) -> Any:
        return self.cls(**{n: c.load(data[self.key[n]], owner) for n, c in self.persisted})

    def load_into(self, obj: Any, data: Any) -> None:
        for name, c in self.persisted:
            item, live = data[self.key[name]], getattr(obj, name)
            if not c.inplace:
                setattr(obj, name, c.load(item, obj))
            elif (live is None) != (item is None):
                raise ValueError(f"{self.cls.__name__}.{name}: presence differs")
            elif live is not None:
                _plan(type(live)).load_into(live, item)
        for name, reset in self.resets:
            setattr(obj, name, reset() if callable(reset) else reset)


_plan = lru_cache(maxsize=None)(_Plan)
