"""The metrics registry: counters, gauges, histograms, span timers.

Design constraints, in order:

1. **Near-zero cost when disabled.**  A disabled registry hands out one
   shared :data:`NULL` instrument whose every method is a no-op ``pass``;
   additionally the hot seams (``execute_si``, the port's per-event
   paths) guard their whole instrumentation block behind a single
   pre-resolved boolean, so the disabled path costs one attribute truth
   test per event — bounded below 3% of one ``execute_si`` by
   ``tests/test_obs_runtime.py``.
2. **Deterministic exports.**  All counters/gauges/cycle histograms take
   simulated-cycle or count values, so a seeded run produces a
   byte-identical snapshot; wall-clock span timers are declared
   ``deterministic=False`` in the catalogue and excluded from
   deterministic snapshots.
3. **Declared metrics only.**  Creation validates the name and type
   against :data:`repro.obs.catalogue.METRICS`, and ``labels()`` the
   label names and declared values — an instrumentation site cannot
   invent a series the documentation does not know about.

Label children are pre-resolvable: ``registry.counter("x").labels(mode="hw")``
returns a bound child whose ``inc()`` is one dict-free method call, so
hot paths resolve children once at construction time, not per event.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Iterator

from .catalogue import COUNTER, GAUGE, HISTOGRAM, MetricSpec, spec_of
from .clock import perf_counter


class _NullSpan:
    """No-op context manager returned by the disabled timer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullInstrument:
    """The shared do-nothing instrument of a disabled registry.

    Implements the full instrument surface (counter, gauge, histogram,
    child lookup, span timer) so call sites never branch on the metric
    type; every method body is a bare ``pass``/constant return.
    """

    __slots__ = ()
    enabled = False

    def labels(self, **_labels: str) -> "NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> _NullSpan:
        return _NULL_SPAN


#: The singleton no-op instrument.
NULL = NullInstrument()


class _Span:
    """Wall-clock span recording into a histogram on exit."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "Histogram"):
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._histogram.observe(perf_counter() - self._start)


class Instrument:
    """Base of the live instruments: label handling + spec plumbing."""

    enabled = True

    def __init__(self, spec: MetricSpec, label_values: tuple[str, ...] = ()):
        self.spec = spec
        self.label_values = label_values
        self._children: dict[tuple[str, ...], Instrument] = {}
        if not label_values and spec.labels:
            # Pre-register the declared children so zero-valued series
            # stay visible in exports (a suite that never faults still
            # exposes faults_injected_total{kind="permanent"} = 0).
            for combo in _declared_combinations(spec):
                self.labels(**dict(zip(spec.labels, combo)))

    def labels(self, **labels: str) -> "Instrument":
        """The child instrument bound to one label-value combination."""
        spec = self.spec
        if self.label_values:
            raise ValueError(
                f"metric {spec.name!r}: labels() on an already-bound child"
            )
        if tuple(sorted(labels)) != tuple(sorted(spec.labels)):
            raise ValueError(
                f"metric {spec.name!r} declares labels {spec.labels}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(labels[name] for name in spec.labels)
        child = self._children.get(key)
        if child is None:
            for name, value in zip(spec.labels, key):
                allowed = spec.label_values.get(name)
                if allowed and value not in allowed:
                    raise ValueError(
                        f"metric {spec.name!r} label {name!r} declares "
                        f"values {allowed}, got {value!r}"
                    )
            child = type(self)(spec, key)
            self._children[key] = child
        return child

    def _require_bound(self) -> None:
        if self.spec.labels and not self.label_values:
            raise ValueError(
                f"metric {self.spec.name!r} has labels {self.spec.labels}; "
                "bind a child with .labels(...) first"
            )

    def children(self) -> Iterator[tuple[tuple[str, ...], "Instrument"]]:
        for key in sorted(self._children):
            yield key, self._children[key]


def _declared_combinations(spec: MetricSpec) -> list[tuple[str, ...]]:
    combos: list[tuple[str, ...]] = [()]
    for label in spec.labels:
        values = spec.label_values.get(label)
        if not values:
            return []  # open-ended label set: children appear on use
        combos = [c + (v,) for c in combos for v in values]
    return combos


class Counter(Instrument):
    """Monotonically increasing count; optionally computed by a callback.

    A callback counter (``set_callback``) reads a monotone quantity the
    instrumented object already tracks (e.g. container churn) at
    collection time — zero cost on the mutation path.
    """

    def __init__(self, spec: MetricSpec, label_values: tuple[str, ...] = ()):
        self.value: float = 0.0
        self.callback: Callable[[], float] | None = None
        super().__init__(spec, label_values)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._require_bound()
        self.value += amount

    def set_callback(self, fn: Callable[[], float]) -> None:
        self._require_bound()
        self.callback = fn

    def current(self) -> float:
        return float(self.callback()) if self.callback is not None else self.value


class Gauge(Instrument):
    """Set-to-current value; optionally computed by a callback."""

    def __init__(self, spec: MetricSpec, label_values: tuple[str, ...] = ()):
        self.value: float = 0.0
        self.callback: Callable[[], float] | None = None
        super().__init__(spec, label_values)

    def set(self, value: float) -> None:
        self._require_bound()
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self._require_bound()
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._require_bound()
        self.value -= amount

    def set_callback(self, fn: Callable[[], float]) -> None:
        """Resolve the gauge at collection time instead of on set()."""
        self._require_bound()
        self.callback = fn

    def current(self) -> float:
        return float(self.callback()) if self.callback is not None else self.value


class Histogram(Instrument):
    """Cumulative-bucket histogram (Prometheus semantics) + span timer."""

    def __init__(self, spec: MetricSpec, label_values: tuple[str, ...] = ()):
        if spec.buckets is None:  # pragma: no cover - catalogue enforces
            raise ValueError(f"histogram {spec.name!r} declares no buckets")
        self.bounds: tuple[float, ...] = tuple(spec.buckets)
        #: Per-bound counts (non-cumulative; exporters accumulate), the
        #: last slot is the +Inf overflow.
        self.counts: list[int] = [0] * (len(self.bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        super().__init__(spec, label_values)

    def observe(self, value: float) -> None:
        self._require_bound()
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def time(self) -> _Span:
        """Span timer: ``with histogram.time(): ...`` records seconds."""
        self._require_bound()
        return _Span(self)

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out


_TYPES: dict[str, type[Instrument]] = {
    COUNTER: Counter,
    GAUGE: Gauge,
    HISTOGRAM: Histogram,
}


class MetricRegistry:
    """One run's metric instruments, by declared name.

    ``MetricRegistry(enabled=False)`` (or the module-level
    :data:`DISABLED`) hands out :data:`NULL` for every instrument — the
    near-zero-cost path the runtime uses by default.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[str, Instrument] = {}

    def _get(self, name: str, kind: str) -> Any:
        spec = spec_of(name)
        if spec.type != kind:
            raise ValueError(
                f"metric {name!r} is declared as a {spec.type}, not a {kind}"
            )
        if not self.enabled:
            return NULL
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = _TYPES[kind](spec)
            self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Any:
        return self._get(name, COUNTER)

    def gauge(self, name: str) -> Any:
        return self._get(name, GAUGE)

    def histogram(self, name: str) -> Any:
        return self._get(name, HISTOGRAM)

    def instruments(self) -> list[Instrument]:
        """The created instrument families, catalogue-ordered."""
        from .catalogue import METRICS

        order = {name: i for i, name in enumerate(METRICS)}
        return sorted(
            self._instruments.values(), key=lambda m: order[m.spec.name]
        )

    def get(self, name: str) -> Instrument | None:
        """The created family for ``name``, or None (tests/exporters)."""
        spec_of(name)
        return self._instruments.get(name)


#: Shared disabled registry — the default telemetry sink everywhere.
DISABLED = MetricRegistry(enabled=False)
