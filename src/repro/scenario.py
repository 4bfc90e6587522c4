"""One chaos scenario: the seven knobs of a fault campaign, checked once.

A :class:`Scenario` is what ``repro chaos`` builds from its flags, what
a ``--resume`` store keeps in its ``run.json`` and what ``POST /scenario``
carries.  Its field defaults are the campaign defaults (also the
``run_chaos_suite`` keyword defaults), and :meth:`Scenario.from_payload`
is the one validator: a closed field set, a shipped suite, exact JSON
types and ranges.  The suite table :data:`SUITES` lives here, so
validating a scenario imports nothing of the simulator and ``repro.cli``
and ``repro.serve`` stay light to import.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from typing import Any


#: The shipped suites (run by :mod:`repro.sim.suites`): the ``--suite``
#: choices of chaos, verify and metrics, and the ``suite`` values a
#: scenario accepts.
SUITES = ("aes", "h264", "synthetic")


class ScenarioError(ValueError):
    """A scenario failed validation: exit 2 at ``repro chaos``, HTTP 400
    at ``repro serve``.  An out-of-range value's message starts with the
    field name."""


#: The integer fields and the least value each takes.
_LEAST = {"seed": 1, "scrub_period": 1, "max_retries": 0, "backoff_cycles": 1}


def _malformed(name: str, expected: str, value: Any) -> ScenarioError:
    return ScenarioError(
        f"malformed scenario field: {name} must be {expected}, got {value!r}"
    )


@dataclass(frozen=True)
class Scenario:
    """One chaos campaign: the suite, its fault schedule and recovery."""

    suite: str = "synthetic"
    seed: int = 1
    #: Expected faults per million cycles.
    fault_rate: float = 5.0
    #: Cycles between two readback-scrubber passes.
    scrub_period: int = 10_000
    #: Bitstream write retries before a job is abandoned.
    max_retries: int = 3
    #: Base retry backoff in cycles; it doubles per attempt.
    backoff_cycles: int = 1_000
    #: Reduced scenario sizes (CI mode).
    quick: bool = False

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> Scenario:
        """Validate a JSON object; absent fields take the class defaults.

        Integer fields take only an ``int`` (never a ``bool``),
        ``fault_rate`` an ``int`` or ``float`` (stored as ``float``) and
        ``quick`` only a ``bool``; raise :class:`ScenarioError` on junk.
        """
        if not isinstance(payload, Mapping):
            raise ScenarioError("scenario must be a JSON object")
        known = sorted(f.name for f in fields(cls))
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise ScenarioError(
                f"unknown scenario field(s): {', '.join(unknown)}; "
                f"accepted: {', '.join(known)}"
            )
        values = {**asdict(cls()), **payload}
        if values["suite"] not in SUITES:
            raise ScenarioError(
                f"unknown suite {values['suite']!r}; one of {sorted(SUITES)}"
            )
        for name, least in _LEAST.items():
            value = values[name]
            if not isinstance(value, int) or isinstance(value, bool):
                raise _malformed(name, "an integer", value)
            if value < least:
                condition = "positive" if least else "non-negative"
                raise ScenarioError(f"{name} must be {condition}, got {value}")
        rate = values["fault_rate"]
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise _malformed("fault_rate", "a number", rate)
        if not 0 <= rate <= sys.float_info.max:  # NaN fails it too
            raise ScenarioError(
                f"fault_rate must be finite and non-negative, got {rate}"
            )
        values["fault_rate"] = float(rate)
        if not isinstance(values["quick"], bool):
            raise _malformed("quick", "a boolean", values["quick"])
        return cls(**values)

    def to_payload(self) -> dict[str, Any]:
        """The scenario as a JSON object; ``from_payload`` reads it back."""
        return asdict(self)
