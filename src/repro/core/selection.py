"""Run-time Molecule selection (paper section 5, task b).

Given the currently forecasted SIs (with expected execution counts), the
Atom-Container budget and the Atoms already loaded, pick one hardware
molecule per SI (or none, i.e. software execution) so that the weighted
cycle savings are maximised while the *supremum* of the chosen molecules
fits the budget.  Using the supremum — not the sum — is the heart of the
paper's resource sharing: an Atom instance loaded in a container serves
every SI whose molecule needs it (Fig. 6, T3).

Two algorithms are provided:

* :func:`select_greedy` — the production path: start from nothing and
  repeatedly apply the upgrade with the best marginal gain per additional
  container, honouring already-loaded atoms (their containers are sunk
  cost, so reusing them is free).
* :func:`select_exhaustive` — optimal reference for small libraries,
  used by tests and the selection ablation bench.

Both delegate their inner scoring/enumeration loops to the shared
:func:`~repro.core.backend.kernel` instance (see :mod:`repro.core.backend`:
the numpy kernels, bit-identical to the pure-python reference kernels
the tests diff them against).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from . import backend
from .backend import benefit, demand
from .library import SILibrary
from .molecule import Molecule
from .si import MoleculeImpl, SpecialInstruction


@dataclass(frozen=True)
class ForecastedSI:
    """One SI requested by the forecast, with its expected usage weight."""

    si: SpecialInstruction
    expected_executions: float

    def __post_init__(self) -> None:
        if self.expected_executions < 0:
            raise ValueError("expected executions cannot be negative")


@dataclass
class SelectionResult:
    """Outcome of a molecule selection round."""

    chosen: dict[str, MoleculeImpl | None]
    demand: Molecule
    containers_used: int
    total_benefit: float
    considered: int = 0
    rejected_over_budget: dict[str, bool] = field(default_factory=dict)


def _checked_requests(
    requests: Iterable[ForecastedSI],
) -> list[ForecastedSI]:
    """Materialise ``requests`` and reject duplicate SI names.

    Duplicates used to be silently collapsed by the greedy path while the
    exhaustive path double-counted their benefit; neither behaviour is
    meaningful, so both now fail loudly (callers aggregate weights per SI
    — see ``RisppRuntime._replan``).
    """
    requests = list(requests)
    seen: set[str] = set()
    for request in requests:
        name = request.si.name
        if name in seen:
            raise ValueError(f"duplicate selection request for SI {name!r}")
        seen.add(name)
    return requests


def _result(
    library: SILibrary,
    requests: list[ForecastedSI],
    chosen: dict[str, MoleculeImpl | None],
    considered: int,
    *,
    total: float | None = None,
) -> SelectionResult:
    """Assemble the shared result surface from a backend's raw choice."""
    by_name = {r.si.name: r for r in requests}
    chosen_demand = demand(library, chosen)
    if total is None:
        total = sum(
            benefit(by_name[name], impl) for name, impl in chosen.items()
        )
    return SelectionResult(
        chosen=chosen,
        demand=chosen_demand,
        containers_used=abs(chosen_demand - library.baseline_molecule()),
        total_benefit=total,
        considered=considered,
    )


def select_greedy(
    library: SILibrary,
    requests: Iterable[ForecastedSI],
    container_budget: int,
    *,
    loaded: Molecule | None = None,
) -> SelectionResult:
    """Greedy marginal-gain molecule selection.

    Upgrades are scored by weighted cycle savings per *container budget*
    consumed (the marginal determinant growth of the demand supremum), so
    cheap shared molecules are picked before large exclusive ones; an
    upgrade that shrinks or holds the supremum is treated as budget-free,
    never penalised.  Among equal-score upgrades the one needing fewer
    new rotations wins: ``loaded`` (reconfigurable projection is taken
    internally) describes Atoms already sitting in containers, and
    reusing them is free — this minimises the number of rotations, a
    stated goal of the paper.
    """
    if container_budget < 0:
        raise ValueError("container budget cannot be negative")
    requests = _checked_requests(requests)
    loaded_rc = (
        library.restricted_to_reconfigurable(loaded)
        if loaded is not None
        else library.space.zero()
    )
    chosen, considered = backend.kernel().greedy_choose(
        library, requests, container_budget, loaded_rc
    )
    return _result(library, requests, chosen, considered)


def select_exhaustive(
    library: SILibrary,
    requests: Iterable[ForecastedSI],
    container_budget: int,
    *,
    loaded: Molecule | None = None,
) -> SelectionResult:
    """Optimal selection by enumerating all per-SI implementation choices.

    Exponential in the number of SIs — intended for validation and for the
    greedy-vs-optimal ablation, not for the run-time path.  ``loaded`` is
    accepted for interface parity with :func:`select_greedy`; the optimal
    choice does not depend on it (reuse only affects rotation effort, not
    the achievable benefit).  Equal-benefit combinations prefer fewer
    containers, then the earlier enumeration order, so the reported
    optimum is deterministic across kernels.
    """
    if container_budget < 0:
        raise ValueError("container budget cannot be negative")
    requests = _checked_requests(requests)
    chosen, total, considered = backend.kernel().exhaustive_choose(
        library, requests, container_budget
    )
    return _result(library, requests, chosen, considered, total=total)


def upgrade_path(
    library: SILibrary,
    requests: Iterable[ForecastedSI],
    max_containers: int,
    *,
    loaded: Molecule | None = None,
) -> list[SelectionResult]:
    """Selection results for every container budget ``0..max_containers``.

    Materialises the dynamic trade-off of Fig. 13: as the budget grows
    the selected molecules walk along the Pareto fronts, and the walk
    never regresses — greedy selection alone is not guaranteed monotone
    in the budget (a larger budget can bait it into a worse local
    optimum), so a budget whose fresh selection scores below its
    predecessor's carries the predecessor forward (still feasible: it
    used at most the smaller budget).
    """
    requests = list(requests)
    path: list[SelectionResult] = []
    for budget in range(max_containers + 1):
        result = select_greedy(library, requests, budget, loaded=loaded)
        if path and result.total_benefit < path[-1].total_benefit:
            result = path[-1]
        path.append(result)
    return path
