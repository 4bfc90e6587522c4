"""Trimming FC candidates per block (paper §4.2, Fig. 5).

One block can carry FC candidates for several SIs that will never fit
into the Atom Containers together.  The Fig. 5 algorithm represents each
SI by its Meta-Molecule ``Rep(S)`` and, while the supremum of the
representatives exceeds the number of available Atom Containers, removes
the SI with the *worst expected speed-up per hardware resource*: the one
whose removal frees the most containers per unit of speed-up lost.

The loop aborts (without emptying the whole cluster of SIs — that would
gut the run-time decision system's search space) when no single removal
would reduce the container demand, i.e. when
``for all m in M: m <= sup(M \\ {m})`` (the paper's footnote 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.library import SILibrary
from ..core.molecule import supremum
from .candidates import FCCandidate


@dataclass
class TrimResult:
    """Outcome of trimming one block's FC candidates."""

    kept: list[FCCandidate]
    removed: list[FCCandidate]
    containers_needed: int
    rounds: int = 0
    aborted_on_cluster: bool = False


def trim_block_candidates(
    library: SILibrary,
    block_candidates: list[FCCandidate],
    available_containers: int,
) -> TrimResult:
    """Apply the Fig. 5 algorithm to the FC candidates of one block."""
    if available_containers < 0:
        raise ValueError("available containers cannot be negative")

    # M <- { Rep(S_i) } for the SIs of the FC candidates in this block,
    # projected onto the reconfigurable atom kinds (only those occupy ACs).
    by_si: dict[str, FCCandidate] = {}
    for candidate in block_candidates:
        if candidate.si_name in by_si:
            raise ValueError(
                f"block has two candidates for SI {candidate.si_name!r}"
            )
        by_si[candidate.si_name] = candidate
    reps = {
        name: library.restricted_to_reconfigurable(library.get(name).rep())
        for name in by_si
    }

    kept = dict(by_si)
    removed: list[FCCandidate] = []
    rounds = 0
    aborted = False
    while kept:
        demand = supremum((reps[n] for n in kept), space=library.space)
        if abs(demand) <= available_containers:
            break
        if len(kept) == 1:
            # Never delete the last SI: "we do not want to remove a
            # complete cluster of SIs out of the FCs as this would be a
            # major reduction in the search space for the run-time
            # decision system" (§4.2).
            aborted = True
            break
        rounds += 1
        # Find the SI whose removal frees the most containers per unit of
        # expected speed-up: relation = |sup(M) - sup(M\{m})| / speedup(m).
        relation = 0.0
        worst: str | None = None
        for name in kept:
            others = supremum(
                (reps[n] for n in kept if n != name), space=library.space
            )
            freed = abs(demand - others)
            if freed == 0:
                continue
            speedup = library.get(name).max_expected_speedup()
            score = freed / max(speedup, 1e-12)
            if score > relation:
                relation = score
                worst = name
        if worst is None:
            # No single removal reduces the demand (footnote 8): abort
            # rather than deleting a whole cluster of mutually covering SIs.
            aborted = True
            break
        removed.append(kept.pop(worst))

    final_demand = supremum((reps[n] for n in kept), space=library.space)
    return TrimResult(
        kept=sorted(kept.values(), key=lambda c: c.si_name),
        removed=removed,
        containers_needed=abs(final_demand),
        rounds=rounds,
        aborted_on_cluster=aborted,
    )


@dataclass
class BlockTrim:
    """Per-block trim results over a whole application."""

    results: dict[str, TrimResult] = field(default_factory=dict)

    def kept_candidates(self) -> list[FCCandidate]:
        return [c for r in self.results.values() for c in r.kept]


def trim_all_blocks(
    library: SILibrary,
    candidates_by_block: dict[str, list[FCCandidate]],
    available_containers: int,
) -> BlockTrim:
    """Trim every block's candidate set independently (the paper's step 2)."""
    trim = BlockTrim()
    for block_id, candidates in candidates_by_block.items():
        trim.results[block_id] = trim_block_candidates(
            library, candidates, available_containers
        )
    return trim
