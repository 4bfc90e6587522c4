"""IR interpreter: run programs, collect traces, build profiled CFGs."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.graph import ControlFlowGraph

from .ir import Branch, Exit, Jump, Program


@dataclass
class ExecutionResult:
    """Everything one program run produced."""

    block_trace: list[str]
    env: dict
    cycles: int
    si_executions: dict[str, int] = field(default_factory=dict)


def execute(
    program: Program,
    env: dict | None = None,
    *,
    max_blocks: int = 1_000_000,
) -> ExecutionResult:
    """Interpret ``program`` until it exits (or the block budget runs out).

    ``env`` is the mutable environment block actions and branch conditions
    see; it is returned (mutated) in the result.
    """
    program.validate()
    env = env if env is not None else {}
    trace: list[str] = []
    cycles = 0
    si_counts: dict[str, int] = {}
    current = program.entry
    for _ in range(max_blocks):
        block = program.blocks[current]
        trace.append(current)
        cycles += block.cycles
        for si, n in block.si_calls.items():
            si_counts[si] = si_counts.get(si, 0) + n
        if block.action is not None:
            block.action(env)
        term = block.terminator
        if isinstance(term, Exit):
            return ExecutionResult(
                block_trace=trace, env=env, cycles=cycles, si_executions=si_counts
            )
        if isinstance(term, Jump):
            current = term.target
        elif isinstance(term, Branch):
            current = term.if_true if term.condition(env) else term.if_false
        else:  # pragma: no cover - exhaustive over Terminator
            raise TypeError(f"unknown terminator {term!r}")
    raise RuntimeError(
        f"program did not exit within {max_blocks} blocks (infinite loop?)"
    )


def profile_program(
    program: Program,
    env: dict | None = None,
    *,
    runs: int = 1,
    env_factory=None,
    max_blocks: int = 1_000_000,
) -> tuple[ControlFlowGraph, list[ExecutionResult]]:
    """Run the program (possibly several times) and return a profiled CFG.

    ``env_factory(run_index)`` supplies per-run environments (e.g. random
    plaintexts for AES); otherwise each run shares a copy of ``env``.
    """
    if runs < 1:
        raise ValueError("need at least one profiling run")
    cfg = program.to_cfg()
    results: list[ExecutionResult] = []
    block_counts: dict[str, int] = {}
    edge_counts: dict[tuple[str, str], int] = {}
    for i in range(runs):
        if env_factory is not None:
            run_env = env_factory(i)
        else:
            run_env = dict(env) if env is not None else {}
        result = execute(program, run_env, max_blocks=max_blocks)
        results.append(result)
        # Accumulate per run: concatenating traces would fabricate an
        # exit -> entry edge between consecutive runs.
        for block in result.block_trace:
            block_counts[block] = block_counts.get(block, 0) + 1
        for src, dst in zip(result.block_trace, result.block_trace[1:]):
            edge_counts[(src, dst)] = edge_counts.get((src, dst), 0) + 1
    cfg.set_profile(block_counts, edge_counts)
    return cfg, results
