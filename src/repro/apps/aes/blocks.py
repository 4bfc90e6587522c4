"""AES as a profiled BB graph with Special Instructions (paper Fig. 3).

The paper's Fig. 3 is "the BB-graph from the AES application as it is
automatically generated from our tool-chain", coloured by profiled
execution time, with SI usages marked and FC candidates computed.  Here
the same pipeline is reproduced end to end:

1. :func:`build_aes_program` — AES-128 as an IR program whose blocks
   *really encrypt* (the block actions drive :mod:`repro.apps.aes.aes`),
   annotated with the SI calls of each block;
2. :func:`build_aes_library` — an SI library for the AES hot spots
   (SubBytes/ShiftRows, MixColumns, key expansion) over S-box/GF-
   multiplier/XOR-tree atoms;
3. :func:`profile_aes` — execute over random plaintexts and return the
   profiled CFG;
4. :func:`aes_forecast_report` — run the full forecast pipeline and
   return candidates, forecast points and the DOT rendering of Fig. 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ...cfg.graph import ControlFlowGraph
from ...core.atom import AtomCatalogue, AtomKind
from ...core.library import SILibrary
from ...core.si import MoleculeImpl, SpecialInstruction
from ...forecast.annotate import ForecastAnnotation
from ...forecast.candidates import FCCandidate, determine_candidates
from ...forecast.fdf import ForecastDecisionFunction
from ...forecast.pipeline import run_forecast_pipeline
from ...sim.executor import profile_program
from ...sim.ir import Branch, Jump, Program
from .aes import (
    ROUNDS,
    add_round_key,
    expand_key,
    mix_columns,
    shift_rows,
    sub_bytes,
)

#: Software latencies of the AES SIs (cycles; byte-wise reference code on
#: the scalar core).
AES_SOFTWARE_CYCLES = {"SUBBYTES": 320, "MIXCOL": 640, "KEYEXP": 200}


def build_aes_catalogue() -> AtomCatalogue:
    """S-box lookup, GF(2^8) multiplier and XOR-tree atoms."""
    return AtomCatalogue.of(
        [
            AtomKind("SBoxLUT", bitstream_bytes=61_000,
                     description="dual-port S-box lookup table"),
            AtomKind("GFMul", bitstream_bytes=57_000,
                     description="four parallel GF(2^8) constant multipliers"),
            AtomKind("XorTree", bitstream_bytes=55_000,
                     description="wide XOR reduction network"),
            AtomKind("Fetch", reconfigurable=False,
                     description="static operand fetch"),
        ]
    )


def build_aes_library() -> SILibrary:
    """The AES SI library: SUBBYTES, MIXCOL and KEYEXP."""
    catalogue = build_aes_catalogue()
    space = catalogue.space

    def impl(counts: dict[str, int], cycles: int) -> MoleculeImpl:
        label = " ".join(f"{k[0]}{v}" for k, v in counts.items())
        return MoleculeImpl(space.molecule(counts), cycles, label=label)

    subbytes = SpecialInstruction(
        "SUBBYTES",
        space,
        AES_SOFTWARE_CYCLES["SUBBYTES"],
        [
            impl({"SBoxLUT": 1, "Fetch": 1}, 40),
            impl({"SBoxLUT": 2, "Fetch": 1}, 24),
            impl({"SBoxLUT": 4, "Fetch": 2}, 16),
        ],
        description="SubBytes + ShiftRows over the packed state",
    )
    mixcol = SpecialInstruction(
        "MIXCOL",
        space,
        AES_SOFTWARE_CYCLES["MIXCOL"],
        [
            impl({"GFMul": 1, "XorTree": 1, "Fetch": 1}, 48),
            impl({"GFMul": 2, "XorTree": 1, "Fetch": 1}, 32),
            impl({"GFMul": 4, "XorTree": 2, "Fetch": 2}, 20),
        ],
        description="MixColumns over all four columns",
    )
    keyexp = SpecialInstruction(
        "KEYEXP",
        space,
        AES_SOFTWARE_CYCLES["KEYEXP"],
        [
            impl({"SBoxLUT": 1, "XorTree": 1, "Fetch": 1}, 30),
            impl({"SBoxLUT": 2, "XorTree": 1, "Fetch": 1}, 22),
        ],
        description="one round-key expansion step",
    )
    return SILibrary(catalogue, [subbytes, mixcol, keyexp])


def build_aes_program() -> Program:
    """AES-128 encryption as an IR program that really encrypts.

    The environment must provide ``plaintext`` and ``key`` (16-byte
    ``bytes`` each); after execution it holds ``ciphertext``.
    """
    p = Program("setup")

    def do_setup(env):
        env["round_keys"] = [list(env["key"])]
        env["kx_round"] = 0
        env["round"] = 1

    def do_keyexp(env):
        # Expand one round key per block execution (10 iterations).
        env["kx_round"] += 1
        env["round_keys"] = [
            rk for rk in expand_key(bytes(env["key"]))[: env["kx_round"] + 1]
        ]

    def do_initial_ark(env):
        env["state"] = add_round_key(list(env["plaintext"]), env["round_keys"][0])

    def do_round(env):
        state = sub_bytes(env["state"])
        state = shift_rows(state)
        state = mix_columns(state)
        env["state"] = add_round_key(state, env["round_keys"][env["round"]])
        env["round"] += 1

    def do_final(env):
        state = sub_bytes(env["state"])
        state = shift_rows(state)
        env["state"] = add_round_key(state, env["round_keys"][ROUNDS])

    def do_output(env):
        env["ciphertext"] = bytes(env["state"])

    p.block("setup", cycles=40, action=do_setup, terminator=Jump("keyexp"))
    p.block(
        "keyexp",
        cycles=25,
        si_calls={"KEYEXP": 1},
        action=do_keyexp,
        terminator=Branch(lambda env: env["kx_round"] < ROUNDS, "keyexp", "init_ark"),
    )
    p.block("init_ark", cycles=30, action=do_initial_ark, terminator=Jump("round"))
    p.block(
        "round",
        cycles=60,
        si_calls={"SUBBYTES": 1, "MIXCOL": 1},
        action=do_round,
        terminator=Branch(lambda env: env["round"] < ROUNDS, "round", "final"),
    )
    p.block("final", cycles=45, si_calls={"SUBBYTES": 1}, action=do_final,
            terminator=Jump("output"))
    p.block("output", cycles=15, action=do_output)
    return p


def profile_aes(*, runs: int = 8, seed: int = 0) -> ControlFlowGraph:
    """Profile the AES program over random plaintexts (Fig. 3's colouring)."""
    rng = random.Random(seed)

    def env_factory(_i: int):
        return {
            "plaintext": bytes(rng.randrange(256) for _ in range(16)),
            "key": bytes(rng.randrange(256) for _ in range(16)),
        }

    cfg, results = profile_program(build_aes_program(), env_factory=env_factory, runs=runs)
    # Functional sanity: the IR must really encrypt.
    from .aes import encrypt_block

    for result in results:
        expected = encrypt_block(result.env["plaintext"], result.env["key"])
        if result.env["ciphertext"] != expected:
            raise AssertionError("AES IR program produced a wrong ciphertext")
    return cfg


def default_aes_fdfs(*, alpha: float = 1.0) -> dict[str, ForecastDecisionFunction]:
    """FDFs for the three AES SIs, scaled to the program's block costs.

    The AES BB graph is small (hundreds of cycles end to end) compared to
    millisecond rotations; a real deployment encrypts thousands of blocks
    per forecast.  ``t_rot`` is therefore scaled to the intra-program
    distances so Fig. 3's candidate structure is visible at program scope
    (documented substitution; the algorithms are unchanged).
    """
    fdfs = {}
    for name, sw in AES_SOFTWARE_CYCLES.items():
        hw = {"SUBBYTES": 16, "MIXCOL": 20, "KEYEXP": 22}[name]
        fdfs[name] = ForecastDecisionFunction(
            t_rot=60.0,
            t_sw=float(sw),
            t_hw=float(hw),
            rotation_energy=2.0 * (sw - hw),
            alpha=alpha,
            k_near=40.0,
            k_far=10.0,
        )
    return fdfs


@dataclass
class AESForecastReport:
    """Everything Fig. 3 shows, as data."""

    cfg: ControlFlowGraph
    candidates: list[FCCandidate]
    annotation: ForecastAnnotation
    dot: str


def aes_forecast_report(
    *, runs: int = 8, containers: int = 4, alpha: float = 1.0, seed: int = 0
) -> AESForecastReport:
    """Run the complete compile-time pipeline on profiled AES (Fig. 3)."""
    cfg = profile_aes(runs=runs, seed=seed)
    library = build_aes_library()
    fdfs = default_aes_fdfs(alpha=alpha)
    candidates: list[FCCandidate] = []
    for name, fdf in fdfs.items():
        candidates.extend(determine_candidates(cfg, name, fdf))
    annotation = run_forecast_pipeline(cfg, library, fdfs, containers)
    dot = cfg.to_dot(highlight=[c.block_id for c in candidates])
    return AESForecastReport(
        cfg=cfg, candidates=candidates, annotation=annotation, dot=dot
    )
