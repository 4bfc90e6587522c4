"""End-to-end integration: profile -> forecast insertion -> rotated execution.

The complete RISPP flow on real programs: the hotspot toy program and the
AES application, compiled (FC insertion) and executed on the run-time
manager with actual rotations.
"""

import pytest

from repro.apps.aes import (
    build_aes_library,
    build_aes_program,
    default_aes_fdfs,
    encrypt_block,
)
from repro.forecast import ForecastAnnotation, ForecastDecisionFunction
from repro.forecast.placement import ForecastPoint
from repro.runtime import RisppRuntime
from repro.sim import Jump, Program
from repro.sim.integration import compile_and_run, run_annotated_program
from repro.sim.ir import Branch


def hotspot_program(iterations: int = 200) -> Program:
    """warmup -> hot loop of SATD calls -> done (rotation-friendly shape)."""
    p = Program("init")
    p.block("init", cycles=100,
            action=lambda env: env.setdefault("i", 0),
            terminator=Jump("warmup"))
    # Warm-up long enough for the minimal-molecule rotations to land.
    p.block("warmup", cycles=600_000, terminator=Jump("loop"))

    def bump(env):
        env["i"] += 1

    p.block(
        "loop",
        cycles=40,
        si_calls={"HT": 1},
        action=bump,
        terminator=Branch(lambda env: env["i"] < iterations, "loop", "done"),
    )
    p.block("done", cycles=10)
    return p


def ht_fdf() -> ForecastDecisionFunction:
    return ForecastDecisionFunction(
        t_rot=200_000.0, t_sw=298.0, t_hw=8.0, rotation_energy=290.0
    )


class TestRunAnnotatedProgram:
    def test_manual_annotation_executes_in_hardware(self, mini_library):
        program = hotspot_program()
        annotation = ForecastAnnotation.from_points(
            [ForecastPoint("init", "HT", 1.0, 600_000.0, 200.0)]
        )
        runtime = RisppRuntime(mini_library, 6, core_mhz=100.0)
        result = run_annotated_program(program, annotation, runtime)
        assert result.forecasts_fired == 1
        assert result.si_executions == {"HT": 200}
        # The warm-up covers the rotations: the loop runs in hardware.
        assert runtime.stats.hw_executions == 200
        assert result.si_cycles < 200 * 298

    def test_unannotated_program_stays_in_software(self, mini_library):
        program = hotspot_program()
        runtime = RisppRuntime(mini_library, 6, core_mhz=100.0)
        result = run_annotated_program(
            program, ForecastAnnotation(), runtime
        )
        assert result.forecasts_fired == 0
        assert runtime.stats.sw_executions == 200
        assert result.si_cycles == 200 * 298

    def test_annotation_must_match_program(self, mini_library):
        program = hotspot_program()
        bad = ForecastAnnotation.from_points(
            [ForecastPoint("ghost", "HT", 1.0, 10.0, 5.0)]
        )
        runtime = RisppRuntime(mini_library, 6)
        with pytest.raises(ValueError):
            run_annotated_program(program, bad, runtime)

    def test_accounting_consistent(self, mini_library):
        program = hotspot_program()
        runtime = RisppRuntime(mini_library, 6)
        result = run_annotated_program(program, ForecastAnnotation(), runtime)
        assert result.total_cycles == result.core_cycles + result.si_cycles


class TestCompileAndRun:
    def test_hotspot_flow_beats_software(self, mini_library):
        program = hotspot_program()
        flow = compile_and_run(
            program,
            mini_library,
            {"HT": ht_fdf()},
            containers=6,
            profile_runs=2,
        )
        # The pipeline placed at least one forecast upstream of the loop.
        assert flow.annotation.all_points()
        assert flow.result.forecasts_fired >= 1
        # And the run benefited: mostly hardware executions.
        assert flow.runtime.stats.hw_fraction() > 0.9
        assert flow.result.si_cycles < 200 * 298 / 10

    def test_aes_flow_functional_and_accelerated(self):
        program = build_aes_program()
        library = build_aes_library()
        env = {"plaintext": b"\x21" * 16, "key": b"\x42" * 16}

        def env_factory(i):
            return {
                "plaintext": bytes([i] * 16),
                "key": bytes([255 - i] * 16),
            }

        flow = compile_and_run(
            program,
            library,
            default_aes_fdfs(),
            containers=6,
            profile_env_factory=env_factory,
            run_env=env,
        )
        # Functional: the annotated run still encrypts correctly.
        assert flow.result.env["ciphertext"] == encrypt_block(
            env["plaintext"], env["key"]
        )
        # The SI calls all happened.
        assert flow.result.si_executions == {
            "KEYEXP": 10,
            "SUBBYTES": 10,
            "MIXCOL": 9,
        }
        # Forecasts fired (the AES FDFs are scaled to program scope).
        assert flow.result.forecasts_fired >= 1

    def test_more_containers_never_slower(self, mini_library):
        program = hotspot_program()
        cycles = []
        for containers in (0, 2, 6):
            flow = compile_and_run(
                program,
                mini_library,
                {"HT": ht_fdf()},
                containers=containers,
                profile_runs=2,
            )
            cycles.append(flow.result.si_cycles)
        assert cycles == sorted(cycles, reverse=True)
