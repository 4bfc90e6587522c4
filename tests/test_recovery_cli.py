"""CLI surface of the recovery subsystem: validation, crash, resume.

Satellite contract: every malformed argument exits 2 through argparse
(shared exit-2 contract), a seeded crash exits 3 with a resume hint on
stderr, and a resumed campaign's report is byte-identical to the
uninterrupted one.
"""

import json
import zlib

import pytest

from repro.cli import CHAOS_RUN_KIND, CHAOS_RUN_META, main
from repro.recovery import RecoveryError

CHAOS = ["chaos", "--suite", "synthetic", "--quick", "--fault-rate", "50"]


class TestArgumentValidation:
    """Bad arguments must exit 2, not crash or run (satellite contract)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--fault-rate", "nan"],
            ["chaos", "--fault-rate", "inf"],
            ["chaos", "--fault-rate", "-0.5"],
            ["chaos", "--seed", "0"],
            ["chaos", "--seed", "-3"],
            ["chaos", "--checkpoint-every", "5"],  # needs a store
            ["chaos", "--crash-at", "100"],  # needs a store
            ["chaos", "--checkpoint-dir", "x", "--checkpoint-every", "0"],
            ["chaos", "--checkpoint-dir", "x", "--checkpoint-every", "-2"],
            ["chaos", "--checkpoint-dir", "x", "--crash-at", "-1"],
            ["chaos", "--resume", "/nonexistent/recovery/store"],
            ["chaos", "--resume", "x", "--checkpoint-dir", "y"],
            ["chaos", "--resume", "x", "--suite", "synthetic"],
            ["chaos", "--resume", "x", "--seed", "3"],
            ["chaos", "--resume", "x", "--quick"],
        ],
    )
    def test_bad_arguments_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err

    def test_resume_store_without_journal_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "store"
        empty.mkdir()
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--resume", str(empty)])
        assert excinfo.value.code == 2
        assert "journal" in capsys.readouterr().err

    def test_resume_store_with_broken_metadata_exits_two(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        store.mkdir()
        (store / "journal.jsonl").write_text("")
        (store / CHAOS_RUN_META).write_text('{"kind": "something-else"}')
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--resume", str(store)])
        assert excinfo.value.code == 2
        assert "run-metadata" in capsys.readouterr().err


    def test_resume_store_of_another_schema_exits_two(self, tmp_path, capsys):
        # A store written by a build with the v1 snapshot layout.
        store = tmp_path / "store"
        crash = ["--checkpoint-dir", str(store), "--crash-at", "1000000"]
        assert main([*CHAOS, "--seed", "3", *crash]) == 3
        for snapshot in store.glob("snapshot-*.json"):
            data = json.loads(snapshot.read_text())
            data["schema_version"] = 1
            snapshot.write_text(json.dumps(data))
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--resume", str(store)])
        assert excinfo.value.code == 2
        assert "schema version 1" in capsys.readouterr().err

    def test_resume_store_with_interior_journal_damage_exits_two(
        self, tmp_path, capsys
    ):
        # A CRC-valid interior line whose args do not fit its op is only
        # found when the run reads the journal; still exit 2, no traceback.
        store = tmp_path / "store"
        crash = ["--checkpoint-dir", str(store), "--crash-at", "1000000"]
        assert main([*CHAOS, "--seed", "3", *crash]) == 3
        journal = store / "journal.jsonl"
        lines = journal.read_text().splitlines()
        record = json.loads(lines[4])
        assert record["op"] == "execute_si"
        payload = {
            "seq": record["seq"], "cycle": record["cycle"],
            "op": record["op"], "args": {"task": "main"},
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        lines[4] = json.dumps(
            {**payload, "crc": zlib.crc32(canonical.encode("utf-8"))},
            sort_keys=True, separators=(",", ":"),
        )
        journal.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["chaos", "--resume", str(store)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "chaos: --resume store is unusable: journal corrupted at line 5"
        )
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_recovery_error_during_the_run_is_not_a_usage_error(
        self, tmp_path, monkeypatch
    ):
        # A resume that diverges from its journal is a broken run or store,
        # not a bad flag: it must not exit 2.
        def diverged(*args, **kwargs):
            raise RecoveryError("resumed run diverged from the journal")

        monkeypatch.setattr("repro.faults.run_chaos_suite", diverged)
        with pytest.raises(RecoveryError, match="diverged"):
            main([*CHAOS, "--checkpoint-dir", str(tmp_path / "store")])


class TestCrashResumeRoundTrip:
    def test_crash_exits_three_then_resume_matches_reference(
        self, tmp_path, capsys
    ):
        ref_path = tmp_path / "ref.json"
        assert main([*CHAOS, "--seed", "3", "--json", str(ref_path)]) == 0
        capsys.readouterr()

        store = tmp_path / "store"
        code = main(
            [
                *CHAOS,
                "--seed",
                "3",
                "--checkpoint-dir",
                str(store),
                "--checkpoint-every",
                "32",
                "--crash-at",
                "1000000",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "simulated crash" in captured.err
        assert f"--resume {store}" in captured.err

        meta = json.loads((store / CHAOS_RUN_META).read_text())
        assert meta["kind"] == CHAOS_RUN_KIND
        assert meta["suite"] == "synthetic"
        assert meta["seed"] == 3
        assert meta["quick"] is True

        resumed_path = tmp_path / "resumed.json"
        assert (
            main(
                [
                    "chaos",
                    "--resume",
                    str(store),
                    "--json",
                    str(resumed_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert ref_path.read_bytes() == resumed_path.read_bytes()

    def test_checkpointed_uninterrupted_run_matches_reference(
        self, tmp_path, capsys
    ):
        ref_path = tmp_path / "ref.json"
        assert main([*CHAOS, "--seed", "7", "--json", str(ref_path)]) == 0
        store = tmp_path / "store"
        chk_path = tmp_path / "chk.json"
        assert (
            main(
                [
                    *CHAOS,
                    "--seed",
                    "7",
                    "--checkpoint-dir",
                    str(store),
                    "--json",
                    str(chk_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert ref_path.read_bytes() == chk_path.read_bytes()
        assert (store / "journal.jsonl").is_file()
