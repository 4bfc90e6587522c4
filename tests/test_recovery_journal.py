"""The write-ahead journal: durability semantics of ``repro.recovery``.

The contract under test is the WAL invariant: a record is either absent
(the command never happened) or present and replayable.  A torn tail —
a partial last line, or a corrupt *final* complete line — is discarded
silently because it was never acknowledged; damage anywhere earlier is
an integrity failure and must raise the typed :class:`RecoveryError`,
never a bare ``KeyError``/``ValueError`` a driver might swallow.  A
record whose ``args`` do not fit its ``op`` decodes to no command, so it
counts as damage too.

Every runtime command kind of :mod:`repro.commands` has a journal form:
its line round-trips byte for byte, a crash after it replays it, and a
:class:`RecoverableRuntime` journals it instead of passing it through.
"""

import json

import pytest

from repro.bench.harness import trace_signature
from repro.bench.suites import build_synthetic_library
from repro.commands import (
    COMMANDS,
    Advance,
    Execute,
    FailContainer,
    Forecast,
    ForecastEnd,
    apply,
)
from repro.recovery import (
    JOURNAL_NAME,
    JOURNAL_OPS,
    JournalRecord,
    JournalWriter,
    RecoverableRuntime,
    RecoveryError,
    read_journal,
)
from repro.recovery.journal import _crc, decode_line, encode_record
from repro.runtime import RisppRuntime

#: One command of every kind, against the synthetic library.  A kind
#: added to ``COMMANDS`` without an entry here fails every test below.
SAMPLES = {
    "advance": Advance(),
    "execute_si": Execute("SI1"),
    "fail_container": FailContainer(2),
    "forecast": Forecast("SI1", expected=3.0, priority=2.0),
    "forecast_end": ForecastEnd("SI0"),
}


def write_records(path, count):
    writer = JournalWriter(path)
    records = [writer.append(100 * i, Advance()) for i in range(1, count + 1)]
    writer.close()
    return records


def signed_line(seq, cycle, op, args):
    """A journal line with a valid CRC, whatever its op and args."""
    body = {"seq": seq, "cycle": cycle, "op": op, "args": args}
    body["crc"] = _crc(dict(body))
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


#: Records whose args do not fit their op: missing, unknown, mistyped.
MISFITS = [
    ("execute_si", {"task": "main"}),
    ("execute_si", {"si": "SI0", "task": "main", "times": 2}),
    ("execute_si", {"si": 7, "task": "main"}),
    ("fail_container", {"container": True}),
    ("forecast", {"si": "SI0", "task": "main", "expected": "4", "priority": 1.0}),
    ("query", {"name": "free_lunch"}),
]


class TestRecordCodec:
    def test_round_trip(self):
        record = JournalRecord(seq=3, cycle=70, command=Execute("SI0"))
        assert decode_line(encode_record(record)) == record

    def test_crc_detects_tampering(self):
        line = encode_record(JournalRecord(seq=1, cycle=5, command=Advance()))
        tampered = line.replace('"cycle":5', '"cycle":6')
        with pytest.raises(ValueError, match="CRC"):
            decode_line(tampered)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown journal op"):
            decode_line(signed_line(1, 0, "reboot", {}))

    @pytest.mark.parametrize(("op", "args"), MISFITS)
    def test_args_that_do_not_fit_the_op_rejected(self, op, args):
        with pytest.raises(ValueError):
            decode_line(signed_line(1, 0, op, args))

    def test_op_surface_is_the_documented_six(self):
        assert JOURNAL_OPS == (
            "advance",
            "execute_si",
            "fail_container",
            "forecast",
            "forecast_end",
            "query",
        )


class TestReadJournal:
    def test_clean_journal_round_trips(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        written = write_records(path, 5)
        read = read_journal(path)
        assert read.records == written
        assert not read.discarded_tail
        assert read.valid_bytes == path.stat().st_size

    def test_missing_journal_is_a_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError, match="not found"):
            read_journal(tmp_path / "journal.jsonl")

    def test_partial_last_line_discarded(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, 3)
        whole = path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq":4,"cycle":400,"op":"adv')  # no newline: torn
        read = read_journal(path)
        assert [r.seq for r in read.records] == [1, 2, 3]
        assert read.discarded_tail
        assert read.valid_bytes == whole

    def test_corrupt_final_complete_line_discarded(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, 3)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2] + "garbage"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        read = read_journal(path)
        assert [r.seq for r in read.records] == [1, 2]
        assert read.discarded_tail

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, 4)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "not json at all"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(RecoveryError, match="corrupted at line 2"):
            read_journal(path)

    def test_sequence_gap_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, 2)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(
                encode_record(JournalRecord(seq=9, cycle=900, command=Advance()))
                + "\n"
            )
        with pytest.raises(RecoveryError, match="sequence gap"):
            read_journal(path)

    @pytest.mark.parametrize(("op", "args"), MISFITS)
    def test_misfit_interior_record_raises(self, tmp_path, op, args):
        path = tmp_path / "journal.jsonl"
        write_records(path, 4)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = signed_line(2, 200, op, args)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(RecoveryError, match="corrupted at line 2"):
            read_journal(path)

    @pytest.mark.parametrize(("op", "args"), MISFITS)
    def test_misfit_final_record_is_a_torn_tail(self, tmp_path, op, args):
        path = tmp_path / "journal.jsonl"
        write_records(path, 3)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(signed_line(4, 400, op, args) + "\n")
        read = read_journal(path)
        assert [r.seq for r in read.records] == [1, 2, 3]
        assert read.discarded_tail

    def test_recovery_error_is_not_a_value_error(self):
        # Drivers guard artifact parsing with ``except ValueError``; a
        # broken recovery store must never be swallowed by that.
        assert not issubclass(RecoveryError, ValueError)
        assert not issubclass(RecoveryError, KeyError)


class TestJournalWriter:
    def test_truncate_cuts_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, 2)
        read_before = read_journal(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq":3,"cyc')
        writer = JournalWriter(
            path, start_seq=2, truncate_to=read_before.valid_bytes
        )
        writer.append(300, Advance())
        writer.close()
        read = read_journal(path)
        assert [r.seq for r in read.records] == [1, 2, 3]
        assert not read.discarded_tail

    def test_next_seq_continues_from_start_seq(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, 3)
        writer = JournalWriter(path, start_seq=3)
        assert writer.next_seq == 4
        assert writer.append(400, ForecastEnd("SI0")).seq == 4
        writer.close()
        assert [r.seq for r in read_journal(path).records] == [1, 2, 3, 4]


def _drive(rt, command):
    """Five SI0 runs around ``command``; returns ``command``'s result."""
    now = 1_000
    apply(rt, Forecast("SI0", expected=8.0), now)
    for _ in range(4):
        now += apply(rt, Execute("SI0"), now)
    result = apply(rt, command, now)
    for _ in range(4):
        now += 100 + apply(rt, Execute("SI0"), now + 100)
    apply(rt, Advance(), now + 200_000)
    return result


def _fresh():
    return RisppRuntime(build_synthetic_library(), 5, core_mhz=100.0)


@pytest.mark.parametrize("op", sorted(COMMANDS))
class TestEveryCommandKind:
    def test_line_round_trips_byte_identically(self, op):
        command = SAMPLES[op]
        assert type(command) is COMMANDS[op]
        line = encode_record(JournalRecord(seq=4, cycle=900, command=command))
        record = decode_line(line)
        assert record.command == command
        assert encode_record(record) == line

    def test_resume_after_a_crash_replays_it(self, op, tmp_path):
        live = _fresh()
        live_result = _drive(live, SAMPLES[op])
        full = tmp_path / "full"
        rec = RecoverableRuntime(_fresh(), full)
        assert _drive(rec, SAMPLES[op]) == live_result
        rec.close()
        # Kill the run right after the command reached the journal: its
        # record is the last one, so resume must replay it.
        crashed = tmp_path / "crashed"
        crashed.mkdir()
        lines = (full / JOURNAL_NAME).read_text().splitlines(keepends=True)
        assert decode_line(lines[5]).command == SAMPLES[op]
        (crashed / JOURNAL_NAME).write_text("".join(lines[:6]))
        resumed = RecoverableRuntime(_fresh(), crashed, resume=True)
        assert resumed.replayed_records == 6
        assert _drive(resumed, SAMPLES[op]) == live_result
        assert trace_signature(resumed.trace) == trace_signature(live.trace)
        resumed.close()

    def test_no_input_bypasses_the_journal(self, op, tmp_path):
        rec = RecoverableRuntime(_fresh(), tmp_path / "store")
        apply(rec, Forecast("SI0", expected=8.0), 1_000)
        apply(rec, SAMPLES[op], 2_000)
        rec.close()
        records = read_journal(tmp_path / "store" / JOURNAL_NAME).records
        assert [r.command for r in records] == [
            Forecast("SI0", expected=8.0),
            SAMPLES[op],
        ]
