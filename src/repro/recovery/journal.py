"""Write-ahead event journal: the durable half of crash consistency.

Every command a driver issues against a :class:`RecoverableRuntime`
(forecasts, SI executions, clock advances, container failures, journaled
state queries) is appended to ``journal.jsonl`` — one JSON record per
line, CRC-protected — and *flushed before it is applied*.  Killing the
process at any point therefore leaves one of two states on disk:

* the record is absent — the command never happened; the resumed run
  re-issues and re-journals it;
* the record is present (possibly unapplied) — replaying it onto the
  restored snapshot reproduces exactly the state the command would have
  produced, because every durable effect of a command lives in the
  snapshot state and commands are deterministic.

A torn write can only damage the *last* line (appends are sequential),
so the reader discards a corrupt or partial final record — it was never
acknowledged — while corruption anywhere earlier, a CRC mismatch on an
interior line, an interior record whose ``args`` do not fit its ``op``
(it decodes to no command), or a sequence-number gap is a real integrity
failure and raises :class:`RecoveryError`.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, Any, ClassVar, get_args, get_type_hints

from ..commands import COMMANDS, QUERIES, Command

#: File name of the journal inside a recovery store directory.
JOURNAL_NAME = "journal.jsonl"

@dataclass(frozen=True)
class Query:
    """A journaled state read (:func:`repro.commands.query`): the
    recovery-local sixth journal op."""

    op: ClassVar[str] = "query"
    name: str

    def __post_init__(self) -> None:
        if self.name not in QUERIES:
            raise ValueError(f"unknown runtime query {self.name!r}")


#: What a journal line's ``op`` decodes to: the runtime commands + queries.
_RECORD_TYPES: dict[str, type[Command | Query]] = {**COMMANDS, Query.op: Query}

#: The replayable command surface (see ``docs/recovery.md``).
JOURNAL_OPS = tuple(sorted(_RECORD_TYPES))

#: Each op's ``args`` types: its command's field annotations.
_ARG_HINTS = {op: get_type_hints(kind) for op, kind in _RECORD_TYPES.items()}


class RecoveryError(Exception):
    """A snapshot or journal cannot be used to resume a run.

    Raised for unknown schema versions, interior journal corruption,
    sequence gaps, snapshot/runtime configuration mismatches and resumed
    runs that diverge from the journaled command stream.  Deliberately
    *not* a ``ValueError`` subclass: drivers that guard artifact
    validation with ``except ValueError`` must not silently swallow a
    broken recovery store.
    """


@dataclass(frozen=True)
class JournalRecord:
    """One journaled command, issued at ``cycle``; stored as its ``op`` and ``args``."""

    seq: int
    cycle: int
    command: Command | Query

    def payload(self) -> dict[str, Any]:
        """The CRC-covered portion of the serialized record."""
        return {
            "seq": self.seq,
            "cycle": self.cycle,
            "op": self.command.op,
            "args": dict(vars(self.command)),
        }


@dataclass(frozen=True)
class JournalReadResult:
    """Outcome of reading a journal file."""

    records: list[JournalRecord]
    #: A corrupt or partial final line was discarded (torn tail write).
    discarded_tail: bool
    #: Byte length of the valid prefix; appenders truncate to this first.
    valid_bytes: int


def _crc(payload: dict[str, Any]) -> int:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def encode_record(record: JournalRecord) -> str:
    """One journal line (no trailing newline)."""
    body = record.payload()
    body["crc"] = _crc(record.payload())
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _decode_command(op: str, args: dict[str, Any]) -> Command | Query:
    """The command ``op`` and ``args`` spell; ``ValueError`` when they do
    not fit: an unknown op, a missing or unknown arg, or a mistyped one."""
    kind = _RECORD_TYPES.get(op)
    if kind is None:
        raise ValueError(f"unknown journal op {op!r}")
    names = sorted(f.name for f in fields(kind))
    if sorted(args) != names:
        raise ValueError(f"{op} args {sorted(args)} do not fit {names}")
    for name, value in args.items():
        types = get_args(_ARG_HINTS[op][name]) or (_ARG_HINTS[op][name],)
        if float in types:  # a driver may pass a float field an int
            types += (int,)
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{op} arg {name!r} has the wrong type: {value!r}")
    return kind(**args)


def decode_line(line: str) -> JournalRecord:
    """Parse and CRC-check one journal line; ``ValueError`` when invalid."""
    data = json.loads(line)
    if not isinstance(data, dict):
        raise ValueError("journal record is not an object")
    try:
        crc = data["crc"]
        record = JournalRecord(
            seq=int(data["seq"]),
            cycle=int(data["cycle"]),
            command=_decode_command(str(data["op"]), dict(data["args"])),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed journal record: {exc}") from exc
    if crc != _crc(record.payload()):
        raise ValueError(f"journal CRC mismatch on seq {record.seq}")
    return record


def read_journal(path: Path) -> JournalReadResult:
    """Load the journal; tolerate a torn tail, reject interior damage."""
    if not path.is_file():
        raise RecoveryError(f"journal not found: {path}")
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    # A well-formed journal ends with a newline, leaving one empty tail
    # element; anything else after the last newline is a partial write.
    partial = lines.pop() if lines and lines[-1] != b"" else b""
    if lines and lines[-1] == b"":
        lines.pop()
    records: list[JournalRecord] = []
    discarded_tail = bool(partial)
    valid_bytes = 0
    for index, line in enumerate(lines):
        try:
            record = decode_line(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            if index == len(lines) - 1 and not partial:
                # The final complete line is torn — written but never
                # acknowledged.  Discard it; the resumed run re-issues.
                discarded_tail = True
                break
            raise RecoveryError(
                f"journal corrupted at line {index + 1}: {exc}"
            ) from exc
        expected = len(records) + 1
        if record.seq != expected:
            raise RecoveryError(
                f"journal sequence gap: expected seq {expected}, "
                f"found {record.seq} at line {index + 1}"
            )
        records.append(record)
        valid_bytes += len(line) + 1
    return JournalReadResult(
        records=records, discarded_tail=discarded_tail, valid_bytes=valid_bytes
    )


class JournalWriter:
    """Appends CRC'd records, flushing each before the caller applies it."""

    def __init__(self, path: Path, *, start_seq: int = 0, truncate_to: int | None = None):
        self.path = path
        self._seq = start_seq
        if truncate_to is not None:
            # Cut a torn tail off before appending: a partial final line
            # would otherwise fuse with the next record.
            with open(path, "r+b") as raw:
                raw.truncate(truncate_to)
        self._fh: IO[str] = open(path, "a", encoding="utf-8")

    @property
    def next_seq(self) -> int:
        return self._seq + 1

    def append(self, cycle: int, command: Command | Query) -> JournalRecord:
        """Durably record one command *before* it is applied."""
        record = JournalRecord(seq=self._seq + 1, cycle=cycle, command=command)
        self._fh.write(encode_record(record) + "\n")
        self._fh.flush()
        self._seq = record.seq
        return record

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass
