"""Crash-consistent checkpoint/restore for RISPP runs.

The package makes every deterministic driver resumable: a write-ahead
journal (:mod:`.journal`) records each runtime command before it is
applied, periodic whole-world snapshots (:mod:`.snapshot`) bound the
replay work, and :class:`.runtime.RecoverableRuntime` ties both to a
live :class:`~repro.runtime.manager.RisppRuntime` so a run killed at
*any* command boundary resumes to a byte-identical outcome.  Rule
TRC016 (:mod:`.verify`) audits the stitching across resume boundaries.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "journal": (
        "JOURNAL_NAME JOURNAL_OPS JournalReadResult JournalRecord JournalWriter read_journal "
        "RecoveryError"
    ),
    "runtime": "RecoverableRuntime RecoveryPlan SimulatedCrash",
    "snapshot": (
        "latest_snapshot list_snapshots load_snapshot RECOVERY_KIND RECOVERY_SCHEMA_VERSION "
        "restore_runtime snapshot_runtime write_snapshot"
    ),
    "verify": "verify_resume",
})

# Bound at import, not on first use: chaos looks ``verify_resume`` up on
# the package at each call, so a wrapper installed on the package (perf's
# layer tracer) must find it there.  It loads only the journal and
# snapshot code every recovering run loads anyway.
__getattr__("verify_resume")
