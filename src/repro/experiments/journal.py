"""Crash-safe sweep journal: per-trial records, CRC-verified, resumable.

PR 3's ``checkpointed_sweep`` lived in ``benchmarks/_support.py`` as a
benchmarks-only helper whose journal could be corrupted by anything
sharper than a polite Ctrl-C.  This module promotes it into the library
with real durability semantics, because the ROADMAP's always-on sweep
service needs the journal to be the system of record across restarts:

* **per-record CRC-32** — every JSONL line carries a checksum over its
  canonical record payload, so a torn write, a flipped bit, or a
  half-synced page is *detected* on resume instead of silently parsed
  into wrong statistics;
* **append + flush + fsync** per record, written from the sweep's outcome
  stream before anyone is told the trial finished — a completed trial
  survives the very next SIGKILL;
* **atomic checkpoints** — :meth:`SweepJournal.checkpoint` rewrites the
  journal through a temp file + ``os.replace`` rename, compacting
  duplicate ``(x, seed)`` records (last write wins) and dropping corrupt
  ones, so the on-disk file is always either the old complete journal or
  the new complete journal, never a halfway state;
* **recovery on load** — a truncated final line (the crash arrived
  mid-write) and CRC-mismatched records are skipped and *counted*
  (:class:`JournalRecovery`), never fatal;
* **single-writer locking** — the first write acquires an exclusive
  ``flock`` on a sidecar ``<path>.lock`` file; a second writer opening
  the same journal path fails fast with :class:`~repro.errors.
  JournalError` instead of interleaving frames (readers never lock, and
  a forked child — a sweep worker — drops the lock it inherited, so an
  orphaned worker cannot keep a dead writer's journal locked);
* **signal-safe finalization** — :meth:`SweepJournal.guarded` installs
  SIGTERM/SIGINT handlers that write a final checkpoint before the
  default behavior proceeds, so a politely-terminated sweep leaves a
  compacted journal behind.

Records are *per trial* (``(x, seed)``-keyed), not per point: a resumed
sweep re-runs only the individual trials that never finished, even when
a point's seeds were half done.

The CRC line framing is generic (:func:`frame_line` / :func:`unframe_line`)
and shared with :mod:`repro.service.queue`, whose durable job queue rides
the same format — one framing, one recovery taxonomy, for every durable
JSONL file the system writes.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import weakref
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

try:  # pragma: no cover - always present on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback: no locking
    fcntl = None  # type: ignore[assignment]

from ..errors import AnalysisError, JournalError
from ..util.stats import mean

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .resilience import ResiliencePolicy
    from .sweep import SweepPoint

#: Journal line schema version, embedded in every record.
SCHEMA_VERSION = 1

Key = Tuple[float, int]


@dataclass(frozen=True)
class TrialRecord:
    """One finished trial reduced to journal-able plain data.

    ``status`` is ``"ok"``, ``"failed"``, or ``"timeout"``; ``metrics``
    is the successful trial's ``summary_row()`` (empty otherwise);
    ``error``/``kind`` preserve the failure message and exception class
    name for post-mortems; ``attempt`` is the retry provenance;
    ``digest`` is the trial's SHA-256 run fingerprint when the sweep ran
    with ``digests=True`` (empty otherwise) — the equivalence oracle a
    resumed service job is checked against.
    """

    x: float
    seed: int
    status: str
    attempt: int = 1
    metrics: Dict[str, float] = field(default_factory=dict)
    error: str = ""
    kind: str = ""
    digest: str = ""

    @property
    def key(self) -> Key:
        return (self.x, self.seed)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def payload(self) -> Dict:
        return {
            "schema": SCHEMA_VERSION,
            "x": self.x,
            "seed": self.seed,
            "status": self.status,
            "attempt": self.attempt,
            "metrics": dict(self.metrics),
            "error": self.error,
            "kind": self.kind,
            "digest": self.digest,
        }

    @classmethod
    def from_payload(cls, data: Dict) -> "TrialRecord":
        return cls(
            x=data["x"],
            seed=data["seed"],
            status=data["status"],
            attempt=data.get("attempt", 1),
            metrics=dict(data.get("metrics", {})),
            error=data.get("error", ""),
            kind=data.get("kind", ""),
            digest=data.get("digest", ""),
        )


def _canonical(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def frame_line(payload: Dict) -> str:
    """Wrap one JSON-able payload as a CRC-32-framed journal line.

    Generic over the payload schema: the trial journal and the service's
    durable job queue both write this frame, so both inherit the same
    torn-tail/corrupt-record recovery semantics.
    """
    body = _canonical(payload)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f'{{"crc":{crc},"record":{body}}}'


def unframe_line(line: str) -> Dict:
    """Verify and unwrap one CRC-framed line, raising
    :class:`~repro.errors.JournalError` on malformed JSON or a CRC
    mismatch."""
    try:
        wrapper = json.loads(line)
        crc = wrapper["crc"]
        body = wrapper["record"]
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise JournalError(f"malformed journal line: {exc}") from exc
    actual = zlib.crc32(_canonical(body).encode("utf-8")) & 0xFFFFFFFF
    if actual != crc:
        raise JournalError(
            f"journal record CRC mismatch (stored {crc}, computed {actual})"
        )
    if not isinstance(body, dict):
        raise JournalError(
            f"journal record payload must be an object, got {type(body).__name__}"
        )
    return body


def encode_record(record: TrialRecord) -> str:
    """One journal line: the record payload wrapped with its CRC-32."""
    return frame_line(record.payload())


def decode_record(line: str) -> TrialRecord:
    """Parse one journal line, raising :class:`JournalError` on any damage
    (malformed JSON, missing fields, CRC mismatch)."""
    body = unframe_line(line)
    try:
        return TrialRecord.from_payload(body)
    except (KeyError, TypeError) as exc:
        raise JournalError(f"journal record missing fields: {exc}") from exc


class WriterLock:
    """An exclusive, non-blocking ``flock`` on a sidecar ``.lock`` file.

    One durable file, one writer: the lock is acquired the moment a
    journal (or the service's job queue) first writes, and a second
    writer — another process *or* another handle in the same process —
    fails fast with :class:`~repro.errors.JournalError` instead of
    interleaving frames.  The sidecar (never the data file itself) is
    locked because checkpointing atomically replaces the data file's
    inode, which would silently drop a lock held on it.

    ``flock`` belongs to the open file description, which a forked child
    (a sweep worker) shares and would keep locked for as long as it
    lives, even after the writer was SIGKILLed.  A child is never the
    writer, so every held lock closes its inherited descriptor there
    (closing, unlike ``LOCK_UN``, leaves the parent's lock in place).

    On platforms without ``fcntl`` the lock degrades to a no-op (the
    durability format stays valid; only the two-writer guard is lost).
    """

    #: Every lock currently held in this process, for the at-fork hook.
    _held: "weakref.WeakSet[WriterLock]" = weakref.WeakSet()

    def __init__(self, path) -> None:
        #: The data file this lock guards; the sidecar is ``<path>.lock``.
        self.path = Path(path)
        self.lock_path = self.path.with_suffix(self.path.suffix + ".lock")
        self._handle = None

    @classmethod
    def _drop_inherited(cls) -> None:
        for lock in list(cls._held):
            lock._handle.close()
            lock._handle = None
        cls._held.clear()

    @property
    def held(self) -> bool:
        return self._handle is not None

    def acquire(self) -> None:
        """Take the exclusive lock, or raise :class:`JournalError` if any
        other writer (process or handle) already holds it."""
        if self._handle is not None or fcntl is None:
            return
        self.lock_path.parent.mkdir(parents=True, exist_ok=True)
        handle = self.lock_path.open("a")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            handle.close()
            raise JournalError(
                f"{self.path} already has a writer (flock on "
                f"{self.lock_path} is held); refusing to interleave frames"
            ) from exc
        self._handle = handle
        self._held.add(self)

    def release(self) -> None:
        if self._handle is not None:
            self._held.discard(self)
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - defensive
                pass
            self._handle.close()
            self._handle = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=WriterLock._drop_inherited)


@dataclass(frozen=True)
class JournalRecovery:
    """What loading a journal found besides the good records."""

    loaded: int = 0
    corrupt: int = 0
    duplicates: int = 0
    truncated_tail: bool = False

    @property
    def clean(self) -> bool:
        return not (self.corrupt or self.duplicates or self.truncated_tail)

    def render(self) -> str:
        notes = []
        if self.corrupt:
            notes.append(f"{self.corrupt} corrupt record(s) dropped")
        if self.duplicates:
            notes.append(f"{self.duplicates} duplicate key(s) superseded")
        if self.truncated_tail:
            notes.append("truncated final line skipped")
        suffix = f" ({'; '.join(notes)})" if notes else ""
        return f"journal: {self.loaded} trial record(s) loaded{suffix}"


class SweepJournal:
    """An append-only, CRC-checked, atomically-checkpointed trial journal.

    Typical lifecycle::

        journal = SweepJournal(path)
        completed, recovery = journal.load()       # resume point
        with journal.guarded():                    # SIGTERM/SIGINT safe
            for record in new_outcomes:
                journal.append(record)             # fsync'd per record
        journal.close()                            # final atomic checkpoint

    ``load`` + ``append`` may be freely interleaved; the in-memory
    last-write-wins view tracks everything appended or loaded.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._records: Dict[Key, TrialRecord] = {}
        self._recovery = JournalRecovery()
        self._handle = None
        self._lock = WriterLock(self.path)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def load(self) -> Tuple[Dict[Key, TrialRecord], JournalRecovery]:
        """Read the journal from disk, tolerating a damaged tail and
        corrupt or duplicate records.  Returns the last-write-wins view
        keyed by ``(x, seed)`` plus a :class:`JournalRecovery` tally."""
        records: Dict[Key, TrialRecord] = {}
        corrupt = 0
        duplicates = 0
        truncated = False
        if self.path.exists():
            raw = self.path.read_text(encoding="utf-8")
            lines = raw.split("\n")
            # A file not ending in a newline means the final write was
            # interrupted; anything on that last partial line is suspect.
            tail_is_torn = bool(lines and lines[-1].strip())
            for index, line in enumerate(lines):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = decode_record(line)
                except JournalError:
                    if tail_is_torn and index == len(lines) - 1:
                        truncated = True
                    else:
                        corrupt += 1
                    continue
                if record.key in records:
                    duplicates += 1
                records[record.key] = record
        self._records = records
        self._recovery = JournalRecovery(
            loaded=len(records),
            corrupt=corrupt,
            duplicates=duplicates,
            truncated_tail=truncated,
        )
        return dict(records), self._recovery

    @property
    def records(self) -> Dict[Key, TrialRecord]:
        """The current in-memory last-write-wins view."""
        return dict(self._records)

    @property
    def recovery(self) -> JournalRecovery:
        return self._recovery

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _open(self):
        if self._handle is None:
            self._lock.acquire()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        return self._handle

    def append(self, record: TrialRecord) -> None:
        """Durably append one record: write, flush, fsync.

        The record also enters the in-memory view (last write wins), so
        interleaved append/load callers always see the freshest state.
        """
        handle = self._open()
        handle.write(encode_record(record) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        self._records[record.key] = record

    def checkpoint(self) -> None:
        """Atomically rewrite the journal as its compacted view.

        Writes every in-memory record (duplicates collapsed, corrupt
        lines gone) to ``<path>.tmp``, fsyncs, then ``os.replace``\\ s it
        over the journal — the POSIX-atomic flush point.  Readers at any
        instant see either the old journal or the new one, never a
        partial file.
        """
        self._lock.acquire()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temp = self.path.with_suffix(self.path.suffix + ".tmp")
        with temp.open("w", encoding="utf-8") as handle:
            for key in sorted(self._records):
                handle.write(encode_record(self._records[key]) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)

    def discard(self) -> None:
        """Delete the journal (the ``fresh=True`` path) and forget state."""
        self._lock.acquire()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self.path.exists():
            self.path.unlink()
        self._records = {}
        self._recovery = JournalRecovery()

    def close(self, checkpoint: bool = True) -> None:
        """Flush, close, and release the writer lock; by default leaves a
        compacted checkpoint."""
        if checkpoint and self._records:
            self.checkpoint()
        elif self._handle is not None:
            self._handle.close()
            self._handle = None
        self._lock.release()

    # ------------------------------------------------------------------
    # Signal safety
    # ------------------------------------------------------------------

    def guarded(self) -> "_SignalGuard":
        """Context manager: SIGTERM/SIGINT write a final checkpoint first.

        Inside the block, a delivered SIGTERM or SIGINT triggers
        :meth:`checkpoint` before the previous handler (or the default
        behavior) proceeds, so even a service-manager shutdown leaves a
        compacted, CRC-clean journal.  A no-op off the main thread,
        where Python forbids signal handler installation.
        """
        return _SignalGuard(self)


class _SignalGuard:
    def __init__(self, journal: SweepJournal) -> None:
        self.journal = journal
        self._previous: Dict[int, object] = {}

    def __enter__(self) -> "_SignalGuard":
        if threading.current_thread() is not threading.main_thread():
            return self  # pragma: no cover - signal API limit
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._previous[signum] = signal.getsignal(signum)
            signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous = {}

    def _handle(self, signum, frame) -> None:
        try:
            self.journal.checkpoint()
        finally:
            previous = self._previous.get(signum)
            # Restore and re-deliver so the default semantics (KeyboardInterrupt
            # for SIGINT, termination for SIGTERM) still apply.
            signal.signal(signum, previous or signal.SIG_DFL)
            os.kill(os.getpid(), signum)


# ----------------------------------------------------------------------
# Checkpointed sweeps over the journal
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PointSummary:
    """One x value's trials reduced to resumable summary data."""

    x: float
    succeeded: int
    failed: int
    timeouts: int
    metrics: Dict[str, float]

    @property
    def trials(self) -> int:
        return self.succeeded + self.failed


def summarize_point(x: float, records: Sequence[TrialRecord]) -> PointSummary:
    """Aggregate one x value's trial records (mean over the ok trials)."""
    ok = [record for record in records if record.ok]
    failed = [record for record in records if not record.ok]
    timeouts = sum(1 for record in failed if record.status == "timeout")
    metrics: Dict[str, float] = {}
    if ok:
        keys = sorted(ok[0].metrics)
        metrics = {
            key: mean([record.metrics.get(key, 0.0) for record in ok])
            for key in keys
        }
    return PointSummary(
        x=x,
        succeeded=len(ok),
        failed=len(failed),
        timeouts=timeouts,
        metrics=metrics,
    )


def record_of_outcome(x: float, outcome) -> TrialRecord:
    """Reduce one finished trial at ``x`` — an :class:`~repro.experiments.
    runner.ExperimentRun` or a :class:`~repro.experiments.sweep.
    TrialFailure` (:class:`~repro.experiments.sweep.TrialTimeout`
    included) — to its journal record."""
    from .sweep import TrialFailure, TrialTimeout

    if isinstance(outcome, TrialFailure):
        return TrialRecord(
            x=x,
            seed=outcome.seed,
            status="timeout" if isinstance(outcome, TrialTimeout) else "failed",
            attempt=outcome.attempt,
            error=str(outcome.error),
            kind=type(outcome.error).__name__,
        )
    try:
        metrics = {
            key: float(value)
            for key, value in outcome.result.summary_row().items()
        }
    except AnalysisError:  # pragma: no cover - defensive
        metrics = {}
    fingerprint = outcome.fingerprint
    return TrialRecord(
        x=x,
        seed=outcome.seed,
        status="ok",
        attempt=outcome.attempt,
        metrics=metrics,
        digest=fingerprint.digest if fingerprint is not None else "",
    )


def checkpointed_sweep(
    xs: Sequence[float],
    make_scenario,
    make_config,
    *,
    journal,
    seeds: Sequence[int] = (0,),
    settings=None,
    jobs: int = 1,
    policy: Optional["ResiliencePolicy"] = None,
    fresh: bool = False,
    digests: bool = False,
    on_trial_error: Optional[Callable] = None,
    on_progress: Optional[Callable] = None,
    on_point: Optional[Callable[[float, "SweepPoint"], None]] = None,
    on_report: Optional[Callable] = None,
) -> List[PointSummary]:
    """A sweep that journals each finished trial and resumes on rerun.

    ``journal`` is a path or :class:`SweepJournal`.  Trials whose
    ``(x, seed)`` keys are already journaled are loaded, not re-run; the
    remaining trials go through :func:`~repro.experiments.sweep.sweep`
    one x at a time (with ``jobs``/``policy`` resilience).  Each trial is
    appended durably the moment it finishes — from the sweep's outcome
    stream, *before* ``on_progress`` hears of it — so whatever a caller
    was told is done survives a SIGKILL, a cancellation raised from
    ``on_progress``, or any other abort of the point it belongs to.
    ``fresh=True`` discards the journal first.  SIGTERM/SIGINT during
    the run leave a compacted checkpoint behind
    (:meth:`SweepJournal.guarded`), and the normal exit path writes one
    too.

    ``digests=True`` fingerprints every trial (``sweep(..., digests=
    True)``) and stores the SHA-256 digest in its journal record, so a
    resumed run — the sweep service after a daemon crash — can be
    checked bit-for-bit against an undisturbed foreground run.

    ``on_point`` observes each newly-executed x's
    :class:`~repro.experiments.sweep.SweepPoint` (skipped x values whose
    trials were all journaled are not re-reported); ``on_report``
    receives each per-x :class:`~repro.experiments.resilience.
    SupervisionReport` when a ``policy`` is active — merge them with
    :meth:`~repro.experiments.resilience.SupervisionReport.merged`.

    Returns a :class:`PointSummary` per requested x, in request order.
    A point whose trials all failed summarizes with ``metrics == {}``
    rather than raising, so one dead point cannot wedge the resume loop.
    """
    from .config import RunSettings
    from .sweep import sweep

    if settings is None:
        settings = RunSettings()
    owns_journal = not isinstance(journal, SweepJournal)
    journal = journal if isinstance(journal, SweepJournal) else SweepJournal(journal)
    if fresh:
        journal.discard()
    journal.load()

    def journal_then_report(progress) -> None:
        journal.append(record_of_outcome(progress.x, progress.outcome))
        if on_progress is not None:
            on_progress(progress)

    try:
        with journal.guarded():
            # One x at a time on purpose: it bounds the ExperimentRuns held
            # here to one point's and gives ``on_point`` its SweepPoint.
            for x in xs:
                journaled = journal.records
                missing = [
                    seed for seed in seeds if (x, seed) not in journaled
                ]
                if not missing:
                    continue
                [point] = sweep(
                    [x],
                    make_scenario,
                    make_config,
                    seeds=missing,
                    settings=settings,
                    jobs=jobs,
                    policy=policy,
                    digests=digests,
                    on_trial_error=on_trial_error,
                    on_progress=journal_then_report,
                    on_report=on_report,
                )
                if on_point is not None:
                    on_point(x, point)
    finally:
        if owns_journal:
            journal.close()

    records = journal.records
    summaries: List[PointSummary] = []
    for x in xs:
        point_records = [
            records[(x, seed)] for seed in seeds if (x, seed) in records
        ]
        summaries.append(summarize_point(x, point_records))
    return summaries
