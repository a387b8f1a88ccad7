"""Crash-safe durable logs: one framing, one replay rule, one compaction.

Every durable JSONL file the system writes — a sweep's trial journal
(:class:`SweepJournal`), the service's job queue
(:class:`~repro.service.queue.DurableJobQueue`) and the perf trajectory
(:class:`~repro.service.bench.TrajectoryStore`) — is a :class:`DurableLog`
plus a record codec and a fold over what it replays.  The log is the only
code that opens, appends to, replays, truncates or rewrites such a file:

* **per-record CRC-32** — every line carries a checksum over its
  canonical payload (:func:`frame_line`), so a torn write, a flipped
  bit, or a half-synced page is *detected* on replay instead of silently
  parsed into wrong statistics;
* **append = write + fsync** — a record is on disk before
  :meth:`DurableLog.append` returns; a sweep appends each trial from its
  outcome stream before anyone is told the trial finished, so a completed
  trial survives the very next SIGKILL;
* **one replay rule, on bytes** — split on ``\\n``; a line that is not
  UTF-8, not a frame, fails its CRC or is refused by the codec is
  *corrupt*: counted, skipped, and replay goes on (a record glued onto
  it by a damaged newline is still read from its frame start).  Only
  bytes after the last newline are a *torn tail*.  Replay never raises
  on damage and never writes, and every caller gets its
  :class:`JournalRecovery` tally;
* **single writer** — the first write takes an exclusive ``flock`` on a
  sidecar ``<path>.lock`` (:class:`WriterLock`); a second writer fails
  fast with :class:`~repro.errors.JournalError` instead of interleaving
  frames.  Readers never lock, and a forked child (a sweep worker) drops
  the lock it inherited, so an orphaned worker cannot keep a dead
  writer's log locked;
* **the writer, never a reader, cuts a torn tail off** — before its
  first append, and again after an append that raised, so a new record
  never lands glued to the bytes of a partial one;
* **one compaction** — :meth:`DurableLog.rewrite` writes ``<path>.tmp``,
  fsyncs it, renames it over the log and fsyncs the directory
  (:func:`write_atomically`): the file is the old complete log or the new
  one, never a halfway state, and the rename survives a power loss.

:class:`SweepJournal` is the trial codec.  Its records are *per trial*
(``(x, seed)``-keyed, last write wins), not per point: a resumed sweep
re-runs only the individual trials that never finished, even when a
point's seeds were half done.  :meth:`SweepJournal.guarded` turns
SIGTERM/SIGINT into a final checkpoint before the default behavior
proceeds, so a politely-terminated sweep leaves a compacted journal.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import weakref
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional
from typing import Sequence, Tuple, TypeVar

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
T = TypeVar("T")


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
    """Wrap one JSON-able payload as a CRC-32-framed log line.

    Generic over the payload schema: every :class:`DurableLog` writes this
    frame, whatever its codec puts inside.
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


def _trial_of(payload: Dict) -> TrialRecord:
    """The trial codec's decode half, for :meth:`DurableLog.replay`."""
    try:
        return TrialRecord.from_payload(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"journal record missing fields: {exc}") from exc


def encode_record(record: TrialRecord) -> str:
    """One journal line: the record payload wrapped with its CRC-32."""
    return frame_line(record.payload())


def decode_record(line: str) -> TrialRecord:
    """Parse one journal line, raising :class:`JournalError` on any damage
    (malformed JSON, missing fields, CRC mismatch)."""
    return _trial_of(unframe_line(line))


class WriterLock:
    """An exclusive, non-blocking ``flock`` on a sidecar ``.lock`` file.

    One durable file, one writer: a :class:`DurableLog` acquires it
    before it first writes (a job queue, as it opens), and a second
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
    """What replaying a log found besides the good records."""

    loaded: int = 0
    corrupt: int = 0
    duplicates: int = 0
    truncated_tail: bool = False

    @property
    def clean(self) -> bool:
        return not (self.corrupt or self.duplicates or self.truncated_tail)

    def render(self, kind: str = "trial") -> str:
        notes = []
        if self.corrupt:
            notes.append(f"{self.corrupt} corrupt record(s) dropped")
        if self.duplicates:
            notes.append(f"{self.duplicates} duplicate key(s) superseded")
        if self.truncated_tail:
            notes.append("truncated final line skipped")
        suffix = f" ({'; '.join(notes)})" if notes else ""
        return f"journal: {self.loaded} {kind} record(s) loaded{suffix}"


def _write_all(fd: int, data: bytes) -> None:
    """``os.write`` until every byte is out: a write may be short."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def write_atomically(path: Path, data: bytes) -> None:
    """Make ``data`` the content of ``path``: tmp + fsync + rename +
    directory fsync, so a crash or power loss leaves the old content or the
    new, never an empty or partial file (a stale ``.tmp`` is overwritten)."""
    temp = path.with_name(path.name + ".tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        _write_all(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(temp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


class DurableLog:
    """One CRC-framed JSONL file of JSON-object payloads, under the rules
    above.  :meth:`replay` only reads; every other method takes the
    :class:`WriterLock` first."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._lock = WriterLock(self.path)
        self._fd: Optional[int] = None

    def replay(
        self, decode: Callable[[Dict], T]
    ) -> Tuple[List[T], JournalRecovery]:
        """Every intact record, oldest first, through the codec's
        ``decode`` (which refuses a payload with :class:`JournalError`),
        plus the :class:`JournalRecovery` tally; no file is an empty log."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return [], JournalRecovery()
        *lines, tail = data.split(b"\n")
        records: List[T] = []
        corrupt = 0
        for line in lines:
            # Damage to a newline glues the next record onto this line, so a
            # bad line is retried from each later frame start in it.
            start = 0
            while start >= 0:
                try:
                    text = line[start:].decode("utf-8")
                    records.append(decode(unframe_line(text)))
                    break
                except (UnicodeDecodeError, JournalError):
                    start = line.find(b'{"crc":', start + 1)
            corrupt += start != 0
        return records, JournalRecovery(
            loaded=len(records), corrupt=corrupt, truncated_tail=bool(tail)
        )

    def acquire(self) -> None:
        """Become the writer: take the lock, open the log for appending,
        and cut off a torn tail — bytes after the last newline, which no
        append ever returned for.  A no-op while already open."""
        if self._fd is not None:
            return
        self._lock.acquire()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            size = os.fstat(fd).st_size
            end = os.pread(fd, size, 0).rfind(b"\n") + 1
            if end < size:
                os.ftruncate(fd, end)
                os.fsync(fd)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd

    def append(self, payload: Dict) -> None:
        """Durably append one record: written and fsynced when this returns.
        If either raises, the file is closed, and the next append's
        :meth:`acquire` cuts off whatever part of this record got out."""
        data = (frame_line(payload) + "\n").encode("utf-8")
        self.acquire()
        try:
            _write_all(self._fd, data)
            os.fsync(self._fd)
        except BaseException:
            self._close_file()
            raise

    def rewrite(self, payloads: Iterable[Dict]) -> None:
        """Compact: replace the log with ``payloads`` (:func:`write_atomically`)."""
        self._lock.acquire()
        self._close_file()  # it points at the inode about to be replaced
        write_atomically(
            self.path,
            b"".join((frame_line(p) + "\n").encode("utf-8") for p in payloads),
        )

    def discard(self) -> None:
        """Delete the log: the writer starts over from nothing."""
        self._lock.acquire()
        self._close_file()
        self.path.unlink(missing_ok=True)

    def close(self) -> None:
        """Close the file and release the writer lock."""
        self._close_file()
        self._lock.release()

    def _close_file(self) -> None:
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)


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
        self._log = DurableLog(path)
        self.path = self._log.path
        self._records: Dict[Key, TrialRecord] = {}
        self._recovery = JournalRecovery()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def load(self) -> Tuple[Dict[Key, TrialRecord], JournalRecovery]:
        """Replay the journal (:meth:`DurableLog.replay`).  Returns the
        last-write-wins view keyed by ``(x, seed)`` plus a
        :class:`JournalRecovery` tally, superseded duplicates counted."""
        trials, recovery = self._log.replay(_trial_of)
        self._records = {record.key: record for record in trials}
        self._recovery = replace(
            recovery,
            loaded=len(self._records),
            duplicates=len(trials) - len(self._records),
        )
        return dict(self._records), self._recovery

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

    def append(self, record: TrialRecord) -> None:
        """Durably append one record (:meth:`DurableLog.append`).

        The record also enters the in-memory view (last write wins), so
        interleaved append/load callers always see the freshest state.
        """
        self._log.append(record.payload())
        self._records[record.key] = record

    def checkpoint(self) -> None:
        """Atomically rewrite the journal as its compacted view.

        Every in-memory record (duplicates collapsed, corrupt lines and a
        torn tail gone) goes through :meth:`DurableLog.rewrite`: readers
        at any instant see either the old journal or the new one, never a
        partial file.
        """
        self._log.rewrite(
            self._records[key].payload() for key in sorted(self._records)
        )

    def discard(self) -> None:
        """Delete the journal (the ``fresh=True`` path) and forget state."""
        self._log.discard()
        self._records = {}
        self._recovery = JournalRecovery()

    def close(self, checkpoint: bool = True) -> None:
        """Close and release the writer lock; by default leaves a
        compacted checkpoint."""
        if checkpoint and self._records:
            self.checkpoint()
        self._log.close()

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
