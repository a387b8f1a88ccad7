"""One durable log under three codecs.

The trial journal and the job queue are each a record codec over
:class:`~repro.experiments.journal.DurableLog`, so they share one replay
rule, one writer and one compaction, and are tested together here, beside
the bare log of JSON objects:

* plain regressions, one per damage case the logs used to handle
  differently (a flipped byte, a torn tail, a non-UTF-8 byte, a reader
  beside a live writer, a lost ``submit``);
* a fault-injecting stand-in for ``os`` inside the journal module: the k-th
  ``write`` or ``fsync`` raises ``ENOSPC``/``EIO``, or writes only a prefix;
* two hypothesis properties over all three codecs: a damaged byte spares
  every record it did not touch, and an append that returned is never lost.
  They run 100 examples each in tier-1; ``--hypothesis-profile=deep``
  (registered in ``tests/conftest.py``) runs 2 000.
"""

import errno
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import SweepJournal, TrialRecord
from repro.experiments import journal as journal_module
from repro.experiments.journal import DurableLog, WriterLock
from repro.service import (
    DurableJobQueue,
    JobSpec,
    JobView,
    ServiceState,
    execute_job,
)
from repro.service.jobs import RUNNING


class Trials:
    """The trial journal; record ``i`` is the trial ``(x=i, seed=i)``."""

    name = "journal"

    def open(self, path):
        journal = SweepJournal(path)
        journal.load()  # a checkpoint rewrites what the journal knows
        return journal

    def append(self, log, i):
        log.append(
            TrialRecord(x=float(i), seed=i, status="ok", metrics={"updates": 1.0})
        )

    def compact(self, log):
        log.checkpoint()

    def close(self, log):
        log.close(checkpoint=False)

    def replay(self, path):
        records, recovery = SweepJournal(path).load()
        return {seed for _, seed in records}, recovery


class Jobs:
    """The job queue; record ``i`` is the submit of a job whose params say
    ``i``.  Opening a queue is how it replays."""

    name = "queue"

    def open(self, path):
        return DurableJobQueue(path)

    def append(self, log, i):
        log.submit(JobSpec(kind="sweep", params={"i": i}), now=float(i))

    def compact(self, log):
        log.compact()

    def close(self, log):
        log.close()

    def replay(self, path):
        queue = DurableJobQueue(path)
        queue.close()
        return {view.spec.params["i"] for view in queue.jobs()}, queue.recovery


class Dicts:
    """The bare log; record ``i`` is the payload ``{"i": i}``."""

    name = "log"

    def open(self, path):
        return DurableLog(path)

    def append(self, log, i):
        log.append({"i": i})

    def compact(self, log):
        log.rewrite(log.replay(dict)[0])

    def close(self, log):
        log.close()

    def replay(self, path):
        records, recovery = DurableLog(path).replay(dict)
        return {record["i"] for record in records}, recovery


CODECS = [Trials(), Jobs(), Dicts()]


def write(codec, path, count):
    """``count`` records through the codec's public writer; returns each
    record's ``(first byte, its newline)`` offsets in the file."""
    log = codec.open(path)
    for i in range(count):
        codec.append(log, i)
    codec.close(log)
    spans, start = [], 0
    for line in path.read_bytes().split(b"\n")[:-1]:
        spans.append((start, start + len(line)))
        start += len(line) + 1
    assert len(spans) == count
    return spans


# ----------------------------------------------------------------------
# One regression per damage case
# ----------------------------------------------------------------------


def test_flipped_byte_in_the_first_queue_record_keeps_the_rest(tmp_path):
    path = tmp_path / "jobs.jsonl"
    [(start, end), _, _] = write(Jobs(), path, 3)
    data = bytearray(path.read_bytes())
    data[(start + end) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    with DurableJobQueue(path) as queue:
        assert [view.job_id for view in queue.jobs()] == ["job-2", "job-3"]
        assert queue.recovery.corrupt == 1
    assert path.read_bytes() == bytes(data)  # nothing cut: the tail was whole


def test_fsynced_append_after_a_torn_tail_survives_reopen(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path)
    Trials().append(journal, 0)
    journal.close()
    torn = journal_module.encode_record(TrialRecord(x=1.0, seed=1, status="ok"))
    with path.open("ab") as handle:
        handle.write(torn.encode()[:-9])  # killed mid-write
    journal = SweepJournal(path)
    assert journal.load()[1].truncated_tail
    Trials().append(journal, 2)  # written, fsynced, returned ...
    records, recovery = SweepJournal(path).load()  # ... so the next SIGKILL keeps it
    assert set(records) == {(0.0, 0), (2.0, 2)}
    assert recovery.clean  # the writer cut the torn bytes before appending
    journal.close()


def test_a_non_utf8_byte_is_one_corrupt_record_in_every_log(tmp_path):
    for codec in CODECS:
        path = tmp_path / f"{codec.name}.jsonl"
        [_, (start, end), _] = write(codec, path, 3)
        data = bytearray(path.read_bytes())
        data[(start + end) // 2] = 0xFF
        path.write_bytes(bytes(data))
        replayed, recovery = codec.replay(path)
        assert (codec.name, replayed) == (codec.name, {0, 2})
        assert (recovery.corrupt, recovery.truncated_tail) == (1, False)


def test_a_reader_never_shortens_a_log_another_writer_holds(tmp_path):
    for codec in CODECS:
        path = tmp_path / f"{codec.name}.jsonl"
        write(codec, path, 2)
        with path.open("ab") as handle:
            handle.write(b'{"crc":12,"record":{"i"')  # the live writer's next record
        before = path.read_bytes()
        holder = WriterLock(path)
        holder.acquire()
        try:
            replayed, recovery = codec.replay(path)
            assert (codec.name, path.read_bytes()) == (codec.name, before)
            assert replayed == {0, 1}
            assert recovery.truncated_tail and recovery.corrupt == 0
        finally:
            holder.release()


def test_a_lost_submit_does_not_free_its_id(tmp_path):
    """job-2's submit is corrupt, but its ``state`` record still names it:
    a new job must not become job-2 and resume job-2's trial journal."""
    path = tmp_path / "jobs.jsonl"
    with DurableJobQueue(path) as queue:
        queue.submit(JobSpec(kind="sweep"))
        queue.submit(JobSpec(kind="sweep"))
        queue.transition("job-2", RUNNING)
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b'"job-2"', b'"job-9"')  # CRC now fails
    path.write_bytes(b"\n".join(lines))
    with DurableJobQueue(path) as queue:
        assert [view.job_id for view in queue.jobs()] == ["job-1"]
        assert queue.submit(JobSpec(kind="sweep")).job_id == "job-3"
        assert queue.recovery.corrupt == 1


def test_a_sweep_job_reports_its_journal_repairs(tmp_path):
    state = ServiceState(tmp_path / "state")
    state.ensure_layout()
    state.journal_path("job-1").write_bytes(b"\xff not a trial record\n")
    view = JobView(
        job_id="job-1",
        spec=JobSpec(kind="sweep", params={"family": "tdown", "xs": [3.0]}),
    )
    outcome = execute_job(view, state)
    assert outcome.state == "done"
    assert outcome.detail["journal_recovery"] == {
        "loaded": 0, "corrupt": 1, "duplicates": 0, "truncated_tail": False,
    }
    # The job's close compacted the journal: a clean resume adds nothing.
    assert "journal_recovery" not in execute_job(view, state).detail


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------

TORN, SHORT = "torn", "short"


class FaultyOs:
    """Stands in for ``os`` inside the journal module.  ``faults`` maps the
    k-th ``write``/``fsync`` call (counted together, from 1) to what goes
    wrong: an errno is raised; ``TORN`` writes half the bytes, then raises
    ``ENOSPC``; ``SHORT`` writes half and returns the short count, which
    POSIX allows and the caller must finish."""

    def __init__(self, faults):
        self.faults = faults
        self.calls = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def _next_fault(self):
        self.calls += 1
        return self.faults.get(self.calls)

    def write(self, fd, data):
        fault = self._next_fault()
        if fault in (TORN, SHORT):
            written = os.write(fd, bytes(data[: len(data) // 2]))
            if fault == SHORT and written:
                return written
            fault = errno.ENOSPC
        if fault:
            raise OSError(fault, os.strerror(fault))
        return os.write(fd, data)

    def fsync(self, fd):
        fault = self._next_fault()
        if fault not in (None, SHORT):
            code = errno.EIO if fault == TORN else fault
            raise OSError(code, os.strerror(code))
        return os.fsync(fd)


@contextmanager
def faults_injected(faults):
    real = journal_module.os
    journal_module.os = FaultyOs(faults)
    try:
        yield
    finally:
        journal_module.os = real


@pytest.mark.parametrize("codec", CODECS, ids=lambda codec: codec.name)
@pytest.mark.parametrize(
    "faults",
    [{1: TORN}, {1: errno.ENOSPC}, {2: errno.EIO}, {1: SHORT}],
    ids=["torn-write", "enospc-write", "eio-fsync", "short-write"],
)
def test_a_failed_append_costs_only_itself(codec, faults, tmp_path):
    path = tmp_path / "log.jsonl"
    log = codec.open(path)
    codec.append(log, 0)
    with faults_injected(faults):
        if SHORT in faults.values():
            codec.append(log, 1)  # the rest of the record follows the short write
        else:
            with pytest.raises(OSError):
                codec.append(log, 1)
        codec.append(log, 2)
    codec.close(log)
    replayed, recovery = codec.replay(path)
    assert {0, 2} <= replayed <= {0, 1, 2}
    assert SHORT not in faults.values() or 1 in replayed
    assert recovery.clean


def test_a_failed_checkpoint_leaves_the_old_journal_whole(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path)
    for i in range(3):
        Trials().append(journal, i)
    before = path.read_bytes()
    with faults_injected({1: TORN}):  # the temp file's write
        with pytest.raises(OSError):
            journal.checkpoint()
    assert path.read_bytes() == before
    Trials().append(journal, 3)
    journal.close()
    replayed, recovery = Trials().replay(path)
    assert replayed == {0, 1, 2, 3} and recovery.clean


# ----------------------------------------------------------------------
# Properties over all three codecs
# ----------------------------------------------------------------------

damages = st.one_of(
    st.tuples(st.just("flip"), st.integers(min_value=1, max_value=255)),
    st.tuples(st.just("set"), st.integers(min_value=0, max_value=255)),
)


@settings(deadline=None)
@given(
    codec=st.sampled_from(CODECS),
    count=st.integers(min_value=1, max_value=5),
    where=st.integers(min_value=0, max_value=10**6),
    at_newline=st.booleans(),
    damage=damages,
)
def test_a_damaged_byte_spares_every_record_it_did_not_touch(
    codec, count, where, at_newline, damage
):
    """Half the draws hit a record's newline: damage there glues the next
    record onto a corrupt line, and that record must still replay."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "log.jsonl"
        spans = write(codec, path, count)
        data = bytearray(path.read_bytes())
        k = spans[where % count][1] if at_newline else where % len(data)
        kind, value = damage
        data[k] = data[k] ^ value if kind == "flip" else value
        path.write_bytes(bytes(data))
        replayed, recovery = codec.replay(path)  # never raises
    untouched = {i for i, (start, end) in enumerate(spans) if not start <= k <= end}
    assert untouched <= replayed <= set(range(count))
    assert recovery.corrupt <= 2  # a new newline splits one record in two
    assert recovery.truncated_tail == (k == len(data) - 1 and data[k] != 0x0A)


operations = st.lists(
    st.sampled_from(["append", "append", "append", "compact", "reopen"]),
    max_size=8,
)
fault_plans = st.dictionaries(
    st.integers(min_value=1, max_value=24),
    st.sampled_from([TORN, SHORT, errno.ENOSPC, errno.EIO]),
    max_size=4,
)


@settings(deadline=None)
@given(codec=st.sampled_from(CODECS), ops=operations, faults=fault_plans)
def test_an_append_that_returned_is_never_lost(codec, ops, faults):
    """Under any plan of write/fsync faults: every append that returned
    replays, nothing never attempted does, and no record is ever glued to
    the bytes of a failed one (the log never shows a corrupt line)."""
    attempted, returned = set(), set()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "log.jsonl"
        log = codec.open(path)
        with faults_injected(faults):
            for step, op in enumerate(ops):
                try:
                    if op == "append":
                        attempted.add(step)
                        codec.append(log, step)
                        returned.add(step)
                    elif op == "compact":
                        codec.compact(log)
                    else:
                        codec.close(log)
                        log = codec.open(path)
                except OSError:
                    pass  # the caller saw it fail; nothing was promised
        codec.close(log)
        replayed, recovery = codec.replay(path)  # never raises
    assert returned <= replayed <= attempted
    assert recovery.corrupt == 0
