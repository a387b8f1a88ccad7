"""Journal edge cases beyond the happy recovery path: concurrent
writers, crashes landing *inside* a checkpoint, and a journal whose
directory vanished between runs.

These are the failure modes the sweep service leans on hardest — its
durable queue and per-job trial journals share this exact machinery.
"""

import os
import signal
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from repro.bgp import BgpConfig
from repro.errors import JournalError
from repro.experiments import (
    RunSettings,
    SweepJournal,
    TrialRecord,
    checkpointed_sweep,
    clique_tdown_trial,
    constant_config,
)
from repro.experiments.journal import WriterLock, encode_record

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

FAST = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)
MAKE_CONFIG = partial(constant_config, config=FAST)


def ok_record(x, seed):
    return TrialRecord(
        x=x, seed=seed, status="ok", attempt=1, metrics={"updates": 10.0}
    )


class TestTwoWriters:
    def test_second_handle_fails_fast_in_process(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = SweepJournal(path)
        first.append(ok_record(3.0, 0))
        second = SweepJournal(path)
        with pytest.raises(JournalError, match="already has a writer"):
            second.append(ok_record(4.0, 0))
        # The refused writer changed nothing on disk.
        records, recovery = SweepJournal(path).load()
        assert set(records) == {(3.0, 0)}
        assert recovery.clean
        first.close()

    def test_second_process_fails_fast(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.append(ok_record(3.0, 0))
        probe = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys\n"
                "from repro.errors import JournalError\n"
                "from repro.experiments import SweepJournal, TrialRecord\n"
                "journal = SweepJournal(sys.argv[1])\n"
                "record = TrialRecord(x=9.0, seed=9, status='ok', attempt=1)\n"
                "try:\n"
                "    journal.append(record)\n"
                "except JournalError as exc:\n"
                "    print(exc)\n"
                "    raise SystemExit(17)\n"
                "raise SystemExit(0)\n",
                str(path),
            ],
            env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert probe.returncode == 17, probe.stderr
        assert "already has a writer" in probe.stdout
        journal.close()

    def test_lock_released_on_close_admits_next_writer(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = SweepJournal(path)
        first.append(ok_record(3.0, 0))
        first.close()
        second = SweepJournal(path)
        second.load()
        second.append(ok_record(4.0, 0))
        assert set(second.records) == {(3.0, 0), (4.0, 0)}
        second.close()

    def test_bare_lock_is_reentrant_per_object_not_per_path(self, tmp_path):
        lock = WriterLock(tmp_path / "j.jsonl")
        lock.acquire()
        lock.acquire()  # same object: no-op, not deadlock
        other = WriterLock(tmp_path / "j.jsonl")
        with pytest.raises(JournalError, match="already has a writer"):
            other.acquire()
        lock.release()
        other.acquire()
        other.release()


    def test_forked_child_does_not_keep_a_dead_writers_lock(self, tmp_path):
        """A writer forks a child (a sweep worker) and is SIGKILLed.  The
        child shares the flock's open file description, so unless it drops
        what it inherited, the journal stays locked for as long as the
        orphan lives — and the resumed sweep cannot append."""
        path = tmp_path / "j.jsonl"
        writer = subprocess.run(
            [
                sys.executable,
                "-c",
                "import os, signal, sys, time\n"
                "from repro.experiments import SweepJournal, TrialRecord\n"
                "journal = SweepJournal(sys.argv[1])\n"
                "journal.append(TrialRecord(x=3.0, seed=0, status='ok'))\n"
                "child = os.fork()\n"
                "if child == 0:\n"
                "    os.close(1)  # or the test waits for this end of the pipe\n"
                "    time.sleep(60)\n"
                "    os._exit(0)\n"
                "print(child, flush=True)\n"
                "os.kill(os.getpid(), signal.SIGKILL)\n",
                str(path),
            ],
            env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=60,
        )
        orphan = int(writer.stdout)
        try:
            assert writer.returncode == -signal.SIGKILL
            os.kill(orphan, 0)  # the orphan is alive ...
            resumed = SweepJournal(path)
            resumed.load()
            resumed.append(ok_record(4.0, 0))  # ... and does not hold the lock
            assert set(resumed.records) == {(3.0, 0), (4.0, 0)}
            resumed.close()
        finally:
            os.kill(orphan, signal.SIGKILL)


class TestCrashDuringCheckpoint:
    def test_stale_tmp_from_dead_checkpoint_is_ignored(self, tmp_path):
        """A crash after writing ``.tmp`` but before ``os.replace`` must
        leave the original journal authoritative, and the next checkpoint
        must clobber the stale temp file."""
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.append(ok_record(3.0, 0))
        journal.close()

        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(encode_record(ok_record(99.0, 9)) + "\n")

        journal = SweepJournal(path)
        records, recovery = journal.load()
        assert set(records) == {(3.0, 0)}  # the temp file is not the journal
        assert recovery.clean
        journal.append(ok_record(4.0, 0))
        journal.close()  # checkpoints: rewrites and consumes .tmp
        assert not tmp.exists()
        records, _ = SweepJournal(path).load()
        assert set(records) == {(3.0, 0), (4.0, 0)}

    def test_torn_append_then_checkpoint_compacts_clean(self, tmp_path):
        """Killed mid-append: the torn tail survives exactly one load and
        is gone after the next checkpoint."""
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.append(ok_record(3.0, 0))
        journal.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write(encode_record(ok_record(4.0, 0))[:-9])

        journal = SweepJournal(path)
        records, recovery = journal.load()
        assert recovery.truncated_tail
        assert set(records) == {(3.0, 0)}
        journal.checkpoint()
        journal.close()

        records, recovery = SweepJournal(path).load()
        assert recovery.clean  # torn line compacted away, record intact
        assert set(records) == {(3.0, 0)}


class TestJournalDirectoryDeleted:
    def test_append_recreates_missing_parent(self, tmp_path):
        nested = tmp_path / "state" / "journals" / "job-1.jsonl"
        journal = SweepJournal(nested)
        journal.append(ok_record(3.0, 0))
        journal.close()

        import shutil

        shutil.rmtree(tmp_path / "state")
        journal = SweepJournal(nested)
        records, recovery = journal.load()
        assert records == {} and recovery.clean  # history is simply gone
        journal.append(ok_record(4.0, 0))
        journal.close()
        records, _ = SweepJournal(nested).load()
        assert set(records) == {(4.0, 0)}

    def test_checkpointed_sweep_restarts_after_dir_deleted(self, tmp_path):
        nested = tmp_path / "state" / "journals" / "job-1.jsonl"

        def run():
            journal = SweepJournal(nested)
            points = checkpointed_sweep(
                [3.0],
                clique_tdown_trial,
                MAKE_CONFIG,
                journal=journal,
                seeds=[0],
                settings=SETTINGS,
                digests=True,
            )
            records = journal.records
            journal.close()
            return points, records

        _, first_records = run()
        assert set(first_records) == {(3.0, 0)}

        import shutil

        shutil.rmtree(tmp_path / "state")
        _, second_records = run()  # restarts from nothing without crashing
        assert set(second_records) == {(3.0, 0)}
        assert first_records[(3.0, 0)].digest  # non-vacuous comparison
        assert (
            second_records[(3.0, 0)].digest == first_records[(3.0, 0)].digest
        )
