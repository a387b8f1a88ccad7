"""The crash-safe trial journal: CRC framing, recovery, signal guard.

The acceptance-criterion scenario — resume from a journal whose final
record was truncated mid-write — lives in
``TestCheckpointedSweep.test_resume_from_truncated_final_record``.
"""

import gc
import json
import os
import signal
import sys
import weakref
import zlib
from functools import partial

import pytest

import chaos_helpers
from repro.bgp import BgpConfig
from repro.errors import JournalError
from repro.experiments import (
    PointSummary,
    RunSettings,
    SweepJournal,
    TrialFailure,
    TrialRecord,
    checkpointed_sweep,
    clique_tdown_trial,
    constant_config,
)
from repro.experiments.journal import decode_record, encode_record
from repro.experiments.sweep import summarize_point

FAST = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)
#: Budget that kills a 6-clique but lets a 3-clique finish (see
#: tests/experiments/test_parallel_sweep.py for the calibration).
TIGHT = RunSettings(failure_guard=0.5, event_budget=200)
MAKE_CONFIG = partial(constant_config, config=FAST)


def ok_record(x, seed, attempt=1, **metrics):
    return TrialRecord(
        x=x, seed=seed, status="ok", attempt=attempt,
        metrics=metrics or {"updates": 10.0},
    )


class TestRecordCodec:
    def test_round_trip(self):
        record = ok_record(3.0, 1, attempt=2, updates=42.0, loops=1.0)
        assert decode_record(encode_record(record)) == record

    def test_failed_record_round_trips_error(self):
        record = TrialRecord(
            x=4.0, seed=0, status="timeout", attempt=3,
            error="trial exceeded 2.0s", kind="TrialTimeoutError",
        )
        clone = decode_record(encode_record(record))
        assert clone.error == "trial exceeded 2.0s"
        assert clone.kind == "TrialTimeoutError"
        assert not clone.ok

    def test_crc_mismatch_rejected(self):
        line = encode_record(ok_record(3.0, 0))
        frame = json.loads(line)
        frame["crc"] ^= 1
        with pytest.raises(JournalError, match="CRC"):
            decode_record(json.dumps(frame))

    def test_malformed_json_rejected(self):
        with pytest.raises(JournalError):
            decode_record('{"crc": 12, "record": {bro')

    def test_missing_fields_rejected(self):
        body = json.dumps({"x": 3.0}, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(body.encode("utf-8"))
        with pytest.raises(JournalError):
            decode_record('{"crc": %d, "record": %s}' % (crc, body))


class TestLoadRecovery:
    def test_missing_file_is_empty_and_clean(self, tmp_path):
        journal = SweepJournal(tmp_path / "absent.jsonl")
        records, recovery = journal.load()
        assert records == {}
        assert recovery.clean
        assert not recovery.truncated_tail

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        whole = encode_record(ok_record(3.0, 0))
        torn = encode_record(ok_record(4.0, 0))[:-7]
        path.write_text(whole + "\n" + torn, encoding="utf-8")
        records, recovery = SweepJournal(path).load()
        assert set(records) == {(3.0, 0)}
        assert recovery.truncated_tail
        assert recovery.corrupt == 0
        assert not recovery.clean

    def test_corrupt_midfile_record_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [
            encode_record(ok_record(3.0, 0)),
            '{"crc": 1, "record": {"x": "garbage"}}',
            encode_record(ok_record(5.0, 0)),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        records, recovery = SweepJournal(path).load()
        assert set(records) == {(3.0, 0), (5.0, 0)}
        assert recovery.corrupt == 1
        assert not recovery.truncated_tail
        assert "corrupt" in recovery.render()

    def test_duplicate_key_last_write_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = ok_record(3.0, 0, attempt=1, updates=1.0)
        second = ok_record(3.0, 0, attempt=2, updates=99.0)
        path.write_text(
            encode_record(first) + "\n" + encode_record(second) + "\n",
            encoding="utf-8",
        )
        records, recovery = SweepJournal(path).load()
        assert records[(3.0, 0)] == second
        assert recovery.duplicates == 1
        assert recovery.loaded == 1


class TestJournalWrites:
    def test_append_then_reload(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.load()
        journal.append(ok_record(3.0, 0))
        journal.append(ok_record(3.0, 1))
        records, recovery = SweepJournal(path).load()
        assert set(records) == {(3.0, 0), (3.0, 1)}
        assert recovery.clean

    def test_checkpoint_compacts_duplicates_and_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        stale = encode_record(ok_record(3.0, 0, updates=1.0))
        path.write_text(stale + "\n" + stale[:-9], encoding="utf-8")
        journal = SweepJournal(path)
        journal.load()
        journal.append(ok_record(3.0, 0, attempt=2, updates=50.0))
        journal.checkpoint()
        assert not path.with_suffix(path.suffix + ".tmp").exists()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        records, recovery = SweepJournal(path).load()
        assert records[(3.0, 0)].metrics == {"updates": 50.0}
        assert recovery.clean

    def test_discard_removes_file_and_state(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.load()
        journal.append(ok_record(3.0, 0))
        journal.discard()
        assert not path.exists()
        assert journal.records == {}


class TestSignalGuard:
    def test_sigint_checkpoints_then_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.load()
        with pytest.raises(KeyboardInterrupt):
            with journal.guarded():
                journal.append(ok_record(3.0, 0))
                # Simulate a torn tail that only a checkpoint would fix.
                with path.open("a", encoding="utf-8") as handle:
                    handle.write('{"crc": 1, "rec')
                os.kill(os.getpid(), signal.SIGINT)
        records, recovery = SweepJournal(path).load()
        assert set(records) == {(3.0, 0)}
        assert recovery.clean  # checkpoint compacted the torn tail away

    def test_sigterm_checkpoints_and_redelivers_to_previous_handler(
        self, tmp_path
    ):
        delivered = []
        previous = signal.signal(
            signal.SIGTERM, lambda signum, frame: delivered.append(signum)
        )
        try:
            path = tmp_path / "j.jsonl"
            journal = SweepJournal(path)
            journal.load()
            with journal.guarded():
                journal.append(ok_record(4.0, 0))
                os.kill(os.getpid(), signal.SIGTERM)
            assert delivered == [signal.SIGTERM]
            # Guard restored the pre-existing handler on the way out.
            assert signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
        finally:
            signal.signal(signal.SIGTERM, previous)
        records, recovery = SweepJournal(path).load()
        assert set(records) == {(4.0, 0)}
        assert recovery.clean


class TestSummaries:
    def test_summarize_point_means_ok_trials_only(self):
        trials = [
            ok_record(3.0, 0, updates=10.0),
            ok_record(3.0, 1, updates=20.0),
            TrialRecord(x=3.0, seed=2, status="failed", error="boom"),
            TrialRecord(x=3.0, seed=3, status="timeout", error="slow"),
        ]
        summary = summarize_point(3.0, trials)
        assert isinstance(summary, PointSummary)
        assert summary.trials == 4
        assert summary.succeeded == 2
        assert summary.failed == 2  # timeouts are a subset of failures
        assert summary.timeouts == 1
        assert summary.metrics == {"updates": 15.0}

    def test_all_failed_point_has_empty_metrics(self):
        trials = [TrialRecord(x=6.0, seed=0, status="failed", error="x")]
        summary = summarize_point(6.0, trials)
        assert summary.succeeded == 0
        assert summary.metrics == {}


class TestCheckpointedSweep:
    def run_sweep(self, path, xs=(3, 4), seeds=(0, 1), settings=SETTINGS):
        return checkpointed_sweep(
            list(xs),
            clique_tdown_trial,
            MAKE_CONFIG,
            journal=path,
            seeds=tuple(seeds),
            settings=settings,
        )

    def test_fresh_run_journals_every_trial(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        summaries = self.run_sweep(path)
        assert [s.x for s in summaries] == [3, 4]
        assert all(s.succeeded == 2 for s in summaries)
        records, recovery = SweepJournal(path).load()
        assert set(records) == {(3, 0), (3, 1), (4, 0), (4, 1)}
        assert recovery.clean

    def test_rerun_executes_nothing(self, tmp_path, monkeypatch):
        # The in-process executor resolves ``run_trial`` from its defining
        # module at call time (the package attribute is the same function).
        module = sys.modules["repro.experiments.sweep"]
        real_run_trial, executed = module.run_trial, []

        def recording_run_trial(task):
            executed.append((task.x, task.seed))
            return real_run_trial(task)

        monkeypatch.setattr(module, "run_trial", recording_run_trial)
        path = tmp_path / "sweep.jsonl"
        # "Interrupted": the first invocation only got through x=3 ...
        interrupted = self.run_sweep(path, xs=(3,))
        assert executed == [(3, 0), (3, 1)]
        del executed[:]
        # ... so the resumed one executes x=4 alone and loads x=3.
        first = self.run_sweep(path)
        assert executed == [(4, 0), (4, 1)]
        assert first[0] == interrupted[0]
        before = path.read_text(encoding="utf-8")
        del executed[:]
        again = self.run_sweep(path)
        assert executed == []
        assert [s.metrics for s in again] == [s.metrics for s in first]
        assert path.read_text(encoding="utf-8") == before

    def test_one_batch_for_every_missing_trial(self, tmp_path):
        """Three xs on ``jobs=2`` share one pool: at most two worker
        processes run all six trials, and ``make_config`` builds each x's
        configuration once."""
        configs = []

        def make_config(x):
            configs.append(x)
            return FAST

        summaries = checkpointed_sweep(
            [3, 4, 5],
            partial(chaos_helpers.logged, log_dir=str(tmp_path)),
            make_config,
            journal=tmp_path / "sweep.jsonl",
            seeds=(0, 1),
            settings=SETTINGS,
            jobs=2,
        )
        assert [s.succeeded for s in summaries] == [2, 2, 2]
        assert configs == [3, 4, 5]
        log = chaos_helpers.trial_log(tmp_path)
        assert sorted((x, seed) for _pid, x, seed in log) == [
            (x, seed) for x in (3, 4, 5) for seed in (0, 1)
        ]
        assert len({pid for pid, _x, _seed in log}) <= 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_run_outlives_its_callback(self, tmp_path, jobs):
        """The sweep streams: each run it hands ``on_outcome`` is garbage
        by the time the next one lands, and none outlives the sweep."""
        runs = []

        def on_outcome(task, outcome):
            gc.collect()
            assert [run() for run in runs] == [None] * len(runs)
            runs.append(weakref.ref(outcome))

        checkpointed_sweep(
            [3, 4],
            clique_tdown_trial,
            MAKE_CONFIG,
            journal=tmp_path / "sweep.jsonl",
            seeds=(0, 1),
            settings=SETTINGS,
            jobs=jobs,
            on_outcome=on_outcome,
        )
        gc.collect()
        assert len(runs) == 4
        assert [run() for run in runs] == [None] * 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trial_is_journaled_before_it_is_reported(self, tmp_path, jobs):
        """Per-trial durability: by the time ``on_outcome`` hears of a
        trial — ok or failed — its own record is already on disk, so what
        a caller was told is done survives the very next SIGKILL."""
        path = tmp_path / "sweep.jsonl"
        counts, statuses = [], {}

        def on_outcome(task, outcome):
            on_disk, _ = SweepJournal(path).load()
            counts.append(len(on_disk))
            ok = not isinstance(outcome, TrialFailure)
            statuses[(task.x, ok)] = on_disk[(task.x, task.seed)].status

        checkpointed_sweep(
            [3, 6],
            clique_tdown_trial,
            MAKE_CONFIG,
            journal=path,
            seeds=(0, 1),
            settings=TIGHT,
            jobs=jobs,
            on_outcome=on_outcome,
        )
        assert counts == [1, 2, 3, 4]  # not 0, 0, 2, 2: nothing waits for its point
        assert statuses == {(3, True): "ok", (6, False): "failed"}

    def test_resume_from_truncated_final_record(self, tmp_path):
        """Acceptance criterion: a journal whose final record was torn
        mid-write resumes — only the torn trial re-runs, and its result
        matches what the undisturbed sweep produced.  The same holds for
        a record damaged in the middle of the file (CRC mismatch)."""
        path = tmp_path / "sweep.jsonl"
        complete = self.run_sweep(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        torn_tail = "\n".join(lines[:-1]) + "\n" + lines[-1][:-10]
        flipped = [lines[0].replace('"seed":0', '"seed":9', 1), *lines[1:]]
        for damaged, survivors in (
            (torn_tail, {(3, 0), (3, 1), (4, 0)}),
            ("\n".join(flipped) + "\n", {(3, 1), (4, 0), (4, 1)}),
        ):
            path.write_text(damaged, encoding="utf-8")
            assert set(SweepJournal(path).load()[0]) == survivors
            resumed = self.run_sweep(path)
            assert [s.metrics for s in resumed] == [s.metrics for s in complete]
            records, recovery = SweepJournal(path).load()
            assert set(records) == {(3, 0), (3, 1), (4, 0), (4, 1)}
            assert recovery.clean  # close() checkpointed the repaired view

    def test_all_failed_point_is_journaled_not_raised(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        [point] = self.run_sweep(path, xs=(6,), seeds=(0,), settings=TIGHT)
        assert (point.succeeded, point.failed, point.metrics) == (0, 1, {})
        # The journaled failure is a valid record: a rerun loads it instead
        # of looping on the dead point.
        before = path.read_text(encoding="utf-8")
        assert self.run_sweep(path, xs=(6,), seeds=(0,), settings=TIGHT) == [point]
        assert path.read_text(encoding="utf-8") == before

    def test_fresh_flag_discards_previous_journal(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        bogus = TrialRecord(
            x=3, seed=0, status="ok", metrics={"updates_sent": -1.0}
        )
        path.write_text(encode_record(bogus) + "\n", encoding="utf-8")
        summaries = checkpointed_sweep(
            [3],
            clique_tdown_trial,
            MAKE_CONFIG,
            journal=path,
            seeds=(0,),
            settings=SETTINGS,
            fresh=True,
        )
        assert summaries[0].metrics["updates_sent"] > 0

    def test_caller_owned_journal_is_not_closed(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.load()
        checkpointed_sweep(
            [3],
            clique_tdown_trial,
            MAKE_CONFIG,
            journal=journal,
            seeds=(0,),
            settings=SETTINGS,
        )
        # Still usable: the library must not have closed what it borrowed.
        journal.append(ok_record(9.0, 0))
        assert (9.0, 0) in journal.records
        journal.close()
