"""End-to-end chaos tests: SIGKILL + hang under supervision, and
subprocess drivers killed (worker and driver) mid-sweep.

The first class is the PR's acceptance scenario: a sweep that loses one
worker to ``kill -9`` and one trial to a hang must still return complete
points whose digests are bit-identical to an undisturbed ``jobs=1``
sweep.  The subprocess classes exercise the same guarantees from outside
the process boundary, the way a batch host actually fails.
"""

import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import chaos_helpers
from repro.bgp import BgpConfig
from repro.experiments import (
    ResiliencePolicy,
    RunSettings,
    SweepJournal,
    clique_tdown_trial,
    constant_config,
)
from sweep_outcomes import sweep_batch, sweep_outcomes

FAST = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)
MAKE_CONFIG = partial(constant_config, config=FAST)

SRC = str(Path(__file__).resolve().parents[2] / "src")
HELPERS = str(Path(__file__).resolve().parent)


class TestChaoticDigestEquivalence:
    """The acceptance criterion, verbatim from the issue."""

    def test_sigkill_and_hang_match_undisturbed_jobs1(self, tmp_path):
        xs = [3, 4]
        seeds = (0, 1)
        _points, baseline = sweep_outcomes(
            xs,
            clique_tdown_trial,
            MAKE_CONFIG,
            seeds=seeds,
            settings=SETTINGS,
            digests=True,
        )
        chaotic, runs, report = sweep_batch(
            xs,
            partial(
                chaos_helpers.chaotic_tdown,
                marker_dir=str(tmp_path),
                kill_key=(3, 0),
                hang_key=(4, 1),
            ),
            MAKE_CONFIG,
            seeds=seeds,
            settings=SETTINGS,
            jobs=2,
            digests=True,
            policy=ResiliencePolicy(max_retries=2, trial_timeout=1.5),
        )
        assert all(point.succeeded == 2 for point in chaotic)
        assert all(point.failed == 0 for point in chaotic)
        assert [run.fingerprint.digest for run in runs] == [
            run.fingerprint.digest for run in baseline
        ]
        # (3, 0): the worker was SIGKILLed once; (4, 1): the trial hung
        # past the watchdog once.
        assert [run.attempt for run in runs] == [2, 1, 1, 2]

        assert report.worker_deaths >= 1
        assert report.timeouts >= 1
        assert report.retries >= 2
        assert report.exhausted == 0


DRIVER = """\
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {helpers!r})

from functools import partial

import chaos_helpers
from repro.bgp import BgpConfig
from repro.experiments import (
    ResiliencePolicy,
    RunSettings,
    checkpointed_sweep,
    constant_config,
)

seeds = {seeds!r}
summaries = checkpointed_sweep(
    [3, 4],
    partial(chaos_helpers.logged, log_dir={log_dir!r}, delay_s={delay!r}),
    partial(
        constant_config,
        config=BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05)),
    ),
    journal={journal!r},
    seeds=seeds,
    settings=RunSettings(failure_guard=0.5),
    jobs=2,
    policy=ResiliencePolicy(max_retries=3, trial_timeout=60.0),
)
assert all(s.succeeded == len(seeds) for s in summaries), summaries
print("DRIVER-OK")
"""


def write_driver(tmp_path, journal, delay=0.8, seeds=(0, 1)):
    """A driver script whose workers log ``pid x seed`` per executed trial
    to ``tmp_path/trials.log`` (read it with ``chaos_helpers.trial_log``)."""
    script = tmp_path / "driver.py"
    script.write_text(
        DRIVER.format(
            src=SRC,
            helpers=HELPERS,
            journal=str(journal),
            log_dir=str(tmp_path),
            delay=delay,
            seeds=tuple(seeds),
        ),
        encoding="utf-8",
    )
    return script


def child_pids_of(pid):
    """Direct children of ``pid``, via /proc (Linux CI is a given here)."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        # field 4 (1-based) after the parenthesised comm is the ppid
        after_comm = stat.rsplit(")", 1)[-1].split()
        if len(after_comm) >= 2 and int(after_comm[1]) == pid:
            children.append(int(entry.name))
    return children


@pytest.mark.skipif(sys.platform != "linux", reason="relies on /proc")
class TestSubprocessChaos:
    def wait_for_children(self, pid, deadline_s=15.0):
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            children = child_pids_of(pid)
            if children:
                return children
            time.sleep(0.05)
        return []

    def test_worker_sigkill_from_outside_still_completes(self, tmp_path):
        """Resume-after-SIGKILL-of-a-worker: an external ``kill -9`` on a
        worker process must be absorbed by supervision — the driver still
        exits 0 with a complete journal."""
        journal = tmp_path / "sweep.jsonl"
        script = write_driver(tmp_path, journal, delay=0.8)
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            workers = self.wait_for_children(proc.pid)
            assert workers, "driver never spawned worker processes"
            os.kill(workers[0], signal.SIGKILL)
            output, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, output
        assert "DRIVER-OK" in output
        records, recovery = SweepJournal(journal).load()
        assert set(records) == {(3, 0), (3, 1), (4, 0), (4, 1)}
        assert all(record.ok for record in records.values())
        assert recovery.clean

    def test_driver_sigkill_then_resume_preserves_journal(self, tmp_path):
        """``kill -9`` the *driver* mid-point; its workers must not outlive
        it, and the rerun must trust every journaled record and execute
        exactly the trials that have none."""
        journal = tmp_path / "sweep.jsonl"
        delay = 0.6
        seeds = (0, 1, 2, 3)
        every = {(x, seed) for x in (3, 4) for seed in seeds}
        script = write_driver(tmp_path, journal, delay=delay, seeds=seeds)
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Let at least one trial land in the journal, then murder it.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if journal.exists() and journal.read_text(
                    encoding="utf-8"
                ).count("\n"):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("journal never received a record")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # Two seeds of four were in flight: the journal holds part of a point.
        partial_records, _ = SweepJournal(journal).load()
        assert partial_records, "expected journaled trials before the kill"
        assert set(partial_records) < every
        before = {
            key: record.metrics for key, record in partial_records.items()
        }

        # The resumed driver starts while the orphans may still be inside
        # their last trial: they must neither hold the journal's writer
        # lock nor linger once that trial is over.
        first_run = chaos_helpers.trial_log(tmp_path)
        rerun = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            time.sleep(delay + 1.0)
            orphans = {
                pid
                for pid, _x, _seed in first_run
                if chaos_helpers.process_alive(pid)
            }
            assert not orphans, "workers outlived their SIGKILLed driver"
            output, _ = rerun.communicate(timeout=120)
        finally:
            if rerun.poll() is None:
                rerun.kill()
                rerun.wait()
        assert rerun.returncode == 0, output
        records, recovery = SweepJournal(journal).load()
        assert set(records) == every
        assert recovery.clean
        for key, metrics in before.items():
            assert records[key].metrics == metrics  # journaled work kept
        resumed = [
            (x, seed)
            for _pid, x, seed in chaos_helpers.trial_log(tmp_path)[len(first_run):]
        ]
        assert sorted(resumed) == sorted(every - set(partial_records))
