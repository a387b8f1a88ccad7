"""The ``svc_sweep`` side: one ``repro serve`` daemon, driven as a client.

Closed loop, one client, one job in flight: a job is timed from ``submit``
to the ``end`` event of its ``watch`` stream.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.errors import ServiceError
from repro.service import ServiceClient

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0


class Deadline(Exception):
    """A guarded block ran past its time limit."""


@contextlib.contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`Deadline` in the main thread after ``seconds``.

    ``ServiceClient.watch`` reads its socket without a timeout, so a
    stuck job would hang the benchmark; an interval timer interrupts it.
    """

    def expire(_signum, _frame):
        raise Deadline(f"no result within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class SvcJob:
    """What one submitted sweep cost and returned."""

    wall_s: float
    submit_rtt_s: float
    first_event_s: float
    events_streamed: int
    state: str
    detail: Dict = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    trials_ok: bool = True
    error: str = ""


class Daemon:
    """A ``python -m repro serve`` child in a temp state directory.

    The state directory is addressed by a *relative* path from the temp
    directory, which is both the daemon's and (after :meth:`start`) this
    process's working directory: a Unix socket path is limited to about
    100 bytes and the checkout may sit deep in the file system.
    """

    def __init__(self, scratch_root: Path) -> None:
        scratch_root.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="svc-", dir=scratch_root))
        self.process: Optional[subprocess.Popen] = None
        self.client = ServiceClient("state", timeout=60.0)
        self.start_s = 0.0
        self._cwd = os.getcwd()

    def start(self) -> None:
        os.chdir(self.root)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state", "state"],
            cwd=self.root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        while True:
            try:
                self.client.ping()
                break
            except ServiceError:
                if self.process.poll() is not None:
                    raise RuntimeError(
                        f"repro serve exited with code {self.process.returncode}"
                    )
                if time.perf_counter() - started > START_TIMEOUT_S:
                    raise RuntimeError("repro serve did not answer a ping")
                time.sleep(0.01)
        self.start_s = time.perf_counter() - started

    def stop(self) -> None:
        """``shutdown``, then wait → terminate → kill.

        The daemon and its pool workers stay in this process's group;
        ``run.py`` starts each worker as a group leader and kills whatever
        is left of the group once the worker has ended.
        """
        process = self.process
        try:
            if process is not None and process.poll() is None:
                try:
                    self.client.shutdown()
                except ServiceError:
                    pass
                for escalate in (process.terminate, process.kill, None):
                    try:
                        process.wait(timeout=STOP_TIMEOUT_S)
                        break
                    except subprocess.TimeoutExpired:
                        if escalate is not None:
                            escalate()
        finally:
            os.chdir(self._cwd)
            shutil.rmtree(self.root, ignore_errors=True)

    # -- jobs ---------------------------------------------------------------

    def run_job(self, spec: Dict, timeout_s: float) -> SvcJob:
        """Submit ``spec`` and follow it to its ``end`` event."""
        client = self.client
        started = time.perf_counter()
        events: List[Dict] = []
        first_event_s = 0.0
        submit_rtt_s = 0.0
        try:
            with deadline(timeout_s):
                job_id = client.submit(spec)
                submit_rtt_s = time.perf_counter() - started
                for event in client.watch(job_id):
                    if not events:
                        first_event_s = time.perf_counter() - started
                    events.append(event)
        except (Deadline, ServiceError) as exc:
            return SvcJob(
                wall_s=time.perf_counter() - started,
                submit_rtt_s=submit_rtt_s,
                first_event_s=first_event_s,
                events_streamed=len(events),
                state="timeout" if isinstance(exc, Deadline) else "error",
                error=str(exc),
            )
        wall_s = time.perf_counter() - started
        state, detail, counters, trials_ok = "", {}, {}, True
        for event in events:
            kind = event.get("event")
            if kind == "end":
                state = event.get("state", "")
            elif kind == "state" and "detail" in event:
                detail = event["detail"]
            elif kind == "snapshot":
                counters = event["metrics"].get("counters", {})
            elif kind == "trial" and not event.get("ok", False):
                trials_ok = False
        return SvcJob(
            wall_s=wall_s,
            submit_rtt_s=submit_rtt_s,
            first_event_s=first_event_s,
            events_streamed=len(events),
            state=state,
            detail=detail,
            counters=counters,
            trials_ok=trials_ok and detail.get("failed", 0) == 0,
        )
