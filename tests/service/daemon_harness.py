"""Subprocess harness for daemon tests.

Runs ``repro serve`` as a real child process — the only honest way to
test SIGKILL survival — and wraps readiness polling, teardown, and the
blocking client.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ServiceError
from repro.service import ServiceClient

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


class DaemonHarness:
    """One ``repro serve`` child bound to one state directory."""

    def __init__(self, state_dir) -> None:
        self.state_dir = Path(state_dir)
        self.process = None
        self.client = ServiceClient(self.state_dir, timeout=120.0)

    def start(self, wait: bool = True) -> "DaemonHarness":
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--state",
            str(self.state_dir),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            f"{SRC_DIR}{os.pathsep}{env['PYTHONPATH']}"
            if env.get("PYTHONPATH")
            else str(SRC_DIR)
        )
        self.process = subprocess.Popen(
            command,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if wait:
            self.wait_ready()
        return self

    def wait_ready(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process is not None and self.process.poll() is not None:
                raise AssertionError(
                    f"daemon exited {self.process.returncode} before ready:\n"
                    f"{self.process.stdout.read()}"
                )
            try:
                self.client.ping()
                return
            except ServiceError:
                time.sleep(0.05)
        raise AssertionError(f"daemon not ready within {timeout}s")

    def kill(self) -> None:
        """SIGKILL — the crash under test, nothing graceful about it."""
        assert self.process is not None
        self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=30)

    def terminate(self) -> int:
        """SIGTERM and wait; returns the exit code."""
        assert self.process is not None
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=60)

    def stop(self) -> None:
        """Best-effort teardown for test cleanup."""
        if self.process is None or self.process.poll() is not None:
            return
        try:
            self.client.shutdown()
            self.process.wait(timeout=30)
        except (ServiceError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait(timeout=30)

    def output(self) -> str:
        assert self.process is not None and self.process.stdout is not None
        return self.process.stdout.read()
