"""Module-level fault-injecting scenario factories for resilience tests.

The parallel executors require picklable factories, so every chaos
injector here is a module-level function meant to be bound with
``functools.partial`` (picklable for module-level targets).  Injectors
coordinate across worker processes through marker files in a
test-provided directory: "fail once" means *write the marker, then
misbehave*, so the retried attempt sees the marker and sails through.

These run inside sacrificial worker processes — ``os.kill(os.getpid(),
SIGKILL)`` and ``time.sleep`` are the whole point, and none of this code
is importable from the library side.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import List, Tuple

from repro.experiments.scenarios import clique_tdown_trial, tdown_clique


def _marker(marker_dir: str, kind: str, x: float, seed: int) -> Path:
    return Path(marker_dir) / f"{kind}-{x:g}-{seed}"


def kill_once_tdown(x, seed, marker_dir="", kill_key=None):
    """SIGKILL the worker on the first attempt of ``kill_key`` (or of
    every trial when ``kill_key`` is None); build normally afterwards."""
    if kill_key is None or (int(x), seed) == tuple(kill_key):
        marker = _marker(marker_dir, "kill", x, seed)
        if not marker.exists():
            marker.write_text("killed", encoding="utf-8")
            os.kill(os.getpid(), signal.SIGKILL)
    return tdown_clique(int(x))


def kill_always_tdown(x, seed):
    """SIGKILL the worker on *every* attempt — exhausts any retry budget."""
    os.kill(os.getpid(), signal.SIGKILL)
    return tdown_clique(int(x))  # pragma: no cover - never reached


def hang_once_tdown(x, seed, marker_dir="", hang_key=None, sleep_s=60.0):
    """Hang the first attempt of ``hang_key`` (or of every trial when
    ``hang_key`` is None) long enough for the watchdog to kill it."""
    if hang_key is None or (int(x), seed) == tuple(hang_key):
        marker = _marker(marker_dir, "hang", x, seed)
        if not marker.exists():
            marker.write_text("hung", encoding="utf-8")
            time.sleep(sleep_s)
    return tdown_clique(int(x))


def hang_always_tdown(x, seed, sleep_s=60.0):
    """Hang every attempt — exhausts any retry budget via timeouts."""
    time.sleep(sleep_s)
    return tdown_clique(int(x))  # pragma: no cover - never reached


def chaotic_tdown(x, seed, marker_dir="", kill_key=(3, 0), hang_key=(4, 1), sleep_s=60.0):
    """The acceptance scenario: one trial loses its worker to SIGKILL and
    one trial hangs past the watchdog, each exactly once."""
    key = (int(x), seed)
    if key == tuple(kill_key):
        marker = _marker(marker_dir, "kill", x, seed)
        if not marker.exists():
            marker.write_text("killed", encoding="utf-8")
            os.kill(os.getpid(), signal.SIGKILL)
    if key == tuple(hang_key):
        marker = _marker(marker_dir, "hang", x, seed)
        if not marker.exists():
            marker.write_text("hung", encoding="utf-8")
            time.sleep(sleep_s)
    return tdown_clique(int(x))


def logged(x, seed, log_dir="", delay_s=0.0, inner=clique_tdown_trial):
    """Append ``pid x seed`` to ``<log_dir>/trials.log`` (one short
    ``O_APPEND`` write, so concurrent workers never interleave), stall
    ``delay_s`` — widening the window in which a test can ``kill -9`` the
    worker or the driver — then build through ``inner``, any factory
    above bound with ``functools.partial``.  The log is how a test learns
    which worker process executed which trial, and in what order."""
    with open(Path(log_dir) / "trials.log", "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()} {x:g} {seed}\n")
    time.sleep(delay_s)
    return inner(x, seed)


def trial_log(log_dir) -> List[Tuple[int, int, int]]:
    """The ``(pid, x, seed)`` entries :func:`logged` wrote, oldest first."""
    path = Path(log_dir) / "trials.log"
    if not path.exists():
        return []
    return [
        tuple(int(field) for field in line.split())
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


def process_alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper is not alive)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return False
    return stat.rsplit(")", 1)[-1].split()[0] != "Z"
