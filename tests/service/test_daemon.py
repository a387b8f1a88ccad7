"""The daemon end to end: a real ``repro serve`` subprocess, real Unix
socket, real client — exactly what a user runs."""

import json
import socket

import pytest

from repro.cli import main
from repro.errors import ServiceError
from repro.service import ServiceClient, ServiceState
from repro.service.protocol import encode

from daemon_harness import DaemonHarness

TINY_SWEEP = {"kind": "sweep", "params": {"family": "tdown", "xs": [3.0]}}

#: A sweep to cancel after its first ``trial`` event.  Cancellation is
#: polled at each trial completion, so the job ends ``done`` if every
#: remaining trial finishes before the cancel lands.  The first trial
#: (clique-3) takes a few milliseconds; the three after it (Tdown on
#: cliques of 10, 11 and 12 at MRAI 2) take about 0.2, 0.2 and 0.8 s on a
#: 2-vCPU box: over a second of margin, hundreds of socket round trips
#: even with the sweep thread holding the GIL.  The cancel normally lands
#: during the clique-10 trial, so the test pays about 0.2 s for it.
CANCELLABLE_SWEEP = {
    "kind": "sweep",
    "params": {"family": "tdown", "xs": [3.0, 10.0, 11.0, 12.0]},
}


#: Specs whose wrongly typed or unknown field once crashed the connection
#: handler (or slipped through), each with the refusal it must now get.
MALFORMED_SPECS = [
    ({"kind": "sweep", "params": {"family": ["x"], "xs": [3]}}, "family"),
    ({"kind": "sweep", "params": {"xs": [3], "retries": "two"}}, "retries"),
    ({"kind": "sweep", "params": {"xs": [3], "retries": True}}, "retries"),
    ({"kind": "sweep", "params": {"xs": [3], "trial_timeout": "x"}}, "trial_timeout"),
    ({"kind": "sweep", "params": {"xs": [3], "trails": 4}}, "trails"),
    ({"kind": "figure", "params": {"id": ["fig4a"]}}, "unknown figure"),
]


def exchange(daemon, payload: bytes) -> bytes:
    """Send raw bytes on one connection, end the write side, and read the
    daemon's reply until it closes the connection."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30)
        sock.connect(str(daemon.client.state.require_socket()))
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.fixture
def daemon(tmp_path):
    harness = DaemonHarness(tmp_path / "state").start()
    yield harness
    harness.stop()


class TestProtocolOps:
    def test_ping_reports_version(self, daemon):
        reply = daemon.client.ping()
        assert reply["pong"] is True
        assert reply["version"]

    def test_submit_watch_and_jobs(self, daemon):
        job = daemon.client.submit(TINY_SWEEP)
        assert job == "job-1"
        events = list(daemon.client.watch(job))
        kinds = [event["event"] for event in events]
        assert "trial" in kinds and "snapshot" in kinds
        assert events[-1] == {"event": "end", "job": job, "state": "done"}

        [summary] = daemon.client.jobs()
        assert summary["job"] == job
        assert summary["state"] == "done"
        assert len(summary["detail"]["digest"]) == 64

    def test_watch_after_completion_replays_and_ends(self, daemon):
        job = daemon.client.submit(TINY_SWEEP)
        assert list(daemon.client.watch(job))[-1]["state"] == "done"
        replay = list(daemon.client.watch(job))
        assert replay[-1]["event"] == "end"
        assert any(event["event"] == "trial" for event in replay)

    def test_bad_spec_refused_at_submit(self, daemon):
        with pytest.raises(ServiceError, match="family"):
            daemon.client.submit(
                {"kind": "sweep", "params": {"family": "nope", "xs": [3]}}
            )
        assert daemon.client.jobs() == []  # nothing was queued

    def test_unknown_job_refused(self, daemon):
        with pytest.raises(ServiceError, match="unknown job"):
            list(daemon.client.watch("job-99"))
        with pytest.raises(ServiceError, match="unknown job"):
            daemon.client.cancel("job-99")

    def test_cancel_running_job(self, daemon):
        job = daemon.client.submit(CANCELLABLE_SWEEP)
        stream = daemon.client.watch(job)
        for event in stream:
            if event["event"] == "trial":
                break
        reply = daemon.client.cancel(job)
        assert reply.get("cancelling") or reply["state"] == "cancelled"
        remaining = list(stream)
        assert remaining[-1]["event"] == "end"
        assert remaining[-1]["state"] == "cancelled"
        [summary] = daemon.client.jobs()
        assert summary["state"] == "cancelled"

    def test_second_daemon_fails_fast(self, daemon, tmp_path):
        second = DaemonHarness(tmp_path / "state").start(wait=False)
        assert second.process.wait(timeout=30) != 0
        assert "already has a writer" in second.output()
        daemon.client.ping()  # the first daemon is unharmed

    def test_shutdown_op_stops_daemon(self, daemon):
        daemon.client.shutdown()
        assert daemon.process.wait(timeout=30) == 0


class TestWireRobustness:
    """Whatever a client sends, it gets a reply or a closed connection,
    and the daemon goes on answering ``ping``."""

    def test_malformed_specs_are_refused_with_a_reply(self, daemon):
        for spec, fragment in MALFORMED_SPECS:
            reply = json.loads(exchange(daemon, encode({"op": "submit", "spec": spec})))
            assert reply["ok"] is False
            assert fragment in reply["error"]
        assert daemon.client.ping()["pong"] is True
        assert daemon.client.jobs() == []
        daemon.stop()
        assert "Unhandled exception" not in daemon.output()

    @pytest.mark.parametrize(
        "frame",
        [b'{"op": "pi', b'{"op": "\xff\xfe"}\n', b"\x80\x81\n"],
        ids=["truncated-then-eof", "non-utf8-in-json", "non-utf8"],
    )
    def test_broken_frames_get_an_error_reply(self, daemon, frame):
        reply = json.loads(exchange(daemon, frame))
        assert reply["ok"] is False
        assert "malformed" in reply["error"]
        assert daemon.client.ping()["pong"] is True

    def test_watcher_disconnecting_mid_stream_leaves_the_job_running(self, daemon):
        job = daemon.client.submit(CANCELLABLE_SWEEP)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(60)
            sock.connect(str(daemon.client.state.require_socket()))
            sock.sendall(encode({"op": "watch", "job": job}))
            with sock.makefile("rb") as stream:
                assert json.loads(stream.readline())["ok"] is True
                while json.loads(stream.readline())["event"] != "trial":
                    pass
        # Gone after the first trial, with the rest of the sweep to stream.
        assert list(daemon.client.watch(job))[-1]["state"] == "done"
        [summary] = daemon.client.jobs()
        assert summary["state"] == "done" and summary["detail"]["trials"] == 4
        assert daemon.client.ping()["pong"] is True
        daemon.stop()
        assert "Traceback" not in daemon.output()


class TestCliVerbs:
    def test_submit_follow_jobs_watch_cancel(self, daemon, capsys):
        state = str(daemon.state_dir)
        code = main(
            ["submit", "--state", state, "--sweep", "tdown", "--xs", "3",
             "--follow"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "submitted job-1" in out
        assert "trial x=3 seed=0: ok" in out
        assert "job job-1 finished: done" in out

        code = main(["jobs", "--state", state])
        out = capsys.readouterr().out
        assert code == 0
        assert "job-1" in out and "done" in out

        code = main(["jobs", "--state", state, "--format", "json"])
        summaries = json.loads(capsys.readouterr().out)
        assert code == 0 and summaries[0]["job"] == "job-1"

        code = main(["watch", "--state", state, "job-1"])
        out = capsys.readouterr().out
        assert code == 0 and "finished: done" in out

    def test_cancel_verb(self, daemon, capsys):
        state = str(daemon.state_dir)
        job = daemon.client.submit(CANCELLABLE_SWEEP)
        stream = daemon.client.watch(job)
        for event in stream:
            if event["event"] == "trial":
                break
        code = main(["cancel", "--state", state, job])
        out = capsys.readouterr().out
        assert code == 0 and job in out
        assert list(stream)[-1]["state"] == "cancelled"

    def test_submit_sweep_requires_xs(self, daemon, capsys):
        code = main(
            ["submit", "--state", str(daemon.state_dir), "--sweep", "tdown"]
        )
        assert code == 2
        assert "--xs" in capsys.readouterr().err

    def test_bench_flags_are_refused(self, tmp_path):
        """The daemon runs sweeps and figures; argparse refuses the flags
        of the retired bench cycle before anything starts."""
        for argv in (
            ["submit", "--state", str(tmp_path), "--bench"],
            ["serve", "--state", str(tmp_path), "--bench-interval", "1"],
        ):
            with pytest.raises(SystemExit) as refusal:
                main(argv)
            assert refusal.value.code == 2, argv

    def test_figure_submission(self, daemon, capsys):
        state = str(daemon.state_dir)
        code = main(
            ["submit", "--state", state, "--figure", "theory", "--quick",
             "--follow"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "finished: done" in out
        artifact = ServiceState(daemon.state_dir).artifact_dir("job-1")
        assert (artifact / "theory.txt").exists()


class TestClientErrors:
    def test_no_daemon_socket(self, tmp_path):
        client = ServiceClient(tmp_path / "empty")
        with pytest.raises(ServiceError, match="repro serve"):
            client.ping()

    def test_stale_socket_refused(self, tmp_path, daemon):
        # A socket file without a listener behind it (daemon killed hard).
        state = ServiceState(tmp_path / "stale")
        state.ensure_layout()
        state.socket_path.touch()
        with pytest.raises(ServiceError, match="connect"):
            ServiceClient(tmp_path / "stale").ping()
