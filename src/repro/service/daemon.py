"""The always-on sweep service daemon.

One asyncio process per state directory:

* a Unix-domain-socket server speaking the newline-delimited JSON
  protocol (:mod:`repro.service.protocol`), one request per connection;
* a single serial job worker — jobs run one at a time, in submission
  order, on a thread (``asyncio.to_thread``) so the socket stays
  responsive while a sweep grinds; parallelism belongs *inside* a job
  (its ``jobs``/``policy`` sweep settings), not across jobs, because two
  concurrent sweeps would fight for the same cores and wreck both their
  benchmark numbers;
* an :class:`~repro.service.events.EventBus` fanning per-trial progress,
  metrics snapshots, and lifecycle events out to ``watch`` subscribers.

Durability invariants:

* **submission is durable before it is acknowledged** — the queue fsyncs
  the submit record before the client sees ``{"ok": true}``;
* **a SIGKILLed daemon loses no finished trial** — trial journals fsync
  per record; on restart, replay re-queues every non-terminal job (with
  ``detail.resumed = true``) and re-execution skips journaled trials;
* **a polite shutdown (SIGTERM/SIGINT/``shutdown`` op) interrupts the
  running job cooperatively** — the job checkpoints its journal and goes
  back to ``queued`` (``detail.interrupted = true``), not ``cancelled``;
* **one daemon per state directory** — a ``flock`` on ``daemon.lock``
  makes a second daemon fail fast instead of double-running the queue;
* **damage is reported, not hidden** — when the queue's replay skipped a
  corrupt record or a torn tail, its tally is printed once at startup.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Dict, Optional, Set

from .. import __version__
from ..errors import ReproError, ServiceError
from .events import EventBus, end_event, state_event
from .executor import execute_job
from .jobs import CANCELLED, QUEUED, RUNNING, JobSpec, validate_spec
from .protocol import MAX_LINE, encode, error, ok, parse_request
from .queue import DurableJobQueue
from .state import ServiceState


class ServiceDaemon:
    """One service instance bound to one state directory."""

    def __init__(self, state_dir) -> None:
        self.state = ServiceState(state_dir)
        self.queue: Optional[DurableJobQueue] = None
        self.bus: Optional[EventBus] = None
        self._pending: Optional[asyncio.Queue] = None
        self._stop: Optional[asyncio.Event] = None
        self._stopping = False
        self._cancelled: Set[str] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def run(self) -> None:
        """Serve until a shutdown request or signal arrives."""
        loop = asyncio.get_running_loop()
        self.state.ensure_layout()
        lock = self.state.daemon_lock()
        lock.acquire()  # JournalError when another daemon owns the state dir
        server = None
        worker = None
        try:
            self.queue = DurableJobQueue(self.state.queue_path)
            if not self.queue.recovery.clean:
                print(
                    f"{self.state.queue_path}: {self.queue.recovery.render('job')}",
                    flush=True,
                )
            self.bus = EventBus(loop)
            self._pending = asyncio.Queue()
            self._stop = asyncio.Event()
            self._stopping = False
            self._replay()
            if self.state.socket_path.exists():
                # We hold the daemon lock, so any existing socket is a
                # leftover from a killed daemon — safe to clear.
                self.state.socket_path.unlink()
            server = await asyncio.start_unix_server(
                self._handle_connection,
                path=str(self.state.socket_path),
                limit=MAX_LINE,
            )
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
            worker = asyncio.create_task(self._worker())
            await self._stop.wait()
        finally:
            self._stopping = True
            if server is not None:
                server.close()
                await server.wait_closed()
            if worker is not None and self._pending is not None:
                # Sentinel unblocks an idle worker; a busy worker sees
                # _stopping via should_cancel and re-queues its job.
                self._pending.put_nowait(None)
                await worker
            if self.state.socket_path.exists():
                self.state.socket_path.unlink()
            if self.queue is not None:
                self.queue.compact()
                self.queue.close()
                self.queue = None
            lock.release()

    def request_shutdown(self) -> None:
        """Ask the daemon to stop (signal handler / ``shutdown`` op)."""
        self._stopping = True
        if self._stop is not None:
            self._stop.set()

    def _replay(self) -> None:
        """Re-queue every non-terminal job found in the durable queue.

        A job that was ``running`` when the previous daemon died goes
        back to ``queued`` with ``detail.resumed = true``; its trial
        journal makes re-execution a resume, not a restart.
        """
        assert self.queue is not None and self._pending is not None
        for view in self.queue.pending():
            if view.state == RUNNING:
                self.queue.transition(
                    view.job_id, QUEUED, {"resumed": True}
                )
            self._pending.put_nowait(view.job_id)

    # ------------------------------------------------------------------
    # Job worker
    # ------------------------------------------------------------------

    def _should_cancel(self, job_id: str) -> bool:
        return self._stopping or job_id in self._cancelled

    async def _worker(self) -> None:
        assert (
            self.queue is not None
            and self.bus is not None
            and self._pending is not None
        )
        while True:
            job_id = await self._pending.get()
            if job_id is None:
                return
            try:
                view = self.queue.get(job_id)
            except ServiceError:  # pragma: no cover - compacted away
                continue
            if view.state != QUEUED:
                continue  # cancelled while waiting in line
            self.queue.transition(job_id, RUNNING)
            self.bus.publish(state_event(job_id, RUNNING))
            outcome = await asyncio.to_thread(
                execute_job,
                view,
                self.state,
                self.bus.publish,
                lambda: self._should_cancel(job_id),
            )
            interrupted = (
                outcome.state == CANCELLED
                and self._stopping
                and job_id not in self._cancelled
            )
            self._cancelled.discard(job_id)
            if interrupted:
                # Shutdown, not user cancellation: back to the queue so
                # the next daemon resumes from the journal checkpoint.
                self.queue.transition(job_id, QUEUED, {"interrupted": True})
                self.bus.publish(
                    state_event(job_id, QUEUED, {"interrupted": True})
                )
            else:
                self.queue.transition(job_id, outcome.state, outcome.detail)
                self.bus.publish(
                    state_event(job_id, outcome.state, outcome.detail)
                )
                self.bus.publish(end_event(job_id, outcome.state))
            if self._stopping:
                return

    # ------------------------------------------------------------------
    # Protocol server
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                line = await reader.readline()
                if not line:
                    return
                request = parse_request(line)
            except (ServiceError, asyncio.LimitOverrunError, ValueError) as exc:
                writer.write(encode(error(str(exc))))
                await writer.drain()
                return
            try:
                await self._dispatch(request, writer)
            except ReproError as exc:
                writer.write(encode(error(str(exc))))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass  # watcher went away mid-stream; nothing to clean up
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, request: Dict, writer) -> None:
        assert (
            self.queue is not None
            and self.bus is not None
            and self._pending is not None
        )
        op = request["op"]
        if op == "ping":
            writer.write(
                encode(ok(pong=True, version=__version__))
            )
            await writer.drain()
        elif op == "submit":
            spec = JobSpec.from_json(request["spec"])
            validate_spec(spec)
            view = self.queue.submit(spec)
            self.bus.publish(state_event(view.job_id, QUEUED))
            self._pending.put_nowait(view.job_id)
            writer.write(encode(ok(job=view.job_id, state=view.state)))
            await writer.drain()
        elif op == "jobs":
            writer.write(
                encode(
                    ok(jobs=[view.summary() for view in self.queue.jobs()])
                )
            )
            await writer.drain()
        elif op == "cancel":
            await self._op_cancel(request["job"], writer)
        elif op == "watch":
            await self._op_watch(request["job"], writer)
        elif op == "shutdown":
            writer.write(encode(ok(stopping=True)))
            await writer.drain()
            self.request_shutdown()

    async def _op_cancel(self, job_id: str, writer) -> None:
        assert self.queue is not None and self.bus is not None
        view = self.queue.get(job_id)
        if view.terminal:
            writer.write(
                encode(error(f"job {job_id} already {view.state}"))
            )
            await writer.drain()
            return
        if view.state == QUEUED:
            self.queue.transition(job_id, CANCELLED)
            self.bus.publish(state_event(job_id, CANCELLED))
            self.bus.publish(end_event(job_id, CANCELLED))
            writer.write(encode(ok(job=job_id, state=CANCELLED)))
        else:  # running: cooperative, takes effect at next trial boundary
            self._cancelled.add(job_id)
            writer.write(encode(ok(job=job_id, state=RUNNING, cancelling=True)))
        await writer.drain()

    async def _op_watch(self, job_id: str, writer) -> None:
        assert self.queue is not None and self.bus is not None
        view = self.queue.get(job_id)  # raises for unknown jobs
        subscription = self.bus.subscribe(job_id)
        try:
            writer.write(encode(ok(job=job_id, state=view.state)))
            await writer.drain()
            if view.terminal:
                # Replay whatever history survives, then close the stream.
                while not subscription.empty():
                    event = subscription.get_nowait()
                    if event.get("job") != job_id:
                        continue
                    if event.get("event") == "end":
                        continue
                    writer.write(encode(event))
                writer.write(encode(end_event(job_id, view.state)))
                await writer.drain()
                return
            while True:
                event = await self._next_event(subscription)
                if event is None:
                    # Daemon shutting down: close the stream politely so
                    # ``server.wait_closed()`` cannot hang on us.
                    current = self.queue.get(job_id)
                    writer.write(encode(end_event(job_id, current.state)))
                    await writer.drain()
                    return
                if event.get("job") != job_id:
                    continue
                writer.write(encode(event))
                await writer.drain()
                if event.get("event") == "end":
                    return
        finally:
            self.bus.unsubscribe(subscription)

    async def _next_event(self, subscription: asyncio.Queue) -> Optional[Dict]:
        """The next bus event, or ``None`` once shutdown is requested."""
        assert self._stop is not None
        get_task = asyncio.ensure_future(subscription.get())
        stop_task = asyncio.ensure_future(self._stop.wait())
        done, pending = await asyncio.wait(
            {get_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        if get_task in done:
            return get_task.result()
        return None


def serve(state_dir) -> None:
    """Run a daemon in the foreground until signalled to stop."""
    asyncio.run(ServiceDaemon(state_dir).run())
