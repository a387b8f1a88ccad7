"""A serialized work queue: the router-CPU model.

The paper configures a routing-message processing delay of U[0.1 s, 0.5 s],
two orders of magnitude above the 2 ms link delay, and notes that Ghost
Flushing's benefit degrades on large cliques because "the message containing
the latest path information is delayed by the processing of a large number of
withdrawal flushes".  That effect only exists if a node processes messages
*one at a time*; :class:`SerialProcessor` models exactly that: an M/G/1-style
single server with FIFO discipline.

Each submitted job carries its own service time (drawn by the caller, so the
randomness stays in the caller's named RNG stream).  The job's callback runs
when its service completes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from .event import EventPriority
from .scheduler import Scheduler


class SerialProcessor:
    """A single-server FIFO processing queue driven by the scheduler.

    >>> sched = Scheduler()
    >>> cpu = SerialProcessor(sched, name="router-3")
    >>> done = []
    >>> cpu.submit(0.2, lambda: done.append("a"))
    >>> cpu.submit(0.3, lambda: done.append("b"))
    >>> _ = sched.run()
    >>> done   # "a" finishes at t=0.2, "b" queues behind it until t=0.5
    ['a', 'b']
    """

    def __init__(self, scheduler: Scheduler, name: str = "processor") -> None:
        self._scheduler = scheduler
        self._name = name
        self._job_name = f"{name}:job"
        self._queue: Deque[Tuple[float, Callable[[], None], bool]] = deque()
        self._busy = False
        self._jobs_completed = 0
        self._jobs_dropped = 0
        self._busy_until = 0.0
        self._substantive_queued = 0
        self._current_event = None
        # The in-service job's callback, run by :meth:`_finish`.
        self._on_done: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while a job is in service."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Number of jobs waiting (not counting the one in service)."""
        return len(self._queue)

    @property
    def jobs_completed(self) -> int:
        """Total jobs whose service has finished."""
        return self._jobs_completed

    # ------------------------------------------------------------------

    def submit(
        self,
        service_time: float,
        on_done: Callable[[], None],
        housekeeping: bool = False,
    ) -> None:
        """Enqueue a job that takes ``service_time`` seconds of CPU.

        ``on_done`` runs at the simulated instant the service completes.
        ``housekeeping`` jobs (keepalive processing) do not block the
        scheduler's quiescence detection; if substantive work queues behind
        a housekeeping job already in service, the in-service completion
        event is upgraded so the chain that releases the substantive job
        stays quiescence-blocking.
        """
        if service_time < 0:
            raise ValueError(f"negative service time {service_time}")
        self._queue.append((service_time, on_done, housekeeping))
        if not housekeeping:
            self._substantive_queued += 1
            if self._current_event is not None:
                self._current_event.mark_substantive()
        if not self._busy:
            self._start_next()

    def clear(self) -> int:
        """Drop every queued job and abort the one in service (router crash).

        Returns the number of jobs destroyed.  The processor is immediately
        ready to accept new work.
        """
        dropped = len(self._queue) + (1 if self._busy else 0)
        self._queue.clear()
        self._substantive_queued = 0
        if self._current_event is not None:
            self._current_event.cancel()
            self._current_event = None
        self._on_done = None
        self._busy = False
        self._busy_until = 0.0
        self._jobs_dropped += dropped
        return dropped

    @property
    def jobs_dropped(self) -> int:
        """Jobs destroyed by :meth:`clear` (crashes) over the node's life."""
        return self._jobs_dropped

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            self._current_event = None
            return
        self._busy = True
        service_time, on_done, housekeeping = self._queue.popleft()
        if not housekeeping:
            self._substantive_queued -= 1
        self._busy_until = self._scheduler.now + service_time
        self._on_done = on_done
        # The completion event only counts as housekeeping when nothing
        # substantive is waiting behind this job — it is the event that
        # starts the next service slot.
        self._current_event = self._scheduler.call_after(
            service_time,
            self._finish,
            priority=EventPriority.PROCESSING,
            name=self._job_name,
            housekeeping=housekeeping and self._substantive_queued == 0,
        )

    def _finish(self) -> None:
        """Completion event of the in-service job."""
        self._jobs_completed += 1
        self._current_event = None
        on_done, self._on_done = self._on_done, None
        # Run the job body before starting the next service slot so a job's
        # side effects (e.g. enqueueing replies) see a consistent clock, then
        # immediately begin the next queued job.
        on_done()
        self._start_next()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SerialProcessor {self._name!r} busy={self._busy} "
            f"queued={len(self._queue)} done={self._jobs_completed}>"
        )
