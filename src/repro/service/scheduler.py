"""Fair group-level scheduler multiplexing concurrent requests onto one pool.

The paper's PPE keeps a single dynamic queue of code blocks that idle SPEs
pull from.  A server gets the same structure one level up: many requests
are in flight at once, each contributing an independent batch of block
groups (encode or decode), and all of them share one
:class:`repro.core.workpool.WorkerPool`.  Simply letting each request dump
its whole batch into the pool would serialize requests
(multiprocessing's internal task queue is FIFO), so the first large
image would starve everything behind it.

Instead each request gets a *lane*; a dispatcher thread drains lanes one
block group at a time — highest priority first, round-robin within a
priority class — and keeps at most ``2 * workers`` groups in flight
inside the pool so the interleaving decision stays here, not in the
pool's FIFO.  That is group-level fair scheduling: a thumbnail's few
groups overtake a photograph's instead of queueing behind them.  The
group size (about ``2 * workers`` groups per request, see
:func:`repro.core.workpool.group_runs`) trades one request's latency
against throughput.

Determinism: results are keyed by their per-request sequence numbers and
reassembled in submission order by :class:`CodeBlockWorkQueue`, so the
output of every request is byte-identical to an offline ``encode()`` or
``decode()`` no matter how lanes interleave.
"""

from __future__ import annotations

import queue
import threading
from collections import deque

from repro.core.workpool import WorkerPool


class SchedulerClosed(RuntimeError):
    """Raised to jobs still waiting when the scheduler shuts down."""


class _Lane:
    """Per-job pending deque + completion queue."""

    __slots__ = ("job_id", "priority", "pending", "results", "last_pick")

    def __init__(self, job_id: int, priority: int) -> None:
        self.job_id = job_id
        self.priority = priority
        self.pending: deque = deque()
        self.results: queue.Queue = queue.Queue()
        self.last_pick = 0  # dispatcher tick of the last group taken


class SchedulerJob:
    """One request's handle; doubles as the pool of its work queue.

    Implements what :class:`repro.core.workpool.CodeBlockWorkQueue` needs
    of a pool (``workers`` + ``imap_unordered``), so the offline encoder
    and decoder route their block groups through the scheduler without
    knowing it exists.
    """

    def __init__(self, scheduler: "EncodeScheduler", lane: _Lane) -> None:
        self._scheduler = scheduler
        self._lane = lane

    @property
    def workers(self) -> int:
        return self._scheduler.pool.workers

    @property
    def priority(self) -> int:
        return self._lane.priority

    def imap_unordered(self, payloads):
        """Yield ``(seqs, pid, results)`` for this job's groups as they finish."""
        payloads = list(payloads)
        self._scheduler._enqueue(self._lane, payloads)
        for _ in range(len(payloads)):
            yield self._scheduler.pool.wait(self._lane.results)

    def close(self) -> None:
        self._scheduler._remove_lane(self._lane)

    def __enter__(self) -> "SchedulerJob":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class EncodeScheduler:
    """Bounded, priority-aware dispatcher over a shared worker pool.

    Parameters
    ----------
    pool:
        The shared :class:`repro.core.workpool.WorkerPool`.
    max_inflight:
        Maximum groups handed to the pool but not yet completed.  Small
        values maximize fairness (the dispatcher re-decides after every
        group); the default ``2 * workers`` keeps every worker busy while
        leaving at most one group per worker queued inside the pool.
    """

    def __init__(self, pool: WorkerPool, max_inflight: int | None = None) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.pool = pool
        self.max_inflight = max_inflight or 2 * pool.workers
        self._cond = threading.Condition()
        self._lanes: dict[int, _Lane] = {}
        self._next_job_id = 0
        self._tick = 0
        self._inflight = 0
        self._peak_inflight = 0
        self._groups_dispatched = 0
        self._blocks_dispatched = 0
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="encode-scheduler", daemon=True
        )
        self._dispatcher.start()

    # -- job registration --------------------------------------------------

    def job(self, priority: int = 0) -> SchedulerJob:
        """Open a lane for one request.  Higher ``priority`` is served first."""
        with self._cond:
            if self._closed:
                raise SchedulerClosed("scheduler is closed")
            lane = _Lane(self._next_job_id, priority)
            self._next_job_id += 1
            self._lanes[lane.job_id] = lane
            return SchedulerJob(self, lane)

    def _enqueue(self, lane: _Lane, payloads) -> None:
        with self._cond:
            if self._closed:
                raise SchedulerClosed("scheduler is closed")
            lane.pending.extend(payloads)
            self._cond.notify_all()

    def _remove_lane(self, lane: _Lane) -> None:
        with self._cond:
            self._lanes.pop(lane.job_id, None)

    # -- dispatch ----------------------------------------------------------

    def _pick_lane(self) -> _Lane | None:
        """Highest priority wins; least-recently-picked breaks ties."""
        best = None
        for lane in self._lanes.values():
            if not lane.pending:
                continue
            if best is None or (-lane.priority, lane.last_pick) < (
                -best.priority, best.last_pick
            ):
                best = lane
        return best

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._closed:
                    if self._inflight < self.max_inflight and self._pick_lane():
                        break
                    self._cond.wait()
                if self._closed:
                    return
                lane = self._pick_lane()
                payload = lane.pending.popleft()
                self._tick += 1
                lane.last_pick = self._tick
                self._inflight += 1
                self._peak_inflight = max(self._peak_inflight, self._inflight)
                self._groups_dispatched += 1
                self._blocks_dispatched += len(payload[1])
            try:
                self.pool.submit(
                    payload,
                    callback=lambda res, _lane=lane: self._settle(_lane, res),
                    error_callback=lambda exc, _lane=lane: self._settle(
                        _lane, exc
                    ),
                )
            except Exception as exc:  # pool closed/broken mid-dispatch
                self._settle(lane, exc)

    def _settle(self, lane: _Lane, item) -> None:
        """Hand a group's result (or exception) to its lane."""
        # Runs on the pool's result-handler thread, or on the request
        # thread that noticed a dead worker.
        lane.results.put(item)
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    # -- lifecycle / observability ----------------------------------------

    def close(self) -> None:
        """Stop dispatching; fail any lane still waiting (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            lanes = list(self._lanes.values())
            self._lanes.clear()
            self._cond.notify_all()
        for lane in lanes:
            lane.results.put(SchedulerClosed("scheduler shut down"))
        self._dispatcher.join(timeout=10.0)

    def snapshot(self) -> dict:
        """JSON-ready view for ``/stats``."""
        with self._cond:
            return {
                "open_lanes": len(self._lanes),
                "pending_groups": sum(
                    len(l.pending) for l in self._lanes.values()
                ),
                "inflight_groups": self._inflight,
                "peak_inflight_groups": self._peak_inflight,
                "groups_dispatched": self._groups_dispatched,
                "blocks_dispatched": self._blocks_dispatched,
                "max_inflight": self.max_inflight,
                "closed": self._closed,
            }
