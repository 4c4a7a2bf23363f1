"""Real multi-core work queue over Tier-1 code blocks.

This is the *executable* counterpart of the simulated SPE work queue in
:mod:`repro.cell.workqueue`: the paper's Section 3 parallelizes EBCOT
Tier-1 by treating code blocks as independent work items that idle SPEs
pull from a dynamic queue.  Code blocks really are independent — the MQ
coder state is per-block — so the same scheme works verbatim on host
cores.

One task type reaches a worker: a *block group*, a run of blocks that
carries its data inline — coefficient views for encode, compressed
bytes for decode.  Every group runs on a :class:`ThreadPool`: the
block kernels are ``ctypes`` calls, which release the GIL, so threads of
the calling process code blocks in parallel on the planes they already
share, as the paper's SPEs and PPE share one main memory.  A library
``encode``/``decode`` call opens one for the call; the encode service
keeps one for its lifetime, and its threads pull the groups of
concurrent requests lane by lane.

Determinism is non-negotiable: the codestream must be byte-identical for
any worker count.  Workers may *finish* groups in any order (that is the
point of dynamic scheduling), so encode results carry sequence numbers
and are re-assembled into submission order, and decoded blocks land in
disjoint windows of their planes.  Tier-1 itself is bit-exact against
the scalar oracles (differentially tested), so scheduling is the only
ordering concern.
"""

from __future__ import annotations

import os
import queue
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.jpeg2000.tier1 import CodeBlockResult
from repro.jpeg2000.tier1_batch import (
    encode_codeblocks_batched,
    group_shard_count,
)
from repro.jpeg2000.tier1_dec_vec import decode_codeblocks_batched

#: Code blocks below which the Tier-1 pool cannot win: per-group
#: dispatch costs more than the blocks themselves.  The value predates
#: the native block coders; DESIGN.md section 11 records where the
#: threads win now.  The encoder and the decoder read it at call time.
TIER1_AUTO_SERIAL_MIN_BLOCKS = 24


def available_cores() -> int:
    """Cores this process may run on (its CPU affinity where known)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def default_workers() -> int:
    """Worker count used for ``workers=None``: one per available core."""
    return available_cores()


def tier1_auto_workers(workers: int | None, blocks: int) -> int:
    """Clamp Tier-1 dispatch to serial where a pool cannot win.

    Returns ``1`` when the process may run on a single core or ``blocks``
    falls below :data:`TIER1_AUTO_SERIAL_MIN_BLOCKS`, otherwise
    ``workers`` resolved (``None`` means one per core).
    """
    if workers is None:
        workers = default_workers()
    if workers <= 1 or available_cores() <= 1:
        return 1
    if blocks < TIER1_AUTO_SERIAL_MIN_BLOCKS:
        return 1
    return workers


def group_runs(count: int, workers: int) -> list[range]:
    """Split ``count`` block indices into runs of consecutive blocks.

    Runs hold :func:`repro.jpeg2000.tier1_batch.group_shard_count` blocks
    each — about ``2 * workers`` runs, so the dynamic queue can still
    balance load.
    """
    shard = group_shard_count(count, workers)
    return [range(o, min(o + shard, count)) for o in range(0, count, shard)]


@dataclass
class QueueStats:
    """Observed scheduling behaviour of one :class:`CodeBlockWorkQueue` run."""

    workers: int
    blocks: int
    groups: int = 0
    #: Blocks completed per worker, keyed by the native thread id of the
    #: thread that coded them.  Uneven counts on a busy machine are the
    #: dynamic queue doing its job — the paper's Table 1 load imbalance.
    blocks_per_worker: dict[int, int] = field(default_factory=dict)


def _group_task(payload):
    """Worker entry point for every block group.

    ``payload`` is ``(op, seqs, items)``.  Decode groups run the one block
    decoder, encode groups the one block encoder, both bound when this
    module is imported: a wrapper later installed on their modules sees
    only the in-process serial calls, never a group's.  Returns the
    native id of the thread that coded the group.
    """
    op, seqs, items = payload
    worker = threading.get_native_id()
    if op == "decode":
        return seqs, worker, decode_codeblocks_batched(items)
    return seqs, worker, encode_codeblocks_batched(items)


class PoolClosed(RuntimeError):
    """Raised when a :class:`ThreadPool`, or the service owning it, is closed."""


class Lane:
    """One caller's queue of block groups on a :class:`ThreadPool`.

    Opened by :meth:`ThreadPool.job`; has what :class:`CodeBlockWorkQueue`
    needs of a pool, ``workers`` and ``imap_unordered``.  Closing it
    drops its groups not yet started.
    """

    def __init__(self, pool: "ThreadPool", priority: int) -> None:
        self.pool = pool
        self.priority = priority
        self.pending: deque = deque()
        self.results: queue.Queue = queue.Queue()
        self.last_pick = 0  # pool tick of the last group taken

    @property
    def workers(self) -> int:
        return self.pool.workers

    def imap_unordered(self, payloads):
        """Yield ``(seqs, thread id, results)`` as this lane's groups
        finish; a group's exception is raised here."""
        payloads = list(payloads)
        self.pool._enqueue(self, payloads)
        for _ in payloads:
            item = self.results.get()
            if isinstance(item, BaseException):
                raise item
            yield item

    def close(self) -> None:
        self.pool._drop(self)

    def __enter__(self) -> "Lane":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ThreadPool:
    """Block groups on threads of the calling process, pulled by lane.

    As the paper's idle SPEs pull code blocks from one dynamic queue,
    each of the ``workers`` threads loops: it takes the next group from
    the lane with the highest priority, the least recently picked lane
    among equals, codes it and hands the outcome back to that lane.  So a
    thumbnail's few groups overtake a photograph's instead of queueing
    behind them.  A library ``encode``/``decode`` with ``workers > 1``
    opens a pool for the call and runs one lane (:meth:`imap_unordered`);
    the encode service keeps one for its lifetime and opens a lane per
    request (:meth:`job`).  Groups carry views of the caller's planes:
    nothing is pickled or copied, and the block kernels release the GIL
    while they code.  Threads start with the first group, so a call the
    serial clamp keeps in process starts none.
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._cond = threading.Condition()
        self._lanes: list[Lane] = []
        self._threads: list[threading.Thread] = []
        self._closed = False
        self._tick = 0
        self._inflight = 0
        self._peak_inflight = 0
        self._groups_dispatched = 0
        self._blocks_dispatched = 0
        self._tasks_done = 0
        #: Blocks coded per worker thread over the pool's lifetime.
        self._blocks_per_worker: dict[int, int] = {}

    def job(self, priority: int = 0) -> Lane:
        """Open a lane for one request; higher ``priority`` is served first."""
        with self._cond:
            if self._closed:
                raise PoolClosed("pool is closed")
            lane = Lane(self, priority)
            self._lanes.append(lane)
            return lane

    def imap_unordered(self, payloads):
        """Yield ``(seqs, thread id, results)`` as groups finish, on a
        priority-0 lane that closes with the iteration."""
        with self.job() as lane:
            yield from lane.imap_unordered(payloads)

    def _enqueue(self, lane: Lane, payloads: list) -> None:
        with self._cond:
            if self._closed or lane not in self._lanes:
                raise PoolClosed("pool is closed" if self._closed
                                 else "lane is closed")
            lane.pending.extend(payloads)
            if not self._threads:
                self._threads = [
                    threading.Thread(target=self._work, name=f"tier1_{i}",
                                     daemon=True)
                    for i in range(self.workers)
                ]
                for thread in self._threads:
                    thread.start()
            self._cond.notify_all()

    def _drop(self, lane: Lane) -> None:
        with self._cond:
            lane.pending.clear()
            if lane in self._lanes:
                self._lanes.remove(lane)

    def _pick(self) -> Lane | None:
        """Highest priority wins; the least recently picked breaks ties."""
        best = None
        for lane in self._lanes:
            if lane.pending and (best is None or (-lane.priority, lane.last_pick)
                                 < (-best.priority, best.last_pick)):
                best = lane
        return best

    def _work(self) -> None:
        """One thread's loop: pull a group, code it, hand it to its lane."""
        worker = threading.get_native_id()
        while True:
            with self._cond:
                while (lane := self._pick()) is None:
                    if self._closed:
                        return
                    self._cond.wait()
                payload = lane.pending.popleft()
                self._tick += 1
                lane.last_pick = self._tick
                self._inflight += 1
                self._peak_inflight = max(self._peak_inflight, self._inflight)
                self._groups_dispatched += 1
                self._blocks_dispatched += len(payload[1])
            try:
                item = _group_task(payload)
            except BaseException as exc:
                # Handed on, to be raised in the thread reading the lane.
                item = exc
            with self._cond:
                self._inflight -= 1
                if not isinstance(item, BaseException):
                    self._tasks_done += 1
                    self._blocks_per_worker[worker] = (
                        self._blocks_per_worker.get(worker, 0) + len(payload[1])
                    )
            lane.results.put(item)

    def close(self, cancel: bool = False) -> None:
        """Refuse new lanes and groups and wait for the threads (idempotent).

        The threads first code the groups already queued, unless
        ``cancel``: then every open lane is dropped and fails with
        :class:`PoolClosed`, and only the groups already coding finish.
        """
        with self._cond:
            self._closed = True
            failed = self._lanes if cancel else []
            if cancel:
                for lane in failed:
                    lane.pending.clear()
                self._lanes = []
            self._cond.notify_all()
        for lane in failed:
            lane.results.put(PoolClosed("pool is closed"))
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "ThreadPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(cancel=exc_type is not None)

    def snapshot(self) -> dict:
        """JSON-ready view for ``/stats``."""
        with self._cond:
            return {
                "workers": self.workers,
                "closed": self._closed,
                "open_lanes": len(self._lanes),
                "pending_groups": sum(len(l.pending) for l in self._lanes),
                "inflight_groups": self._inflight,
                "peak_inflight_groups": self._peak_inflight,
                "groups_dispatched": self._groups_dispatched,
                "blocks_dispatched": self._blocks_dispatched,
                "tasks_done": self._tasks_done,
                "blocks_per_worker": {
                    str(k): v for k, v in sorted(self._blocks_per_worker.items())
                },
            }


class CodeBlockWorkQueue:
    """Dynamic queue of block groups.

    ``pool`` is anything with a ``workers`` count and an
    ``imap_unordered(payloads)`` yielding ``(seqs, worker id, results)`` —
    a :class:`ThreadPool` or one of its lanes (a request of the encode
    service, :meth:`ThreadPool.job`).
    The queue never codes blocks itself: in-process coding is the
    caller's serial path.  Encode groups run the one block encoder,
    decode groups the one block decoder.
    """

    def __init__(self, pool) -> None:
        self.pool = pool
        self.last_stats: QueueStats | None = None

    def _run(self, op: str, items: list):
        """Cut ``items`` into groups, run them, yield each ``(seqs,
        results)``."""
        runs = group_runs(len(items), self.pool.workers)
        stats = QueueStats(workers=self.pool.workers, blocks=len(items),
                           groups=len(runs))
        self.last_stats = stats
        payloads = [
            (op, tuple(run), tuple(items[i] for i in run))
            for run in runs
        ]
        for seqs, worker, group_results in self.pool.imap_unordered(payloads):
            stats.blocks_per_worker[worker] = (
                stats.blocks_per_worker.get(worker, 0) + len(seqs)
            )
            yield seqs, group_results

    def encode_plane_groups(
        self, planes: list[np.ndarray], blocks: list[tuple]
    ) -> list[CodeBlockResult]:
        """Encode plane-described blocks in groups; results in block order.

        ``blocks[i]`` is ``(plane index, row0, col0, height, width, band)``.
        Groups carry each block as a view of its plane, which the pool's
        threads code in place: nothing is copied.  The planes must stay
        unmodified until this returns, which it does only once every
        group is back.
        """
        items = [
            (planes[p][r0 : r0 + h, c0 : c0 + w], band)
            for p, r0, c0, h, w, band in blocks
        ]
        results: list = [None] * len(items)
        for seqs, group_results in self._run("encode", items):
            for s, r in zip(seqs, group_results):
                results[s] = r
        missing = sum(r is None for r in results)
        if missing:
            raise RuntimeError(f"work queue lost {missing} block results")
        return results

    # perfbench/tracing.py looks this name up; it goes with that reader.
    encode_plane_blocks = encode_plane_groups

    def decode_groups(self, blocks: list[tuple]) -> None:
        """Decode code blocks in groups, each into its ``dst`` view.

        ``blocks[i]`` is an item of
        :func:`repro.jpeg2000.tier1_dec_vec.decode_codeblocks_batched`.
        Groups carry the compressed bytes inline, as encode groups carry
        coefficients, and their views keep the planes alive while they
        are in flight.  Returns once every group is back.
        """
        for _ in self._run("decode", list(blocks)):
            pass
