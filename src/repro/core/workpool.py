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
keeps one for its lifetime and hands it groups of concurrent requests
through its scheduler.

Determinism is non-negotiable: the codestream must be byte-identical for
any worker count.  Workers may *finish* groups in any order (that is the
point of dynamic scheduling), so every block carries a sequence number
and results are re-assembled into submission order before the caller
sees them.  Tier-1 itself is bit-exact against the scalar oracles
(differentially tested), so scheduling is the only ordering concern.
"""

from __future__ import annotations

import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
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


class ThreadPool:
    """Block groups on threads of the calling process.

    A library ``encode``/``decode`` with ``workers > 1`` opens one for
    the call; the encode service keeps one for its lifetime and feeds it
    through its scheduler (:meth:`submit`).  Groups carry views of the
    caller's planes: nothing is pickled or copied, and the block kernels
    release the GIL while they code.  Leaving the ``with`` block waits
    for the threads; on an error it first cancels the groups not yet
    started.
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor = ThreadPoolExecutor(workers, thread_name_prefix="tier1")
        self._lock = threading.Lock()
        self._closed = False
        self._tasks_done = 0
        #: Blocks coded per worker thread over the pool's lifetime.
        self._blocks_per_worker: dict[int, int] = {}

    def submit(self, payload, callback, error_callback) -> None:
        """Run one block group asynchronously.

        ``callback`` receives ``(seqs, thread id, results)``,
        ``error_callback`` the exception (a cancelled group's
        ``CancelledError`` too); exactly one of them runs, once, on the
        thread that finished the group.
        """
        if self._closed:
            raise RuntimeError("pool is closed")

        def done(future) -> None:
            try:
                res = future.result()
            except BaseException as exc:
                # Handed on, to be raised in the thread waiting for the
                # group: an exception escaping a done-callback is only
                # logged, and that thread would wait forever.
                error_callback(exc)
                return
            seqs, worker, _ = res
            with self._lock:
                self._tasks_done += 1
                self._blocks_per_worker[worker] = (
                    self._blocks_per_worker.get(worker, 0) + len(seqs)
                )
            callback(res)

        self._executor.submit(_group_task, payload).add_done_callback(done)

    def imap_unordered(self, payloads):
        """Yield ``(seqs, thread id, results)`` as groups finish."""
        payloads = list(payloads)
        results: queue.Queue = queue.Queue()
        for payload in payloads:
            self.submit(payload, results.put, results.put)
        for _ in payloads:
            yield next_result(results)

    def close(self, cancel: bool = False) -> None:
        """Refuse new groups and wait for the running ones (idempotent).

        ``cancel`` drops the groups not yet started.
        """
        self._closed = True
        self._executor.shutdown(wait=True, cancel_futures=cancel)

    def __enter__(self) -> "ThreadPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(cancel=exc_type is not None)

    def snapshot(self) -> dict:
        """JSON-ready view for ``/stats``."""
        with self._lock:
            return {
                "workers": self.workers,
                "closed": self._closed,
                "tasks_done": self._tasks_done,
                "blocks_per_worker": {
                    str(k): v for k, v in sorted(self._blocks_per_worker.items())
                },
            }


def next_result(results: queue.Queue):
    """Next group outcome from ``results``, raising it if it is an error."""
    item = results.get()
    if isinstance(item, BaseException):
        raise item
    return item


class CodeBlockWorkQueue:
    """Dynamic queue of block groups with deterministic reassembly.

    ``pool`` is anything with a ``workers`` count and an
    ``imap_unordered(payloads)`` yielding ``(seqs, worker id, results)`` —
    a :class:`ThreadPool` or a scheduler job of the encode service (:class:`repro.service.scheduler.SchedulerJob`).
    The queue never codes blocks itself: in-process coding is the
    caller's serial path.  Encode groups run the one block encoder,
    decode groups the one block decoder.
    """

    def __init__(self, pool) -> None:
        self.pool = pool
        self.last_stats: QueueStats | None = None

    def _run(self, op: str, items: list) -> list:
        """Cut ``items`` into groups, run them, reassemble in order."""
        runs = group_runs(len(items), self.pool.workers)
        stats = QueueStats(workers=self.pool.workers, blocks=len(items),
                           groups=len(runs))
        self.last_stats = stats
        payloads = [
            (op, tuple(run), tuple(items[i] for i in run))
            for run in runs
        ]
        results: list = [None] * len(items)
        for seqs, worker, group_results in self.pool.imap_unordered(payloads):
            for s, r in zip(seqs, group_results):
                results[s] = r
            stats.blocks_per_worker[worker] = (
                stats.blocks_per_worker.get(worker, 0) + len(seqs)
            )
        missing = sum(r is None for r in results)
        if missing:
            raise RuntimeError(f"work queue lost {missing} block results")
        return results

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
        return self._run("encode", items)

    # perfbench/tracing.py looks this name up; it goes with that reader.
    encode_plane_blocks = encode_plane_groups

    def decode_groups(self, blocks: list[tuple]) -> list[np.ndarray]:
        """Decode code blocks in groups; int32 planes in block order.

        ``blocks[i]`` is ``(data, height, width, band, msbs, num_passes)``
        — the arguments of
        :func:`repro.jpeg2000.tier1.decode_codeblock`.  Code
        blocks are as independent on decode as on encode, so the same
        dynamic queue applies, and groups carry the compressed bytes
        inline as encode groups carry coefficients.
        """
        return self._run("decode", list(blocks))
