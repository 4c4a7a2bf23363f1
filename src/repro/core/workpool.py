"""Real multi-core work queue over Tier-1 code blocks.

This is the *executable* counterpart of the simulated SPE work queue in
:mod:`repro.cell.workqueue`: the paper's Section 3 parallelizes EBCOT
Tier-1 by treating code blocks as independent work items that idle SPEs
pull from a dynamic queue.  Code blocks really are independent — the MQ
coder state is per-block — so the same scheme works verbatim on host
cores.

One task type reaches a worker: a *block group*, a run of blocks that
carries its data inline — coefficient views for encode, compressed
bytes for decode.  A library ``encode``/``decode`` call runs its groups
on a :class:`ThreadPool` that lives for the call: the block kernels are
``ctypes`` calls, which release the GIL, so threads of the calling
process code blocks in parallel on the planes they already share, as
the paper's SPEs and PPE share one main memory.  The encode service
keeps one :class:`WorkerPool` of processes alive across requests
instead: it needs crash isolation and runs whole small images in
Python; there each group is pickled, so each block's samples cross to
exactly one worker, once, as a block's coefficients reach one SPE by DMA.

Determinism is non-negotiable: the codestream must be byte-identical for
any worker count.  Workers may *finish* groups in any order (that is the
point of dynamic scheduling), so every block carries a sequence number
and results are re-assembled into submission order before the caller
sees them.  Tier-1 itself is bit-exact against the scalar oracles
(differentially tested), so scheduling is the only ordering concern.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
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
#: the native block coders; DESIGN.md section 11 records where each pool
#: wins now.  The encoder, the decoder and the service's
#: micro-batcher read it at call time.
TIER1_AUTO_SERIAL_MIN_BLOCKS = 24

#: Seconds a liveness ping may take before the pool is declared dead.
PING_TIMEOUT_S = 10.0

#: Seconds a caller waits for a group result before checking whether a
#: worker died (a SIGKILLed worker's group never completes).
LOST_WORKER_POLL_S = 0.2


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
    #: thread that coded them (a pool process's pid for a
    #: :class:`WorkerPool`, whose groups run on its main thread).  Uneven
    #: counts on a busy machine are the dynamic queue doing its job — the
    #: paper's Table 1 load imbalance.
    blocks_per_worker: dict[int, int] = field(default_factory=dict)


def _group_task(payload):
    """Worker entry point for every block group; module-level for spawn.

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


def _ping_task(i: int) -> int:
    """Trivial worker task used for warm-up and health checks."""
    return os.getpid()


def _abandon(process_pool) -> None:
    """Tear down a possibly-wedged ``multiprocessing.Pool`` without joining.

    A worker SIGKILLed mid-queue-operation leaves the pool's shared queue
    locks held forever, so ``Pool.terminate()`` (which puts a sentinel on
    those queues and joins helper threads) can deadlock — observed on
    CPython 3.11.  Kill the worker processes directly, then run the
    built-in teardown on a daemon thread: it cleans up when the locks are
    free and merely leaks one parked thread when they are not.
    """
    for proc in list(getattr(process_pool, "_pool", None) or []):
        try:
            proc.kill()
        except Exception:
            pass
    threading.Thread(
        target=process_pool.terminate, name="pool-reaper", daemon=True
    ).start()


class WorkerLost(RuntimeError):
    """A pool worker died while groups were outstanding; they are lost."""


def _fail(lost: dict) -> None:
    """Fail the groups a respawn lost (no pool lock held)."""
    for error_callback in lost.values():
        error_callback(WorkerLost("a pool worker died; its work was lost"))


@dataclass
class PoolStats:
    """Lifetime counters of one :class:`WorkerPool`."""

    #: Tasks (block groups and micro-batches) completed.
    tasks_done: int = 0
    respawns: int = 0
    #: Blocks completed per worker pid across the pool's whole lifetime.
    blocks_per_worker: dict[int, int] = field(default_factory=dict)


class ThreadPool:
    """Block groups on threads of the calling process, for one library call.

    ``encode``/``decode`` with ``workers > 1`` open one and close it on
    return.  Groups carry views of the caller's planes: nothing is
    pickled or copied, and the block kernels release the GIL while they
    code.  Leaving the ``with`` block waits for the threads; on an error
    it first cancels the groups not yet started.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = default_workers() if workers is None else workers
        self._executor = ThreadPoolExecutor(self.workers,
                                            thread_name_prefix="tier1")

    def imap_unordered(self, payloads):
        """Yield ``(seqs, thread id, results)`` as groups finish."""
        futures = [self._executor.submit(_group_task, p) for p in payloads]
        for future in as_completed(futures):
            yield future.result()

    def __enter__(self) -> "ThreadPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._executor.shutdown(wait=True, cancel_futures=exc_type is not None)


class WorkerPool:
    """The encode service's process pool for Tier-1 groups and batches.

    The service keeps one alive across requests (the paper's SPEs,
    loaded once, pulling work forever): a worker that crashes costs one
    request a :class:`WorkerLost`, not the server, and the micro-batches
    of whole small images it runs (:meth:`run`) are Python that only
    processes run in parallel.  Library calls use a :class:`ThreadPool`.
    Processes start on first use, or at construction with ``warmup=True``,
    which also waits until every worker has answered a ping so the first
    real request does not pay process start-up latency.

    A SIGKILLed worker's group never completes and may wedge the pool's
    task queue, so callers waiting on results (:meth:`wait`) poll
    :meth:`check_workers`: a dead worker fails every outstanding group
    with :class:`WorkerLost` and the pool respawns.

    Release the pool with :meth:`close` after a clean run and
    :meth:`terminate` on error (both idempotent; the context-manager form
    picks one).
    """

    def __init__(self, workers: int | None = None, warmup: bool = False) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._warmup = warmup
        self._lock = threading.Lock()
        self._pool = None
        self._procs: list = []
        #: Submitted, unsettled groups: token -> error callback.
        self._outstanding: dict[int, object] = {}
        self._next_token = 0
        self._closed = False
        self.stats = PoolStats()
        if warmup:
            with self._lock:
                self._start()

    # -- lifecycle ---------------------------------------------------------

    def _start(self) -> None:
        """Fork the workers (caller holds the lock)."""
        self._pool = multiprocessing.get_context().Pool(processes=self.workers)
        self._procs = list(self._pool._pool)
        if self._warmup:
            self.warm_up()

    def warm_up(self) -> list[int]:
        """Run a round of pings through the pool; returns the worker pids."""
        # One round of pings per worker warms whichever processes answer;
        # nothing makes every worker take one (a fast worker can answer
        # them all), so the live set is read from the processes themselves.
        self._pool.map(_ping_task, range(self.workers * 2), chunksize=1)
        return sorted(proc.pid for proc in self._procs)

    def ping(self, timeout: float = PING_TIMEOUT_S) -> bool:
        """True if the running pool answers a trivial task within ``timeout``."""
        pool = self._pool
        if pool is None or self._closed:
            return False
        try:
            pool.apply_async(_ping_task, (0,)).get(timeout=timeout)
            return True
        except Exception:
            return False

    def _worker_died(self) -> bool:
        return any(proc.exitcode is not None for proc in self._procs)

    def ensure_healthy(self, timeout: float = PING_TIMEOUT_S) -> bool:
        """Respawn the pool if a worker died or it stopped answering pings.

        Returns True if a respawn happened.
        """
        if not self._worker_died() and self.ping(timeout=timeout):
            return False
        self.respawn()
        return True

    def check_workers(self) -> None:
        """Respawn if a worker died; its group (maybe others) is lost."""
        with self._lock:
            if self._closed or self._pool is None or not self._worker_died():
                return
            lost = self._respawn_locked()
        _fail(lost)

    def respawn(self) -> None:
        """Abandon the current worker set and start a fresh one.

        The old pool is presumed wedged and never joined (see
        :func:`_abandon`); every outstanding group fails with
        :class:`WorkerLost`.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            lost = self._respawn_locked()
        _fail(lost)

    def _respawn_locked(self) -> dict:
        lost, self._outstanding = self._outstanding, {}
        if self._pool is not None:
            _abandon(self._pool)
            self._pool = None
        self.stats.respawns += 1
        self._start()
        return lost

    def _live(self):
        """The running pool and the groups lost getting it (lock held).

        Starts the workers on first use, and respawns them if one died
        since the last call — so work submitted after a worker's death
        never waits on a pool it may have wedged.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        lost: dict = {}
        if self._pool is None:
            self._start()
        elif self._worker_died():
            lost = self._respawn_locked()
        return self._pool, lost

    def close(self) -> None:
        """Drain outstanding tasks and stop the workers (idempotent).

        A pool that lost a worker may hold a group that never completes,
        and a wedged one (e.g. a worker SIGKILLed while holding the shared
        task-queue lock) cannot drain; rather than hang the shutdown path,
        abandon either.
        """
        responsive = not self._worker_died() and self.ping(timeout=PING_TIMEOUT_S)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._pool is not None:
                if responsive:
                    self._pool.close()
                    self._pool.join()
                else:
                    _abandon(self._pool)
                self._pool = None

    def terminate(self) -> None:
        """Kill the workers without draining (idempotent).

        Uses the abandon path unconditionally: terminate is the abort
        handler, and joining a pool that might be wedged trades a fast
        exit for a potential deadlock.
        """
        with self._lock:
            self._closed = True
            if self._pool is not None:
                _abandon(self._pool)
                self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    # -- work submission ---------------------------------------------------

    def submit(self, payload, callback, error_callback) -> None:
        """Run one block group asynchronously.

        ``callback`` receives ``(seqs, pid, results)``; ``error_callback``
        the exception.  Either runs on the pool's result-handler thread —
        or on the thread that notices a dead worker — exactly once.
        """
        with self._lock:
            pool, lost = self._live()
            token = self._next_token
            self._next_token += 1
            self._outstanding[token] = error_callback
        _fail(lost)

        def done(res) -> None:
            if self._settle(token, res):
                callback(res)

        def failed(exc) -> None:
            if self._settle(token):
                error_callback(exc)

        try:
            pool.apply_async(
                _group_task, (payload,), callback=done, error_callback=failed
            )
        except Exception as exc:  # pool torn down by a concurrent respawn
            failed(exc)

    def _settle(self, token: int, res=None) -> bool:
        """Retire ``token``; False if a respawn already failed it."""
        with self._lock:
            if self._outstanding.pop(token, None) is None:
                return False
            if res is not None:
                seqs, pid, _ = res
                self.stats.tasks_done += 1
                self.stats.blocks_per_worker[pid] = (
                    self.stats.blocks_per_worker.get(pid, 0) + len(seqs)
                )
            return True

    def wait(self, results: queue.Queue):
        """Next item of ``results``, raising it if it is an exception.

        Polls :meth:`check_workers` while waiting, so a dead worker turns
        into :class:`WorkerLost` instead of a hang.
        """
        while True:
            try:
                item = results.get(timeout=LOST_WORKER_POLL_S)
            except queue.Empty:
                self.check_workers()
                continue
            if isinstance(item, BaseException):
                raise item
            return item

    def imap_unordered(self, payloads):
        """Yield ``(seqs, pid, results)`` as groups finish."""
        payloads = list(payloads)
        results: queue.Queue = queue.Queue()
        for payload in payloads:
            self.submit(payload, results.put, results.put)
        for _ in payloads:
            yield self.wait(results)

    def run(self, fn, arg, timeout: float | None = None):
        """Run ``fn(arg)`` on one worker and return its result (blocking).

        The service's micro-batches of whole small images use this; Tier-1
        work goes through :meth:`submit`.
        """
        with self._lock:
            pool, lost = self._live()
        _fail(lost)
        result = pool.apply_async(fn, (arg,)).get(timeout=timeout)
        with self._lock:
            self.stats.tasks_done += 1
        return result

    def snapshot(self) -> dict:
        """JSON-ready view for ``/stats``."""
        with self._lock:
            return {
                "workers": self.workers,
                "closed": self._closed,
                "tasks_done": self.stats.tasks_done,
                "respawns": self.stats.respawns,
                "blocks_per_worker": {
                    str(k): v
                    for k, v in sorted(self.stats.blocks_per_worker.items())
                },
            }


class CodeBlockWorkQueue:
    """Dynamic queue of block groups with deterministic reassembly.

    ``pool`` is anything with a ``workers`` count and an
    ``imap_unordered(payloads)`` yielding ``(seqs, worker id, results)`` —
    a :class:`ThreadPool`, a :class:`WorkerPool`, or a scheduler job of
    the encode service (:class:`repro.service.scheduler.SchedulerJob`).
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
        Groups carry each block as a view of its plane: a
        :class:`ThreadPool` codes the views in place, a :class:`WorkerPool`
        pickles one group at a time, so only that block's samples are
        copied, to the one worker that codes it.  The planes must stay
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
