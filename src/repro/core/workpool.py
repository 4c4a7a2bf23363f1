"""Real multi-core work queue over Tier-1 code blocks.

This is the *executable* counterpart of the simulated SPE work queue in
:mod:`repro.cell.workqueue`: the paper's Section 3 parallelizes EBCOT
Tier-1 by treating each code block as an independent work item that idle
SPEs pull from a dynamic queue.  Code blocks really are independent — the
MQ coder state is per-block — so the same scheme works verbatim on host
cores with :mod:`multiprocessing`.

Determinism is non-negotiable: the codestream must be byte-identical for
any worker count.  Workers may *finish* blocks in any order (that is the
point of dynamic scheduling), so every task carries a sequence number and
results are re-assembled into submission order before the encoder sees
them.  Tier-1 itself is bit-exact across backends (differentially tested),
so scheduling is the only ordering concern.

The pool path is only worth its process start-up and pickling cost for
real encodes; callers pass ``workers=1`` (the default) to stay serial.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.jpeg2000.tier1 import CodeBlockResult, encode_codeblock, resolve_backend

#: Below this many blocks a pool cannot amortize worker start-up; encode
#: serially no matter what ``workers`` says.
MIN_BLOCKS_FOR_POOL = 2

#: Set to ``"0"`` to force the pickled-block dispatch path even where
#: ``multiprocessing.shared_memory`` is available.
SHM_ENV = "REPRO_SHM_DISPATCH"

#: Code blocks below which the Tier-1 pool cannot win: process start-up
#: plus per-block pickling costs more than the blocks themselves
#: (BENCH_tier1 measured 0.70-0.76x *slowdowns* at workers>1 before this
#: clamp existed).
TIER1_AUTO_SERIAL_MIN_BLOCKS = 24

#: Environment override for the Tier-1 auto-serial clamp.  ``"0"`` disables
#: the clamp entirely (tests/benchmarks that need the parallel path on
#: small inputs or single-core machines); any other integer replaces the
#: block-count threshold.
TIER1_AUTO_SERIAL_ENV = "REPRO_TIER1_AUTO_SERIAL"


def tier1_serial_threshold() -> int:
    """Code blocks below which the Tier-1 pool cannot win.

    The :data:`TIER1_AUTO_SERIAL_ENV` override wins; otherwise
    :data:`TIER1_AUTO_SERIAL_MIN_BLOCKS`.  ``0`` (env only) disables the
    clamp.
    """
    env = os.environ.get(TIER1_AUTO_SERIAL_ENV, "")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{TIER1_AUTO_SERIAL_ENV}={env!r} invalid; expected an integer"
            ) from None
    return TIER1_AUTO_SERIAL_MIN_BLOCKS


def tier1_auto_workers(workers: int | None, blocks: int) -> int:
    """Clamp Tier-1 dispatch to serial where a pool cannot win.

    Returns ``1`` when the machine has a single core or ``blocks`` falls
    below :func:`tier1_serial_threshold`, otherwise ``workers`` resolved
    (``None`` means one per core).  ``REPRO_TIER1_AUTO_SERIAL=0`` disables
    the clamp (including the single-core check); any other integer
    replaces the block threshold.
    """
    if workers is None:
        workers = default_workers()
    if workers <= 1:
        return 1
    threshold = tier1_serial_threshold()
    if threshold == 0:
        return workers
    if (os.cpu_count() or 1) <= 1:
        return 1
    if blocks < threshold:
        return 1
    return workers


@dataclass(frozen=True)
class CodeBlockTask:
    """One unit of Tier-1 work: a coefficient block and its subband."""

    seq: int
    coeffs: np.ndarray
    band: str


@dataclass(frozen=True)
class PlaneBlockTask:
    """One unit of Tier-1 work described as a slice of a published plane.

    Instead of carrying the coefficients, the task names the plane (by
    index into the list handed to :meth:`CodeBlockWorkQueue.encode_plane_blocks`)
    and the block's offsets/shape within it — the paper's DMA-minimizing
    move of shipping each coefficient plane to the workers once and letting
    them slice blocks locally.
    """

    seq: int
    plane: int
    row0: int
    col0: int
    height: int
    width: int
    band: str

    def slice_of(self, plane: np.ndarray) -> np.ndarray:
        return plane[self.row0 : self.row0 + self.height,
                     self.col0 : self.col0 + self.width]


@dataclass(frozen=True)
class PlaneGroupTask:
    """A *group* of plane-described blocks dispatched as one work item.

    The batched Tier-1 backend amortizes NumPy overhead across blocks, so
    sharding per block would throw that away — the unit of parallel work
    is a geometry group (or a shard of a large one).  ``seqs[i]`` is the
    submission sequence number of ``blocks[i]``; each block is
    ``(plane, row0, col0, height, width, band)`` in the same plane-index
    convention as :class:`PlaneBlockTask`.
    """

    seqs: tuple[int, ...]
    blocks: tuple[tuple[int, int, int, int, int, str], ...]


@dataclass
class QueueStats:
    """Observed scheduling behaviour of one :meth:`encode_all` run."""

    workers: int
    blocks: int
    #: Blocks completed per worker process (keyed by pid; a single serial
    #: run keys by this process).  Uneven counts on a busy machine are the
    #: dynamic queue doing its job — the paper's Table 1 load imbalance.
    blocks_per_worker: dict[int, int] = field(default_factory=dict)
    #: How blocks reached the workers: ``"serial"`` (no pool), ``"pickle"``
    #: (coefficients serialized per task), or ``"shared_memory"`` (planes
    #: published once, tasks carry descriptors).
    dispatch: str = "serial"


def _encode_task(payload):
    """Worker entry point; module-level so it pickles under spawn."""
    seq, coeffs, band, backend = payload
    return seq, os.getpid(), encode_codeblock(coeffs, band, backend=backend)


def _decode_block_task(payload):
    """Worker entry point for Tier-1 *decode*; module-level for spawn.

    Lazy import keeps the decoder stack out of encode-only workers.
    """
    from repro.jpeg2000.tier1_dec_vec import decode_codeblock_fast

    seq, data, height, width, band, msbs, num_passes = payload
    return seq, os.getpid(), decode_codeblock_fast(
        data, height, width, band, msbs, num_passes
    )


def shared_memory_available() -> bool:
    """True when plane dispatch can use ``multiprocessing.shared_memory``."""
    if os.environ.get(SHM_ENV, "1") == "0":
        return False
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:
        return False
    return True


class _SharedPlanes:
    """Subband planes published once as named shared-memory segments.

    The parent copies each plane into a segment at construction; workers
    attach by name (:func:`_attach_plane`).  :meth:`close` unlinks every
    segment — callers must invoke it on success, error, and interrupt, so
    construction itself cleans up if it fails partway.
    """

    def __init__(self, planes: list[np.ndarray]) -> None:
        from multiprocessing import shared_memory

        self.segments = []
        #: Per-plane ``(name, shape, dtype str)`` — all a worker needs.
        self.descs: list[tuple[str, tuple[int, ...], str]] = []
        try:
            for plane in planes:
                arr = np.ascontiguousarray(plane)
                seg = shared_memory.SharedMemory(
                    create=True, size=max(1, arr.nbytes)
                )
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
                view[...] = arr
                del view
                self.segments.append(seg)
                self.descs.append((seg.name, arr.shape, arr.dtype.str))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Release and unlink every segment (idempotent, error-swallowing)."""
        segments, self.segments = self.segments, []
        for seg in segments:
            try:
                seg.close()
            except OSError:
                pass
            try:
                seg.unlink()
            except (OSError, FileNotFoundError):
                pass


def publish_shared_bytes(data: bytes):
    """Publish ``data`` as one shared-memory segment; returns (segment, desc).

    The generic single-blob sibling of :class:`_SharedPlanes`: the cache
    bus (:mod:`repro.service.sharding.cachebus`) publishes codestream
    values this way so a hit on any shard is served to every shard
    without re-sending the bytes through a socket.  The caller owns the
    returned segment and must ``close()`` + ``unlink()`` it (eviction or
    shutdown); ``desc`` is the picklable ``(name, size)`` readers use.
    """
    from multiprocessing import shared_memory

    seg = shared_memory.SharedMemory(create=True, size=max(1, len(data)))
    seg.buf[: len(data)] = data
    return seg, (seg.name, len(data))


def read_shared_bytes(desc) -> bytes | None:
    """Copy a published blob out of its segment; ``None`` if it vanished.

    Attach-copy-close, mirroring :func:`_encode_plane_task`'s discipline
    of never keeping a live view pinned to the segment buffer.  A
    concurrently evicted (unlinked) segment reads as ``None`` — callers
    treat that as a cache miss.
    """
    from multiprocessing import shared_memory

    name, size = desc
    try:
        seg = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return None
    try:
        return bytes(seg.buf[:size])
    finally:
        seg.close()


#: Worker-side cache of attached segments, keyed by segment name.  Bounded
#: (LRU) so a long-lived worker serving many encodes cannot accumulate
#: stale maps; one encode's planes comfortably fit.
_ATTACH_CACHE: OrderedDict[str, tuple] = OrderedDict()
_ATTACH_CACHE_MAX = 32


def _attach_plane(desc) -> np.ndarray:
    """Attach (or reuse) the named segment and view it as an array."""
    from multiprocessing import shared_memory

    name, shape, dtype = desc
    cached = _ATTACH_CACHE.get(name)
    if cached is not None:
        _ATTACH_CACHE.move_to_end(name)
        return cached[1]
    # Attaching re-registers the name with the resource tracker, but the
    # tracker (and its name cache, a set) is shared with the parent, so
    # that is an idempotent no-op; the parent's unlink after the encode
    # removes the single entry.  Unregistering here instead would race the
    # other workers and the parent for that one entry.
    seg = shared_memory.SharedMemory(name=name)
    arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
    while len(_ATTACH_CACHE) >= _ATTACH_CACHE_MAX:
        _, (old_seg, old_arr) = _ATTACH_CACHE.popitem(last=False)
        del old_arr  # release the exported buffer before closing
        try:
            old_seg.close()
        except (BufferError, OSError):
            pass
    _ATTACH_CACHE[name] = (seg, arr)
    return arr


def _encode_plane_task(payload):
    """Worker entry point for shared-memory plane dispatch.

    Copies the block slice out of the attached plane (so no live view pins
    the segment buffer) and runs the ordinary Tier-1 encode.
    """
    seq, desc, row0, col0, height, width, band, backend = payload
    plane = _attach_plane(desc)
    coeffs = np.array(plane[row0 : row0 + height, col0 : col0 + width])
    return seq, os.getpid(), encode_codeblock(coeffs, band, backend=backend)


def _encode_plane_group_task(payload):
    """Worker entry point for shared-memory *group* dispatch.

    Slices every block of the group out of the attached planes and runs
    the batched stack coder over them in one call.
    """
    from repro.jpeg2000.tier1_batch import encode_codeblocks_batched

    seqs, blocks = payload
    items = []
    for desc, row0, col0, height, width, band in blocks:
        plane = _attach_plane(desc)
        items.append(
            (np.array(plane[row0 : row0 + height, col0 : col0 + width]), band)
        )
    return seqs, os.getpid(), encode_codeblocks_batched(items)


def _encode_block_group_task(payload):
    """Pickled-coefficients fallback of :func:`_encode_plane_group_task`."""
    from repro.jpeg2000.tier1_batch import encode_codeblocks_batched

    seqs, items = payload
    return seqs, os.getpid(), encode_codeblocks_batched(list(items))


def default_workers() -> int:
    """Worker count used for ``workers=None``: one per available core."""
    return max(1, os.cpu_count() or 1)


class ReusableWorkerPool:
    """A lazily started process pool reused across dispatch rounds.

    Tiled encodes dispatch Tier-1 once per tile batch; a one-shot
    ``ctx.Pool`` per dispatch would pay worker fork/startup for every
    batch.  Handing a ``ReusableWorkerPool`` to
    :class:`CodeBlockWorkQueue` (the ``mp_pool`` argument) makes every
    dispatch run through the same workers.  Unlike an injected per-block
    executor (the ``pool`` argument), this is a raw pool: the queue sends
    it whatever task function the dispatch path needs, so per-block,
    geometry-group, and decode payloads all work.

    The pool starts on first use and must be released by the owner:
    ``close()`` after a clean run, ``terminate()`` on error (both
    idempotent; the context-manager form does this automatically).
    """

    def __init__(self, workers: int | None = None,
                 mp_context: str | None = None) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.mp_context = mp_context
        self._pool = None

    def pool(self):
        """The live ``multiprocessing`` pool, started on first call."""
        if self._pool is None:
            ctx = (
                multiprocessing.get_context(self.mp_context)
                if self.mp_context
                else multiprocessing.get_context()
            )
            self._pool = ctx.Pool(processes=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut the workers down cleanly (waits for them to exit)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def terminate(self) -> None:
        """Kill the workers immediately (error paths / interrupts)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ReusableWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()


class CodeBlockWorkQueue:
    """Dynamic code-block queue with deterministic reassembly.

    Parameters
    ----------
    workers:
        Number of encoder processes.  ``1`` (default) encodes serially in
        this process; ``None`` means one per CPU core.
    backend:
        Tier-1 backend name forwarded to every worker (resolved once here
        so children do not re-read the environment).
    mp_context:
        Optional :func:`multiprocessing.get_context` name (``"fork"``,
        ``"spawn"``, ...).  Default: the platform default.
    pool:
        Optional injected block executor that *outlives* this queue: any
        object with a ``workers`` attribute and an ``imap_unordered(payloads)``
        method yielding ``(seq, pid, CodeBlockResult)`` tuples (e.g.
        :class:`repro.service.pool.PersistentWorkerPool`, or a scheduler
        job handle).  When given, ``encode_all`` submits through it instead
        of spawning a one-shot pool, and never closes it — the owner does.
    mp_pool:
        Optional :class:`ReusableWorkerPool` used in place of the one-shot
        ``ctx.Pool`` every parallel dispatch would otherwise create (and
        never closed here — the owner releases it).  Mutually exclusive
        with ``pool``.
    """

    def __init__(
        self,
        workers: int | None = 1,
        backend: str | None = None,
        mp_context: str | None = None,
        pool=None,
        use_shared_memory: bool | None = None,
        mp_pool: "ReusableWorkerPool | None" = None,
    ) -> None:
        if pool is not None and mp_pool is not None:
            raise ValueError("pool and mp_pool are mutually exclusive")
        if pool is not None:
            workers = pool.workers
        elif mp_pool is not None:
            workers = mp_pool.workers
        elif workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        # Resolve "auto"+env once in the parent; workers get an explicit
        # name so codestreams cannot depend on per-child environments.
        resolved = resolve_backend(backend)
        self.backend: str = resolved
        self.mp_context = mp_context
        self.pool = pool
        self.mp_pool = mp_pool
        #: ``None`` defers to platform/env detection at dispatch time.
        self.use_shared_memory = use_shared_memory
        self.last_stats: QueueStats | None = None

    def _run_pool(self, task_fn, payloads, consume) -> None:
        """Drive ``payloads`` through the reusable or a one-shot pool."""
        if self.mp_pool is not None:
            try:
                consume(
                    self.mp_pool.pool().imap_unordered(
                        task_fn, payloads, chunksize=1
                    )
                )
            except BaseException:
                # A failed dispatch leaves the shared pool in an unknown
                # state; kill it so the owner's cleanup cannot hang.
                self.mp_pool.terminate()
                raise
            return
        ctx = (
            multiprocessing.get_context(self.mp_context)
            if self.mp_context
            else multiprocessing.get_context()
        )
        pool = ctx.Pool(processes=self.workers)
        try:
            consume(pool.imap_unordered(task_fn, payloads, chunksize=1))
            pool.close()
        except BaseException:
            # KeyboardInterrupt (and any other failure) must not leave
            # orphaned encoder processes: kill the children before
            # propagating so the CLI exits promptly.
            pool.terminate()
            raise
        finally:
            pool.join()

    def encode_all(self, tasks: list[CodeBlockTask]) -> list[CodeBlockResult]:
        """Encode every task, returning results in *submission* order.

        Work is handed out block-by-block (``chunksize=1``): whichever
        worker frees up first takes the next block, exactly like the
        paper's SPEs pulling from the PPE-side queue.  Completion order is
        nondeterministic; the returned list is not.
        """
        stats = QueueStats(workers=self.workers, blocks=len(tasks))
        self.last_stats = stats
        if not tasks:
            return []
        if self.pool is None and (
            self.workers == 1 or len(tasks) < MIN_BLOCKS_FOR_POOL
        ):
            pid = os.getpid()
            stats.blocks_per_worker[pid] = len(tasks)
            return [
                encode_codeblock(t.coeffs, t.band, backend=self.backend)
                for t in tasks
            ]
        stats.dispatch = "pickle"
        payloads = [(t.seq, t.coeffs, t.band, self.backend) for t in tasks]
        return self._run_payloads(tasks, payloads, _encode_task, stats)

    def encode_plane_blocks(
        self, planes: list[np.ndarray], tasks: list[PlaneBlockTask]
    ) -> list[CodeBlockResult]:
        """Encode plane-described blocks, results in submission order.

        Publishes every plane once via ``multiprocessing.shared_memory``
        and hands workers ``(seq, plane descriptor, offsets, shape)``
        tuples; workers slice blocks out of the attached planes locally.
        Falls back to the pickled-block path when shared memory is
        unavailable, disabled (``REPRO_SHM_DISPATCH=0``), or the blocks go
        through an injected pool that does not advertise
        ``supports_shared_memory``.  Codestreams are byte-identical on
        every path.
        """
        stats = QueueStats(workers=self.workers, blocks=len(tasks))
        self.last_stats = stats
        if not tasks:
            return []
        if self.pool is None and (
            self.workers == 1 or len(tasks) < MIN_BLOCKS_FOR_POOL
        ):
            pid = os.getpid()
            stats.blocks_per_worker[pid] = len(tasks)
            return [
                encode_codeblock(t.slice_of(planes[t.plane]), t.band,
                                 backend=self.backend)
                for t in tasks
            ]
        want_shm = (
            self.use_shared_memory
            if self.use_shared_memory is not None
            else shared_memory_available()
        )
        pool_ok = self.pool is None or getattr(
            self.pool, "supports_shared_memory", False
        )
        if not (want_shm and pool_ok and shared_memory_available()):
            stats.dispatch = "pickle"
            payloads = [
                (t.seq, t.slice_of(planes[t.plane]), t.band, self.backend)
                for t in tasks
            ]
            return self._run_payloads(tasks, payloads, _encode_task, stats)
        stats.dispatch = "shared_memory"
        shared = _SharedPlanes(planes)
        try:
            payloads = [
                (t.seq, shared.descs[t.plane], t.row0, t.col0,
                 t.height, t.width, t.band, self.backend)
                for t in tasks
            ]
            return self._run_payloads(tasks, payloads, _encode_plane_task, stats)
        finally:
            # Unlink on success, error, and KeyboardInterrupt alike: the
            # segments must never outlive the encode.
            shared.close()

    def encode_plane_groups(
        self, planes: list[np.ndarray], tasks: list[PlaneGroupTask]
    ) -> list[CodeBlockResult]:
        """Encode geometry groups via the batched backend, one per task.

        Results come back indexed by each block's sequence number (which
        must form ``0..n-1`` across the groups), so the returned list is
        in submission order regardless of completion order.  Planes are
        published once over shared memory exactly like
        :meth:`encode_plane_blocks`; the pickled fallback ships each
        group's coefficient slices instead.  Injected pools are per-block
        executors and cannot run group payloads — callers route around
        them (see :func:`repro.jpeg2000.encoder._encode_pending`).
        """
        if self.pool is not None:
            raise ValueError(
                "group dispatch requires a one-shot pool; injected pools "
                "are per-block executors"
            )
        nblocks = sum(len(t.seqs) for t in tasks)
        stats = QueueStats(workers=self.workers, blocks=nblocks)
        self.last_stats = stats
        if not tasks:
            return []
        all_seqs = [s for t in tasks for s in t.seqs]
        if sorted(all_seqs) != list(range(nblocks)):
            raise ValueError("group task seqs must cover 0..n-1 exactly once")
        results: list[CodeBlockResult | None] = [None] * nblocks

        def _consume(iterator) -> None:
            for seqs, pid, group_results in iterator:
                for s, r in zip(seqs, group_results):
                    results[s] = r
                stats.blocks_per_worker[pid] = (
                    stats.blocks_per_worker.get(pid, 0) + len(seqs)
                )

        want_shm = (
            self.use_shared_memory
            if self.use_shared_memory is not None
            else shared_memory_available()
        )
        if not (want_shm and shared_memory_available()):
            stats.dispatch = "pickle"
            payloads = [
                (
                    t.seqs,
                    tuple(
                        (
                            np.array(planes[p][r0 : r0 + ht, c0 : c0 + wd]),
                            band,
                        )
                        for p, r0, c0, ht, wd, band in t.blocks
                    ),
                )
                for t in tasks
            ]
            task_fn = _encode_block_group_task
            shared = None
        else:
            stats.dispatch = "shared_memory"
            shared = _SharedPlanes(planes)
            payloads = [
                (
                    t.seqs,
                    tuple(
                        (shared.descs[p], r0, c0, ht, wd, band)
                        for p, r0, c0, ht, wd, band in t.blocks
                    ),
                )
                for t in tasks
            ]
            task_fn = _encode_plane_group_task
        try:
            self._run_pool(task_fn, payloads, _consume)
        finally:
            if shared is not None:
                shared.close()
        missing = sum(r is None for r in results)
        if missing:
            raise RuntimeError(f"work queue lost {missing} block results")
        return results  # type: ignore[return-value]

    def decode_all(self, blocks) -> list:
        """Decode code blocks, returning int32 planes in submission order.

        ``blocks`` is a list of ``(data, height, width, band, msbs,
        num_passes)`` tuples — exactly the arguments of
        :func:`repro.jpeg2000.tier1_dec_vec.decode_codeblock_fast`.  Code
        blocks are as independent on decode as on encode (per-block MQ
        state), so the same dynamic queue applies: workers pull blocks
        one at a time and results are re-assembled into submission order,
        making the output sample-identical for any worker count.  The
        serial path runs the batched stack decoder (the fastest
        single-process route); the pool path ships each block's bytes
        (cheap: compressed data, not coefficient planes).
        """
        if self.pool is not None:
            raise ValueError(
                "decode dispatch requires a one-shot pool; injected pools "
                "are encode executors"
            )
        stats = QueueStats(workers=self.workers, blocks=len(blocks))
        self.last_stats = stats
        if not blocks:
            return []
        from repro.jpeg2000.tier1_dec_vec import decode_codeblocks_batched

        if self.workers == 1 or len(blocks) < MIN_BLOCKS_FOR_POOL:
            stats.blocks_per_worker[os.getpid()] = len(blocks)
            return decode_codeblocks_batched(list(blocks))
        stats.dispatch = "pickle"
        payloads = [(seq,) + tuple(blk) for seq, blk in enumerate(blocks)]
        results: list = [None] * len(blocks)

        def _consume(iterator) -> None:
            for seq, pid, res in iterator:
                results[seq] = res
                stats.blocks_per_worker[pid] = (
                    stats.blocks_per_worker.get(pid, 0) + 1
                )

        self._run_pool(_decode_block_task, payloads, _consume)
        missing = sum(r is None for r in results)
        if missing:
            raise RuntimeError(f"work queue lost {missing} block results")
        return results

    def _run_payloads(self, tasks, payloads, task_fn, stats) -> list[CodeBlockResult]:
        """Drive payloads through the injected or one-shot pool."""
        seq_to_pos = {t.seq: i for i, t in enumerate(tasks)}
        if len(seq_to_pos) != len(tasks):
            raise ValueError("duplicate task sequence numbers")
        results: list[CodeBlockResult | None] = [None] * len(tasks)

        def _consume(iterator) -> None:
            for seq, pid, res in iterator:
                results[seq_to_pos[seq]] = res
                stats.blocks_per_worker[pid] = (
                    stats.blocks_per_worker.get(pid, 0) + 1
                )

        if self.pool is not None:
            # Injected persistent pool: submit and leave it running.
            _consume(self.pool.imap_unordered(payloads))
        else:
            self._run_pool(task_fn, payloads, _consume)
        missing = sum(r is None for r in results)
        if missing:
            raise RuntimeError(f"work queue lost {missing} block results")
        return results  # type: ignore[return-value]


class ChunkWorkQueue:
    """Threaded fan-out for DWT plane-chunk kernels (shared memory).

    The paper's Section 2 decomposition hands constant-width column chunks
    of a component plane to the SPEs; the executable analogue here hands
    them to host threads rather than the process pool Tier-1 uses.  The
    split is deliberate: Tier-1 code blocks are Python-bytecode bound (the
    MQ coder), so they need processes, while chunk kernels are NumPy slice
    ops that release the GIL — threads parallelize them with zero pickling,
    the shared-memory option of the chunk scheme.

    Determinism is by construction, not reassembly: every task writes a
    disjoint slice of a preallocated output, so completion order cannot
    influence the result and outputs are byte-identical for any worker
    count.  Errors are re-raised in task submission order.
    """

    def __init__(self, workers: int | None = 1) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor = None
        self.rounds = 0
        self.tasks_run = 0

    def run(self, tasks) -> None:
        """Execute every zero-argument task; returns when all are done."""
        tasks = list(tasks)
        self.rounds += 1
        self.tasks_run += len(tasks)
        if self.workers == 1 or len(tasks) < 2:
            for task in tasks:
                task()
            return
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="dwt-chunk"
            )
        futures = [self._executor.submit(task) for task in tasks]
        first_exc = None
        for fut in futures:
            exc = fut.exception()
            if exc is not None and first_exc is None:
                first_exc = exc
        if first_exc is not None:
            raise first_exc

    def close(self) -> None:
        """Stop the worker threads (idempotent; queue reusable via lazy start)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ChunkWorkQueue":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def encode_blocks(
    blocks: list[tuple[np.ndarray, str]],
    workers: int | None = 1,
    backend: str | None = None,
) -> list[CodeBlockResult]:
    """Convenience wrapper: encode ``(coeffs, band)`` pairs in order."""
    queue = CodeBlockWorkQueue(workers=workers, backend=backend)
    tasks = [
        CodeBlockTask(seq=i, coeffs=coeffs, band=band)
        for i, (coeffs, band) in enumerate(blocks)
    ]
    return queue.encode_all(tasks)
