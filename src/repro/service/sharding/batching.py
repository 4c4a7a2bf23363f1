"""Micro-batching of small encode requests into one pool dispatch.

The auto-serial cutover (:data:`repro.core.workpool.TIER1_AUTO_SERIAL_MIN_BLOCKS`)
exists because a small image cannot amortize a pool trip — so the
service encodes it inline, on the request thread, under the shard's GIL.
A burst of such requests then serializes behind one core while the warm
worker pool sits idle.  Micro-batching inverts that: requests below the
auto-serial threshold are collected for one *batch window* and shipped to the pool
as a single task (:func:`_encode_batch_task`) — one pickling trip, one
queue operation, one worker wake-up for the whole batch, which is
exactly the per-task-overhead amortization the threshold was guarding
against, recovered by raising the task size instead of going serial.

The window is sized from live latency: the service passes a provider
reading its ``encode_seconds`` histogram, and the batcher waits about
half a typical small encode — long enough to collect a burst, short
enough that batching never dominates latency.  Byte-identity is free:
``encode()`` is deterministic, so a batched codestream equals the inline
one bit for bit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np

from repro.core import workpool

#: Bounds on the adaptive batch window (seconds): never wait less than a
#: scheduler tick, never add more than 50 ms of latency to a request.
MIN_WINDOW_S = 0.002
MAX_WINDOW_S = 0.050

#: Fallback window when the histogram has no samples yet.
DEFAULT_WINDOW_S = 0.005


def estimate_code_blocks(shape, levels: int, codeblock_size: int) -> int:
    """Code blocks a ``shape`` image yields (all components, all subbands).

    Mirrors the tiling the encoder performs without running it: level
    ``l`` has an LL quadrant of ceil(h/2^l) x ceil(w/2^l); the three
    detail bands at level ``l`` share the LL(l-1) split.
    """
    h, w = int(shape[0]), int(shape[1])
    channels = int(shape[2]) if len(shape) == 3 else 1

    def blocks_in(bh: int, bw: int) -> int:
        if bh <= 0 or bw <= 0:
            return 0
        return -(-bh // codeblock_size) * -(-bw // codeblock_size)

    per_component = 0
    lh, lw = h, w
    for _ in range(levels):
        hh, hw = lh - lh // 2, lw - lw // 2  # ceil halves (low-pass)
        dh, dw = lh // 2, lw // 2  # floor halves (high-pass)
        per_component += blocks_in(hh, dw) + blocks_in(dh, hw) + blocks_in(dh, dw)
        lh, lw = hh, hw
    per_component += blocks_in(lh, lw)  # final LL
    return per_component * channels


def is_micro_request(shape, params) -> bool:
    """True when an encode sits below the Tier-1 auto-serial cutover.

    These are the requests that would run inline on the shard's request
    thread (the pool cannot win per-request) — precisely the population
    micro-batching is for.  Larger images go through the scheduler as
    before.
    """
    blocks = estimate_code_blocks(shape, params.levels, params.codeblock_size)
    return blocks < workpool.TIER1_AUTO_SERIAL_MIN_BLOCKS


def _encode_batch_task(payload):
    """Worker entry point: encode a whole micro-batch in one task.

    ``payload`` is a tuple of ``(shape, dtype_str, raw_bytes, params)``
    items; returns the list of codestream bytes in item order.  Each
    image is encoded serially inside the worker (``workers=1`` — these
    are sub-threshold images by construction), and ``self_check`` is
    dropped because the service layer verifies served bytes itself when
    asked to.
    """
    from repro.jpeg2000.encoder import encode

    out = []
    for shape, dtype_str, raw, params in payload:
        image = np.frombuffer(raw, dtype=np.dtype(dtype_str)).reshape(shape)
        run_params = replace(params, workers=1, self_check=False)
        out.append(encode(image, run_params).codestream)
    return out


class _BatchItem:
    __slots__ = ("shape", "dtype", "raw", "params", "event", "codestream",
                 "exc", "enqueued_at", "batch_size")

    def __init__(self, image: np.ndarray, params) -> None:
        arr = np.ascontiguousarray(image)
        self.shape = arr.shape
        self.dtype = arr.dtype.str
        self.raw = arr.tobytes()
        self.params = params
        self.event = threading.Event()
        self.codestream: bytes | None = None
        self.exc: BaseException | None = None
        self.enqueued_at = time.monotonic()
        self.batch_size = 0


class MicroBatcher:
    """Collect sub-threshold encodes; flush each window as one dispatch.

    Parameters
    ----------
    pool:
        A :class:`repro.core.workpool.WorkerPool` (each batch is one
        :meth:`~repro.core.workpool.WorkerPool.run` task), or ``None`` to
        always encode inline in the flusher thread (used when the pool is
        unavailable).
    window_s:
        Fixed batch window in seconds, or ``None`` to size it from
        ``window_provider`` each flush.
    window_provider:
        Zero-argument callable returning a suggested window (seconds);
        the service wires this to half the live ``encode_seconds`` p50.
        Clamped to [:data:`MIN_WINDOW_S`, :data:`MAX_WINDOW_S`].
    max_batch:
        Flush early once this many requests are waiting.
    """

    def __init__(
        self,
        pool=None,
        window_s: float | None = None,
        window_provider=None,
        max_batch: int = 8,
        dispatch_timeout_s: float = 300.0,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if window_s is not None and window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        self.pool = pool
        self.window_s = window_s
        self.window_provider = window_provider
        self.max_batch = max_batch
        self.dispatch_timeout_s = dispatch_timeout_s
        self._cond = threading.Condition()
        self._items: list[_BatchItem] = []
        self._closed = False
        self.flushes = 0
        self.batched = 0
        self.pool_dispatches = 0
        self.inline_fallbacks = 0
        self.last_window_s = self.window()
        self.last_batch_size = 0
        self._flusher = threading.Thread(
            target=self._flush_loop, name="micro-batcher", daemon=True
        )
        self._flusher.start()

    # -- submission --------------------------------------------------------

    def window(self) -> float:
        if self.window_s is not None:
            return min(MAX_WINDOW_S, max(MIN_WINDOW_S, self.window_s))
        if self.window_provider is not None:
            try:
                suggested = float(self.window_provider())
            except Exception:
                suggested = DEFAULT_WINDOW_S
            if suggested <= 0:
                suggested = DEFAULT_WINDOW_S
            return min(MAX_WINDOW_S, max(MIN_WINDOW_S, suggested))
        return DEFAULT_WINDOW_S

    def submit(self, image: np.ndarray, params,
               timeout: float | None = None) -> _BatchItem:
        """Queue one small encode; blocks until its batch completes.

        Returns the finished item (``codestream`` set) or raises whatever
        the encode raised.  Must not be called for images above the
        auto-serial thresholds — check :func:`is_micro_request` first.
        """
        item = _BatchItem(image, params)
        with self._cond:
            if self._closed:
                raise RuntimeError("micro-batcher is closed")
            self._items.append(item)
            self._cond.notify_all()
        if not item.event.wait(
            timeout if timeout is not None else self.dispatch_timeout_s + 60.0
        ):
            raise TimeoutError("micro-batch did not complete in time")
        if item.exc is not None:
            raise item.exc
        return item

    # -- flushing ----------------------------------------------------------

    def _flush_loop(self) -> None:
        while True:
            with self._cond:
                while not self._items and not self._closed:
                    self._cond.wait()
                if not self._items and self._closed:
                    return
                window = self.window()
                self.last_window_s = window
                deadline = self._items[0].enqueued_at + window
                while (len(self._items) < self.max_batch
                       and not self._closed):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                batch = self._items[: self.max_batch]
                del self._items[: self.max_batch]
            self._dispatch(batch)

    def _dispatch(self, batch: list[_BatchItem]) -> None:
        self.flushes += 1
        self.batched += len(batch)
        self.last_batch_size = len(batch)
        payload = tuple(
            (item.shape, item.dtype, item.raw, item.params) for item in batch
        )
        results: list[bytes] | None = None
        if self.pool is not None:
            try:
                results = self.pool.run(
                    _encode_batch_task, payload,
                    timeout=self.dispatch_timeout_s,
                )
                self.pool_dispatches += 1
            except Exception:
                results = None  # pool closed/broken: encode inline below
        if results is None:
            self.inline_fallbacks += 1
            for item in batch:
                try:
                    item.codestream = _encode_batch_task(
                        ((item.shape, item.dtype, item.raw, item.params),)
                    )[0]
                except Exception as exc:  # per-item: one bad image
                    item.exc = exc
                item.batch_size = len(batch)
                item.event.set()
            return
        for item, codestream in zip(batch, results):
            item.codestream = codestream
            item.batch_size = len(batch)
            item.event.set()

    # -- lifecycle / observability ----------------------------------------

    def close(self) -> None:
        """Flush whatever is queued, then stop the flusher (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._flusher.join(timeout=self.dispatch_timeout_s + 60.0)

    def snapshot(self) -> dict:
        """JSON-ready view for ``/stats``."""
        with self._cond:
            pending = len(self._items)
        return {
            "max_batch": self.max_batch,
            "window_s": self.last_window_s,
            "pending": pending,
            "flushes": self.flushes,
            "batched_requests": self.batched,
            "pool_dispatches": self.pool_dispatches,
            "inline_fallbacks": self.inline_fallbacks,
            "last_batch_size": self.last_batch_size,
            "mean_batch_size": (
                self.batched / self.flushes if self.flushes else 0.0
            ),
        }
