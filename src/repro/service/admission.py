"""Admission control: bounded in-flight jobs, reject-or-block, load shedding.

A bounded queue is what separates "slow under load" from "falls over
under load": past a certain depth, accepted work only adds latency for
everyone (the pool's throughput is fixed by the worker count, exactly as
the paper's throughput is fixed by the SPE count).  The controller caps
the number of admitted-but-unfinished encode jobs; past the cap it either
fails fast (``reject``, the default — callers get an immediate 503 and
can retry elsewhere) or applies backpressure by making the submitter wait
(``block``).

:class:`LoadShedder` sits in front of the queue and watches *latency*
rather than depth: when the observed p95 of request time exceeds a
configured target, it starts refusing a deterministic fraction of
uncached work (503 + ``Retry-After`` derived from the live p99) before
the queue fills, so overload degrades to fast rejections instead of a
pile-up where every accepted request times out.
"""

from __future__ import annotations

import math
import threading

POLICIES = ("reject", "block")


class QueueFullError(RuntimeError):
    """Raised under the ``reject`` policy when the service is saturated."""

    def __init__(self, max_queue: int) -> None:
        super().__init__(
            f"encode queue full ({max_queue} jobs in flight); retry later"
        )
        self.max_queue = max_queue


class ShedError(QueueFullError):
    """Raised when the latency-based shedder refuses a request.

    Subclasses :class:`QueueFullError` so every 503 path in the HTTP
    layer and clients' retry logic treats both kinds of overload alike;
    carries ``retry_after_s`` so the response can tell clients how long
    the current p99 suggests they back off.
    """

    def __init__(self, p95_s: float, target_s: float,
                 retry_after_s: float) -> None:
        RuntimeError.__init__(
            self,
            f"shedding load: p95 {p95_s * 1e3:.0f} ms over target "
            f"{target_s * 1e3:.0f} ms; retry in {retry_after_s:.0f}s"
        )
        self.max_queue = 0
        self.p95_s = p95_s
        self.target_s = target_s
        self.retry_after_s = retry_after_s


class LoadShedder:
    """Latency-driven admission valve over a request-time histogram.

    Parameters
    ----------
    histogram:
        A :class:`repro.service.metrics.Histogram` of per-request wall
        time (the service's ``request_seconds``) — the shedder reads its
        recent-window p95/p99, it never records into it.
    target_p95_s:
        The latency objective.  While observed p95 <= target, nothing is
        shed.  Above it, the shed fraction ramps linearly with the
        overshoot ratio (``gain`` per 100% overshoot), capped at
        ``max_shed_fraction`` so a trickle of requests always gets
        through to probe whether the overload has passed.
    min_samples:
        Quantiles over fewer recent samples than this are noise; the
        shedder stays open until the window fills.

    Shedding is deterministic, not random: an error-diffusion accumulator
    sheds exactly the computed fraction of consecutive requests, so tests
    and replayed traffic see reproducible behaviour.
    """

    def __init__(
        self,
        histogram,
        target_p95_s: float,
        min_samples: int = 32,
        gain: float = 1.0,
        max_shed_fraction: float = 0.95,
    ) -> None:
        if target_p95_s <= 0:
            raise ValueError(f"target_p95_s must be > 0, got {target_p95_s}")
        if not (0.0 < max_shed_fraction <= 1.0):
            raise ValueError("max_shed_fraction must be in (0, 1]")
        self.histogram = histogram
        self.target_p95_s = target_p95_s
        self.min_samples = min_samples
        self.gain = gain
        self.max_shed_fraction = max_shed_fraction
        self._lock = threading.Lock()
        self._acc = 0.0
        self.shed = 0
        self.checked = 0

    def shed_probability(self) -> float:
        """Current shed fraction in [0, max_shed_fraction]."""
        if self.histogram.count < self.min_samples:
            return 0.0
        p95 = self.histogram.quantile(0.95)
        if p95 <= self.target_p95_s:
            return 0.0
        overshoot = p95 / self.target_p95_s - 1.0
        return min(self.max_shed_fraction, self.gain * overshoot)

    def admit(self) -> None:
        """Pass the request through or raise :class:`ShedError`.

        Callers invoke this only for work that will actually reach the
        pool — cache hits bypass the shedder entirely, so cached traffic
        keeps flowing at full rate during an overload.
        """
        prob = self.shed_probability()
        with self._lock:
            self.checked += 1
            if prob <= 0.0:
                self._acc = 0.0
                return
            self._acc += prob
            if self._acc < 1.0:
                return
            self._acc -= 1.0
            self.shed += 1
        p99 = self.histogram.quantile(0.99)
        retry_after = max(1.0, math.ceil(p99))
        raise ShedError(self.histogram.quantile(0.95), self.target_p95_s,
                        retry_after)

    def snapshot(self) -> dict:
        """JSON-ready view for ``/stats``."""
        with self._lock:
            shed, checked, acc = self.shed, self.checked, self._acc
        return {
            "target_p95_s": self.target_p95_s,
            "observed_p95_s": self.histogram.quantile(0.95),
            "observed_p99_s": self.histogram.quantile(0.99),
            "shed_probability": self.shed_probability(),
            "checked": checked,
            "shed": shed,
        }


class AdmissionController:
    """Counting gate over concurrently admitted encode jobs.

    Parameters
    ----------
    max_queue:
        Maximum jobs admitted but not yet finished (queued + encoding).
    policy:
        ``"reject"`` raises :class:`QueueFullError` when full;
        ``"block"`` waits for a slot.
    """

    def __init__(self, max_queue: int, policy: str = "reject") -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.max_queue = max_queue
        self.policy = policy
        self._cond = threading.Condition()
        self._inflight = 0
        self.peak_inflight = 0
        self.admitted = 0
        self.rejected = 0

    def acquire(self) -> None:
        """Admit one job according to the configured policy."""
        with self._cond:
            if self.policy == "reject":
                if self._inflight >= self.max_queue:
                    self.rejected += 1
                    raise QueueFullError(self.max_queue)
            else:
                self._cond.wait_for(lambda: self._inflight < self.max_queue)
            self._inflight += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
            self.admitted += 1

    def release(self) -> None:
        with self._cond:
            if self._inflight <= 0:
                raise RuntimeError("release() without matching acquire()")
            self._inflight -= 1
            self._cond.notify()

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    def snapshot(self) -> dict:
        """JSON-ready view for ``/stats``."""
        with self._cond:
            return {
                "max_queue": self.max_queue,
                "policy": self.policy,
                "inflight": self._inflight,
                "peak_inflight": self.peak_inflight,
                "admitted": self.admitted,
                "rejected": self.rejected,
            }
