"""Long-running encode service: the serving layer over the offline codec.

A library call opens its Tier-1 threads for that call; a server keeps
one :class:`repro.core.workpool.ThreadPool` alive across requests (the
paper's SPEs, loaded once, sharing the PPE's memory), multiplexes the
block groups of concurrent encodes and decodes onto it through
:class:`EncodeScheduler` (the paper's PPE-side dynamic queue),
short-circuits repeated work through a
content-addressed :class:`ResultCache`, bounds load with
:class:`AdmissionController`, and observes it all via
:class:`MetricsRegistry`.  :mod:`repro.service.http` puts a stdlib HTTP
front end on top (``python -m repro serve``).

Every codestream produced here is byte-identical to the offline
:func:`repro.jpeg2000.encoder.encode`, and every decode sample-identical
to :func:`repro.jpeg2000.decoder.decode` — determinism survives the pool,
the scheduler interleaving, and the cache by construction, and is
enforced by tests.
"""

from __future__ import annotations

import hashlib
import io
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.workpool import ThreadPool
from repro.jpeg2000.dwt_fast import DecodeStageTimings, StageTimings
from repro.jpeg2000.encoder import EncodeResult, encode
from repro.jpeg2000.params import EncoderParams
from repro.service.admission import (
    AdmissionController,
    LoadShedder,
    QueueFullError,
    ShedError,
)
from repro.service.cache import ResultCache, cache_key
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import EncodeScheduler, SchedulerClosed

__all__ = [
    "AdmissionController",
    "DecodeResponse",
    "EncodeResponse",
    "EncodeScheduler",
    "EncodeService",
    "LoadShedder",
    "MetricsRegistry",
    "QueueFullError",
    "ResultCache",
    "SchedulerClosed",
    "ServiceConfig",
    "ShedError",
    "cache_key",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`EncodeService` (CLI ``serve`` flags)."""

    workers: int | None = None  # None = one per CPU core
    cache_bytes: int = 64 * 2**20
    max_queue: int = 32
    admission_policy: str = "reject"
    #: Identity of this service inside a shard cluster; None = unsharded.
    shard_id: int | None = None
    #: Unix-socket path of the cross-shard cache bus; None = no bus.
    bus_path: str | None = None
    #: p95 latency objective for load shedding; None disables the shedder.
    shed_target_p95_s: float | None = None


@dataclass
class EncodeResponse:
    """One served encode: the codestream plus how it was produced."""

    codestream: bytes
    cache_hit: bool
    queue_wait_s: float
    encode_s: float
    params: EncoderParams
    result: EncodeResult | None = field(default=None, repr=False)
    #: Where a hit came from: "local", "remote" (cross-shard bus), or None.
    cache_source: str | None = None


@dataclass
class DecodeResponse:
    """One served decode: the reconstructed image plus how it was produced."""

    image: np.ndarray = field(repr=False)
    cache_hit: bool
    decode_s: float


class EncodeService:
    """Thread-safe facade: many submitting threads, one shared pool."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.pool = ThreadPool(self.config.workers)
        self.scheduler = EncodeScheduler(self.pool)
        self.cache = ResultCache(self.config.cache_bytes)
        self.admission = AdmissionController(
            self.config.max_queue, policy=self.config.admission_policy
        )
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._requests = m.counter("requests_total", "encode requests received")
        self._encoded = m.counter("images_encoded_total", "full encodes run")
        self._cache_hits = m.counter("cache_hits_total", "requests served from cache")
        self._coalesced = m.counter(
            "coalesced_total", "requests that waited on an identical in-flight encode"
        )
        self._rejected = m.counter("rejected_total", "requests shed by admission")
        self._errors = m.counter("errors_total", "requests failed with an error")
        self._verified = m.counter(
            "verified_total", "served codestreams round-trip verified"
        )
        self._verify_failures = m.counter(
            "verify_failures_total", "round-trip verifications that failed"
        )
        self._remote_hits = m.counter(
            "remote_cache_hits_total", "requests served from the cross-shard bus"
        )
        self._shed = m.counter(
            "shed_total", "requests refused by the latency shedder"
        )
        self._hit_ratio_gauge = m.gauge(
            "cache_hit_ratio",
            "fraction of requests served from any cache (local or bus)",
        )
        self._inflight_gauge = m.gauge("inflight_jobs", "admitted unfinished jobs")
        self._queue_wait = m.histogram("queue_wait_seconds", "admission wait")
        self._encode_time = m.histogram("encode_seconds", "pool encode time")
        self._request_time = m.histogram("request_seconds", "total request time")
        # Per-pipeline-stage wall time (StageTimings from every full encode).
        self._stage_times = {
            stage: m.histogram(
                f"stage_{stage}_seconds", f"encode {stage} stage wall time"
            )
            for stage in StageTimings.STAGES
        }
        self._verify_time = m.histogram(
            "verify_seconds", "round-trip verification wall time"
        )
        self._dec_requests = m.counter(
            "decode_requests_total", "decode requests received"
        )
        self._decoded = m.counter("images_decoded_total", "full decodes run")
        self._dec_cache_hits = m.counter(
            "decode_cache_hits_total", "decode requests served from cache"
        )
        self._dec_errors = m.counter(
            "decode_errors_total", "decode requests failed with an error"
        )
        self._decode_time = m.histogram("decode_seconds", "decode wall time")
        self._dec_stage_times = {
            stage: m.histogram(
                f"decode_stage_{stage}_seconds",
                f"decode {stage} stage wall time",
            )
            for stage in DecodeStageTimings.STAGES
        }
        self._started = time.time()
        self._closed = False
        self._close_lock = threading.Lock()
        # Single-flight table: cache key -> Event set when the leading
        # encode for that key completes (successfully or not).
        self._singleflight: dict[str, threading.Event] = {}
        self._sf_lock = threading.Lock()
        # Sharding attachments (all optional; lazy imports keep the
        # sharding package out of unsharded deployments entirely).
        self.remote_cache = None
        if self.config.bus_path is not None:
            from repro.service.sharding.cachebus import CacheBusClient

            self.remote_cache = CacheBusClient(self.config.bus_path)
        self.shedder = None
        if self.config.shed_target_p95_s is not None:
            self.shedder = LoadShedder(
                self._request_time, self.config.shed_target_p95_s
            )

    # -- serving -----------------------------------------------------------

    def encode_image(
        self,
        image: np.ndarray,
        params: EncoderParams | None = None,
        priority: int = 0,
        verify: bool = False,
    ) -> EncodeResponse:
        """Encode one image through the shared pool (or the cache).

        Identical concurrent requests are coalesced (single-flight): one
        leader encodes while the rest wait and return the cached bytes, so
        a burst of duplicates costs one pool trip instead of N.

        ``verify`` round-trips the served bytes (cached or fresh) through
        the decoder before returning (see
        :func:`repro.verify.roundtrip.verify_roundtrip`); a failed check
        raises :class:`repro.verify.VerificationError` — the HTTP layer
        maps it to 422.

        Raises :class:`QueueFullError` when admission sheds the request and
        :class:`SchedulerClosed` if the service is shutting down.
        """
        if self._closed:
            raise SchedulerClosed("service is closed")
        if params is None:
            params = EncoderParams.lossless_default()
        self._requests.inc()
        t_start = time.perf_counter()

        key = cache_key(image, params)
        leader_key = None
        remote_lease = False
        first_probe = True
        try:
            while True:
                # Cache first: a hit never touches admission or the pool,
                # so cached traffic keeps flowing even while load-shedding.
                cached = self.cache.get(key, record=first_probe)
                first_probe = False
                if cached is not None:
                    self._cache_hits.inc()
                    if verify:
                        self._verify_codestream(image, cached, params)
                    self._request_time.observe(time.perf_counter() - t_start)
                    self._update_hit_ratio()
                    return EncodeResponse(
                        codestream=cached, cache_hit=True,
                        queue_wait_s=0.0, encode_s=0.0, params=params,
                        cache_source="local",
                    )
                if self.cache.max_bytes <= 0 or leader_key is not None:
                    break  # no cache to coalesce through, or we lead
                with self._sf_lock:
                    event = self._singleflight.get(key)
                    if event is None:
                        self._singleflight[key] = threading.Event()
                        leader_key = key
                if leader_key is None:
                    # A leader is already encoding these exact bytes+params;
                    # wait it out instead of re-encoding.
                    self._coalesced.inc()
                    event.wait()
                # Loop: re-check the cache — either the leader just finished,
                # or we took leadership and must confirm the cache is still
                # cold (a previous leader may have filled it in the gap).

            if leader_key is not None and self.remote_cache is not None:
                # Cross-shard single-flight: ask the bus for the value or
                # the lease.  "hit" means another shard already encoded
                # (or is just finishing) these exact bytes+params; "lead"
                # obliges us to publish or release.  Bus trouble fails
                # open into a plain local encode.
                status, data = self.remote_cache.lease(key)
                if status == "hit" and data is not None:
                    self.cache.put(key, data)
                    self._remote_hits.inc()
                    if verify:
                        self._verify_codestream(image, data, params)
                    self._request_time.observe(time.perf_counter() - t_start)
                    self._update_hit_ratio()
                    return EncodeResponse(
                        codestream=data, cache_hit=True,
                        queue_wait_s=0.0, encode_s=0.0, params=params,
                        cache_source="remote",
                    )
                remote_lease = status == "lead"

            if self.shedder is not None:
                # Only work that would reach the pool is sheddable; every
                # cached/coalesced return above bypassed this entirely.
                try:
                    self.shedder.admit()
                except ShedError:
                    self._shed.inc()
                    self._rejected.inc()
                    raise
            try:
                self.admission.acquire()
            except QueueFullError:
                self._rejected.inc()
                raise
            t_admitted = time.perf_counter()
            self._queue_wait.observe(t_admitted - t_start)
            self._inflight_gauge.inc()
            try:
                with self.scheduler.job(priority=priority) as job:
                    result = encode(image, params, pool=job)
                codestream = result.codestream
            except Exception:
                self._errors.inc()
                raise
            finally:
                self._inflight_gauge.dec()
                self.admission.release()
            if verify:
                self._verify_codestream(image, codestream, params)
            t_done = time.perf_counter()
            self._encoded.inc()
            self._encode_time.observe(t_done - t_admitted)
            self._request_time.observe(t_done - t_start)
            if result.timings is not None:
                for stage, hist in self._stage_times.items():
                    hist.observe(getattr(result.timings, stage))
            self.cache.put(key, codestream)
            if remote_lease:
                # Publishing stores the value in the bus AND releases the
                # lease, waking every shard parked on this key.
                self.remote_cache.put(key, codestream)
                remote_lease = False
            self._update_hit_ratio()
            return EncodeResponse(
                codestream=codestream, cache_hit=False,
                queue_wait_s=t_admitted - t_start, encode_s=t_done - t_admitted,
                params=params, result=result,
            )
        finally:
            if remote_lease:
                # Failed while holding the cross-shard lease: hand it back
                # so a waiting shard can take over instead of timing out.
                self.remote_cache.release(key)
            if leader_key is not None:
                with self._sf_lock:
                    pending = self._singleflight.pop(leader_key, None)
                if pending is not None:
                    pending.set()

    def decode_image(self, codestream: bytes) -> DecodeResponse:
        """Decode one codestream, with the same serving affordances as encode.

        Parsing and the inverse front end run on the request thread; past
        the same auto-serial clamp as encode, the Tier-1 block groups go
        through the scheduler onto the shared pool.  Decodes share the
        encode path's admission control — a decode burst cannot starve
        the pool queue unbounded — and a content-addressed cache keyed on
        the codestream bytes alone.

        Raises :class:`repro.jpeg2000.errors.CodestreamError` for malformed
        input (HTTP 400), :class:`QueueFullError` when admission sheds the
        request (503), and :class:`SchedulerClosed` while shutting down.
        """
        from repro.jpeg2000.decoder import decode

        if self._closed:
            raise SchedulerClosed("service is closed")
        self._dec_requests.inc()
        key = "dec:" + hashlib.sha256(codestream).hexdigest()
        cached = self.cache.get(key)
        if cached is not None:
            self._dec_cache_hits.inc()
            return DecodeResponse(
                image=_unpack_image(cached), cache_hit=True, decode_s=0.0,
            )
        try:
            self.admission.acquire()
        except QueueFullError:
            self._rejected.inc()
            raise
        self._inflight_gauge.inc()
        timings = DecodeStageTimings()
        t0 = time.perf_counter()
        try:
            with self.scheduler.job() as job:
                image = decode(codestream, timings=timings, pool=job)
        except Exception:
            self._dec_errors.inc()
            self._errors.inc()
            raise
        finally:
            self._inflight_gauge.dec()
            self.admission.release()
        decode_s = time.perf_counter() - t0
        self._decoded.inc()
        self._decode_time.observe(decode_s)
        for stage, hist in self._dec_stage_times.items():
            hist.observe(getattr(timings, stage))
        self.cache.put(key, _pack_image(image))
        return DecodeResponse(image=image, cache_hit=False, decode_s=decode_s)

    def _update_hit_ratio(self) -> None:
        requests = self._requests.value
        if requests:
            hits = self._cache_hits.value + self._remote_hits.value
            self._hit_ratio_gauge.set(hits / requests)

    def _verify_codestream(self, image, codestream: bytes, params) -> None:
        """Round-trip the bytes about to be served; raises on failure."""
        # Lazy import: only ?verify=1 requests pay for the decoder stack.
        from repro.verify.roundtrip import VerificationError, verify_roundtrip

        t0 = time.perf_counter()
        try:
            verify_roundtrip(image, codestream, params)
        except VerificationError:
            self._verify_failures.inc()
            raise
        finally:
            self._verify_time.observe(time.perf_counter() - t0)
        self._verified.inc()

    # -- observability -----------------------------------------------------

    def healthy(self) -> bool:
        return not self._closed

    def stats(self) -> dict:
        """JSON-ready rollup for ``GET /stats``."""
        out = {
            "uptime_s": time.time() - self._started,
            "closed": self._closed,
            "shard_id": self.config.shard_id,
            "pool": self.pool.snapshot(),
            "scheduler": self.scheduler.snapshot(),
            "cache": self.cache.snapshot(),
            "admission": self.admission.snapshot(),
            "tier1_geometry_cache": self._geometry_cache_stats(),
        }
        if self.shedder is not None:
            out["shedder"] = self.shedder.snapshot()
        if self.remote_cache is not None:
            out["bus_client"] = self.remote_cache.snapshot()
        return out

    @staticmethod
    def _geometry_cache_stats() -> dict:
        # Lazy import: the service front end must not pay for the Tier-1
        # stack until an encode (or stats probe) actually needs it.
        from repro.jpeg2000 import tier1_geom

        return tier1_geom.cache_stats()

    # -- lifecycle ---------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` wait for in-flight work (idempotent).

        New submissions fail immediately; in-flight jobs run to completion
        when draining (graceful SIGTERM path), or fail with
        :class:`SchedulerClosed` otherwise, once the groups already coding
        are done.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if drain:
            deadline = time.time() + 60.0
            while self.admission.inflight > 0 and time.time() < deadline:
                time.sleep(0.02)
        self.scheduler.close()
        self.pool.close(cancel=not drain)

    def __enter__(self) -> "EncodeService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)


def _pack_image(image: np.ndarray) -> bytes:
    """Serialize a decoded image for the byte-valued result cache."""
    buf = io.BytesIO()
    np.save(buf, image, allow_pickle=False)
    return buf.getvalue()


def _unpack_image(data: bytes) -> np.ndarray:
    return np.load(io.BytesIO(data), allow_pickle=False)
