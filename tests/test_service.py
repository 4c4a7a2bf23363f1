"""Encode service: concurrent determinism, scheduler fairness, pool health.

The service's contract is the repo's central invariant lifted to serving:
whatever mix of concurrent requests, worker counts, priorities, and cache
states, every response is byte-identical to the offline ``encode()``.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import workpool
from repro.core.workpool import (
    CodeBlockWorkQueue,
    ThreadPool,
    WorkerLost,
    WorkerPool,
    _group_task,
    available_cores,
)
from repro.image.synthetic import watch_face_image
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.service import EncodeService, ServiceConfig
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.scheduler import EncodeScheduler, SchedulerClosed

PARAMS = EncoderParams(levels=3)


@pytest.fixture(scope="module")
def gray48():
    return watch_face_image(48, 48, channels=1)


@pytest.fixture(scope="module")
def rgb48():
    return watch_face_image(48, 48, channels=3)


@pytest.fixture(scope="module")
def offline_gray48(gray48):
    return encode(gray48, PARAMS).codestream


@pytest.fixture(scope="module")
def offline_rgb48(rgb48):
    return encode(rgb48, PARAMS).codestream


def _no_cache(workers, **kw):
    return ServiceConfig(workers=workers, cache_bytes=0, **kw)


@pytest.fixture
def pool_path(monkeypatch):
    """Send even the small test images through the pool, on any core count."""
    cores = available_cores()
    monkeypatch.setattr(workpool, "TIER1_AUTO_SERIAL_MIN_BLOCKS", 0)
    monkeypatch.setattr(workpool, "available_cores", lambda: max(2, cores))


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _group_payloads(n, seed=0):
    """``n`` one-block encode groups with inline coefficients."""
    rng = np.random.default_rng(seed)
    return [
        ("encode", (i,),
         ((rng.integers(-50, 50, (8, 8)).astype(np.int32), "LL"),))
        for i in range(n)
    ]


class TestConcurrentDeterminism:
    """Issue acceptance: N concurrent submitters, byte-identical output."""

    @pytest.mark.parametrize("workers", [1, 2, None], ids=["w1", "w2", "auto"])
    def test_same_image_from_8_threads(self, workers, gray48, offline_gray48,
                                       pool_path):
        with EncodeService(_no_cache(workers)) as service:
            outputs = [None] * 8
            errors = []

            def submit(i):
                try:
                    outputs[i] = service.encode_image(gray48, PARAMS)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            for out in outputs:
                assert out.codestream == offline_gray48
                assert out.cache_hit is False  # cache disabled

    def test_mixed_images_and_priorities(
        self, gray48, rgb48, offline_gray48, offline_rgb48, pool_path
    ):
        with EncodeService(_no_cache(2)) as service:
            outputs = {}

            def submit(i):
                if i % 2:
                    r = service.encode_image(rgb48, PARAMS, priority=i)
                    outputs[i] = (r.codestream, offline_rgb48)
                else:
                    r = service.encode_image(gray48, PARAMS, priority=-i)
                    outputs[i] = (r.codestream, offline_gray48)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(outputs) == 8
            for got, want in outputs.values():
                assert got == want

    def test_sequential_requests_reuse_one_pool(self, gray48, rgb48,
                                                pool_path):
        with EncodeService(_no_cache(2)) as service:
            warm = set(service.pool.warm_up())
            service.encode_image(gray48, PARAMS)
            service.encode_image(rgb48, PARAMS)
            snap = service.pool.snapshot()
            # Same worker pids across both images: the pool survived.
            assert {int(p) for p in snap["blocks_per_worker"]} <= warm
            assert snap["tasks_done"] > 0
            assert service.pool.stats.respawns == 0

    def test_fresh_encode_uses_library_groups(self):
        # 192x192x3 at cb 16 is ~900 blocks: past the clamp, the service
        # runs the library's default stacked coder over block groups.
        img = watch_face_image(192, 192, channels=3)
        params = EncoderParams(codeblock_size=16)
        offline = encode(img, params).codestream
        with EncodeService(_no_cache(2)) as service:
            out = service.encode_image(img, params)
            snap = service.scheduler.snapshot()
        assert out.codestream == offline
        if available_cores() <= 1:
            return  # the single-core clamp keeps Tier-1 in the request thread
        assert out.result.stats.tier1_dispatch == "pool"
        nblocks = len(out.result.stats.blocks)
        assert nblocks >= 24
        assert snap["blocks_dispatched"] == nblocks
        assert 0 < snap["groups_dispatched"] < nblocks

    def test_lossy_rate_through_service(self, rgb48, pool_path):
        params = EncoderParams.lossy_rate(0.2)
        offline = encode(rgb48, params).codestream
        with EncodeService(_no_cache(2)) as service:
            assert service.encode_image(rgb48, params).codestream == offline


class TestPersistentPool:
    def test_warm_up_reports_workers(self):
        with WorkerPool(workers=2, warmup=True) as pool:
            pids = pool.warm_up()
            assert 1 <= len(pids) <= 2
            assert all(pid != os.getpid() for pid in pids)

    def test_imap_interface_matches_one_shot_queue(self):
        rng = np.random.default_rng(7)
        planes = [rng.integers(-99, 99, size=(8, 48)).astype(np.int32)]
        blocks = [(0, 0, c0, 8, 8, "HL") for c0 in range(0, 48, 8)]
        # The library's pool: threads of the caller, opened for one call.
        with ThreadPool(workers=2) as one_shot_pool:
            one_shot = CodeBlockWorkQueue(one_shot_pool).encode_plane_groups(
                planes, blocks)
        # The service's pool: warm, reused across calls.
        with WorkerPool(workers=2, warmup=True) as pool:
            injected = CodeBlockWorkQueue(pool).encode_plane_groups(
                planes, blocks)
            again = CodeBlockWorkQueue(pool).encode_plane_groups(
                planes, blocks)
            assert pool.stats.tasks_done >= 2
        assert injected == one_shot
        assert again == one_shot  # pool reused across calls

    def test_ping_and_respawn(self):
        pool = WorkerPool(workers=1, warmup=True)
        try:
            assert pool.ping()
            assert pool.ensure_healthy() is False  # healthy: no respawn
            # Wedge the pool by terminating its workers behind its back.
            pool._pool.terminate()
            pool._pool.join()
            assert not pool.ping(timeout=0.5)
            assert pool.ensure_healthy() is True  # dead: respawned
            assert pool.stats.respawns == 1
            assert pool.ping()
        finally:
            pool.terminate()

    def test_recovers_from_killed_worker(self, pool_path, monkeypatch):
        # SIGKILLing a worker loses the group it held and can poison the
        # pool's shared task queue (an idle worker holds the queue lock
        # while blocked reading), so the contract is: the request in
        # flight ends (bytes or WorkerLost, never a hang), nothing is left
        # in /dev/shm, and the pool respawns for the next request.  Groups
        # carry their blocks inline, so the service never starts (or
        # feeds) a resource tracker whose warnings a dead worker could
        # trigger.
        from multiprocessing import resource_tracker

        tracker_calls = []
        for name in ("ensure_running", "register"):
            monkeypatch.setattr(resource_tracker, name,
                                lambda *args, _n=name: tracker_calls.append(_n))
        img = watch_face_image(256, 256, channels=3)
        params = EncoderParams(codeblock_size=16)
        offline = encode(img, params).codestream
        shm_before = _shm_entries()
        with EncodeService(_no_cache(2)) as service:
            victim = service.pool.warm_up()[0]
            outcome = []

            def request():
                try:
                    outcome.append(service.encode_image(img, params).codestream)
                except WorkerLost as exc:
                    outcome.append(exc)

            thread = threading.Thread(target=request)
            thread.start()
            deadline = time.time() + 30
            while (time.time() < deadline
                   and not service.scheduler.snapshot()["groups_dispatched"]):
                time.sleep(0.005)
            os.kill(victim, signal.SIGKILL)
            thread.join(timeout=60)
            assert not thread.is_alive(), "killed request hung"
            assert outcome and (outcome[0] == offline
                                or isinstance(outcome[0], WorkerLost))
            assert _shm_entries() <= shm_before, "killed request leaked shm"
            again = service.encode_image(img, params)
            assert again.codestream == offline
            assert service.pool.stats.respawns >= 1
            assert victim not in service.pool.warm_up()
            assert service.healthy()
        assert tracker_calls == []

    def test_concurrent_submitters_settle_every_group(self):
        # More workers than cores, many submitting threads and a short
        # switch interval: every group must settle exactly once, with the
        # pool's bookkeeping intact.
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(workers=available_cores() + 2) as pool:
                out = [None] * 8

                def submit(i):
                    out[i] = list(pool.imap_unordered(_group_payloads(6, i)))

                threads = [threading.Thread(target=submit, args=(i,))
                           for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                for i, results in enumerate(out):
                    want = [_group_task(p) for p in _group_payloads(6, i)]
                    assert sorted(r[0] for r in results) == [
                        (k,) for k in range(6)]
                    assert sorted((r[0], r[2]) for r in results) == sorted(
                        (w[0], w[2]) for w in want)
                assert pool.stats.tasks_done == 8 * 6
                assert sum(pool.stats.blocks_per_worker.values()) == 8 * 6
                assert not pool._outstanding
        finally:
            sys.setswitchinterval(interval)

    def test_closed_pool_refuses_work(self):
        pool = WorkerPool(workers=1, warmup=True)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(pool.imap_unordered(_group_payloads(1)))
        assert not pool.ping()

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(workers=0)


class TestScheduler:
    def test_interleaves_two_jobs(self, gray48, rgb48, pool_path):
        """Two jobs running concurrently both finish and stay correct."""
        with WorkerPool(workers=2, warmup=True) as pool:
            scheduler = EncodeScheduler(pool, max_inflight=2)
            try:
                results = {}

                def run(name, img):
                    with scheduler.job() as job:
                        results[name] = encode(img, PARAMS, pool=job)

                t1 = threading.Thread(target=run, args=("a", gray48))
                t2 = threading.Thread(target=run, args=("b", rgb48))
                t1.start(); t2.start(); t1.join(); t2.join()
                assert results["a"].codestream == encode(gray48, PARAMS).codestream
                assert results["b"].codestream == encode(rgb48, PARAMS).codestream
                snap = scheduler.snapshot()
                assert snap["groups_dispatched"] > 0
                assert snap["blocks_dispatched"] >= snap["groups_dispatched"]
                assert snap["inflight_groups"] == 0
                assert snap["peak_inflight_groups"] <= 2
                assert snap["open_lanes"] == 0
            finally:
                scheduler.close()

    def test_priority_prefers_higher(self):
        """With a saturated single worker, high-priority groups dispatch
        ahead of queued low-priority ones."""
        with WorkerPool(workers=1, warmup=True) as pool:
            scheduler = EncodeScheduler(pool, max_inflight=1)
            try:
                lo = scheduler.job(priority=0)
                hi = scheduler.job(priority=5)
                assert hi.priority > lo.priority
                # Both lanes race; completion of both proves the dispatcher
                # serves multiple lanes.  (Strict ordering is not observable
                # from outside without hooking the pool.)
                payloads = _group_payloads(4)
                out_lo = []
                out_hi = []
                t1 = threading.Thread(
                    target=lambda: out_lo.extend(lo.imap_unordered(payloads)))
                t2 = threading.Thread(
                    target=lambda: out_hi.extend(hi.imap_unordered(payloads)))
                t1.start(); t2.start(); t1.join(); t2.join()
                assert len(out_lo) == len(out_hi) == 4
                assert sorted(seqs for seqs, _pid, _res in out_hi) == [
                    (0,), (1,), (2,), (3,)
                ]
                lo.close(); hi.close()
            finally:
                scheduler.close()

    def test_closed_scheduler_rejects_jobs(self):
        with WorkerPool(workers=1) as pool:
            scheduler = EncodeScheduler(pool)
            scheduler.close()
            with pytest.raises(SchedulerClosed):
                scheduler.job()
            scheduler.close()  # idempotent

    def test_invalid_max_inflight(self):
        with WorkerPool(workers=1) as pool:
            with pytest.raises(ValueError, match="max_inflight"):
                EncodeScheduler(pool, max_inflight=0)


class TestServiceLifecycle:
    def test_closed_service_rejects_submissions(self, gray48):
        service = EncodeService(_no_cache(1))
        service.close()
        with pytest.raises(SchedulerClosed):
            service.encode_image(gray48, PARAMS)
        service.close()  # idempotent

    def test_healthy_and_stats(self, gray48):
        with EncodeService(ServiceConfig(workers=1)) as service:
            assert service.healthy()
            service.encode_image(gray48, PARAMS)
            stats = service.stats()
            assert stats["pool"]["workers"] == 1
            assert "backend" not in stats["pool"]
            assert stats["admission"]["admitted"] == 1
            assert stats["cache"]["misses"] == 1
            assert stats["uptime_s"] >= 0
        assert not service.healthy()


class TestMetrics:
    def test_counter_and_gauge(self):
        c = Counter("c")
        c.inc(); c.inc(2)
        assert c.value == 3
        with pytest.raises(ValueError):
            c.inc(-1)
        g = Gauge("g")
        g.set(5.0); g.dec(1.5)
        assert g.value == 3.5

    def test_histogram_quantiles_and_buckets(self):
        h = Histogram("h", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 2.0, 20.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 0.05 and snap["max"] == 20.0
        by_le = {b["le"]: b["count"] for b in snap["buckets"]}
        assert by_le[0.1] == 1
        assert by_le[1.0] == 3
        assert by_le[10.0] == 4
        assert by_le["inf"] == 5
        assert h.quantile(0.5) == 0.5
        assert h.quantile(1.0) == 20.0
        assert Histogram("empty").quantile(0.95) == 0.0

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_registry_reuse_and_conflict(self):
        reg = MetricsRegistry()
        a = reg.counter("x")
        assert reg.counter("x") is a
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")
        reg.histogram("lat").observe(0.2)
        snap = reg.snapshot()
        assert snap["x"]["type"] == "counter"
        assert snap["lat"]["count"] == 1


class TestStageHistograms:
    """PR 3: every full encode feeds per-stage wall-time histograms."""

    def test_stage_histograms_observed(self, gray48):
        with EncodeService(_no_cache(1)) as service:
            service.encode_image(gray48, PARAMS)
            snap = service.metrics.snapshot()
        for stage in ("frontend", "tier1", "tier2"):
            hist = snap[f"stage_{stage}_seconds"]
            assert hist["count"] == 1
            assert "p50" in hist and "p95" in hist and "p99" in hist

    def test_cache_hit_does_not_observe_stages(self, gray48):
        with EncodeService(ServiceConfig(workers=1)) as service:
            service.encode_image(gray48, PARAMS)
            service.encode_image(gray48, PARAMS)  # cache hit
            snap = service.metrics.snapshot()
        assert snap["stage_tier1_seconds"]["count"] == 1
