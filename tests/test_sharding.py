"""Sharded serving tier: cache bus, shedding, cluster.

The unit half exercises each sharding component in-process (bus protocol,
lease single-flight, shedder, histogram merging).  The
integration half forks real shard clusters and talks to them over HTTP —
byte identity across shard counts, cluster-wide single-flight, crash
respawn, and orphan-free graceful shutdown are the load-bearing
guarantees.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.image.synthetic import watch_face_image
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.service import EncodeService, ServiceConfig
from repro.service.admission import LoadShedder, ShedError
from repro.service.metrics import Histogram, MetricsRegistry, merge_metric_states
from repro.service.sharding import ShardCluster, ShardClusterConfig
from repro.service.sharding.cachebus import CacheBusClient, CacheBusServer
from repro.service.sharding.frontend import _InheritedSocketHTTPServer, _listen


def _pgm(image: np.ndarray) -> bytes:
    h, w = image.shape
    return b"P5\n%d %d\n255\n" % (w, h) + image.tobytes()


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _small_image(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(2008 + seed)
    return rng.integers(0, 256, size=(48, 48), dtype=np.uint8)


# -- cache bus ----------------------------------------------------------------


@pytest.fixture()
def bus(tmp_path):
    server = CacheBusServer(str(tmp_path / "bus.sock"), max_bytes=1 << 20)
    server.start()
    yield server
    server.stop()


class TestCacheBus:
    def test_get_miss_then_put_then_hit(self, bus):
        client = CacheBusClient(bus.path)
        assert client.ping()
        assert client.get("k") is None
        assert client.put("k", b"payload")
        assert client.get("k") == b"payload"
        stats = client.fetch_stats()["cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["puts"] == 1

    def test_values_larger_than_one_recv_chunk_round_trip(self, tmp_path):
        # Values travel inline after the reply header; one bigger than
        # _recv_exact's 1 MiB chunk must arrive whole through a get and
        # through a lease waiter parked until the leader's put.
        server = CacheBusServer(
            str(tmp_path / "bus.sock"), max_bytes=8 << 20
        ).start()
        try:
            leader, waiter = CacheBusClient(server.path), \
                CacheBusClient(server.path)
            blob = np.random.default_rng(7).bytes(3 * (1 << 20) + 123)
            assert leader.lease("k") == ("lead", None)
            got = {}
            t = threading.Thread(
                target=lambda: got.update(r=waiter.lease("k", 10.0))
            )
            t.start()
            time.sleep(0.1)  # let the waiter park server-side
            assert leader.put("k", blob)
            t.join(timeout=10.0)
            assert got["r"] == ("hit", blob)
            assert waiter.get("k") == blob
            assert server.stats["lease_waits"] >= 1
        finally:
            server.stop()

    def test_lru_eviction_bounded_by_budget(self, tmp_path):
        server = CacheBusServer(
            str(tmp_path / "bus.sock"), max_bytes=600
        ).start()
        try:
            client = CacheBusClient(server.path)
            client.put("a", b"x" * 200)
            client.put("b", b"y" * 200)
            client.put("c", b"z" * 200)  # evicts "a" (oldest)
            assert client.get("a") is None
            assert client.get("c") == b"z" * 200
            assert client.fetch_stats()["cache"]["evictions"] >= 1
        finally:
            server.stop()

    def test_lease_single_flight_across_clients(self, bus):
        leader = CacheBusClient(bus.path)
        waiter = CacheBusClient(bus.path)
        status, value = leader.lease("k")
        assert (status, value) == ("lead", None)

        got = {}

        def wait_for_value():
            got["result"] = waiter.lease("k", wait_timeout=10.0)

        t = threading.Thread(target=wait_for_value)
        t.start()
        time.sleep(0.1)  # let the waiter park server-side
        assert leader.put("k", b"bytes")
        t.join(timeout=10.0)
        assert got["result"] == ("hit", b"bytes")
        stats = bus.stats
        assert stats["leases_granted"] == 1
        assert stats["lease_waits"] >= 1

    def test_lease_release_promotes_next_caller(self, bus):
        a, b = CacheBusClient(bus.path), CacheBusClient(bus.path)
        assert a.lease("k")[0] == "lead"
        a.release("k")
        assert b.lease("k")[0] == "lead"

    def test_lease_wait_timeout_is_a_miss(self, bus):
        a, b = CacheBusClient(bus.path), CacheBusClient(bus.path)
        assert a.lease("k")[0] == "lead"
        assert b.lease("k", wait_timeout=0.2) == ("miss", None)

    def test_stale_lease_is_stolen(self, tmp_path):
        server = CacheBusServer(
            str(tmp_path / "bus.sock"), lease_ttl_s=0.1
        ).start()
        try:
            a, b = CacheBusClient(server.path), CacheBusClient(server.path)
            assert a.lease("k")[0] == "lead"
            time.sleep(0.15)  # leader "crashed"; its lease expires
            assert b.lease("k")[0] == "lead"
            assert server.stats["lease_steals"] == 1
        finally:
            server.stop()

    def test_lease_age_ignores_wall_clock_steps(self, tmp_path, monkeypatch):
        """Regression: lease holders were stamped with ``time.time()``, so
        an NTP step (or any wall-clock jump) instantly aged every lease
        past its TTL and let waiters steal in-flight work.  Ages must be
        measured on the same monotonic clock as the wait deadlines."""
        from repro.service.sharding import cachebus as cachebus_mod

        real_time = time

        class _SteppableClock:
            wall_offset = 0.0
            mono_offset = 0.0

            def time(self):
                return real_time.time() + self.wall_offset

            def monotonic(self):
                return real_time.monotonic() + self.mono_offset

        clock = _SteppableClock()
        monkeypatch.setattr(cachebus_mod, "time", clock)
        server = CacheBusServer(
            str(tmp_path / "bus.sock"), lease_ttl_s=30.0
        ).start()
        try:
            a, b = CacheBusClient(server.path), CacheBusClient(server.path)
            assert a.lease("k")[0] == "lead"
            # A wall-clock jump far past the TTL must NOT expire the lease.
            clock.wall_offset = 3600.0
            assert b.lease("k", wait_timeout=0.2) == ("miss", None)
            assert server.stats["lease_steals"] == 0
            # Genuine elapsed (monotonic) time past the TTL must.
            clock.mono_offset = 31.0
            assert b.lease("k")[0] == "lead"
            assert server.stats["lease_steals"] == 1
        finally:
            server.stop()

    def test_client_fails_open_without_server(self, tmp_path):
        client = CacheBusClient(str(tmp_path / "nobody-home.sock"))
        assert not client.ping()
        assert client.get("k") is None
        assert client.lease("k") == ("miss", None)
        assert not client.put("k", b"v")
        assert client.snapshot()["errors"] >= 4

    def test_publish_and_fetch_shard_blobs(self, bus):
        client = CacheBusClient(bus.path)
        assert client.publish_stats(3, {"requests": 7})
        blobs = client.fetch_stats()["shards"]
        assert blobs["3"]["payload"] == {"requests": 7}


# -- load shedding ------------------------------------------------------------


class TestLoadShedder:
    def _histogram(self, values):
        hist = Histogram("request_seconds")
        for v in values:
            hist.observe(v)
        return hist

    def test_open_below_min_samples(self):
        shedder = LoadShedder(self._histogram([9.9] * 5), target_p95_s=0.1)
        assert shedder.shed_probability() == 0.0
        shedder.admit()  # no raise

    def test_open_when_p95_meets_target(self):
        shedder = LoadShedder(
            self._histogram([0.01] * 64), target_p95_s=0.1, min_samples=32
        )
        for _ in range(100):
            shedder.admit()
        assert shedder.shed == 0

    def test_sheds_deterministic_fraction_when_over_target(self):
        # p95 = 0.3 vs target 0.1 -> overshoot 2.0 -> capped at 0.95.
        shedder = LoadShedder(
            self._histogram([0.3] * 64), target_p95_s=0.1, min_samples=32
        )
        outcomes = []
        for _ in range(100):
            try:
                shedder.admit()
                outcomes.append("ok")
            except ShedError as exc:
                outcomes.append("shed")
                assert exc.retry_after_s >= 1.0
                assert exc.max_queue == 0  # QueueFullError-compatible
        # floor(0.95 * 100) up to one ulp of accumulated float error.
        assert outcomes.count("shed") in (94, 95)
        snap = shedder.snapshot()
        assert snap["checked"] == 100 and snap["shed"] == outcomes.count("shed")

    def test_partial_overshoot_sheds_partially(self):
        # p95 = 0.15 vs 0.1 -> shed fraction ~0.5 (exact up to float error).
        shedder = LoadShedder(
            self._histogram([0.15] * 64), target_p95_s=0.1, min_samples=32
        )
        shed = 0
        for _ in range(100):
            try:
                shedder.admit()
            except ShedError:
                shed += 1
        assert shed in (49, 50)


# -- histogram merging --------------------------------------------------------


class TestMetricsMerge:
    def test_merge_combines_samples_not_quantiles(self):
        a, b = Histogram("h"), Histogram("h")
        for v in (0.1, 0.2, 0.3):
            a.observe(v)
        for v in (10.0, 20.0, 30.0):
            b.observe(v)
        a.merge(b)
        state = a.state()
        assert state["count"] == 6
        assert state["sum"] == pytest.approx(60.6)
        # A true merge sees b's tail; averaged quantiles never could.
        assert a.quantile(0.99) == pytest.approx(30.0)
        assert state["min"] == pytest.approx(0.1)
        assert state["max"] == pytest.approx(30.0)

    def test_merge_rejects_mismatched_buckets(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        b = Histogram("h", buckets=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_metric_states_across_registries(self):
        regs = [MetricsRegistry() for _ in range(3)]
        for i, reg in enumerate(regs):
            reg.counter("requests_total", "").inc(i + 1)
            reg.gauge("inflight", "").set(i)
            hist = reg.histogram("request_seconds", "")
            hist.observe(float(i + 1))
        merged = merge_metric_states([r.state() for r in regs])
        assert merged["requests_total"]["value"] == 6
        assert merged["inflight"]["value"] == 3  # gauges sum
        assert merged["request_seconds"]["count"] == 3
        assert merged["request_seconds"]["max"] == pytest.approx(3.0)


# -- service integration (single process) -------------------------------------


class TestServiceShardingFeatures:
    def test_cache_hit_ratio_gauge_tracks_hits(self):
        image = _small_image()
        with EncodeService(ServiceConfig(workers=1)) as service:
            service.encode_image(image)
            service.encode_image(image)
            snapshot = service.metrics.snapshot()
            assert snapshot["cache_hit_ratio"]["value"] == pytest.approx(0.5)

    def test_service_leads_and_publishes_through_bus(self, bus):
        image = _small_image()
        config = ServiceConfig(workers=1, bus_path=bus.path)
        with EncodeService(config) as first:
            response = first.encode_image(image)
            assert not response.cache_hit
        # A different service (fresh local cache) hits via the bus.
        with EncodeService(config) as second:
            response = second.encode_image(image)
            assert response.cache_hit
            assert response.cache_source == "remote"
            m = second.metrics.snapshot()
            assert m["remote_cache_hits_total"]["value"] == 1
            assert m["cache_hit_ratio"]["value"] == pytest.approx(1.0)


# -- the shared listener ------------------------------------------------------


class TestSharedListener:
    def test_shard_that_lost_the_accept_race_returns(self):
        # A shard's poll can wake for a connection a sibling has already
        # taken; its accept() must give up at once, or its loop never
        # sees shutdown() until the next connection arrives.
        listener = _listen("127.0.0.1", 0)
        port = listener.getsockname()[1]
        with EncodeService(ServiceConfig(workers=1)) as service:
            server = _InheritedSocketHTTPServer(listener, service, quiet=True)
            try:
                attempt = threading.Thread(
                    target=server._handle_request_noblock, daemon=True
                )
                attempt.start()
                attempt.join(timeout=1.0)
                blocked = attempt.is_alive()
                if blocked:  # release the stuck accept() before failing
                    socket.create_connection(("127.0.0.1", port)).close()
                assert not blocked, "accept() blocked on an empty queue"

                loop = threading.Thread(
                    target=server.serve_forever, args=(0.1,), daemon=True
                )
                loop.start()
                url = f"http://127.0.0.1:{port}/healthz"
                with urllib.request.urlopen(url, timeout=10) as resp:
                    assert resp.status == 200
                t0 = time.monotonic()
                server.shutdown()
                assert time.monotonic() - t0 < 5.0
                loop.join(timeout=5.0)
            finally:
                server.server_close()

    def test_listener_flag_is_gone(self, capsys):
        # One listener strategy, the inherited socket, and no flag for it.
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["serve", "--shards", "2", "--listener", "inherit"]
            )
        assert exc.value.code == 2
        assert "--listener" in capsys.readouterr().err


# -- cluster integration ------------------------------------------------------


def _wait_healthy(url: str, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=5) as resp:
                if resp.status == 200:
                    return
        except Exception:
            time.sleep(0.1)
    raise TimeoutError(f"cluster at {url} never became healthy")


def _post(url: str, body: bytes):
    req = urllib.request.Request(url, data=body, method="POST")
    return urllib.request.urlopen(req, timeout=120)


def _cluster(shards: int, **overrides) -> ShardCluster:
    service = overrides.pop("service", ServiceConfig(workers=1))
    config = ShardClusterConfig(
        shards=shards, service=service, quiet=True, heartbeat_s=0.2,
        **overrides,
    )
    return ShardCluster(config)


@pytest.mark.slow
class TestShardCluster:
    def test_codestreams_identical_across_shard_counts(self):
        image = watch_face_image(48, 48, channels=1)
        body = _pgm(image)
        expected = encode(image, EncoderParams.lossless_default()).codestream
        for shards in (1, 2, 4):
            with _cluster(shards) as cluster:
                url = f"http://127.0.0.1:{cluster.port}"
                _wait_healthy(url)
                with _post(url + "/encode?verify=1", body) as resp:
                    assert resp.status == 200
                    assert resp.headers["X-Verified"] == "roundtrip"
                    assert int(resp.headers["X-Shard"]) in range(shards)
                    served = resp.read()
                assert served == expected, f"{shards}-shard bytes differ"

    def test_concurrent_burst_encodes_once_cluster_wide(self):
        body = _pgm(watch_face_image(48, 48, channels=1))
        with _cluster(2) as cluster:
            url = f"http://127.0.0.1:{cluster.port}"
            _wait_healthy(url)
            statuses, codestreams = [], []
            lock = threading.Lock()

            def hit():
                with _post(url + "/encode", body) as resp:
                    data = resp.read()
                with lock:
                    statuses.append(resp.status)
                    codestreams.append(data)

            threads = [threading.Thread(target=hit) for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            assert statuses == [200] * 16
            assert len(set(codestreams)) == 1
            time.sleep(0.6)  # let the final heartbeats land on the bus
            metrics = json.load(
                urllib.request.urlopen(url + "/metrics", timeout=10)
            )
            aggregate = metrics["aggregate"]
            assert aggregate["requests_total"]["value"] == 16
            # The load-bearing claim: 16 identical requests across two
            # shards cost exactly one encode — local single-flight plus
            # the bus lease deduplicated everything else.
            assert aggregate["images_encoded_total"]["value"] == 1
            # A ratio must survive aggregation as a ratio: the merge sums
            # gauges, so the provider recomputes this one from counters.
            assert 0.0 <= aggregate["cache_hit_ratio"]["value"] <= 1.0

    def test_serving_creates_no_shm_entry(self):
        # Bus values travel inline on its Unix socket: a cluster that has
        # served an encode (a put and a bus lookup) owns no /dev/shm entry.
        before = _shm_entries()
        body = _pgm(watch_face_image(48, 48, channels=1))
        with _cluster(2) as cluster:
            url = f"http://127.0.0.1:{cluster.port}"
            _wait_healthy(url)
            for _ in range(2):
                with _post(url + "/encode", body) as resp:
                    assert resp.status == 200
            stats = json.load(urllib.request.urlopen(url + "/stats"))
            assert stats["cluster"]["cache_bus"]["puts"] >= 1
            assert _shm_entries() - before == set()

    def test_drain_after_bursts_is_prompt(self):
        # Every shard polls the one listener, and one connection wakes
        # every idle poller.  The losers of that race must not sleep in
        # accept(), or their drain waits for the next connection and the
        # supervisor ends up SIGKILLing them.
        with _cluster(4) as cluster:
            url = f"http://127.0.0.1:{cluster.port}"
            _wait_healthy(url)

            def get():
                urllib.request.urlopen(url + "/healthz", timeout=10).read()

            threads = [threading.Thread(target=get) for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            for _ in range(3):  # single connections to idle shards
                time.sleep(0.3)
                get()
            procs = list(cluster._procs.values())
            t0 = time.monotonic()
            cluster.stop(graceful=True)
            elapsed = time.monotonic() - t0
        assert elapsed < 15.0, f"drain took {elapsed:.1f} s"
        assert [p.exitcode for p in procs] == [0] * 4

    def test_crashed_shard_is_respawned(self):
        with _cluster(2) as cluster:
            url = f"http://127.0.0.1:{cluster.port}"
            _wait_healthy(url)
            victim = cluster.alive_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                alive = cluster.alive_pids()
                if cluster.respawns >= 1 and len(alive) == 2 \
                        and alive[0] != victim:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("shard 0 was not respawned")
            _wait_healthy(url)

    def test_graceful_stop_leaves_no_orphans(self):
        cluster = _cluster(2).start()
        url = f"http://127.0.0.1:{cluster.port}"
        _wait_healthy(url)
        pids = list(cluster.alive_pids().values())
        assert len(pids) == 2
        cluster.stop(graceful=True)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        # The port is free again: a new cluster can bind it.
        with _cluster(1, port=cluster.port) as again:
            _wait_healthy(f"http://127.0.0.1:{again.port}")
