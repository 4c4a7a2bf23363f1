"""Result cache and admission control: the issue's edge-case checklist.

- a cache hit returns identical bytes without touching the worker pool;
- a full queue rejects cleanly (or blocks, under that policy);
- LRU eviction respects the byte budget.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.image.synthetic import watch_face_image
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.service import EncodeService, ServiceConfig
from repro.service.admission import AdmissionController, QueueFullError
from repro.service.cache import ResultCache, cache_key, canonical_params

PARAMS = EncoderParams(levels=3)


@pytest.fixture(scope="module")
def gray48():
    return watch_face_image(48, 48, channels=1)


class TestCacheKey:
    def test_execution_strategy_excluded(self, gray48):
        """workers / tier1_backend are bit-exact, so they share a key."""
        base = cache_key(gray48, EncoderParams(levels=3, workers=1))
        assert base == cache_key(
            gray48, EncoderParams(levels=3, workers=8,
                                  tier1_backend="reference")
        )

    def test_coding_parameters_included(self, gray48):
        base = cache_key(gray48, EncoderParams(levels=3))
        assert base != cache_key(gray48, EncoderParams(levels=4))
        assert base != cache_key(gray48, EncoderParams(lossless=False, rate=0.2,
                                                       levels=3))

    def test_pixels_included(self, gray48):
        other = gray48.copy()
        other[0, 0] ^= 1
        assert cache_key(gray48, PARAMS) != cache_key(other, PARAMS)
        # Same values, different shape/dtype must differ too.
        flat = gray48.reshape(1, -1).copy()
        assert cache_key(gray48, PARAMS) != cache_key(flat, PARAMS)

    def test_canonical_params_stable(self):
        s = canonical_params(EncoderParams(levels=3))
        assert "levels=3" in s and "workers" not in s


class TestResultCache:
    # Budgets below are phrased in full entry costs (payload + key +
    # ENTRY_OVERHEAD_BYTES) via entry_cost(), the unit the LRU charges in.

    def test_eviction_respects_byte_budget(self):
        two = 2 * ResultCache.entry_cost("a", b"x" * 40)
        cache = ResultCache(max_bytes=two)
        cache.put("a", b"x" * 40)
        cache.put("b", b"y" * 40)
        cache.put("c", b"z" * 40)  # third entry overflows: evicts LRU ("a")
        assert cache.bytes_used <= two
        assert cache.get("a") is None
        assert cache.get("b") == b"y" * 40
        assert cache.evictions == 1

    def test_get_refreshes_lru_order(self):
        two = 2 * ResultCache.entry_cost("a", b"x" * 40)
        cache = ResultCache(max_bytes=two)
        cache.put("a", b"x" * 40)
        cache.put("b", b"y" * 40)
        assert cache.get("a")  # "b" is now least recent
        cache.put("c", b"z" * 40)
        assert cache.get("b") is None
        assert cache.get("a") == b"x" * 40

    def test_oversized_item_not_stored(self):
        cache = ResultCache(max_bytes=10)
        assert cache.put("big", b"x" * 11) is False
        assert len(cache) == 0

    def test_key_and_overhead_count_against_budget(self):
        """A payload that fits nominally is rejected once key + entry
        overhead push its true cost past the budget."""
        key = "k" * 64  # a realistic SHA-256 hex key
        payload = b"x" * 100
        cache = ResultCache(max_bytes=110)  # > payload, < full entry cost
        assert ResultCache.entry_cost(key, payload) > 110
        assert cache.put(key, payload) is False
        ok = ResultCache(max_bytes=ResultCache.entry_cost(key, payload))
        assert ok.put(key, payload) is True
        snap = ok.snapshot()
        assert snap["payload_bytes"] == len(payload)
        assert snap["overhead_bytes"] == snap["bytes_used"] - len(payload)
        assert snap["bytes_used"] == ResultCache.entry_cost(key, payload)

    def test_replace_same_key_adjusts_bytes(self):
        cache = ResultCache(max_bytes=2 * ResultCache.entry_cost("a", b"x" * 80))
        cache.put("a", b"x" * 80)
        cache.put("a", b"y" * 20)
        assert cache.bytes_used == ResultCache.entry_cost("a", b"y" * 20)
        assert cache.get("a") == b"y" * 20

    def test_zero_budget_disables(self):
        cache = ResultCache(max_bytes=0)
        assert cache.put("a", b"") is False  # even an empty entry has a cost
        assert cache.put("b", b"x") is False
        assert cache.get("b") is None
        assert cache.snapshot()["hit_rate"] == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(max_bytes=-1)


class TestServiceCacheIntegration:
    def test_hit_returns_identical_bytes_without_pool(self, gray48):
        offline = encode(gray48, PARAMS).codestream
        with EncodeService(ServiceConfig(workers=1)) as service:
            first = service.encode_image(gray48, PARAMS)
            assert first.cache_hit is False
            tasks_after_miss = service.pool.snapshot()["tasks_done"]
            second = service.encode_image(gray48, PARAMS)
            assert second.cache_hit is True
            assert second.codestream == first.codestream == offline
            # The hit ran zero pool tasks and admitted zero jobs.
            assert service.pool.snapshot()["tasks_done"] == tasks_after_miss
            assert service.admission.snapshot()["admitted"] == 1
            assert service.cache.snapshot()["hits"] == 1


    def test_concurrent_duplicates_coalesce_to_one_encode(self, gray48):
        """Single-flight: a cold burst of identical requests runs the full
        encode once; the rest wait and return the same bytes."""
        offline = encode(gray48, PARAMS).codestream
        with EncodeService(ServiceConfig(workers=1)) as service:
            outputs = [None] * 6

            def submit(i):
                outputs[i] = service.encode_image(gray48, PARAMS)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(out.codestream == offline for out in outputs)
            snap = service.metrics.snapshot()
            assert snap["images_encoded_total"]["value"] == 1
            assert snap["cache_hits_total"]["value"] == 5
            assert sum(out.cache_hit for out in outputs) == 5

    def test_coalescing_disabled_without_cache(self, gray48):
        """cache_bytes=0 must not serialize identical requests."""
        with EncodeService(ServiceConfig(workers=1, cache_bytes=0)) as service:
            a = service.encode_image(gray48, PARAMS)
            b = service.encode_image(gray48, PARAMS)
            assert a.codestream == b.codestream
            assert not a.cache_hit and not b.cache_hit
            snap = service.metrics.snapshot()
            assert snap["images_encoded_total"]["value"] == 2
            assert snap["coalesced_total"]["value"] == 0


class TestAdmission:
    def test_reject_policy_when_full(self):
        gate = AdmissionController(max_queue=2, policy="reject")
        gate.acquire()
        gate.acquire()
        with pytest.raises(QueueFullError, match="full"):
            gate.acquire()
        assert gate.snapshot()["rejected"] == 1
        assert gate.shedding
        gate.release()
        gate.acquire()  # slot freed -> admitted again
        assert gate.snapshot()["admitted"] == 3

    def test_try_acquire(self):
        gate = AdmissionController(max_queue=1)
        assert gate.try_acquire() is True
        assert gate.try_acquire() is False
        gate.release()
        assert gate.try_acquire() is True

    def test_block_policy_waits_for_slot(self):
        gate = AdmissionController(max_queue=1, policy="block")
        gate.acquire()
        admitted = threading.Event()

        def waiter():
            gate.acquire()
            admitted.set()

        t = threading.Thread(target=waiter)
        t.start()
        assert not admitted.wait(0.15)  # still blocked while full
        gate.release()
        assert admitted.wait(5.0)
        t.join()
        assert gate.snapshot()["rejected"] == 0

    def test_block_policy_timeout(self):
        gate = AdmissionController(max_queue=1, policy="block",
                                   block_timeout_s=0.05)
        gate.acquire()
        with pytest.raises(QueueFullError):
            gate.acquire()

    def test_release_without_acquire(self):
        with pytest.raises(RuntimeError, match="release"):
            AdmissionController(max_queue=1).release()

    def test_validation(self):
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionController(max_queue=0)
        with pytest.raises(ValueError, match="policy"):
            AdmissionController(max_queue=1, policy="drop")

    def test_service_queue_full_rejects_cleanly(self, gray48):
        """Saturate admission, then watch an uncached encode get shed."""
        with EncodeService(
            ServiceConfig(workers=1, max_queue=1, cache_bytes=0)
        ) as service:
            service.admission.acquire()  # occupy the only slot
            try:
                with pytest.raises(QueueFullError):
                    service.encode_image(gray48, PARAMS)
                assert service.metrics.snapshot()["rejected_total"]["value"] == 1
            finally:
                service.admission.release()
            # Slot free again: the same request now succeeds.
            out = service.encode_image(gray48, PARAMS)
            assert out.codestream == encode(gray48, PARAMS).codestream

    def test_cache_hits_flow_while_shedding(self, gray48):
        """Load shedding must not break already-cached traffic."""
        with EncodeService(ServiceConfig(workers=1, max_queue=1)) as service:
            warm = service.encode_image(gray48, PARAMS)
            service.admission.acquire()
            try:
                hit = service.encode_image(gray48, PARAMS)
                assert hit.cache_hit and hit.codestream == warm.codestream
            finally:
                service.admission.release()
