"""Multi-core code-block work queue: determinism and integration.

The contract mirrors the paper's Section 3 SPE queue: blocks are handed
out dynamically, but the assembled codestream must not depend on worker
count, completion order, or backend.  Pool tests use small images so the
suite stays fast on single-core CI machines.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import workpool
from repro.core.workpool import (
    CodeBlockWorkQueue,
    QueueStats,
    WorkerPool,
    default_workers,
)
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.jpeg2000.tier1 import encode_codeblock, encode_codeblock_reference


def _blocks(seed=0, count=12):
    rng = np.random.default_rng(seed)
    bands = ["LL", "HL", "LH", "HH"]
    return [
        (
            rng.integers(-200, 200, size=(rng.integers(1, 17),
                                          rng.integers(1, 17))).astype(np.int32),
            bands[i % 4],
        )
        for i in range(count)
    ]


def _as_planes(blocks):
    """One plane per block, each described by a whole-plane slice."""
    planes = [cb for cb, _band in blocks]
    descs = [(i, 0, 0, cb.shape[0], cb.shape[1], band)
             for i, (cb, band) in enumerate(blocks)]
    return planes, descs


def _encode_groups(blocks, workers):
    planes, descs = _as_planes(blocks)
    with WorkerPool(workers) as pool:
        queue = CodeBlockWorkQueue(pool)
        return queue.encode_plane_groups(planes, descs), queue.last_stats


@pytest.fixture(scope="module")
def pool2():
    with WorkerPool(2) as pool:
        yield pool


def _disable_shm_segments(monkeypatch):
    """Make publishing a plane fail like a full ``/dev/shm`` does."""
    import errno
    from multiprocessing import shared_memory

    real = shared_memory.SharedMemory

    def full(name=None, create=False, size=0):
        if create:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(name=name, create=create, size=size)

    monkeypatch.setattr(shared_memory, "SharedMemory", full)


class TestQueue:
    def test_serial_matches_direct_calls(self):
        # workers=1 never opens a pool: per-block in-process coding.
        img = np.random.default_rng(0).integers(0, 255, (40, 40), np.uint8)
        params = EncoderParams(levels=2, codeblock_size=16)
        res = encode(img, params)
        assert res.stats.tier1_dispatch == "serial"
        assert res.codestream == encode(img, EncoderParams(
            levels=2, codeblock_size=16, tier1_backend="reference")).codestream

    def test_pool_matches_serial(self):
        blocks = _blocks(seed=1)
        got, _ = _encode_groups(blocks, workers=3)
        assert got == [encode_codeblock(cb, band) for cb, band in blocks]

    def test_results_in_submission_order(self, pool2):
        # Mix fast (tiny) and slow (big dense) blocks so completion order
        # under the pool almost certainly differs from submission order.
        rng = np.random.default_rng(2)
        blocks = []
        for i in range(8):
            if i % 2:
                blocks.append((rng.integers(-1000, 1000, size=(32, 32))
                               .astype(np.int32), "HH"))
            else:
                blocks.append((np.ones((1, 1), dtype=np.int32), "LL"))
        planes, descs = _as_planes(blocks)
        pooled = CodeBlockWorkQueue(pool2).encode_plane_groups(
            planes, descs)
        serial = [encode_codeblock(cb, band) for cb, band in blocks]
        for i, (a, b) in enumerate(zip(serial, pooled)):
            assert a == b, f"block {i} out of order or mismatched"

    def test_queue_stats_recorded(self, pool2):
        queue = CodeBlockWorkQueue(pool2)
        planes, descs = _as_planes(_blocks(seed=3, count=6))
        queue.encode_plane_groups(planes, descs)
        stats = queue.last_stats
        assert isinstance(stats, QueueStats)
        assert stats.workers == 2
        assert stats.blocks == 6
        assert 1 <= stats.groups <= 6
        assert sum(stats.blocks_per_worker.values()) == 6

    def test_empty_and_single(self, pool2, watch_gray_64, monkeypatch):
        queue = CodeBlockWorkQueue(pool2)
        assert queue.encode_plane_groups([], []) == []
        assert queue.decode_groups([]) == []
        # A single block never pays for a pool, even with the clamp off.
        monkeypatch.setattr(workpool, "TIER1_AUTO_SERIAL_MIN_BLOCKS", 0)
        monkeypatch.setattr(workpool, "available_cores", lambda: 4)
        img = watch_gray_64[:8, :8]
        res = encode(img, EncoderParams(levels=0, workers=4))
        assert len(res.stats.blocks) == 1
        assert res.stats.tier1_dispatch == "serial"

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(workers=0)
        assert WorkerPool(workers=None).workers == default_workers()
        assert default_workers() >= 1

    def test_duplicate_seq_rejected(self):
        class RepeatingPool:
            """Delivers the first group twice and drops the rest."""
            workers = 2

            def imap_unordered(self, payloads):
                from repro.core.workpool import _group_task

                first = _group_task(payloads[0])
                yield first
                yield first

        planes, descs = _as_planes(_blocks(seed=5, count=8))
        with pytest.raises(RuntimeError, match="lost"):
            CodeBlockWorkQueue(RepeatingPool()).encode_plane_groups(
                planes, descs)


class TestEncoderIntegration:
    """Issue acceptance: --workers 1 vs --workers 4 byte-identical."""

    @pytest.fixture(scope="class")
    def image(self, watch_rgb_96):
        return watch_rgb_96

    def test_workers_1_vs_4_identical(self, image):
        r1 = encode(image, EncoderParams(levels=3, workers=1))
        r4 = encode(image, EncoderParams(levels=3, workers=4))
        assert r1.codestream == r4.codestream

    def test_stats_identical_across_workers(self, image):
        r1 = encode(image, EncoderParams(levels=3, workers=1))
        r2 = encode(image, EncoderParams(levels=3, workers=2))
        assert [vars(b) for b in r1.stats.blocks] == [
            vars(b) for b in r2.stats.blocks
        ]
        assert [vars(s) for s in r1.stats.subbands] == [
            vars(s) for s in r2.stats.subbands
        ]

    def test_rate_control_with_workers(self, image):
        p1 = EncoderParams(lossless=False, rate=0.2, workers=1)
        p2 = EncoderParams(lossless=False, rate=0.2, workers=2)
        assert encode(image, p1).codestream == encode(image, p2).codestream

    def test_backend_param_identical(self, image):
        a = encode(image, EncoderParams(levels=3, tier1_backend="reference"))
        b = encode(image, EncoderParams(levels=3, tier1_backend="auto"))
        assert a.codestream == b.codestream

    def test_params_validation(self):
        with pytest.raises(ValueError, match="tier1_backend"):
            EncoderParams(tier1_backend="cuda")
        with pytest.raises(ValueError, match="workers"):
            EncoderParams(workers=0)
        assert EncoderParams(workers=None).workers is None

    def test_cell_encoder_workers_override(self, watch_gray_64):
        from repro.core.parallel_encoder import CellJPEG2000Encoder

        pe = CellJPEG2000Encoder(workers=2)
        pr = pe.encode(watch_gray_64, EncoderParams(levels=3))
        base = encode(watch_gray_64, EncoderParams(levels=3))
        assert pr.codestream == base.codestream
        assert pr.encode_result.params.workers == 2


# ---------------------------------------------------------------------------
# Shared-memory plane dispatch and its inline fallback.
# ---------------------------------------------------------------------------

from repro.core.workpool import (  # noqa: E402
    _group_blocks,
    _SharedPlanes,
    shared_memory_available,
)


def _planes_and_tasks(seed=3):
    """Two oddly shaped planes tiled into 16x16 (and ragged-edge) blocks."""
    rng = np.random.default_rng(seed)
    planes = [
        rng.integers(-300, 300, size=(40, 56)).astype(np.int32),
        rng.integers(-60, 60, size=(33, 17)).astype(np.int32),
    ]
    bands = ("LL", "HL", "LH", "HH")
    tasks = []
    for pi, plane in enumerate(planes):
        for r0 in range(0, plane.shape[0], 16):
            for c0 in range(0, plane.shape[1], 16):
                tasks.append((
                    pi, r0, c0,
                    min(16, plane.shape[0] - r0),
                    min(16, plane.shape[1] - c0),
                    bands[len(tasks) % 4],
                ))
    return planes, tasks


def _serial_oracle(planes, tasks):
    return [
        encode_codeblock_reference(planes[p][r0 : r0 + h, c0 : c0 + w], band)
        for p, r0, c0, h, w, band in tasks
    ]


def _same_results(a, b) -> bool:
    return len(a) == len(b) and all(
        x.data == y.data and x.pass_lengths == y.pass_lengths
        and x.num_passes == y.num_passes
        for x, y in zip(a, b)
    )


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


class TestGroupBlockItems:
    @pytest.mark.skipif(not shared_memory_available(),
                        reason="shared memory unavailable")
    def test_slice_of(self):
        # A group item names a published plane plus offsets/shape; the
        # worker copies exactly that slice (and the inline form as is).
        plane = np.arange(12 * 10, dtype=np.int32).reshape(12, 10)
        shared = _SharedPlanes([plane])
        try:
            [(got, band), (inline, _)] = _group_blocks([
                (shared.descs[0], 4, 2, 3, 5, "HL"),
                (plane[1:3, 1:4].copy(), 0, 0, 2, 3, "LL"),
            ])
        finally:
            shared.close()
        assert band == "HL"
        assert np.array_equal(got, plane[4:7, 2:7])
        assert np.array_equal(inline, plane[1:3, 1:4])


class TestPlaneDispatch:
    def test_serial_path_and_stats(self, watch_rgb_64, monkeypatch):
        # Below the clamp the encoder codes in process, never via a pool.
        monkeypatch.setattr(workpool, "TIER1_AUTO_SERIAL_MIN_BLOCKS", 1000)
        res = encode(watch_rgb_64, EncoderParams(
            levels=3, workers=2, tier1_backend="reference"))
        assert res.stats.tier1_dispatch == "serial"
        auto = encode(watch_rgb_64, EncoderParams(levels=3, workers=2))
        assert auto.stats.tier1_dispatch == "serial"
        assert auto.codestream == res.codestream

    @pytest.mark.skipif(not shared_memory_available(),
                        reason="shared memory unavailable")
    def test_shared_memory_matches_serial(self, pool2):
        planes, tasks = _planes_and_tasks()
        queue = CodeBlockWorkQueue(pool2)
        res = queue.encode_plane_groups(planes, tasks)
        assert _same_results(res, _serial_oracle(planes, tasks))
        assert queue.last_stats.dispatch == "shared_memory"
        assert sum(queue.last_stats.blocks_per_worker.values()) == len(tasks)

    def test_pickle_path_matches_serial(self, pool2, monkeypatch):
        _disable_shm_segments(monkeypatch)
        before = _shm_entries()
        planes, tasks = _planes_and_tasks()
        queue = CodeBlockWorkQueue(pool2)
        res = queue.encode_plane_groups(planes, tasks)
        assert _same_results(res, _serial_oracle(planes, tasks))
        assert queue.last_stats.dispatch == "pickle"
        assert _shm_entries() <= before

    def test_missing_shared_memory_forces_pickle(self, pool2, monkeypatch):
        monkeypatch.setattr(workpool, "shared_memory_available", lambda: False)
        planes, tasks = _planes_and_tasks()
        queue = CodeBlockWorkQueue(pool2)
        res = queue.encode_plane_groups(planes, tasks)
        assert _same_results(res, _serial_oracle(planes, tasks))
        assert queue.last_stats.dispatch == "pickle"

    @pytest.mark.skipif(not shared_memory_available(),
                        reason="shared memory unavailable")
    def test_injected_pool_runs_shared_memory_groups(self):
        class InlinePool:
            """Duck-typed pool that runs every group in this process."""
            workers = 2

            def imap_unordered(self, payloads):
                from repro.core.workpool import _group_task
                for p in payloads:
                    yield _group_task(p)

        planes, tasks = _planes_and_tasks()
        queue = CodeBlockWorkQueue(InlinePool())
        res = queue.encode_plane_groups(planes, tasks)
        assert _same_results(res, _serial_oracle(planes, tasks))
        assert queue.last_stats.dispatch == "shared_memory"

    def test_empty_tasks(self, pool2):
        assert CodeBlockWorkQueue(pool2).encode_plane_groups([], []) == []


class TestSharedPlanesLifecycle:
    @pytest.mark.skipif(not shared_memory_available(),
                        reason="shared memory unavailable")
    def test_segments_unlinked_after_close(self):
        from multiprocessing import shared_memory

        planes = [np.arange(64, dtype=np.int32).reshape(8, 8)]
        shared = _SharedPlanes(planes)
        name, shape, dtype = shared.descs[0]
        seg = shared_memory.SharedMemory(name=name)  # attachable while open
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
        assert np.array_equal(view, planes[0])
        del view
        seg.close()
        shared.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    @pytest.mark.skipif(not shared_memory_available(),
                        reason="shared memory unavailable")
    def test_close_is_idempotent(self):
        shared = _SharedPlanes([np.zeros((4, 4), dtype=np.int32)])
        shared.close()
        shared.close()  # second close must be a silent no-op
        assert shared.segments == []
