"""Multi-core code-block work queue: determinism and integration.

The contract mirrors the paper's Section 3 SPE queue: blocks are handed
out dynamically, but the assembled codestream must not depend on worker
count, completion order, or backend.  Pool tests use small images so the
suite stays fast on single-core CI machines.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core import workpool
from repro.core.workpool import (
    CodeBlockWorkQueue,
    QueueStats,
    ThreadPool,
    default_workers,
)
from repro.jpeg2000.decoder import decode
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.jpeg2000.tier1 import encode_codeblock, encode_codeblock_reference
from repro.jpeg2000.tier1_batch import encode_codeblocks_batched


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
    with ThreadPool(workers) as pool:
        queue = CodeBlockWorkQueue(pool)
        return queue.encode_plane_groups(planes, descs), queue.last_stats


@pytest.fixture(scope="module")
def pool2():
    with ThreadPool(2) as pool:
        yield pool


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
        assert queue.decode_groups([]) is None
        # A single block never pays for a pool, even with the clamp off.
        monkeypatch.setattr(workpool, "TIER1_AUTO_SERIAL_MIN_BLOCKS", 0)
        monkeypatch.setattr(workpool, "available_cores", lambda: 4)
        img = watch_gray_64[:8, :8]
        res = encode(img, EncoderParams(levels=0, workers=4))
        assert len(res.stats.blocks) == 1
        assert res.stats.tier1_dispatch == "serial"

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ThreadPool(workers=0)
        assert ThreadPool(workers=None).workers == default_workers()
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
# Plane dispatch: block groups carry views of the planes inline.
# ---------------------------------------------------------------------------


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

    def test_pool_encode_matches_serial_bytes(self, pool2, watch_rgb_64,
                                              monkeypatch):
        # Every block past the clamp goes to the injected pool as inline
        # groups; the codestream is the serial one, lossless and lossy.
        monkeypatch.setattr(workpool, "TIER1_AUTO_SERIAL_MIN_BLOCKS", 0)
        monkeypatch.setattr(workpool, "available_cores", lambda: 2)
        for params in (EncoderParams(levels=3, codeblock_size=16),
                       EncoderParams(lossless=False, rate=0.2, levels=3,
                                     codeblock_size=16)):
            serial = encode(watch_rgb_64, params)
            pooled = encode(watch_rgb_64, params, pool=pool2)
            assert serial.stats.tier1_dispatch == "serial"
            assert pooled.stats.tier1_dispatch == "pool"
            assert pooled.codestream == serial.codestream

    def test_pickle_path_matches_serial(self, pool2):
        # Groups carry views of the planes: nothing lands in /dev/shm.
        before = _shm_entries()
        planes, tasks = _planes_and_tasks()
        queue = CodeBlockWorkQueue(pool2)
        res = queue.encode_plane_groups(planes, tasks)
        assert _same_results(res, _serial_oracle(planes, tasks))
        assert sum(queue.last_stats.blocks_per_worker.values()) == len(tasks)
        assert _shm_entries() <= before

    def test_injected_pool_runs_groups(self):
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

    def test_empty_tasks(self, pool2):
        assert CodeBlockWorkQueue(pool2).encode_plane_groups([], []) == []


# ---------------------------------------------------------------------------
# Library calls run their groups on threads of the calling process.
# ---------------------------------------------------------------------------


class TestThreadDispatch:
    def test_bytes_identical_at_1_2_4_workers(self, watch_rgb_64,
                                              monkeypatch):
        # With the clamp off, workers 2 and 4 code every block on threads;
        # lossless and lossy bytes and both decodes match the serial ones.
        monkeypatch.setattr(workpool, "TIER1_AUTO_SERIAL_MIN_BLOCKS", 0)
        monkeypatch.setattr(workpool, "available_cores", lambda: 4)
        for kw in (dict(levels=3, codeblock_size=16),
                   dict(lossless=False, rate=0.2, levels=3,
                        codeblock_size=16)):
            serial = encode(watch_rgb_64, EncoderParams(workers=1, **kw))
            image = decode(serial.codestream)
            for workers in (2, 4):
                threaded = encode(watch_rgb_64,
                                  EncoderParams(workers=workers, **kw))
                assert threaded.stats.tier1_dispatch == "pool"
                assert threaded.codestream == serial.codestream
                assert np.array_equal(
                    decode(serial.codestream, workers=workers), image)

    def test_queue_stats_count_threads(self):
        planes, tasks = _planes_and_tasks()
        with ThreadPool(2) as pool:
            queue = CodeBlockWorkQueue(pool)
            res = queue.encode_plane_groups(planes, tasks)
        assert _same_results(res, _serial_oracle(planes, tasks))
        assert sum(queue.last_stats.blocks_per_worker.values()) == len(tasks)
        workers = queue.last_stats.blocks_per_worker
        assert threading.get_native_id() not in workers

    def test_group_error_surfaces_and_threads_exit(self):
        planes, tasks = _planes_and_tasks()
        tasks[5] = tasks[5][:5] + ("XX",)
        p, r0, c0, h, w, band = tasks[5]
        with pytest.raises(Exception) as serial:
            encode_codeblocks_batched([(planes[p][r0:r0 + h, c0:c0 + w],
                                        band)])
        baseline = threading.active_count()
        with pytest.raises(type(serial.value), match="unknown band"):
            with ThreadPool(2) as pool:
                CodeBlockWorkQueue(pool).encode_plane_groups(planes, tasks)
        assert threading.active_count() == baseline


# ---------------------------------------------------------------------------
# A library call or a served request forks nothing, and so starts no
# resource tracker.
# ---------------------------------------------------------------------------

_FRESH_POOL_SCRIPT = """
import json
import multiprocessing
import os
import threading
from multiprocessing import resource_tracker

import numpy as np

from repro.core import workpool
from repro.image.synthetic import watch_face_image
from repro.jpeg2000.decoder import decode
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.service import EncodeService, ServiceConfig


def refuse(*args, **kwargs):
    raise AssertionError("a library call or the service started a process")


os.fork = refuse
multiprocessing.process.BaseProcess.start = refuse
groups = []
group_task = workpool._group_task


def traced_group(payload):
    groups.append((payload[0], threading.current_thread().name))
    return group_task(payload)


workpool._group_task = traced_group
if workpool.available_cores() < 2:
    workpool.available_cores = lambda: 2
img = watch_face_image(256, 256, channels=3)
res = encode(img, EncoderParams(workers=2))
back = decode(res.codestream, workers=2)
library_groups = len(groups)
with EncodeService(ServiceConfig(workers=2, cache_bytes=0)) as service:
    served = service.encode_image(img, EncoderParams())
    served_back = service.decode_image(served.codestream).image
    pool_stats = service.pool.snapshot()
print(json.dumps({
    "blocks": len(res.stats.blocks),
    "dispatch": res.stats.tier1_dispatch,
    "round_trip": bool(np.array_equal(back, img)),
    "tracker_pid": resource_tracker._resource_tracker._pid,
    "ops": sorted({op for op, _ in groups}),
    "on_main_thread": any(name == "MainThread" for _, name in groups),
    "served_identical": served.codestream == res.codestream,
    "served_round_trip": bool(np.array_equal(served_back, img)),
    "served_groups": len(groups) - library_groups,
    "served_ops": sorted({op for op, _ in groups[library_groups:]}),
    "served_dispatched": pool_stats["groups_dispatched"],
}))
"""


class TestNoResourceTracker:
    def test_pool_encode_and_decode_start_no_tracker(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        before = _shm_entries()
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_POOL_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120,
        )
        # The script makes os.fork and Process.start raise.
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["tracker_pid"] is None
        assert _shm_entries() <= before
        assert "resource_tracker" not in proc.stderr
        # Past the block-count clamp, the encode and the decode both ran
        # their block groups on threads of the calling process.
        assert out["blocks"] >= workpool.TIER1_AUTO_SERIAL_MIN_BLOCKS
        assert out["dispatch"] == "pool"
        assert out["ops"] == ["decode", "encode"]
        assert not out["on_main_thread"]
        assert out["round_trip"]
        # The service ran its encode's and decode's groups on its own
        # threads too, each on a lane of its pool.
        assert out["served_identical"] and out["served_round_trip"]
        assert out["served_ops"] == ["decode", "encode"]
        assert out["served_groups"] == out["served_dispatched"] > 0
