"""Tests of the benchmark's own code (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import asyncio
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import catalogue  # noqa: E402
from measures import (  # noqa: E402
    geomean_mpix_per_s,
    median,
    mpix_per_s,
    split_by_class,
    tail,
    tail_rank,
)


# -- tail rule -------------------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(1, 101))          # 1..100
    value, pct = tail(samples)
    assert value == 90
    assert pct == 90.0
    assert sum(s > value for s in samples) == 10


def test_tail_needs_eleven_samples():
    assert tail_rank(11) == 0
    with pytest.raises(ValueError):
        tail_rank(10)
    with pytest.raises(ValueError):
        tail([1.0] * 5)


def test_tail_percentile_depends_only_on_the_count():
    a, pct_a = tail([float(i) for i in range(24)])
    b, pct_b = tail([float(100 - i) for i in range(24)])
    assert pct_a == pct_b == pytest.approx(100 * 14 / 24)
    assert a != b


def test_tail_is_order_independent():
    samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
    assert tail(samples) == tail(sorted(samples)) == (1.0, 100 * 2 / 12)


# -- per-class split ---------------------------------------------------------------


class _Rec:
    def __init__(self, cls, latency):
        self.cls = cls
        self.latency = latency


def test_split_keeps_classes_apart():
    recs = [_Rec("encode", 0.5), _Rec("hit", 0.005), _Rec("encode", 0.6),
            _Rec("decode", 0.05), _Rec("hit", 0.004), _Rec("encode", 0.4)]
    by = split_by_class(recs)
    assert sorted(by) == ["decode", "encode", "hit"]
    assert [r.latency for r in by["encode"]] == [0.5, 0.6, 0.4]
    # The pooled median sits between the modes; per class it does not.
    assert median(r.latency for r in recs) == pytest.approx(0.225)
    assert median(r.latency for r in by["encode"]) == 0.5
    assert median(r.latency for r in by["hit"]) == pytest.approx(0.0045)


def test_split_accepts_a_key():
    by = split_by_class([{"k": "a"}, {"k": "b"}, {"k": "a"}],
                        key=lambda r: r["k"])
    assert {k: len(v) for k, v in by.items()} == {"a": 2, "b": 1}


# -- Mpixel/s accounting -----------------------------------------------------------


def test_mpix_counts_positions_not_samples():
    # A 1024x1024 colour image is 1.048576 Mpixel whatever its components.
    assert mpix_per_s([1024 * 1024], [1.0]) == pytest.approx(1.048576)
    assert mpix_per_s([1024 * 1024, 1024 * 1024], [1.0, 3.0]) == \
        pytest.approx(2 * 1.048576 / 4.0)


def test_mpix_weights_by_time_not_by_call():
    # Two calls: 1 Mpix in 1 s and 1 Mpix in 3 s -> 2 Mpix / 4 s, not the
    # mean of the per-call rates (which would read 0.667).
    assert mpix_per_s([10**6, 10**6], [1.0, 3.0]) == pytest.approx(0.5)


def test_geomean_rate_weights_each_request_equally():
    # 1 and 4 Mpix/s read 2; a total (5 Mpix in 2 s) would read 2.5, set by
    # whichever request carries the most pixels.
    assert geomean_mpix_per_s([10**6, 4 * 10**6], [1.0, 1.0]) == \
        pytest.approx(2.0)


def test_geomean_rate_moves_smoothly_when_classes_swap_ranks():
    pix = [10**6] * 4
    before = [2.0, 1.05, 0.95, 0.5]
    after = [2.0, 0.80, 0.95, 0.5]     # the second request overtakes the third

    def med(secs):
        return median(1 / s for s in secs)

    geo_step = geomean_mpix_per_s(pix, after) / geomean_mpix_per_s(pix, before)
    assert geo_step == pytest.approx((1.05 / 0.80) ** 0.25)
    assert med(after) / med(before) > 2 * (geo_step - 1) + 1


def test_mpix_rejects_no_time():
    with pytest.raises(ValueError):
        mpix_per_s([], [])


# -- load generator: latency from due time -------------------------------------------


class _StalledServer:
    """HTTP stub: the first request stalls ``stall`` seconds, others reply
    at once; every reply is ``b"ok"``."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.seen = 0

    async def handle(self, reader, writer):
        head = await reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.decode().split("\r\n"):
            if line.lower().startswith("content-length:"):
                length = int(line.split(":")[1])
        await reader.readexactly(length)
        self.seen += 1
        if self.seen == 1:
            await asyncio.sleep(self.stall)
        writer.write(b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok")
        await writer.drain()
        writer.close()


def _requests(n):
    import serving

    return [serving.Request("encode", "/encode", b"x" * 10, b"ok", 100)
            for _ in range(n)]


def _drive(coro_fn, stall):
    async def main():
        stub = _StalledServer(stall)
        server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await coro_fn(port)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def test_open_loop_counts_the_wait_behind_a_stall():
    import serving

    reqs = _requests(3)
    # One slot, a request every 0.1 s, the first one stalls 0.6 s: the
    # second and third fall due while the slot is busy and must wait.
    _drive(lambda port: serving.open_loop(port, reqs, rate=10.0, slots=1), 0.6)
    assert all(r.ok for r in reqs), [r.error for r in reqs]
    first, second, third = reqs
    assert first.latency >= 0.6
    assert second.sent - second.due >= 0.45      # waited for the slot
    assert second.latency >= 0.45
    assert third.latency >= 0.35
    # Due times follow the schedule, not the replies.
    assert second.due - first.due == pytest.approx(0.1, abs=1e-6)
    assert third.due - first.due == pytest.approx(0.2, abs=1e-6)


def test_open_loop_without_stall_is_not_late():
    import serving

    reqs = _requests(3)
    _drive(lambda port: serving.open_loop(port, reqs, rate=10.0, slots=1), 0.0)
    assert all(r.ok for r in reqs)
    assert max(r.latency for r in reqs) < 0.09


def test_closed_loop_times_from_send():
    import serving

    reqs = _requests(4)
    wall = _drive(lambda port: serving.closed_loop(port, reqs, slots=2), 0.3)
    assert all(r.ok for r in reqs)
    assert all(r.sent - r.due < 0.01 for r in reqs)
    assert wall >= 0.3


def test_mismatched_reply_fails_the_request():
    import serving

    reqs = _requests(1)
    reqs[0].expect = b"something else"
    _drive(lambda port: serving.open_loop(port, reqs, rate=10.0, slots=1), 0.0)
    assert not reqs[0].ok
    assert "differs" in reqs[0].error


# -- catalogue and BENCHMARK.json agree --------------------------------------------


def test_catalogue_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for kind, metrics in (("end_to_end", catalogue.END_TO_END),
                          ("per_layer", catalogue.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[kind]]
        assert declared == [(m.name, m.unit, m.better) for m in metrics]
    assert [w["name"] for w in spec["workloads"]] == ["photo", "thumbs", "serve"]


# -- no process outlives a run ---------------------------------------------------


_STOP_SCRIPT = """
import os, subprocess, sys
from multiprocessing import shared_memory
sys.path.insert(0, sys.argv[1])
import harness
harness.adopt_orphans()
harness.STOP_GRACE_S = 0.5
seg = shared_memory.SharedMemory(create=True, size=16)   # starts the tracker
seg.close(); seg.unlink()
subprocess.run(["sh", "-c", "sleep 60 & exit 0"], check=True)  # orphans a sleep
killed = harness.stop_descendants()
print(len(killed), len(harness.process_tree(os.getpid())) - 1)
"""


def test_stop_descendants_waits_for_tracker_and_kills_orphans():
    import subprocess

    out = subprocess.run([sys.executable, "-c", _STOP_SCRIPT, BENCH],
                         capture_output=True, text=True, timeout=60, check=True)
    killed, left = map(int, out.stdout.split())
    assert killed == 1   # the orphaned sleep; the tracker ended on its own
    assert left == 0
