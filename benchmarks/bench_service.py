"""Encode-service throughput benchmark: one long-lived service vs. library calls.

Replays a 16-request burst (with the repetition real serving traffic has)
three ways and records imgs/s plus p50/p95 latency to
``BENCH_service.json``:

* ``baseline``       — the CLI path: each request encodes with
                       ``EncoderParams(workers=W)``, which opens and closes
                       a thread pool of its own per image;
* ``service_nocache`` — the service's long-lived Tier-1 threads +
                       scheduler with the result cache disabled (isolates
                       concurrent serving from caching);
* ``service_cached``  — the full service; repeated images hit the
                       content-addressed cache.

Issue acceptance: ``service_cached`` throughput >= 1.5x ``baseline`` on
the 16-image burst, byte-identical output everywhere.  Worker scaling is
machine-dependent (a 1-core container cannot beat serial with more
workers), so ``cpu_count`` is recorded alongside every number.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py           # full
    PYTHONPATH=src python benchmarks/bench_service.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import threading
import time

import numpy as np

from _util import add_repeats_flag, bench_report, check_repeats, write_bench_json
from repro.image.synthetic import watch_face_image
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.service import EncodeService, ServiceConfig

#: Request pattern over unique-image indices: 16 requests, 6 unique images,
#: hot-skewed like real traffic (image 0 is requested 4 times).
TRAFFIC = (0, 1, 2, 0, 3, 1, 0, 4, 2, 5, 1, 0, 3, 2, 1, 4)
CONCURRENCY = 8
ACCEPT_SPEEDUP = 1.5


def _quantile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def _summary(latencies: list[float], wall_s: float) -> dict:
    return {
        "requests": len(latencies),
        "wall_s": wall_s,
        "imgs_per_s": len(latencies) / wall_s if wall_s > 0 else 0.0,
        "p50_s": _quantile(latencies, 0.50),
        "p95_s": _quantile(latencies, 0.95),
        "mean_s": statistics.fmean(latencies),
    }


def median_run(fn, repeats: int) -> dict:
    """Run a whole burst ``repeats`` times; keep the median-throughput run.

    Determinism failures in *any* run poison the reported one, so a flaky
    repeat cannot hide behind a healthy median.
    """
    runs = [fn() for _ in range(repeats)]
    runs.sort(key=lambda r: r["imgs_per_s"])
    chosen = dict(runs[len(runs) // 2])
    chosen["repeats"] = repeats
    if any(not r.get("deterministic", True) for r in runs):
        chosen["deterministic"] = False
    return chosen


def make_images(smoke: bool) -> list[np.ndarray]:
    """Six unique images of varying size/channels (unique content)."""
    base = 40 if smoke else 64
    images = []
    for i in range(6):
        size = base + 8 * i
        channels = 3 if i % 2 else 1
        images.append(watch_face_image(size, size, channels=channels))
    return images


def bench_baseline(images, params_workers, offline) -> dict:
    """Library calls: sequential encodes, a thread pool per call, no cache."""
    latencies = []
    t0 = time.perf_counter()
    for idx in TRAFFIC:
        t = time.perf_counter()
        result = encode(images[idx], params_workers)
        latencies.append(time.perf_counter() - t)
        assert result.codestream == offline[idx], "baseline determinism"
    return _summary(latencies, time.perf_counter() - t0)


def bench_service(images, params, offline, workers, cache_bytes) -> dict:
    """The burst through one EncodeService, CONCURRENCY submitter threads."""
    config = ServiceConfig(
        workers=workers, cache_bytes=cache_bytes, max_queue=len(TRAFFIC),
    )
    latencies = [0.0] * len(TRAFFIC)
    mismatches = []
    with EncodeService(config) as service:
        order = list(enumerate(TRAFFIC))
        cursor = threading.Lock()

        def submitter():
            while True:
                with cursor:
                    if not order:
                        return
                    req, idx = order.pop(0)
                t = time.perf_counter()
                response = service.encode_image(images[idx], params)
                latencies[req] = time.perf_counter() - t
                if response.codestream != offline[idx]:
                    mismatches.append(req)

        t0 = time.perf_counter()
        threads = [threading.Thread(target=submitter)
                   for _ in range(CONCURRENCY)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        out = _summary(latencies, wall)
        out["concurrency"] = CONCURRENCY
        out["cache"] = service.cache.snapshot()
        metrics = service.metrics.snapshot()
        hits = metrics["cache_hits_total"]["value"]
        out["cache_hits"] = hits
        out["coalesced"] = metrics["coalesced_total"]["value"]
        # Request-level hit rate: duplicates coalesced onto an in-flight
        # encode also return cached bytes, which the raw cache counters
        # (first probe per request) cannot see.
        out["hit_rate"] = hits / len(TRAFFIC)
        out["peak_inflight_jobs"] = service.admission.snapshot()["peak_inflight"]
    out["deterministic"] = not mismatches
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="smaller images (CI single-core runners)")
    ap.add_argument("--workers", type=int, default=2,
                    help="Tier-1 threads for every configuration")
    ap.add_argument("--output", default=None,
                    help="JSON path (default: BENCH_service.json at repo root)")
    add_repeats_flag(ap)
    args = ap.parse_args(argv)
    repeats = check_repeats(args.repeats)

    images = make_images(args.smoke)
    params = EncoderParams(levels=3)
    params_workers = EncoderParams(levels=3, workers=args.workers)
    # Offline oracle (serial): what every configuration must emit.
    offline = [encode(img, params).codestream for img in images]

    print(f"burst: {len(TRAFFIC)} requests over {len(images)} unique images, "
          f"{args.workers} worker(s), concurrency {CONCURRENCY}")
    baseline = median_run(
        lambda: bench_baseline(images, params_workers, offline), repeats
    )
    print(f"baseline (pool per image) : {baseline['imgs_per_s']:6.2f} imgs/s  "
          f"p50 {baseline['p50_s']*1e3:6.1f} ms  p95 {baseline['p95_s']*1e3:6.1f} ms")
    nocache = median_run(
        lambda: bench_service(images, params, offline, args.workers, 0), repeats
    )
    print(f"service (no cache)        : {nocache['imgs_per_s']:6.2f} imgs/s  "
          f"p50 {nocache['p50_s']*1e3:6.1f} ms  p95 {nocache['p95_s']*1e3:6.1f} ms")
    cached = median_run(
        lambda: bench_service(images, params, offline, args.workers, 64 * 2**20),
        repeats,
    )
    print(f"service (64 MiB cache)    : {cached['imgs_per_s']:6.2f} imgs/s  "
          f"p50 {cached['p50_s']*1e3:6.1f} ms  p95 {cached['p95_s']*1e3:6.1f} ms  "
          f"hit rate {cached['hit_rate']:.2f}")

    speedup_nocache = nocache["imgs_per_s"] / baseline["imgs_per_s"]
    speedup_cached = cached["imgs_per_s"] / baseline["imgs_per_s"]
    deterministic = nocache["deterministic"] and cached["deterministic"]
    print(f"speedup vs baseline: no-cache {speedup_nocache:.2f}x, "
          f"cached {speedup_cached:.2f}x "
          f"(acceptance >= {ACCEPT_SPEEDUP}x cached)")
    print(f"byte-identical to offline encode everywhere: {deterministic}")

    report = bench_report(
        "service_throughput",
        smoke=args.smoke,
        traffic={
            "requests": len(TRAFFIC),
            "unique_images": len(images),
            "pattern": list(TRAFFIC),
            "image_shapes": [list(img.shape) for img in images],
            "concurrency": CONCURRENCY,
            "workers": args.workers,
        },
        baseline_pool_per_image=baseline,
        service_nocache=nocache,
        service_cached=cached,
        speedup_vs_baseline={
            "nocache": speedup_nocache,
            "cached": speedup_cached,
        },
        deterministic=deterministic,
        acceptance={
            "threshold": ACCEPT_SPEEDUP,
            "passed": deterministic and speedup_cached >= ACCEPT_SPEEDUP,
        },
    )
    write_bench_json(report, "BENCH_service.json", args.output)

    if not deterministic:
        return 1  # determinism is an acceptance criterion, fail loudly
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
