"""Shard-scaling benchmark: one port, N shard processes, 16-image burst.

Replays a 16-request concurrent burst of *unique* images over HTTP
against ``--shards`` in {1, 2, 4} and records imgs/s plus p50/p95 per
shard count to ``BENCH_shards.json``.  The same bursts also go to the
unsharded ``python -m repro serve`` (no ``--shards``, default
``--workers``), the baseline a shard count has to beat; each shard
count's speedup is recorded against it and against one shard.  Unique
content per request (and per repeat) keeps every cache cold, so the
scaling section measures the front end, not deduplication; a separate
``cached`` section then fires 16 *identical* concurrent requests at 2
shards and records that the cluster encoded exactly once (cross-shard
single-flight + bus hits).

Issue acceptance: >= 1.7x throughput at 4 shards vs 1 shard on the
16-image concurrent burst, byte-identical codestreams at every shard
count.  Shard scaling is machine-dependent — a 1-core container cannot
run four shards faster than one — so ``cpu_count`` is recorded alongside
every number and the ratio gate (``--gate``) is meant for multi-core CI
runners.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py          # full
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --smoke  # CI
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --gate   # enforce
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np

from _util import add_repeats_flag, bench_report, check_repeats, write_bench_json
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.service import ServiceConfig
from repro.service.sharding import ShardCluster, ShardClusterConfig

BURST = 16
SHARD_COUNTS = (1, 2, 4)
ACCEPT_SPEEDUP = 1.7
LEVELS = 3


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


def _pgm(image: np.ndarray) -> bytes:
    h, w = image.shape
    return b"P5\n%d %d\n255\n" % (w, h) + image.tobytes()


def make_image(seed: int, size: int) -> np.ndarray:
    rng = np.random.default_rng(2008 + seed)
    return rng.integers(0, 256, size=(size, size), dtype=np.uint8)


def _wait_healthy(url: str, timeout_s: float = 60.0) -> None:
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
    return urllib.request.urlopen(req, timeout=300)


def _fire_burst(url: str, bodies: list[bytes], oracles: list[bytes]) -> dict:
    """All requests concurrently; returns summary + determinism flag."""
    latencies = [0.0] * len(bodies)
    shards_seen: set[str] = set()
    mismatches: list[int] = []
    lock = threading.Lock()

    def one(i: int) -> None:
        t = time.perf_counter()
        with _post(url + f"/encode?levels={LEVELS}", bodies[i]) as resp:
            data = resp.read()
            shard = resp.headers.get("X-Shard", "0")
        latencies[i] = time.perf_counter() - t
        with lock:
            shards_seen.add(shard)
            if oracles[i] is not None and data != oracles[i]:
                mismatches.append(i)

    threads = [threading.Thread(target=one, args=(i,))
               for i in range(len(bodies))]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    out = _summary(latencies, time.perf_counter() - t0)
    out["shards_seen"] = sorted(shards_seen)
    out["deterministic"] = not mismatches
    return out


def _bursts(url: str, size: int, repeats: int, offline_cache: dict) -> dict:
    """Median of ``repeats`` cold-cache bursts against a healthy server."""
    params = EncoderParams(levels=LEVELS)
    runs = []
    for rep in range(repeats):
        seeds = [rep * BURST + i for i in range(BURST)]
        images = [make_image(s, size) for s in seeds]
        bodies = [_pgm(img) for img in images]
        oracles = []
        for s, img in zip(seeds, images):
            if s not in offline_cache:
                offline_cache[s] = encode(img, params).codestream
            oracles.append(offline_cache[s])
        runs.append(_fire_burst(url, bodies, oracles))
    runs.sort(key=lambda r: r["imgs_per_s"])
    chosen = dict(runs[len(runs) // 2])
    chosen["repeats"] = repeats
    chosen["deterministic"] = all(r["deterministic"] for r in runs)
    return chosen


def bench_shards(shards: int, size: int, repeats: int,
                 offline_cache: dict) -> dict:
    """Median cold-cache burst through a ``shards``-shard cluster."""
    config = ShardClusterConfig(
        shards=shards,
        service=ServiceConfig(workers=1, cache_bytes=0),
        quiet=True,
        bus_cache_bytes=0,  # leases still coalesce; nothing is stored
        heartbeat_s=0.2,
    )
    with ShardCluster(config) as cluster:
        url = f"http://127.0.0.1:{cluster.port}"
        _wait_healthy(url)
        chosen = _bursts(url, size, repeats, offline_cache)
    chosen["shards"] = shards
    return chosen


#: The unsharded baseline: default ``--workers``, result cache off like
#: the sharded rows.
UNSHARDED_ARGV = ("serve", "--port", "0", "--quiet", "--cache-mb", "0")


def bench_unsharded(size: int, repeats: int, offline_cache: dict) -> dict:
    """Median cold-cache burst through ``python -m repro serve``."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *UNSHARDED_ARGV],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline()  # "... on http://host:port  (...)"
        port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        url = f"http://127.0.0.1:{port}"
        _wait_healthy(url)
        chosen = _bursts(url, size, repeats, offline_cache)
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)
    chosen["argv"] = ["python", "-m", "repro", *UNSHARDED_ARGV]
    return chosen


def bench_cached(size: int) -> dict:
    """16 identical concurrent requests at 2 shards: one encode, many hits."""
    image = make_image(999_983, size)
    body = _pgm(image)
    oracle = encode(image, EncoderParams(levels=LEVELS)).codestream
    config = ShardClusterConfig(
        shards=2,
        service=ServiceConfig(workers=1),
        quiet=True,
        heartbeat_s=0.2,
    )
    with ShardCluster(config) as cluster:
        url = f"http://127.0.0.1:{cluster.port}"
        _wait_healthy(url)
        out = _fire_burst(url, [body] * BURST, [oracle] * BURST)
        time.sleep(0.6)  # let every shard's heartbeat reach the bus
        metrics = json.load(
            urllib.request.urlopen(url + "/metrics", timeout=10)
        )
        stats = json.load(urllib.request.urlopen(url + "/stats", timeout=10))
        aggregate = metrics["aggregate"]
        out["cluster_encodes"] = aggregate["images_encoded_total"]["value"]
        out["remote_cache_hits"] = aggregate["remote_cache_hits_total"]["value"]
        out["cache_hit_ratio"] = aggregate["cache_hit_ratio"]["value"]
        out["bus"] = stats["cluster"]["cache_bus"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="smaller images and only {1, 2} shards (CI)")
    ap.add_argument("--gate", action="store_true",
                    help=f"exit 1 unless 4-vs-1 speedup >= {ACCEPT_SPEEDUP}x "
                         "(multi-core runners only)")
    ap.add_argument("--output", default=None,
                    help="JSON path (default: BENCH_shards.json at repo root)")
    add_repeats_flag(ap)
    args = ap.parse_args(argv)
    repeats = check_repeats(args.repeats)

    size = 64 if args.smoke else 96
    shard_counts = (1, 2) if args.smoke else SHARD_COUNTS
    cpu_count = os.cpu_count() or 1

    print(f"burst: {BURST} unique concurrent requests, image {size}x{size}, "
          f"shard counts {shard_counts}, {cpu_count} cpu(s)")
    offline_cache: dict[int, bytes] = {}
    unsharded = bench_unsharded(size, repeats, offline_cache)
    print(f"unsharded: {unsharded['imgs_per_s']:6.2f} imgs/s  "
          f"p50 {unsharded['p50_s']*1e3:6.1f} ms  "
          f"p95 {unsharded['p95_s']*1e3:6.1f} ms  "
          f"deterministic={unsharded['deterministic']}")
    results = {}
    for shards in shard_counts:
        run = bench_shards(shards, size, repeats, offline_cache)
        results[shards] = run
        print(f"shards={shards}: {run['imgs_per_s']:6.2f} imgs/s  "
              f"p50 {run['p50_s']*1e3:6.1f} ms  p95 {run['p95_s']*1e3:6.1f} ms  "
              f"served by {len(run['shards_seen'])} shard(s)  "
              f"deterministic={run['deterministic']}")

    top = max(shard_counts)
    speedups = {
        str(n): results[n]["imgs_per_s"] / results[1]["imgs_per_s"]
        for n in shard_counts
    }
    vs_unsharded = {
        str(n): results[n]["imgs_per_s"] / unsharded["imgs_per_s"]
        for n in shard_counts
    }
    print("speedup vs 1 shard: " + ", ".join(
        f"{n} shards {speedups[str(n)]:.2f}x" for n in shard_counts if n != 1
    ))
    print("speedup vs unsharded serve: " + ", ".join(
        f"{n} shards {vs_unsharded[str(n)]:.2f}x" for n in shard_counts
    ))

    cached = bench_cached(size)
    print(f"cached burst (2 shards, identical image): "
          f"{cached['imgs_per_s']:6.2f} imgs/s, "
          f"{cached['cluster_encodes']} cluster-wide encode(s), "
          f"{cached['remote_cache_hits']} bus hit(s)")

    deterministic = (
        all(r["deterministic"] for r in results.values())
        and unsharded["deterministic"]
        and cached["deterministic"]
    )
    machine_limited = cpu_count < top
    passed = (
        deterministic
        and cached["cluster_encodes"] == 1
        and speedups[str(top)] >= ACCEPT_SPEEDUP
    )
    print(f"byte-identical to offline encode everywhere: {deterministic}")
    if machine_limited:
        print(f"note: {cpu_count} cpu(s) < {top} shards — the "
              f">= {ACCEPT_SPEEDUP}x gate needs a multi-core machine")

    report = bench_report(
        "shard_scaling",
        machine_extra={"machine_limited": machine_limited},
        smoke=args.smoke,
        traffic={
            "requests": BURST,
            "unique_images": BURST,
            "image_size": size,
            "levels": LEVELS,
            "workers_per_shard": 1,
        },
        unsharded=unsharded,
        by_shard_count={str(n): results[n] for n in shard_counts},
        speedup_vs_1_shard=speedups,
        speedup_vs_unsharded=vs_unsharded,
        cached_2_shards=cached,
        deterministic=deterministic,
        acceptance={
            "threshold": ACCEPT_SPEEDUP,
            "speedup_at_max_shards": speedups[str(top)],
            "single_encode_cluster_wide": cached["cluster_encodes"] == 1,
            "passed": passed,
        },
    )
    write_bench_json(report, "BENCH_shards.json", args.output)

    if not deterministic or cached["cluster_encodes"] != 1:
        return 1  # correctness criteria fail loudly everywhere
    if args.gate and speedups[str(top)] < ACCEPT_SPEEDUP:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
