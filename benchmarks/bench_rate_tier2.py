"""Rate-control and Tier-1 dispatch benchmark (PR 4 tentpole).

Two measurements, recorded to ``BENCH_rate.json``:

* **Rate control** — vectorized PCRD-opt (:func:`choose_truncations`, flat
  NumPy hulls + global lambda bisection) against the seed scalar
  implementation (:func:`choose_truncations_reference`) on synthetic R-D
  curves laid out with the exact code-block geometry of a 2048x2048x3
  lossy encode (5 levels, 64x64 blocks).  Both paths must pick identical
  truncations before their timings count.
* **Dispatch overhead** — the work queue's block-group dispatch
  (:meth:`CodeBlockWorkQueue.encode_plane_groups` on a
  :class:`ThreadPool`: groups carry views of each block's coefficients,
  coded in place on threads of this process) at 1-8 workers against
  in-process per-block coding, over near-empty blocks so
  transport cost is visible next to Tier-1 compute.  Results must be
  identical.

Usage::

    PYTHONPATH=src python benchmarks/bench_rate_tier2.py           # full
    PYTHONPATH=src python benchmarks/bench_rate_tier2.py --quick   # CI

``--quick`` keeps the full-geometry rate-control gate (exit 1 unless the
vectorized path is at least 2x the reference) and shrinks the dispatch
sweep to workers=2.  Worker scaling is machine-dependent, so the JSON
records ``cpu_count`` alongside every number.
"""

from __future__ import annotations

import argparse
import json
import os
import platform

import numpy as np

from _util import add_repeats_flag, bench_report, check_repeats, time_fn, write_bench_json
from repro.core.workpool import CodeBlockWorkQueue, ThreadPool
from repro.jpeg2000.codeblocks import partition_subband
from repro.jpeg2000.rate import (
    BlockRateInfo,
    choose_truncations,
    choose_truncations_reference,
)
from repro.jpeg2000.tier1 import encode_codeblock

QUICK_SPEEDUP_FLOOR = 2.0
DISPATCH_WORKERS = (1, 2, 4, 8)


def block_geometry(size: int, channels: int, levels: int, cb: int) -> list[int]:
    """Per-block coefficient counts of a ``size x size x channels`` encode."""
    blocks = []
    h = w = size
    for _ in range(levels):
        nd_h, ns_h = h // 2, h - h // 2
        nd_w, ns_w = w // 2, w - w // 2
        for bh, bw in ((ns_h, nd_w), (nd_h, ns_w), (nd_h, nd_w)):  # HL LH HH
            specs, _, _ = partition_subband(bh, bw, cb)
            blocks.extend(s.height * s.width for s in specs)
        h, w = ns_h, ns_w
    specs, _, _ = partition_subband(h, w, cb)  # LL
    blocks.extend(s.height * s.width for s in specs)
    return blocks * channels


def synthetic_curves(
    sizes: list[int], seed: int = 7
) -> tuple[list[list[float]], list[list[float]]]:
    """Plausible per-pass (cumulative length, distortion gain) curves.

    Pass counts follow EBCOT's ``3 * bitplanes - 2``; byte increments grow
    toward the low bit planes while distortion gains decay, so hulls have
    realistic shapes (some passes off-hull, some zero-gain).
    """
    rng = np.random.default_rng(seed)
    lengths_list, dists_list = [], []
    for n in sizes:
        bitplanes = int(rng.integers(6, 13))
        npasses = 3 * bitplanes - 2
        grow = np.linspace(0.5, 4.0, npasses)
        incs = rng.integers(1, 60, size=npasses) * grow
        lengths = np.cumsum(np.maximum(1, incs.astype(np.int64)))
        decay = np.exp(-np.linspace(0.0, 6.0, npasses))
        dists = rng.uniform(0.2, 1.0, size=npasses) * decay * n
        dists[rng.uniform(size=npasses) < 0.05] = 0.0  # dead passes
        lengths_list.append([float(x) for x in lengths])
        dists_list.append([float(d) for d in dists])
    return lengths_list, dists_list


def bench_rate(repeats: int) -> dict:
    """Vectorized vs scalar truncation selection, 2048x2048x3 geometry."""
    sizes = block_geometry(2048, 3, levels=5, cb=64)
    lengths_list, dists_list = synthetic_curves(sizes)
    total = sum(ln[-1] for ln in lengths_list)
    budget = 0.15 * total

    def infos():
        return [
            BlockRateInfo(ln, dd)
            for ln, dd in zip(lengths_list, dists_list)
        ]

    # Hulls are cached per BlockRateInfo, so each timed call builds fresh
    # objects — both paths pay hull construction every time, as the
    # encoder's rate-control stage does.
    ref_out = choose_truncations_reference(infos(), budget)
    vec_out = choose_truncations(infos(), budget)
    identical = ref_out == vec_out
    out = {
        "geometry": "2048x2048x3, 5 levels, 64x64 blocks",
        "blocks": len(sizes),
        "budget_bytes": budget,
        "truncations_identical": identical,
        "reference": time_fn(
            lambda: choose_truncations_reference(infos(), budget), repeats
        ),
        "vectorized": time_fn(
            lambda: choose_truncations(infos(), budget), repeats
        ),
    }
    ref = out["reference"]["median_s"]
    vec = out["vectorized"]["median_s"]
    out["speedup"] = ref / vec if vec > 0 else float("inf")
    return out


def make_planes(plane_size: int, nplanes: int, seed: int = 11) -> list:
    """Transport-bound planes: all-zero except one dense 64x64 block each.

    Zero blocks Tier-1 in microseconds, so the aggregate time is dominated
    by how block data *reaches* the workers — the quantity this section
    measures.  One dense block per plane keeps the work non-trivial.
    """
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(nplanes):
        p = np.zeros((plane_size, plane_size), dtype=np.int32)
        r0 = int(rng.integers(0, plane_size // 64)) * 64
        c0 = int(rng.integers(0, plane_size // 64)) * 64
        p[r0 : r0 + 64, c0 : c0 + 64] = rng.integers(
            -2000, 2000, size=(64, 64)
        )
        planes.append(p)
    return planes


def bench_dispatch(workers_list, plane_size: int, repeats: int) -> dict:
    """Block-group dispatch on Tier-1 threads vs in-process coding."""
    cb = 64
    planes = make_planes(plane_size, nplanes=3)
    blocks = []
    for pi, plane in enumerate(planes):
        specs, _, _ = partition_subband(plane.shape[0], plane.shape[1], cb)
        blocks.extend(
            (pi, s.row0, s.col0, s.height, s.width, "HL") for s in specs
        )
    out = {
        "planes": len(planes),
        "plane_shape": [plane_size, plane_size],
        "blocks": len(blocks),
        "plane_bytes_total": int(sum(p.nbytes for p in planes)),
        "workers": {},
    }

    def serial():
        return [
            encode_codeblock(planes[p][r0 : r0 + h, c0 : c0 + w], band)
            for p, r0, c0, h, w, band in blocks
        ]

    want = serial()
    out["serial"] = time_fn(serial, repeats)
    for workers in workers_list:
        with ThreadPool(workers) as pool:
            queue = CodeBlockWorkQueue(pool)

            def run():
                return queue.encode_plane_groups(planes, blocks)

            got = run()
            row = {
                "groups": time_fn(run, repeats),
                "group_count": queue.last_stats.groups,
                "results_identical": all(
                    a.data == b.data and a.pass_lengths == b.pass_lengths
                    for a, b in zip(want, got)
                ),
            }
        row["per_block_ms"] = row["groups"]["median_s"] / len(blocks) * 1e3
        out["workers"][str(workers)] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="rate gate + workers=2 dispatch only (CI)")
    ap.add_argument("--output", default=None,
                    help="JSON path (default: BENCH_rate.json at repo root)")
    add_repeats_flag(ap)
    args = ap.parse_args(argv)
    repeats = check_repeats(args.repeats)

    report = bench_report(
        "rate_tier2", quick=args.quick, rate_control=bench_rate(repeats)
    )
    rc = report["rate_control"]
    print(f"rate control ({rc['blocks']} blocks, {rc['geometry']}):"
          f" reference {rc['reference']['median_s']*1e3:8.1f} ms"
          f"  vectorized {rc['vectorized']['median_s']*1e3:8.1f} ms"
          f"  speedup {rc['speedup']:.1f}x"
          f"  identical: {rc['truncations_identical']}")

    workers_list = (2,) if args.quick else DISPATCH_WORKERS
    plane_size = 512 if args.quick else 2048
    report["dispatch"] = bench_dispatch(workers_list, plane_size, repeats)
    ok = rc["truncations_identical"]
    dispatch = report["dispatch"]
    print(f"dispatch {dispatch['blocks']} blocks in process:"
          f" {dispatch['serial']['median_s']*1e3:8.1f} ms")
    for w, row in dispatch["workers"].items():
        ok &= row["results_identical"]
        print(f"dispatch {dispatch['blocks']} blocks, {w} worker(s):"
              f" {row['group_count']} groups {row['groups']['median_s']*1e3:8.1f} ms"
              f"  identical: {row['results_identical']}")
    print(f"cpu_count={os.cpu_count()}")

    write_bench_json(report, "BENCH_rate.json", args.output)

    if not ok:
        print("FAIL: vectorized/group-dispatch results differ from reference")
        return 1
    if args.quick:
        if rc["speedup"] < QUICK_SPEEDUP_FLOOR:
            print(f"FAIL: rate-control speedup {rc['speedup']:.2f}x "
                  f"< {QUICK_SPEEDUP_FLOOR}x floor")
            return 1
        print(f"quick gate passed: vectorized >= {QUICK_SPEEDUP_FLOOR}x reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
