"""Tier-1 hot-path benchmark: native block encoder vs. the oracle, serial vs. pooled.

Measures the Tier-1 encoder and records the numbers to
``BENCH_tier1.json`` so the performance trajectory is tracked across PRs:

* ``encode_codeblock`` on a dense 64x64 block, ``reference`` (the scalar
  oracle) vs. ``auto`` (the block encoder: the native whole-block kernel
  where a C compiler is present) — the paper's "EBCOT Tier-1 dominates"
  kernel;
* every code block of a many-small-blocks image (16x16 code blocks), the
  block encoder vs. the oracle in the same run, Tier-1 time only;
* full-image encode at worker counts {1, 2, 4, 8} through the real
  multiprocessing work queue (the executable analogue of the paper's
  SPE scaling study, Figures 4/5).

Usage::

    PYTHONPATH=src python benchmarks/bench_tier1_hotpath.py           # full
    PYTHONPATH=src python benchmarks/bench_tier1_hotpath.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_tier1_hotpath.py \
        --gate-batched    # quick CI gate: block encoder >= 10x the oracle

``--smoke`` shrinks repetitions and the image so the whole thing runs in
well under a minute on a single-core CI runner.  Worker scaling is
machine-dependent: on a single-core container the pool *cannot* beat
serial (process start-up is pure overhead), so the JSON records
``cpu_count`` alongside every number — read speedups only against it.
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from _util import add_repeats_flag, bench_report, check_repeats, time_fn, write_bench_json
from repro.image.synthetic import watch_face_image
from repro.jpeg2000 import tier1_batch
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.jpeg2000.tier1 import encode_codeblock, encode_codeblock_reference

WORKER_COUNTS = (1, 2, 4, 8)

#: Acceptance floor for the block encoder over the scalar oracle on the
#: many-small-blocks image (``--gate-batched``).
BATCHED_MIN_SPEEDUP = 10.0

#: Image edge of the small-blocks comparison (192x192x3, 16x16 blocks).
SMALL_BLOCKS_SIZE = 192


def bench_codeblock(repeats: int) -> dict:
    """Dense 64x64 block, the oracle vs. the block encoder."""
    rng = np.random.default_rng(42)
    cb = rng.integers(-2000, 2000, size=(64, 64)).astype(np.int32)
    out = {}
    for backend in ("reference", "auto"):
        out[backend] = time_fn(
            lambda b=backend: encode_codeblock(cb, "HL", backend=b), repeats
        )
    ref, fast = out["reference"]["median_s"], out["auto"]["median_s"]
    out["speedup"] = ref / fast if fast > 0 else float("inf")
    return out


def image_blocks(img, params) -> list:
    """The ``(coeffs, band)`` blocks an encode hands the block encoder."""
    captured = []
    real = tier1_batch.encode_codeblocks_batched

    def capture(blocks, occupancy=None):
        blocks = [(np.array(cb), band) for cb, band in blocks]
        captured.extend(blocks)
        return real(blocks, occupancy)

    tier1_batch.encode_codeblocks_batched = capture
    try:
        encode(img, params)
    finally:
        tier1_batch.encode_codeblocks_batched = real
    return captured


def bench_batched_small_blocks(size: int, repeats: int) -> dict:
    """Many 16x16 blocks: the block encoder vs. the oracle, Tier-1 only.

    Both code the same blocks of one image in the same run, so the ratio
    is the native kernel's gain over the scalar reference it replaced as
    the default, with the front end, rate control and Tier-2 left out.
    """
    img = watch_face_image(size, size, channels=3)
    params = EncoderParams(levels=3, codeblock_size=16, workers=1)
    blocks = image_blocks(img, params)
    out = {"image": f"{size}x{size}x3", "codeblock_size": 16,
           "blocks": len(blocks), "backends": {}}
    out["backends"]["reference"] = time_fn(
        lambda: [encode_codeblock_reference(cb, band) for cb, band in blocks],
        repeats,
    )
    out["backends"]["batched"] = time_fn(
        lambda: tier1_batch.encode_codeblocks_batched(blocks), repeats
    )
    ref = out["backends"]["reference"]["median_s"]
    bat = out["backends"]["batched"]["median_s"]
    out["speedup"] = ref / bat if bat > 0 else float("inf")
    out["results_identical"] = tier1_batch.encode_codeblocks_batched(
        blocks
    ) == [encode_codeblock_reference(cb, band) for cb, band in blocks]
    return out


def bench_full_image(size: int, repeats: int) -> dict:
    """Full lossless encode through the work queue at several widths."""
    img = watch_face_image(size, size, channels=3)
    out = {"image": f"{size}x{size}x3", "workers": {}}
    codestreams = {}
    for workers in WORKER_COUNTS:
        params = EncoderParams(levels=3, workers=workers)
        result = time_fn(lambda p=params: encode(img, p), repeats)
        codestreams[workers] = encode(img, params).codestream
        out["workers"][str(workers)] = result
    base = out["workers"]["1"]["median_s"]
    for workers in WORKER_COUNTS:
        w = out["workers"][str(workers)]
        w["speedup_vs_1"] = base / w["median_s"] if w["median_s"] > 0 else 0.0
    first = codestreams[WORKER_COUNTS[0]]
    out["codestreams_identical"] = all(
        codestreams[w] == first for w in WORKER_COUNTS
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny image + few repeats (CI)")
    ap.add_argument("--gate-batched", action="store_true",
                    help="run only the many-small-blocks comparison and "
                         "fail unless the block encoder is >= "
                         f"{BATCHED_MIN_SPEEDUP:g}x the scalar oracle "
                         "(CI quick gate)")
    ap.add_argument("--output", default=None,
                    help="JSON path (default: BENCH_tier1.json at repo root)")
    add_repeats_flag(ap)
    args = ap.parse_args(argv)
    repeats = check_repeats(args.repeats)

    block_repeats = max(repeats, 3 if args.smoke else 9)
    image_size = 96 if args.smoke else 192
    image_repeats = repeats

    if args.gate_batched:
        sb = bench_batched_small_blocks(SMALL_BLOCKS_SIZE, max(repeats, 3))
        print(f"{sb['image']} codeblock=16 ({sb['blocks']} blocks): "
              f"reference {sb['backends']['reference']['median_s']:.3f} s"
              f"  batched {sb['backends']['batched']['median_s']:.4f} s"
              f"  speedup {sb['speedup']:.1f}x"
              f"  (floor {BATCHED_MIN_SPEEDUP:g}x, "
              f"identical={sb['results_identical']})")
        ok = sb["results_identical"] and sb["speedup"] >= BATCHED_MIN_SPEEDUP
        print("gate-batched:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    from repro.jpeg2000 import _mq_native

    report = bench_report(
        "tier1_hotpath",
        machine_extra={
            "mq_native_kernel": _mq_native.native_encode_block is not None,
        },
        smoke=args.smoke,
        codeblock_64x64_dense=bench_codeblock(block_repeats),
        batched_small_blocks=bench_batched_small_blocks(
            image_size, image_repeats
        ),
        full_image_encode=bench_full_image(image_size, image_repeats),
    )

    cb = report["codeblock_64x64_dense"]
    sb = report["batched_small_blocks"]
    fi = report["full_image_encode"]
    print(f"dense 64x64 block : reference {cb['reference']['median_s']*1e3:8.1f} ms"
          f"  auto {cb['auto']['median_s']*1e3:8.2f} ms"
          f"  speedup {cb['speedup']:.1f}x")
    print(f"{sb['image']} codeblock=16 ({sb['blocks']} blocks), Tier-1 only: "
          f"reference {sb['backends']['reference']['median_s']:.3f} s"
          f"  batched {sb['backends']['batched']['median_s']:.4f} s"
          f"  speedup {sb['speedup']:.1f}x")
    for w in WORKER_COUNTS:
        r = fi["workers"][str(w)]
        print(f"{fi['image']} encode, {w} worker(s): {r['median_s']:8.2f} s"
              f"  ({r['speedup_vs_1']:.2f}x vs 1)")
    print(f"codestreams identical across worker counts: "
          f"{fi['codestreams_identical']}  (cpu_count={os.cpu_count()})")

    write_bench_json(report, "BENCH_tier1.json", args.output)

    if not fi["codestreams_identical"] or not sb["results_identical"]:
        return 1  # determinism is an acceptance criterion, fail loudly
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
