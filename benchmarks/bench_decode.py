"""Decode-path benchmark: scalar reference vs the block decoder.

The decoder acceptance bar mirrors the encoder's: the block decoder must
decode the paper's working set (2048x2048x3 lossless, 5 levels) at least
3x faster than the scalar reference on one core, while reconstructing
sample-identical output (asserted before any timing).  ``--quick`` runs a
768x768x3 image with a 2x floor — the CI ``bench-decode`` job's gate.

The reference decoder is timed with a single repeat: it is minutes per
image at full size (that cost is the whole reason the fast path exists),
and it only provides the denominator.

Usage:
    PYTHONPATH=src python benchmarks/bench_decode.py [--quick] [--gate]
        [--repeats N] [--output BENCH_decode.json]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from _util import add_repeats_flag, bench_report, check_repeats, time_fn, write_bench_json
from repro.image.synthetic import watch_face_image
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.jpeg2000 import _t1_dec_native

#: Single-core speedup floors (block decoder vs scalar reference).
FULL_SPEEDUP_FLOOR = 3.0
QUICK_SPEEDUP_FLOOR = 2.0

WORKER_COUNTS = (1, 2, 4)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="768x768x3 with a 2x floor (CI gate)")
    ap.add_argument("--gate", action="store_true",
                    help="exit 1 if the speedup floor is missed")
    ap.add_argument("--output", default=None,
                    help="JSON path (default: BENCH_decode.json at repo root)")
    add_repeats_flag(ap)
    args = ap.parse_args(argv)
    repeats = check_repeats(args.repeats)

    from repro.jpeg2000.decoder import decode, decode_reference

    size = 768 if args.quick else 2048
    floor = QUICK_SPEEDUP_FLOOR if args.quick else FULL_SPEEDUP_FLOOR
    image = watch_face_image(size, size, channels=3)
    params = EncoderParams(lossless=True, levels=5)
    codestream = encode(image, params).codestream

    # Identity first: a fast decoder that decodes wrong is not a result.
    expected = None

    def run_reference():
        nonlocal expected
        expected = decode_reference(codestream)

    t0 = time.perf_counter()
    run_reference()
    ref_s = time.perf_counter() - t0
    reference = {"median_s": ref_s, "min_s": ref_s, "repeats": 1}
    assert np.array_equal(expected, image), "reference decode != input"

    backends = {}
    for backend in ("auto",):
        out = decode(codestream, backend=backend, workers=1)
        identical = bool(np.array_equal(out, expected))
        timing = time_fn(
            lambda b=backend: decode(codestream, backend=b, workers=1),
            repeats,
        )
        timing["identical_to_reference"] = identical
        timing["speedup_vs_reference"] = ref_s / timing["median_s"]
        backends[backend] = timing
        print(f"{size}x{size}x3 decode, {backend:<10}:"
              f" {timing['median_s']:8.3f} s"
              f"  ({timing['speedup_vs_reference']:.1f}x vs reference"
              f" {ref_s:.1f} s)  identical: {identical}")

    workers_scaling = {}
    base = backends["auto"]["median_s"]
    for w in WORKER_COUNTS:
        out = decode(codestream, workers=w)
        identical = bool(np.array_equal(out, expected))
        timing = time_fn(
            lambda w=w: decode(codestream, workers=w),
            repeats,
        )
        timing["identical_to_reference"] = identical
        timing["speedup_vs_1"] = base / timing["median_s"]
        workers_scaling[str(w)] = timing
        print(f"{size}x{size}x3 decode, auto {w}w :"
              f" {timing['median_s']:8.3f} s"
              f"  ({timing['speedup_vs_1']:.2f}x vs 1w)"
              f"  identical: {identical}")

    speedup = backends["auto"]["speedup_vs_reference"]
    identical = (
        all(b["identical_to_reference"] for b in backends.values())
        and all(w["identical_to_reference"] for w in workers_scaling.values())
    )
    passed = identical and speedup >= floor
    print(f"single-core block-decoder speedup {speedup:.1f}x"
          f" (acceptance >= {floor}x), all outputs identical: {identical}")

    report = bench_report(
        "decode",
        machine_extra={
            "t1_native_kernel": _t1_dec_native.native_decode_block is not None,
        },
        quick=args.quick,
        image={"size": size, "channels": 3, "levels": 5, "lossless": True,
               "codestream_bytes": len(codestream)},
        reference=reference,
        backends=backends,
        workers=workers_scaling,
        acceptance={"threshold": floor, "speedup": speedup,
                    "identical": identical, "passed": passed},
    )
    write_bench_json(report, "BENCH_decode.json", args.output)

    if not identical:
        return 1  # correctness criteria fail loudly everywhere
    if args.gate and speedup < floor:
        print(f"FAIL: block decoder {speedup:.2f}x < {floor}x floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
