"""DWT front-end benchmark: the native kernel against the dwt.py oracle.

Times the front end in each direction — level shift + MCT + DWT +
quantize forward (:func:`repro.jpeg2000.dwt_fast.run_frontend`),
dequantize + inverse DWT + inverse MCT + level unshift back from the
int32 bands and their steps into the image
(:func:`repro.jpeg2000.dwt_fast.run_inverse_frontend`) — with the native
kernel and with the per-stage oracle (:mod:`repro.jpeg2000.mct`,
:mod:`repro.jpeg2000.dwt`, :func:`repro.jpeg2000.quantize.quantize` and
:func:`~repro.jpeg2000.quantize.dequantize`), for both filters and
several image sizes, and records the numbers to ``BENCH_dwt.json``.
Every native run is checked equal to the oracle's output before its
timing counts.

Usage::

    PYTHONPATH=src python benchmarks/bench_dwt_frontend.py           # full
    PYTHONPATH=src python benchmarks/bench_dwt_frontend.py --quick   # CI

``--quick`` runs a 1024x1024 gray plane per filter and fails (exit 1)
unless the native kernel is loaded and at least 2x the oracle, in both
directions, in the same run — the CI floor.  The kernel is
single-threaded, so the numbers do not depend on the core count.
"""

from __future__ import annotations

import argparse

import numpy as np

from _util import add_repeats_flag, bench_report, check_repeats, time_fn, write_bench_json
from repro.image.synthetic import watch_face_image
from repro.jpeg2000 import _mq_native, mct
from repro.jpeg2000.dwt import Decomposition, inverse_dwt2d
from repro.jpeg2000.dwt_fast import band_keys, run_frontend, run_inverse_frontend
from repro.jpeg2000.encoder import _normalize_image
from repro.jpeg2000.params import EncoderParams
from repro.jpeg2000.quantize import dequantize

QUICK_SPEEDUP_FLOOR = 2.0


def _identical(a, b) -> bool:
    """Equal decomposition lists (per subband, dtype included)."""
    for da, db in zip(a, b):
        if da.ll.dtype != db.ll.dtype or not np.array_equal(da.ll, db.ll):
            return False
        for la, lb in zip(da.details, db.details):
            for ba, bb in zip(la, lb):
                if ba.dtype != bb.dtype or not np.array_equal(ba, bb):
                    return False
    return True


def _bands(d: Decomposition) -> list[np.ndarray]:
    """Subbands in the front end's band order: HL, LH, HH per level,
    finest first, then LL."""
    return [b for lvl in d.details for b in lvl] + [d.ll]


def _dequantized(d: Decomposition, steps) -> Decomposition:
    """The oracle's float subbands, from int32 bands and their steps."""
    deq = [dequantize(b, s) for b, s in zip(_bands(d), steps)]
    return Decomposition(
        shape=d.shape, levels=d.levels, reversible=False, ll=deq[-1],
        details=[tuple(deq[3 * i : 3 * i + 3]) for i in range(d.levels)],
    )


def bench_case(size: int, channels: int, lossless: bool, repeats: int) -> dict:
    img = watch_face_image(size, size, channels=channels)
    comps, depth = _normalize_image(img)
    params = EncoderParams(
        lossless=lossless, rate=None if lossless else 0.25, levels=5
    )
    out = {
        "image": f"{size}x{size}x{channels}",
        "filter": "5/3+RCT" if lossless else "9/7+ICT",
    }

    reference = run_frontend(comps, depth, params, backend="reference")
    native = run_frontend(comps, depth, params)
    identical = _identical(reference.decomps, native.decomps)
    out["forward_reference"] = time_fn(
        lambda: run_frontend(comps, depth, params, backend="reference"), repeats
    )
    out["forward_native"] = time_fn(
        lambda: run_frontend(comps, depth, params), repeats
    )

    # The decoder's int32 subband planes and their quantizer steps; the
    # native front end dequantizes them itself and stores the image.
    decomps = native.decomps
    steps = [native.quants[k].step for k in band_keys(native.levels)]
    image = np.empty((size, size, channels) if channels > 1 else (size, size),
                     np.uint8 if depth <= 8 else np.uint16)

    def oracle():
        planes = decomps if lossless else [
            _dequantized(d, steps) for d in decomps]
        return mct.inverse_mct(
            [inverse_dwt2d(d) for d in planes], depth, lossless
        )

    bands = [_bands(d) for d in decomps]

    def inverse():
        run_inverse_frontend(bands, steps, depth, lossless, image)

    inverse()
    got = [image] if channels == 1 else [image[..., c] for c in range(channels)]
    identical &= all(np.array_equal(a, b) for a, b in zip(oracle(), got))
    out["inverse_reference"] = time_fn(oracle, repeats)
    out["inverse_native"] = time_fn(inverse, repeats)

    for way in ("forward", "inverse"):
        ref = out[f"{way}_reference"]["median_s"]
        nat = out[f"{way}_native"]["median_s"]
        out[f"speedup_{way}"] = ref / nat if nat > 0 else float("inf")
    out["outputs_identical"] = identical
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="a 1024x1024 plane per filter + speedup floor (CI)")
    ap.add_argument("--output", default=None,
                    help="JSON path (default: BENCH_dwt.json at repo root)")
    add_repeats_flag(ap)
    args = ap.parse_args(argv)
    repeats = check_repeats(args.repeats)

    if args.quick:
        sizes = [(1024, 1, True), (1024, 1, False)]
    else:
        sizes = [
            (512, 3, True), (512, 3, False),
            (1024, 1, True), (1024, 1, False),
            (1024, 3, True), (1024, 3, False),
            (2048, 3, True), (2048, 3, False),
        ]

    kernel = _mq_native._LIB is not None
    report = bench_report("dwt_frontend", quick=args.quick, cases=[],
                          native_kernel=kernel)
    ok = True
    for size, channels, lossless in sizes:
        case = bench_case(size, channels, lossless, repeats)
        report["cases"].append(case)
        ok &= case["outputs_identical"]
        print(f"{case['image']:>12} {case['filter']:<8}"
              f" forward {case['forward_reference']['median_s']*1e3:7.1f} ->"
              f" {case['forward_native']['median_s']*1e3:6.1f} ms"
              f" ({case['speedup_forward']:5.2f}x)"
              f"  inverse {case['inverse_reference']['median_s']*1e3:7.1f} ->"
              f" {case['inverse_native']['median_s']*1e3:6.1f} ms"
              f" ({case['speedup_inverse']:5.2f}x)"
              f"  identical: {case['outputs_identical']}")

    write_bench_json(report, "BENCH_dwt.json", args.output)

    if not ok:
        print("FAIL: native outputs differ from the oracle")
        return 1
    if args.quick:
        if not kernel:
            print("FAIL: the native kernel is not loaded (no C compiler?)")
            return 1
        worst = min(min(c["speedup_forward"], c["speedup_inverse"])
                    for c in report["cases"])
        if worst < QUICK_SPEEDUP_FLOOR:
            print(f"FAIL: native speedup {worst:.2f}x "
                  f"< {QUICK_SPEEDUP_FLOOR}x floor")
            return 1
        print(f"quick gate passed: native >= {QUICK_SPEEDUP_FLOOR}x the "
              f"oracle (worst {worst:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
