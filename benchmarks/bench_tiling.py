"""Tiled encode and decode: streaming memory ceiling and tile-parallel
speedup.

Two claims ride on tiling, and this benchmark measures both:

1. **Peak RSS of the tile-row stream.**  A tall image encoded with
   ``--tile`` streams one tile row at a time, and so does its decode, so
   each direction's peak working set must sit well below the single-tile
   peak (which holds every subband of the whole image at once) and under
   a bound proportional to one tile row.  Each configuration runs in its
   own child process because ``ru_maxrss`` is a per-process high-water
   mark — it only ever goes up, so sequential in-process measurements
   would inherit the largest predecessor.

2. **Tile-parallel speedup.**  Tiles shard across the code-block work
   queue, so a multi-tile encode at N workers must beat the same encode
   at 1 worker (bytes are identical at any worker count; the differential
   suite asserts that separately).

``--quick --gate`` is the CI contract: the tiled encode and the tiled
decode of the tall synthetic image must each stay under the row bound
(baseline-adjusted) and below the single-tile peak, and both codestreams
must decode to exactly the source pixels.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _util import (  # noqa: E402
    add_repeats_flag,
    bench_report,
    check_repeats,
    time_fn,
    write_bench_json,
)

#: RSS a tiled child may sit above its baseline: the row bound itself
#: plus slack for the raw image, codestream, and allocator overhead.
GATE_SLACK = 3.0

#: Working set per sample of the tile row in flight, in bytes: the front
#: end's int32 bands and its kernel's scratch plus Tier-1's output.  It
#: was measured as the encoder's VmHWM rise over the samples of the tile
#: batch in flight (1024^2x3: 5.9-9.4 untiled, 10.7 serial to 14.8 at
#: workers=2 for rows of 256-px tiles) and rounded up; the encoder once
#: sized its batches by it.  The decode's row holds int32 planes only, so
#: the same bound covers it.
ROW_WORKSET_BYTES = 16


def _row_bound(shape, tile: int) -> int:
    """Bytes of one tile row's working set: the streaming promise, peak
    memory proportional to one row, not to the image."""
    height, width, channels = shape
    return min(tile, height) * width * channels * ROW_WORKSET_BYTES


def _make_image(height: int, width: int, channels: int):
    """A tall deterministic image built by tiling a small watch face.

    ``watch_face_image`` at full size transiently allocates ~100 bytes
    per sample of float64 intermediates — more than the encode under
    measurement — so the RSS children would inherit a generation peak
    that masks the encoder's.  Tiling a 256-pixel base keeps generation
    cost O(base), not O(image).
    """
    import numpy as np

    from repro.image.synthetic import watch_face_image

    base = watch_face_image(min(256, height), min(256, width),
                            channels=channels)
    reps = (-(-height // base.shape[0]), -(-width // base.shape[1]))
    if channels > 1:
        reps += (1,)
    return np.tile(base, reps)[:height, :width]


def _child_main(spec: dict) -> None:
    """Encode or decode once in a fresh process; report peak RSS and wall
    time.  ``mode`` is ``"baseline"`` (build the image only), ``"encode"``
    or ``"decode"``."""
    import resource
    import time

    def peak_rss() -> int:
        # Linux ru_maxrss is KiB.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    out: dict = {}
    if spec["mode"] == "decode":
        from repro.jpeg2000.decoder import decode

        with open(spec["codestream_path"], "rb") as fh:
            codestream = fh.read()
        out["start_rss_bytes"] = peak_rss()
        t0 = time.perf_counter()
        decode(codestream)
        out["wall_s"] = time.perf_counter() - t0
    else:
        img = _make_image(*spec["shape"])
    if spec["mode"] == "encode":
        from repro.jpeg2000.encoder import encode
        from repro.jpeg2000.params import EncoderParams

        params = EncoderParams(tile_size=spec.get("tile"), workers=1)
        t0 = time.perf_counter()
        result = encode(img, params)
        out["wall_s"] = time.perf_counter() - t0
        out["bytes"] = len(result.codestream)
        with open(spec["codestream_path"], "wb") as fh:
            fh.write(result.codestream)
    out["peak_rss_bytes"] = peak_rss()
    json.dump(out, sys.stdout)


def _run_child(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child",
         json.dumps(spec)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return json.loads(proc.stdout)


def _rss_section(shape, tile: int, workdir: str) -> dict:
    """Peak-RSS comparison: baseline vs untiled vs tiled, encode and
    decode."""
    base = _run_child({"shape": shape, "mode": "baseline"})
    untiled_path = os.path.join(workdir, "untiled.j2c")
    tiled_path = os.path.join(workdir, "tiled.j2c")
    untiled = _run_child({
        "shape": shape, "mode": "encode", "codestream_path": untiled_path,
    })
    tiled = _run_child({
        "shape": shape, "mode": "encode", "tile": tile,
        "codestream_path": tiled_path,
    })
    untiled_dec = _run_child({"mode": "decode",
                              "codestream_path": untiled_path})
    tiled_dec = _run_child({"mode": "decode", "codestream_path": tiled_path})
    return {
        "shape": list(shape),
        "tile": tile,
        "row_bound_bytes": _row_bound(shape, tile),
        "baseline_rss_bytes": base["peak_rss_bytes"],
        "untiled": untiled,
        "tiled": tiled,
        "rss_ratio": tiled["peak_rss_bytes"] / untiled["peak_rss_bytes"],
        "decode": {
            "untiled": untiled_dec,
            "tiled": tiled_dec,
            "rss_ratio": (tiled_dec["peak_rss_bytes"]
                          / untiled_dec["peak_rss_bytes"]),
        },
        "untiled_path": untiled_path,
        "tiled_path": tiled_path,
    }


def _speedup_section(shape, tile: int, repeats: int) -> dict:
    """Tile-parallel wall time: 1 worker vs all cores (same bytes)."""
    from repro.jpeg2000.encoder import encode
    from repro.jpeg2000.params import EncoderParams

    img = _make_image(*shape)
    workers = min(4, os.cpu_count() or 1)
    serial = time_fn(
        lambda: encode(img, EncoderParams(tile_size=tile, workers=1)),
        repeats,
    )
    parallel = time_fn(
        lambda: encode(img, EncoderParams(tile_size=tile, workers=workers)),
        repeats,
    )
    return {
        "shape": list(shape),
        "tile": tile,
        "workers": workers,
        "serial": serial,
        "parallel": parallel,
        "speedup": serial["median_s"] / parallel["median_s"],
    }


def _verify_pixels(rss: dict, shape) -> None:
    import numpy as np

    from repro.jpeg2000.decoder import decode

    img = _make_image(*shape)
    with open(rss["untiled_path"], "rb") as fh:
        untiled = decode(fh.read())
    with open(rss["tiled_path"], "rb") as fh:
        tiled = decode(fh.read())
    if not np.array_equal(untiled, img):
        raise SystemExit("GATE FAIL: untiled decode does not match source")
    if not np.array_equal(tiled, img):
        raise SystemExit(
            "GATE FAIL: tiled decode does not match single-tile pixels"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true",
                        help="small shapes (the CI configuration)")
    parser.add_argument("--gate", action="store_true",
                        help="fail unless the tiled encode and decode stay "
                             "under the row bound and below the untiled "
                             "peaks, with matching pixels")
    parser.add_argument("--output", default=None, metavar="PATH")
    add_repeats_flag(parser, default=1)
    args = parser.parse_args(argv)
    if args.child:
        _child_main(json.loads(args.child))
        return 0
    check_repeats(args.repeats)

    if args.quick:
        rss_shape = (4096, 256, 1)   # tall: 16 rows of one tile
        speed_shape = (512, 512, 1)
        tile = 256
    else:
        rss_shape = (4096, 4096, 3)  # the acceptance-scale image
        speed_shape = (1024, 1024, 3)
        tile = 1024

    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench_tiling_") as workdir:
        rss = _rss_section(rss_shape, tile, workdir)
        _verify_pixels(rss, rss_shape)
        speedup = _speedup_section(speed_shape, tile=128,
                                   repeats=args.repeats)
        rss.pop("untiled_path"), rss.pop("tiled_path")

    bound = rss["row_bound_bytes"]
    enc_rise = rss["tiled"]["peak_rss_bytes"] - rss["baseline_rss_bytes"]
    dec = rss["decode"]
    dec_rise = (dec["tiled"]["peak_rss_bytes"]
                - dec["tiled"]["start_rss_bytes"])
    gate = {
        "rss_below_untiled": rss["tiled"]["peak_rss_bytes"]
        < rss["untiled"]["peak_rss_bytes"],
        "rss_under_row_bound": enc_rise <= GATE_SLACK * bound,
        "decode_rss_below_untiled": dec["tiled"]["peak_rss_bytes"]
        < dec["untiled"]["peak_rss_bytes"],
        "decode_rss_under_row_bound": dec_rise <= GATE_SLACK * bound,
        "pixels_match": True,  # _verify_pixels raised otherwise
    }
    report = bench_report(
        "tiling", rss=rss, speedup=speedup, gate=gate,
    )
    write_bench_json(report, "BENCH_tiling.json", args.output)

    def mib(n: int) -> str:
        return f"{n / 2**20:.0f} MiB"

    print(f"encode peak RSS: baseline {mib(rss['baseline_rss_bytes'])}, "
          f"untiled {mib(rss['untiled']['peak_rss_bytes'])}, "
          f"tiled {mib(rss['tiled']['peak_rss_bytes'])} "
          f"(ratio {rss['rss_ratio']:.2f})")
    print(f"decode peak RSS: untiled {mib(dec['untiled']['peak_rss_bytes'])}"
          f", tiled {mib(dec['tiled']['peak_rss_bytes'])} "
          f"(ratio {dec['rss_ratio']:.2f}, rise {mib(dec_rise)})")
    print(f"tile-parallel speedup: {speedup['speedup']:.2f}x at "
          f"{speedup['workers']} workers")

    if args.gate:
        for direction, key, rise in (("encode", "", enc_rise),
                                     ("decode", "decode_", dec_rise)):
            if not gate[key + "rss_below_untiled"]:
                raise SystemExit(
                    f"GATE FAIL: tiled {direction} peak RSS not below the "
                    f"untiled {direction}'s"
                )
            if not gate[key + "rss_under_row_bound"]:
                raise SystemExit(
                    f"GATE FAIL: tiled {direction} working set {mib(rise)} "
                    f"exceeds {GATE_SLACK:.0f}x the {mib(bound)} row bound"
                )
        print("gate OK: tiled encode and decode stayed under the row bound "
              "with exact pixels")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
