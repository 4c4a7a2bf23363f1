"""Command-line interface: encode / decode / simulate / serve / verify /
fuzz.

    python -m repro encode  input.bmp output.j2c [--lossy] [--rate 0.1]
                              [--tile 512]
                              [--workers auto] [--tier1-backend reference]
    python -m repro decode  input.j2c output.bmp [--backend reference]
                              [--workers auto]
    python -m repro simulate input.bmp [--spes 8] [--ppe-threads 1]
                              [--chips 1] [--lossy] [--rate 0.1]
    python -m repro serve   [--port 8000] [--workers auto] [--cache-mb 64]
                              [--max-queue 32] [--admission reject|block]
                              [--shards N] [--shed-target-p95 SECONDS]
    python -m repro verify  [--quick] [--rates 0.1,0.25,1.0] [--workers 1,2]
    python -m repro fuzz    [--cases 10000] [--seed 2008] [--artifacts DIR]

The coding flags of ``encode`` and ``simulate`` are generated from
:data:`repro.jpeg2000.params.CODING_FIELDS`: one flag per field with a
wire spelling (the query key with ``-`` for ``_``), so they match the
``/encode`` query keys wherever a field has one.  Execution flags
(``--workers``, ``--tier1-backend``, ``--dwt-backend``, ``--self-check``)
exist only here, never on the wire:
they change the cost of an encode, not its bytes.

``simulate`` prints the per-stage Cell/B.E. timeline for encoding the
image, priced from an exact encode.  ``serve`` runs the
long-running encode service (Tier-1 threads kept for the server's
lifetime + HTTP front end);
see the README "Serving" section.  ``verify`` and ``fuzz`` run the
round-trip and decoder-robustness gates (README "Verification").

Operational failures — malformed input files, undecodable codestreams,
failed verification — exit 1 with a one-line ``error:`` message, never a
traceback.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cell.machine import CellMachine
from repro.core.pipeline import PipelineModel
from repro.image.bmp import read_bmp, write_bmp
from repro.image.pnm import read_pnm, write_pnm
from repro.jpeg2000.decoder import DEC_BACKENDS, decode
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.errors import CodestreamError
from repro.jpeg2000.params import (
    CODING_FIELDS,
    EncoderParams,
    parse_workers,
)


def _read_image(path: str):
    import os

    if not os.path.exists(path):
        raise SystemExit(f"input file not found: {path}")
    if path.lower().endswith(".bmp"):
        return read_bmp(path)
    if path.lower().endswith((".pgm", ".ppm", ".pnm")):
        return read_pnm(path)
    raise SystemExit(f"unsupported input format: {path} (use .bmp/.pgm/.ppm)")


def _write_image(path: str, image) -> None:
    if path.lower().endswith(".bmp"):
        write_bmp(path, image)
    elif path.lower().endswith((".pgm", ".ppm", ".pnm")):
        write_pnm(path, image)
    else:
        raise SystemExit(f"unsupported output format: {path} (use .bmp/.pgm/.ppm)")


def _params(args) -> EncoderParams:
    values = {f.name: getattr(args, f.name)
              for f in CODING_FIELDS if hasattr(args, f.name)}
    if values.get("rate") is not None:
        values.setdefault("lossless", False)  # a target rate implies lossy
    return EncoderParams(**values)


def _add_coding_options(p: argparse.ArgumentParser) -> None:
    """One flag per wire-spelled coding field; absent flags keep defaults."""
    for f in CODING_FIELDS:
        if f.wire is None:
            continue
        flag = "--" + f.wire.replace("_", "-")
        if isinstance(f.default, bool):
            # Boolean fields are bare flags: giving one means "yes".
            p.add_argument(flag, dest=f.name, action="store_const",
                           const=f.parse("yes"), default=argparse.SUPPRESS,
                           help=f.help)
            continue
        # Named choice sets (backends, progressions) become argparse
        # choices; EncoderParams range-checks the numbers.
        names = f.domain() if callable(f.domain) else None
        p.add_argument(flag, dest=f.name, type=f.parse, choices=names,
                       default=argparse.SUPPRESS, help=f.help)


def cmd_encode(args) -> int:
    image = _read_image(args.input)
    t0 = time.perf_counter()
    result = encode(image, _params(args))
    wall = time.perf_counter() - t0
    with open(args.output, "wb") as fh:
        fh.write(result.codestream)
    workers = result.params.workers
    from repro.core.workpool import default_workers

    workers_used = default_workers() if workers is None else workers
    print(f"{args.input} -> {args.output}: {len(result.codestream)} bytes "
          f"({result.compression_ratio:.2f}:1), "
          f"{len(result.stats.blocks)} blocks, "
          f"{workers_used} worker(s), {wall:.2f}s")
    if result.timings is not None:
        print(f"  stages: {result.timings.summary()}")
    return 0


def cmd_decode(args) -> int:
    from repro.jpeg2000.dwt_fast import DecodeStageTimings

    with open(args.input, "rb") as fh:
        codestream = fh.read()
    timings = DecodeStageTimings()
    t0 = time.perf_counter()
    image = decode(codestream, backend=args.backend, workers=args.workers,
                   timings=timings)
    wall = time.perf_counter() - t0
    if image.dtype.itemsize == 2 and not args.output.lower().endswith(
        (".pgm", ".ppm", ".pnm")
    ):
        raise SystemExit("16-bit output requires a PGM/PPM path")
    if image.dtype.itemsize > 2:
        raise SystemExit("only 8/16-bit output images are supported")
    _write_image(args.output, image)
    print(f"{args.input} -> {args.output}: {image.shape}, {wall:.2f}s")
    print(f"  stages: {timings.summary()}")
    return 0


def cmd_simulate(args) -> int:
    image = _read_image(args.input)
    stats = encode(image, _params(args)).stats
    machine = CellMachine(chips=args.chips, num_spes=args.spes,
                          num_ppe_threads=args.ppe_threads)
    timeline = PipelineModel(machine, stats).simulate()
    print(timeline.report())
    return 0


def cmd_serve(args) -> int:
    # Imported lazily: encode/decode/simulate must not pay for the service
    # stack (threads, http.server) they never use.
    from repro.service import ServiceConfig
    from repro.service.http import run_server

    workers = args.workers
    if args.shards > 1 and workers is None:
        # Split the cores between the shards instead of letting every
        # shard's Tier-1 threads claim all of them.
        from repro.core.workpool import available_cores

        workers = max(1, available_cores() // args.shards)

    config = ServiceConfig(
        workers=workers,
        cache_bytes=args.cache_mb * 2**20,
        max_queue=args.max_queue,
        admission_policy=args.admission,
        shed_target_p95_s=args.shed_target_p95,
    )
    if args.shards > 1:
        from repro.service.sharding import ShardClusterConfig, run_sharded_server

        cluster = ShardClusterConfig(
            shards=args.shards,
            host=args.host,
            port=args.port,
            service=config,
            quiet=args.quiet,
            bus_cache_bytes=args.bus_cache_mb * 2**20,
        )
        return run_sharded_server(cluster)
    return run_server(config, host=args.host, port=args.port, quiet=args.quiet)


def cmd_verify(args) -> int:
    # Imported lazily: repro.verify pulls in the decoder and corpus stack.
    from repro.verify.roundtrip import run_corpus

    rates = tuple(float(r) for r in args.rates.split(","))
    workers = tuple(int(w) for w in args.workers.split(","))
    backends = tuple(args.backends.split(","))
    report = run_corpus(
        rates=rates, backends=backends, workers=workers,
        quick=args.quick, progress=None if args.quiet else print,
    )
    print(report.summary())
    if not report.ok:
        for check in report.failures:
            print(f"FAIL {check.name}: {check.detail}", file=sys.stderr)
        return 1
    return 0


def cmd_fuzz(args) -> int:
    from repro.verify.fuzz import run_fuzz

    report = run_fuzz(
        cases=args.cases, seed=args.seed,
        progress=None if args.quiet else print,
    )
    print(report.summary())
    if not report.ok:
        if args.artifacts:
            for path in report.write_artifacts(args.artifacts):
                print(f"wrote {path}", file=sys.stderr)
        for crash in report.crashes:
            print(
                f"CRASH case {crash.case} (base {crash.base_name}, "
                f"mutators {'+'.join(crash.mutators)}): "
                f"{crash.exc_type}: {crash.message}",
                file=sys.stderr,
            )
        return 1
    return 0


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from repro import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JPEG2000 on the Cell Broadband Engine (ICPP 2008) "
                    "reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode BMP/PNM to a JPEG2000 codestream")
    p.add_argument("input")
    p.add_argument("output")
    _add_coding_options(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a codestream to BMP/PNM")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--backend", default="auto", choices=DEC_BACKENDS,
                   help="decoder implementation (both are sample-identical): "
                        "'auto' is the block decoder, 'reference' the scalar "
                        "oracle")
    p.add_argument("--workers", type=parse_workers, default=1, metavar="N",
                   help="Tier-1 decode worker threads; 'auto' = one per "
                        "core (output is identical for any value)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="simulated Cell/B.E. encode timeline")
    p.add_argument("input")
    _add_coding_options(p)
    p.add_argument("--spes", type=int, default=8)
    p.add_argument("--ppe-threads", type=int, default=1)
    p.add_argument("--chips", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "serve",
        help="run the long-running encode service (HTTP front end)",
        description="Encode server: POST /encode with a "
                    "BMP/PGM/PPM body returns the .j2c codestream; "
                    "GET /healthz, /metrics, /stats observe it.  "
                    "SIGTERM drains gracefully.  --shards N pre-forks N "
                    "shard processes accepting on one inherited listening "
                    "socket, with a cross-shard result cache whose values "
                    "travel inline on a Unix socket (README 'Scaling "
                    "out').",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000)
    p.add_argument("--workers", type=parse_workers, default=None, metavar="N",
                   help="Tier-1 threads shared by all requests; 'auto' "
                        "(default) = one per core")
    p.add_argument("--cache-mb", type=int, default=64,
                   help="result-cache byte budget in MiB (0 disables)")
    p.add_argument("--max-queue", type=int, default=32,
                   help="max admitted-but-unfinished encode jobs")
    p.add_argument("--admission", default="reject",
                   choices=("reject", "block"),
                   help="policy when the queue is full: fail fast (503) "
                        "or make the client wait")
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="shard processes accepting on the supervisor's one "
                        "listening socket; 1 (default) runs the "
                        "single-process server")
    p.add_argument("--bus-cache-mb", type=int, default=64,
                   help="cross-shard result-cache budget in MiB "
                        "(sharded mode only)")
    p.add_argument("--shed-target-p95", type=float, default=None,
                   metavar="SECONDS",
                   help="p95 latency objective; above it uncached requests "
                        "are shed with 503 + Retry-After (default: off)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-request access logs")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "verify",
        help="round-trip gate: every corpus encode must decode back",
        description="Encodes the verification corpus and a per-rate sweep, "
                    "decodes everything, and checks bit-exactness (lossless), "
                    "PSNR floors + monotonicity (lossy), and byte identity "
                    "across Tier-1 backends and worker counts.  Exits 1 on "
                    "any failed check.",
    )
    p.add_argument("--rates", default="0.1,0.25,1.0",
                   help="comma-separated lossy rates to sweep")
    p.add_argument("--workers", default="1,2",
                   help="comma-separated worker counts for byte identity")
    p.add_argument("--backends", default="auto,reference",
                   help="comma-separated Tier-1 backends for byte identity")
    p.add_argument("--quick", action="store_true",
                   help="trim the backend x workers sweep to one combination")
    p.add_argument("--quiet", action="store_true",
                   help="print only the final summary")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "fuzz",
        help="mutation-fuzz the decoder; typed errors only",
        description="Mutates corpus codestreams (bit flips, truncations, "
                    "length-field corruption, marker reordering, packet "
                    "garbage) and decodes each case: decode() must succeed "
                    "or raise a CodestreamError subclass.  Deterministic in "
                    "--seed; exits 1 and writes --artifacts on any other "
                    "exception.",
    )
    p.add_argument("--cases", type=int, default=1000,
                   help="number of mutated inputs to decode (CI runs 10000)")
    p.add_argument("--seed", type=int, default=2008,
                   help="base seed; case N reproduces from (seed, N) alone")
    p.add_argument("--artifacts", default=None, metavar="DIR",
                   help="directory for crashing inputs (original + minimized "
                        "+ index.json), written only on failure")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress lines")
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CodestreamError, OSError, ValueError) as exc:
        # Operational failures (bad input file, malformed codestream,
        # invalid parameter combination) are user errors, not bugs: one
        # line on stderr, exit 1, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        from repro.verify.roundtrip import VerificationError

        if isinstance(exc, VerificationError):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
