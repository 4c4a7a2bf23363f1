"""End-to-end benchmark of the JPEG2000 codec and its encode service.

Run from the repository root::

    python3 perfbench/run.py --workload photo --seed 2008 --seconds 30 --trace 0
    python3 perfbench/run.py --list     # every metric, its unit and target

``--trace 0`` reports the end-to-end metrics of an untraced pass;
``--trace 1`` reports the per-layer metrics of a traced pass.  The last
line of standard output is the result object; the line before it is the
full report (host, kernels, sample counts, failures).  The exit status is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import catalogue
from harness import (
    BenchError,
    RunDirs,
    adopt_orphans,
    check_environment,
    fill_kernel_cache,
    host_record,
    library_setup_s,
    own_peak_mib,
    stop_descendants,
    usable_cores,
)

WORKLOADS = ("photo", "thumbs", "serve")


def _metrics(values: dict, metrics) -> dict:
    out = {}
    for m in metrics:
        if m.name not in values:
            raise BenchError(f"metric {m.name} was not measured")
        out[m.name] = {"value": values[m.name], "unit": m.unit}
    return out


def run_library(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import library

    cores = usable_cores()
    pins = library.load_pins() if seed == library.DEFAULT_SEED else None
    setup = library_setup_s(cores if workload == "photo" else 1)
    out = library.run_rounds(workload, seed, seconds, cores, trace, pins)
    check = out["check"]
    values = dict(library.end_to_end(out))
    values.update(setup_s=setup, peak_rss_mib=own_peak_mib(),
                  ok_share=(check.attempted - check.failed) / check.attempted)
    if trace:
        values.update(library.per_layer(out))
        for m in catalogue.PER_LAYER:
            values.setdefault(m.name, 0.0)   # serve-only layers
        for call in out["tracer"].calls:
            if call.wall < call.attributed():
                check.fail(f"{call.label}: spans exceed the call's wall time")
    return {
        "values": values,
        "attempted": check.attempted,
        "failed": check.failed,
        "errors": check.errors,
        "detail": {"rounds": out["rounds"], "min_psnr_db": check.min_psnr,
                   "pinned": pins is not None,
                   "call_seconds": library.call_seconds(out)},
    }


def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    import serving

    cores = usable_cores()
    out = serving.run_serve(seed, seconds, cores)
    errors = serving.failures(out)
    requests = out["traffic"].warm + [
        r for _k, reqs in out["traffic"].blocks for r in reqs
    ]
    attempted = len(requests) + 2          # + process and shm checks
    failed = sum(not r.ok for r in requests)
    failed += bool(out["orphans"]) + bool(out["leaked_shm"])
    values = dict(serving.end_to_end(out))
    values.update(setup_s=out["setup_s"], peak_rss_mib=out["rss_mib"],
                  ok_share=(attempted - failed) / attempted)
    if trace:
        values.update(serving.per_layer(out))
        for m in catalogue.PER_LAYER:
            values.setdefault(m.name, 0.0)   # in-process layers
    return {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "detail": {"requests": len(requests), "orphans": out["orphans"],
                   "leaked_shm": out["leaked_shm"],
                   "setup_samples_s": out["setup_samples"]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2008)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true",
                    help="print every metric with its unit and exit")
    ap.add_argument("--write-pins", action="store_true",
                    help="re-pin the default seed's codestream SHA-256s")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the server is stopped and the
    # run directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.list:
        print(catalogue.table())
        return 0
    try:
        check_environment()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not args.workload and not args.write_pins:
        ap.error("--workload is required")

    adopt_orphans()
    dirs = RunDirs()
    started = time.time()
    try:
        dirs.apply()
        kernels = fill_kernel_cache()
        if args.write_pins:
            import library

            pins = library.pins_for_default_seed(usable_cores())
            with open(library.PINS_PATH, "w") as fh:
                json.dump(pins, fh, indent=2, sort_keys=True)
                fh.write("\n")
            return 0
        trace = bool(args.trace)
        if args.workload == "serve":
            res = run_serve(args.seed, args.seconds, trace)
        else:
            res = run_library(args.workload, args.seed, args.seconds, trace)
        metrics = catalogue.PER_LAYER if trace else catalogue.END_TO_END
        result = {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": _metrics(res["values"], metrics),
        }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        killed = stop_descendants()
        dirs.close()
        if killed:
            print(f"perfbench: killed leftover processes {killed}",
                  file=sys.stderr)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_record(), "kernels": kernels,
        "wall_s": time.time() - started, "errors": res["errors"],
        **res["detail"],
    }
    print(json.dumps(report, sort_keys=True))
    for err in res["errors"]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
