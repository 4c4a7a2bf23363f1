"""Shared benchmark harness helpers.

Every ``bench_*.py`` script times with :func:`time_fn` (median of >= 3
repeats after a warm-up, so one scheduler hiccup cannot skew a recorded
number) and exposes the repeat count via :func:`add_repeats_flag` so CI
and local runs can trade accuracy for wall time explicitly.

Every committed ``BENCH_*.json`` shares one envelope, built by
:func:`bench_report` and written by :func:`write_bench_json`:

    {"schema_version": 2, "benchmark": "<name>",
     "machine": {"cpu_count", "platform", "python", "numpy",
                 "repro_config": {...}, ...extras},
     ...benchmark-specific sections}

``repro_config`` records the execution-strategy knobs in effect when the
numbers were taken — every ``REPRO_*`` env override plus the built-in
serial cutovers — so a committed report is reproducible without guessing
which backend or worker clamp was active.

so downstream tooling can diff machines and results across benchmarks
without per-file parsers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

#: Version of the shared BENCH_*.json envelope (machine block + top-level
#: keys); bump when the shape of the shared fields changes.
#: v2: machine block gained ``repro_config`` (REPRO_* overrides + serial
#: cutovers).
SCHEMA_VERSION = 2

#: Benchmarks must default to at least this many timed repeats.
DEFAULT_REPEATS = 3


def add_repeats_flag(
    parser: argparse.ArgumentParser, default: int = DEFAULT_REPEATS
) -> None:
    """Add the shared ``--repeats`` option (defaults to median-of-3)."""
    parser.add_argument(
        "--repeats", type=int, default=default, metavar="N",
        help=f"timed repeats per case, median reported (default {default})",
    )


def check_repeats(repeats: int) -> int:
    if repeats < 1:
        raise SystemExit(f"--repeats must be >= 1, got {repeats}")
    return repeats


def time_fn(fn, repeats: int, warmup: int = 1) -> dict:
    """Median-of-``repeats`` wall time of ``fn()`` after ``warmup`` calls."""
    check_repeats(repeats)
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "repeats": repeats,
    }


def repro_config() -> dict:
    """Execution-strategy knobs active for this run.

    Captures every ``REPRO_*`` environment override plus the built-in
    serial cutover, so a committed report pins down exactly which
    execution strategy produced its numbers.
    """
    from repro.core.workpool import TIER1_AUTO_SERIAL_MIN_BLOCKS

    env = {k: v for k, v in sorted(os.environ.items())
           if k.startswith("REPRO_")}
    return {
        "env": env,
        "tier1_serial_cutover_blocks": TIER1_AUTO_SERIAL_MIN_BLOCKS,
    }


def machine_info(**extra) -> dict:
    """The shared ``machine`` block, plus benchmark-specific extras."""
    import numpy as np

    info = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro_config": repro_config(),
    }
    info.update(extra)
    return info


def bench_report(benchmark: str, machine_extra: dict | None = None,
                 **sections) -> dict:
    """Assemble a report in the shared BENCH_*.json envelope."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "machine": machine_info(**(machine_extra or {})),
    }
    report.update(sections)
    return report


def write_bench_json(report: dict, default_name: str,
                     output: str | None = None) -> str:
    """Write ``report`` to ``output`` or ``<repo root>/<default_name>``."""
    out_path = output or os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        default_name,
    )
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return out_path
