"""Pure statistics the benchmark reports: tails, class splits, Mpixel/s.

Kept free of I/O and of the codec so the rules can be unit-tested.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Iterable

#: The tail is the highest order statistic with at least this many samples
#: strictly beyond it, so it never rests on a handful of points.
TAIL_BEYOND = 10


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> int:
    """0-based rank (ascending order) of the tail sample among ``n``.

    The rank is ``n - beyond - 1``: exactly ``beyond`` samples sit above it.
    Fewer than ``beyond + 1`` samples define no tail, which is an error, not
    a silently shorter tail.
    """
    if n < beyond + 1:
        raise ValueError(
            f"a tail needs at least {beyond + 1} samples, got {n}"
        )
    return n - beyond - 1


def tail(samples: Iterable[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """``(value, percentile)`` of the tail sample of ``samples``.

    The percentile is the share of samples at or below the returned one;
    with a fixed per-run sample count it is the same in every run.
    """
    ordered = sorted(samples)
    k = tail_rank(len(ordered), beyond)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def median(samples: Iterable[float]) -> float:
    values = list(samples)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def split_by_class(records: Iterable, key=lambda rec: rec.cls) -> dict[str, list]:
    """Group records by ``key(record)``, keeping arrival order within a class.

    Percentiles are only ever taken inside one class: pooling classes with
    different service times puts the median between modes.
    """
    out: dict[str, list] = defaultdict(list)
    for rec in records:
        out[key(rec)].append(rec)
    return dict(out)


def mpix_per_s(pixels: Iterable[int], seconds: Iterable[float]) -> float:
    """Megapixels per second over a set of calls: total pixels / total time.

    A pixel is one image position (height x width), whatever the number of
    components, so gray and colour images of one size count the same.
    """
    total_pix = sum(pixels)
    total_s = sum(seconds)
    if total_s <= 0:
        raise ValueError("no time measured")
    return total_pix / 1e6 / total_s


def geomean_mpix_per_s(pixels: Iterable[int], seconds: Iterable[float]) -> float:
    """Geometric mean of per-request megapixels per second.

    Used where each request is one sample of a class mix with very
    different per-pixel costs: a median would jump whenever two classes
    swap ranks, and a total would be set by the slowest class alone.
    """
    logs = [math.log(p / 1e6 / s) for p, s in zip(pixels, seconds, strict=True)]
    if not logs:
        raise ValueError("no requests")
    return math.exp(sum(logs) / len(logs))


def share(useful: int, attempted: int) -> float:
    """``useful / attempted``; 0.0 when nothing was attempted."""
    return useful / attempted if attempted else 0.0
