"""Shared per-geometry artifacts for the Tier-1 coders.

Every Tier-1 coder needs the same static data for an ``h x w`` code
block: flat neighbour index arrays and the significance/sign context
LUTs.  One process-wide cache keyed by geometry serves the scalar
reference coders (:mod:`repro.jpeg2000.tier1`) and the native block
kernels (:mod:`repro.jpeg2000._mq_native`,
:mod:`repro.jpeg2000._t1_dec_native`).

The cache keeps hit/miss counters (:func:`cache_stats`, surfaced through
the service ``/stats`` endpoint): an encode of a typical image touches only a handful
of distinct geometries, so the hit rate should sit near 100% — a low rate
means block partitioning went pathological.

Everything returned here is read-only NumPy data; callers share the same
objects, never copies.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

#: Neighbour offsets in (dr, dc) form: W, E, N, S, NW, NE, SW, SE.
NEIGHBOUR_OFFSETS = ((0, -1), (0, 1), (-1, 0), (1, 0),
                     (-1, -1), (-1, 1), (1, -1), (1, 1))


def _build_sig_luts():
    """Significance context LUTs indexed by ``h*15 + v*5 + d``.

    ``h``/``v`` are the counts of significant horizontal/vertical neighbours
    (0-2) and ``d`` of diagonal neighbours (0-4).  Returns (ll_lh, hl, hh)
    flat tuples of 45 entries each (T.800 Table D.1).
    """
    ll = [0] * 45
    hh = [0] * 45
    for h in range(3):
        for v in range(3):
            for d in range(5):
                if h == 2:
                    c = 8
                elif h == 1:
                    c = 7 if v >= 1 else (6 if d >= 1 else 5)
                elif v == 2:
                    c = 4
                elif v == 1:
                    c = 3
                else:
                    c = 2 if d >= 2 else (1 if d == 1 else 0)
                ll[h * 15 + v * 5 + d] = c
                hv = h + v
                if d >= 3:
                    c = 8
                elif d == 2:
                    c = 7 if hv >= 1 else 6
                elif d == 1:
                    c = 5 if hv >= 2 else (4 if hv == 1 else 3)
                else:
                    c = 2 if hv >= 2 else (1 if hv == 1 else 0)
                hh[h * 15 + v * 5 + d] = c
    # HL swaps the roles of horizontal and vertical neighbours.
    hl = [0] * 45
    for h in range(3):
        for v in range(3):
            for d in range(5):
                hl[h * 15 + v * 5 + d] = ll[v * 15 + h * 5 + d]
    return tuple(ll), tuple(hl), tuple(hh)


SIG_LL, SIG_HL, SIG_HH = _build_sig_luts()


def sig_lut_for_band(band: str):
    """The flat 45-entry significance LUT for ``band`` (tuple of ints)."""
    if band in ("LL", "LH"):
        return SIG_LL
    if band == "HL":
        return SIG_HL
    if band == "HH":
        return SIG_HH
    raise ValueError(f"unknown band {band!r}")


def _build_sign_lut():
    """Sign context and XOR bit from clipped (H, V) contributions (D.3)."""
    table = {}
    for hc in (-1, 0, 1):
        for vc in (-1, 0, 1):
            if hc == 1:
                ctx, xor = {1: (13, 0), 0: (12, 0), -1: (11, 0)}[vc]
            elif hc == 0:
                ctx, xor = {1: (10, 0), 0: (9, 0), -1: (10, 1)}[vc]
            else:
                ctx, xor = {1: (11, 1), 0: (12, 1), -1: (13, 1)}[vc]
            table[(hc + 1) * 3 + (vc + 1)] = (ctx, xor)
    return tuple(table[k] for k in range(9))


SIGN_LUT = _build_sign_lut()

_SIG_LUT_ARRAYS: dict[str, np.ndarray] = {}


def sig_lut_array(band: str) -> np.ndarray:
    """Read-only uint8 array form of :func:`sig_lut_for_band`."""
    arr = _SIG_LUT_ARRAYS.get(band)
    if arr is None:
        arr = np.asarray(sig_lut_for_band(band), dtype=np.uint8)
        arr.setflags(write=False)
        _SIG_LUT_ARRAYS[band] = arr
    return arr


@dataclass(frozen=True)
class BlockGeometry:
    """Immutable static geometry of an ``h x w`` code block.

    ``nbr`` holds the flat neighbour indices per sample (W, E, N, S, NW,
    NE, SW, SE), shape ``(h*w, 8)`` int32; out-of-block neighbours point at
    the sentinel slot ``h*w``.
    """

    height: int
    width: int
    nbr: np.ndarray


_CACHE: dict[tuple[int, int], BlockGeometry] = {}
_CACHE_LOCK = threading.Lock()
_HITS = 0
_MISSES = 0


def _build_geometry(h: int, w: int) -> BlockGeometry:
    n = h * w
    nbr_padded = np.full((h + 2, w + 2), n, dtype=np.int32)
    nbr_padded[1:-1, 1:-1] = np.arange(n, dtype=np.int32).reshape(h, w)
    nbr = np.empty((n, 8), dtype=np.int32)
    for k, (dr, dc) in enumerate(NEIGHBOUR_OFFSETS):
        nbr[:, k] = nbr_padded[1 + dr:1 + dr + h, 1 + dc:1 + dc + w].ravel()
    nbr.setflags(write=False)
    return BlockGeometry(height=h, width=w, nbr=nbr)


def geometry(h: int, w: int) -> BlockGeometry:
    """The cached :class:`BlockGeometry` for an ``h x w`` block."""
    global _HITS, _MISSES
    key = (h, w)
    with _CACHE_LOCK:
        geo = _CACHE.get(key)
        if geo is not None:
            _HITS += 1
            return geo
        _MISSES += 1
    # Build outside the lock (pure function; a racing duplicate build is
    # harmless and the first one stored wins).
    geo = _build_geometry(h, w)
    with _CACHE_LOCK:
        return _CACHE.setdefault(key, geo)


def cache_stats() -> dict:
    """JSON-ready hit/miss counters of the shared geometry cache."""
    with _CACHE_LOCK:
        total = _HITS + _MISSES
        return {
            "hits": _HITS,
            "misses": _MISSES,
            "entries": len(_CACHE),
            "hit_rate": (_HITS / total) if total else 0.0,
        }


def reset_cache_stats() -> None:
    """Zero the hit/miss counters (tests); cached geometries are kept."""
    global _HITS, _MISSES
    with _CACHE_LOCK:
        _HITS = 0
        _MISSES = 0
