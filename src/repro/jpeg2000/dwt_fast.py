"""Fused, chunked DWT front end: interleaved lifting over column chunks.

The paper's kernel contribution (Section 4) rebuilds the wavelet stage
around two ideas.  First, the vertical lifting steps are *interleaved*:
all two (5/3) or four (9/7) steps advance together in one traversal, with
the band split merged into the sweep through a half-size auxiliary buffer
instead of a separate deinterleave pass over a symmetric-extended copy —
boundaries are handled by edge-specialized expressions, not guard samples.
Second, the traversal runs over the constant-width column chunks of the
Section 2 data decomposition, so a chunk stays resident in local store
(here: cache) across every lifting step, and chunks are independent units
of parallel work.

This module is the executable analogue.  :func:`lift_53` and
:func:`lift_97` are the fused kernels; :func:`run_frontend` drives them
chunk by chunk over the whole encoder front end, fusing level shift + MCT
into the first vertical pass and quantization into the last horizontal
pass (the paper's Section 3.2 stage merges).  Chunks fan out over
:class:`repro.core.workpool.ChunkWorkQueue` — shared-memory threads
writing disjoint slices of preallocated outputs — so results are
deterministic for any worker count and chunk width.

Bit-exactness is load-bearing: ``"fused"`` produces byte-identical
codestreams to ``"reference"`` (the :mod:`repro.jpeg2000.dwt` oracle)
because every fused expression evaluates the same elementwise arithmetic;
nothing here reassociates a floating-point sum.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.core.workpool import ChunkWorkQueue
from repro.jpeg2000 import mct
from repro.jpeg2000.dwt import (
    LIFT_ALPHA,
    LIFT_BETA,
    LIFT_DELTA,
    LIFT_GAMMA,
    LIFT_K,
    Decomposition,
    _level_shapes,
    effective_levels,
    forward_dwt2d,
    inverse_53_1d,
    inverse_97_1d,
)
from repro.jpeg2000.quantize import SubbandQuant, derive_quant, quantize


def quantize_fast(coeffs: np.ndarray, step: float) -> np.ndarray:
    """Deadzone quantization in three passes instead of the oracle's six.

    ``trunc(c / step)`` equals the oracle's ``sign(c) * floor(|c| / step)``
    bitwise — IEEE division is sign-symmetric, so ``|c| / step`` and
    ``|c / step|`` are the same float — which keeps the fused backend
    byte-identical while dropping the separate sign/abs/multiply
    traversals (differentially tested against :func:`quantize`).
    """
    q = np.divide(coeffs, step)
    np.trunc(q, out=q)
    return q.astype(np.int32)

#: Valid DWT backend names.
DWT_BACKENDS = ("auto", "reference", "fused")

#: Chunk widths are rounded up to a multiple of this many samples — the
#: analogue of the paper's constraint that chunk widths be a multiple of
#: the 128-byte cache line (32 4-byte samples) so DMA-ed chunks stay
#: aligned and contiguous.
CACHE_LINE_COLS = 32

#: Input samples below which the fused front end stays serial: thread
#: submission and chunk-boundary costs only amortize on enough data
#: (BENCH_dwt's 1024x1024 case showed parallel *losing* to serial,
#: scaling 0.69, before this guard existed).
AUTO_SERIAL_MIN_SAMPLES = 1 << 21

#: Environment override for the auto-serial threshold (``0`` disables the
#: clamp entirely — used by tests and benchmarks that need the parallel
#: path on small inputs; any other integer replaces the sample threshold).
AUTO_SERIAL_ENV = "REPRO_DWT_AUTO_SERIAL_SAMPLES"

_UNSET = object()


def dwt_serial_threshold() -> int:
    """Input samples below which the fused front end stays serial.

    The :data:`AUTO_SERIAL_ENV` override wins; otherwise
    :data:`AUTO_SERIAL_MIN_SAMPLES`.
    """
    env = os.environ.get(AUTO_SERIAL_ENV, "")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{AUTO_SERIAL_ENV}={env!r} invalid; expected an integer"
            ) from None
    return AUTO_SERIAL_MIN_SAMPLES


def auto_serial_workers(workers, samples: int):
    """Clamp the chunk fan-out to serial when the input is too small.

    Returns ``1`` when ``samples`` falls below the (env-overridable,
    otherwise model-derived) threshold, otherwise ``workers`` unchanged —
    so fused parallel never loses to fused serial on small images.
    """
    if samples < dwt_serial_threshold():
        return 1
    return workers


def resolve_dwt_backend(backend: str | None) -> str:
    """Resolve a backend name; ``None`` and ``"auto"`` mean ``"fused"``."""
    if backend is None:
        backend = "auto"
    if backend not in DWT_BACKENDS:
        raise ValueError(
            f"unknown DWT backend {backend!r}; expected one of {DWT_BACKENDS}"
        )
    return "fused" if backend == "auto" else backend


@dataclass
class StageTimings:
    """Wall-clock seconds spent in each encode pipeline stage.

    Reference-backend front-end numbers are plain wall time around each
    stage.  Fused-backend numbers are accumulated from per-chunk timers
    inside the worker tasks: with one worker that is wall time; with
    several it is summed busy time across workers (CPU-seconds), the
    honest attribution when fused stages overlap in time.
    """

    levelshift_mct: float = 0.0
    dwt: float = 0.0
    quantize: float = 0.0
    tier1: float = 0.0
    tier2: float = 0.0
    rate_control: float = 0.0
    total: float = 0.0

    #: Stage attribute names in pipeline order (used by the service metrics
    #: and the CLI summary line).
    STAGES: ClassVar[tuple[str, ...]] = (
        "levelshift_mct", "dwt", "quantize", "tier1", "tier2", "rate_control",
    )

    def as_dict(self) -> dict[str, float]:
        out = {name: getattr(self, name) for name in self.STAGES}
        out["total"] = self.total
        return out

    def summary(self) -> str:
        """One-line, human-oriented stage breakdown for the CLI."""
        labels = {
            "levelshift_mct": "mct", "dwt": "dwt", "quantize": "quant",
            "tier1": "tier1", "tier2": "tier2", "rate_control": "rate",
        }
        parts = []
        for name in self.STAGES:
            value = getattr(self, name)
            if name == "rate_control" and value == 0.0:
                continue  # lossless encodes have no rate-control stage
            parts.append(f"{labels[name]} {_fmt_seconds(value)}")
        return " | ".join(parts)


def _fmt_seconds(s: float) -> str:
    if s >= 10.0:
        return f"{s:.1f}s"
    if s >= 0.1:
        return f"{s:.2f}s"
    return f"{s * 1e3:.1f}ms"


@dataclass
class DecodeStageTimings:
    """Wall-clock seconds spent in each decode pipeline stage.

    The decode mirror of :class:`StageTimings`: ``parse`` covers marker and
    packet parsing, ``tier1`` the code-block bit decoding, ``dequantize``
    the step multiply + placement, and ``idwt_mct`` the fused inverse DWT +
    inverse MCT + level-unshift front end.  The reference decode backend
    fills only ``parse`` and ``total`` (its stages are interleaved by
    design and left untouched as the oracle).
    """

    parse: float = 0.0
    tier1: float = 0.0
    dequantize: float = 0.0
    idwt_mct: float = 0.0
    total: float = 0.0

    #: Stage attribute names in pipeline order (CLI summary, service
    #: metrics).
    STAGES: ClassVar[tuple[str, ...]] = (
        "parse", "tier1", "dequantize", "idwt_mct",
    )

    def as_dict(self) -> dict[str, float]:
        out = {name: getattr(self, name) for name in self.STAGES}
        out["total"] = self.total
        return out

    def summary(self) -> str:
        """One-line, human-oriented stage breakdown for the CLI."""
        labels = {
            "parse": "parse", "tier1": "tier1",
            "dequantize": "dequant", "idwt_mct": "idwt+mct",
        }
        parts = []
        for name in self.STAGES:
            value = getattr(self, name)
            if value == 0.0:
                continue  # the reference backend only fills parse/total
            parts.append(f"{labels[name]} {_fmt_seconds(value)}")
        return " | ".join(parts) if parts else "n/a"


# ---------------------------------------------------------------------------
# Fused lifting kernels
# ---------------------------------------------------------------------------


def _sl(axis: int, s) -> tuple:
    """Index tuple selecting ``s`` along ``axis`` (everything else whole)."""
    return (slice(None),) * axis + (s,)


def _predict_sum(P: np.ndarray, out: np.ndarray, odd_n: bool, axis: int) -> None:
    """``out_k = P_k + P_{k+1}`` with the symmetric right edge folded in.

    ``P`` holds the even-position samples (length ``ns``), ``out`` receives
    one value per odd position (length ``nd``).  For even-length signals the
    reflected neighbour of the last odd sample is its left neighbour, so the
    edge term is ``2 * P_last`` — the edge-specialized expression that
    replaces the oracle's symmetric-extended guard samples.
    """
    lo = P[_sl(axis, slice(0, -1))]
    hi = P[_sl(axis, slice(1, None))]
    if odd_n:
        np.add(lo, hi, out=out)
    else:
        np.add(lo, hi, out=out[_sl(axis, slice(0, -1))])
        np.multiply(P[_sl(axis, slice(-1, None))], 2,
                    out=out[_sl(axis, slice(-1, None))])


def _update_sum(Q: np.ndarray, out: np.ndarray, odd_n: bool, axis: int) -> None:
    """``out_i = Q_{i-1} + Q_i`` with both symmetric edges folded in.

    ``Q`` holds the odd-position (high) samples (length ``nd``), ``out``
    receives one value per even position (length ``ns``).  Reflection makes
    both boundary terms a doubling: ``2 * Q_0`` on the left and, for
    odd-length signals, ``2 * Q_last`` on the right.
    """
    nd = Q.shape[axis]
    np.multiply(Q[_sl(axis, slice(0, 1))], 2, out=out[_sl(axis, slice(0, 1))])
    np.add(Q[_sl(axis, slice(0, nd - 1))], Q[_sl(axis, slice(1, None))],
           out=out[_sl(axis, slice(1, nd))])
    if odd_n:
        np.multiply(Q[_sl(axis, slice(nd - 1, nd))], 2,
                    out=out[_sl(axis, slice(nd, nd + 1))])


def lift_53(plane: np.ndarray, lo: np.ndarray, hi: np.ndarray, axis: int) -> None:
    """Fused reversible 5/3 analysis along ``axis``.

    Both lifting steps advance in one traversal of the chunk: the predict
    step writes the high band straight into ``hi`` (the half-size auxiliary
    buffer that merges the split), and the update step folds it back into
    ``lo``.  No symmetric-extended copy is built and no int64 upcast is
    made — the caller chooses the working dtype.  Outputs must not alias
    ``plane``.  Bit-exact versus :func:`repro.jpeg2000.dwt.forward_53_1d`.
    """
    n = plane.shape[axis]
    if n == 1:
        np.copyto(lo, plane)
        return
    odd = bool(n & 1)
    even = plane[_sl(axis, slice(0, None, 2))]
    odds = plane[_sl(axis, slice(1, None, 2))]
    t = np.empty(hi.shape, hi.dtype)
    _predict_sum(even, t, odd, axis)
    t >>= 1
    np.subtract(odds, t, out=hi)
    u = np.empty(lo.shape, lo.dtype)
    _update_sum(hi, u, odd, axis)
    u += 2
    u >>= 2
    np.add(even, u, out=lo)


def lift_97(plane: np.ndarray, lo: np.ndarray, hi: np.ndarray, axis: int) -> None:
    """Fused irreversible 9/7 analysis along ``axis``.

    All four lifting steps plus the K scaling advance in one traversal,
    ping-ponging between ``hi`` and ``lo`` with two half-size scratch
    buffers; boundary terms use the edge-specialized doublings of
    :func:`_predict_sum` / :func:`_update_sum`.  Outputs must not alias
    ``plane``.  Bit-exact versus :func:`repro.jpeg2000.dwt.forward_97_1d`
    (every expression is the same elementwise arithmetic in the same
    order; only the traversal is fused).
    """
    n = plane.shape[axis]
    if n == 1:
        np.copyto(lo, plane)  # length-1 signal: no lifting, no scaling
        return
    odd = bool(n & 1)
    even = plane[_sl(axis, slice(0, None, 2))]
    odds = plane[_sl(axis, slice(1, None, 2))]
    t = np.empty(hi.shape, np.float64)
    u = np.empty(lo.shape, np.float64)
    _predict_sum(even, t, odd, axis)
    t *= LIFT_ALPHA
    np.add(odds, t, out=hi)        # step 1: d1
    _update_sum(hi, u, odd, axis)
    u *= LIFT_BETA
    np.add(even, u, out=lo)        # step 2: s1
    _predict_sum(lo, t, odd, axis)
    t *= LIFT_GAMMA
    hi += t                        # step 3: d2
    _update_sum(hi, u, odd, axis)
    u *= LIFT_DELTA
    lo += u                        # step 4: s2
    lo *= 1.0 / LIFT_K
    hi *= LIFT_K


# ---------------------------------------------------------------------------
# Chunked front-end driver
# ---------------------------------------------------------------------------


def resolve_chunk(total: int, requested: int | None, workers: int) -> int:
    """Chunk width in samples: a :data:`CACHE_LINE_COLS` multiple.

    ``None`` asks for the automatic policy: one whole-extent chunk when
    serial (no per-chunk overhead to amortize), otherwise about two chunks
    per worker so the dynamic queue can balance ragged finish times.
    """
    if total <= 0:
        return CACHE_LINE_COLS
    if requested is None:
        if workers <= 1:
            return total
        target = -(-total // (2 * workers))
    else:
        if requested < 1:
            raise ValueError(f"chunk width must be >= 1, got {requested}")
        target = requested
    lines = -(-target // CACHE_LINE_COLS)
    return max(CACHE_LINE_COLS, lines * CACHE_LINE_COLS)


def _ranges(total: int, chunk: int) -> list[tuple[int, int]]:
    return [(a, min(a + chunk, total)) for a in range(0, total, chunk)]


@dataclass
class FrontendResult:
    """Everything the encoder needs from the front end.

    ``decomps`` hold **quantized** subband data: int32 coefficients on the
    reversible path, int32 quantizer indices on the irreversible path —
    either way exactly what Tier-1 consumes.
    """

    backend: str
    levels: int
    quants: dict[tuple[str, int], SubbandQuant]
    decomps: list[Decomposition]
    timings: StageTimings = field(repr=False, default_factory=StageTimings)


def run_frontend(
    comps: list[np.ndarray],
    depth: int,
    params,
    *,
    timings: StageTimings | None = None,
    backend: str | None = None,
    workers=_UNSET,
    chunk_cols=_UNSET,
) -> FrontendResult:
    """Level shift + MCT + DWT + quantization for every component.

    ``params`` is an :class:`repro.jpeg2000.params.EncoderParams`;
    ``backend`` / ``workers`` / ``chunk_cols`` override the corresponding
    params fields (benchmark convenience).  Both backends yield identical
    subband data — the fused one just gets there with fused, chunked,
    optionally parallel passes.
    """
    if timings is None:
        timings = StageTimings()
    resolved = resolve_dwt_backend(
        backend if backend is not None else params.dwt_backend
    )
    if workers is _UNSET:
        workers = params.workers
    if chunk_cols is _UNSET:
        chunk_cols = params.dwt_chunk_cols
    h, w = comps[0].shape
    lossless = params.lossless
    chroma_expanded = lossless and len(comps) == 3
    levels_eff = effective_levels((h, w), params.levels)
    quants = _derive_quants(levels_eff, depth, params, chroma_expanded)
    if resolved == "reference":
        decomps = _reference_frontend(comps, depth, params, quants, timings)
    else:
        decomps = _fused_frontend(
            comps, depth, params, levels_eff, quants, timings, workers, chunk_cols
        )
    return FrontendResult(
        backend=resolved, levels=levels_eff, quants=quants,
        decomps=decomps, timings=timings,
    )


def _derive_quants(
    levels_eff: int, depth: int, params, chroma_expanded: bool
) -> dict[tuple[str, int], SubbandQuant]:
    def derive(band: str, dlevel: int) -> SubbandQuant:
        return derive_quant(
            band, max(dlevel, 1), depth, params.lossless,
            params.guard_bits, params.base_quant_step,
            chroma_expanded=chroma_expanded,
        )

    quants = {("LL", levels_eff): derive("LL", levels_eff)}
    for dl in range(1, levels_eff + 1):
        for band in ("HL", "LH", "HH"):
            quants[(band, dl)] = derive(band, dl)
    return quants


def _reference_frontend(comps, depth, params, quants, timings) -> list[Decomposition]:
    """The oracle path: per-stage full-plane passes from the naive modules."""
    t0 = time.perf_counter()
    planes = mct.forward_mct(list(comps), depth, params.lossless)
    t1 = time.perf_counter()
    timings.levelshift_mct += t1 - t0
    decomps = [forward_dwt2d(p, params.levels, params.lossless) for p in planes]
    t2 = time.perf_counter()
    timings.dwt += t2 - t1
    return [_quantize_decomp(d, params.lossless, quants, timings) for d in decomps]


def _quantize_decomp(d: Decomposition, lossless, quants, timings) -> Decomposition:
    t0 = time.perf_counter()
    if lossless:
        ll = d.ll.astype(np.int32)
        details = [tuple(b.astype(np.int32) for b in lvl) for lvl in d.details]
    else:
        ll = quantize(d.ll, quants[("LL", d.levels)].step)
        details = []
        for i, (hl, lh, hh) in enumerate(d.details):
            dl = i + 1
            details.append((
                quantize(hl, quants[("HL", dl)].step),
                quantize(lh, quants[("LH", dl)].step),
                quantize(hh, quants[("HH", dl)].step),
            ))
    timings.quantize += time.perf_counter() - t0
    return Decomposition(
        shape=d.shape, levels=d.levels, reversible=d.reversible,
        ll=ll, details=details,
    )


def _fused_frontend(
    comps, depth, params, levels_eff, quants, timings, workers, chunk_cols
) -> list[Decomposition]:
    lossless = params.lossless
    ncomp = len(comps)
    h, w = comps[0].shape
    workers = auto_serial_workers(workers, h * w * ncomp)
    if lossless:
        # int32 holds one level of 5/3 headroom as long as the running
        # magnitude stays below 2**27; magnitudes roughly double per level,
        # so depth + levels bounds them.  Deep imagery falls back to int64.
        dt = np.int32 if depth + levels_eff <= 28 else np.int64
        lift = lift_53
    else:
        dt = np.float64
        lift = lift_97
    lock = threading.Lock()

    def account(mct_s: float = 0.0, dwt_s: float = 0.0, q_s: float = 0.0) -> None:
        with lock:
            timings.levelshift_mct += mct_s
            timings.dwt += dwt_s
            timings.quantize += q_s

    with ChunkWorkQueue(workers) as queue:
        if levels_eff == 0:
            return _fused_level0(
                comps, depth, lossless, dt, quants, queue, chunk_cols, account
            )

        details_acc: list[list[tuple]] = [[] for _ in range(ncomp)]
        final_ll: list[np.ndarray] = [None] * ncomp  # type: ignore[list-item]
        cur: list[np.ndarray] = []
        ph, pw = h, w
        for lev in range(1, levels_eff + 1):
            nd_v, ns_v = ph // 2, ph - ph // 2
            lo_v = [np.empty((ns_v, pw), dt) for _ in range(ncomp)]
            hi_v = [np.empty((nd_v, pw), dt) for _ in range(ncomp)]
            cols = _ranges(pw, resolve_chunk(pw, chunk_cols, queue.workers))

            # Vertical pass over column chunks; the first level fuses the
            # merged level shift + MCT into the same chunk traversal.
            if lev == 1:
                def vtask(c0: int, c1: int) -> None:
                    t0 = time.perf_counter()
                    planes = mct.forward_mct_chunk(
                        [c[:, c0:c1] for c in comps], depth, lossless, dt
                    )
                    t1 = time.perf_counter()
                    for ci, cp in enumerate(planes):
                        lift(cp, lo_v[ci][:, c0:c1], hi_v[ci][:, c0:c1], 0)
                    account(mct_s=t1 - t0, dwt_s=time.perf_counter() - t1)

                queue.run([lambda a=a, b=b: vtask(a, b) for a, b in cols])
            else:
                def vtask_ll(ci: int, c0: int, c1: int) -> None:
                    t0 = time.perf_counter()
                    lift(cur[ci][:, c0:c1], lo_v[ci][:, c0:c1],
                         hi_v[ci][:, c0:c1], 0)
                    account(dwt_s=time.perf_counter() - t0)

                queue.run([
                    lambda ci=ci, a=a, b=b: vtask_ll(ci, a, b)
                    for ci in range(ncomp) for a, b in cols
                ])

            # Horizontal pass over row chunks; quantization of final bands
            # is fused into the same chunk traversal (lossy path).
            nd_h, ns_h = pw // 2, pw - pw // 2
            last = lev == levels_eff
            rows_lo = _ranges(ns_v, resolve_chunk(ns_v, chunk_cols, queue.workers))
            rows_hi = _ranges(nd_v, resolve_chunk(nd_v, chunk_cols, queue.workers))
            tasks = []
            level_bands = []
            for ci in range(ncomp):
                if lossless:
                    ll_out = np.empty((ns_v, ns_h), dt)
                    hl_out = np.empty((ns_v, nd_h), dt)
                    lh_out = np.empty((nd_v, ns_h), dt)
                    hh_out = np.empty((nd_v, nd_h), dt)
                    ll_step = hl_step = lh_step = hh_step = None
                else:
                    hl_out = np.empty((ns_v, nd_h), np.int32)
                    lh_out = np.empty((nd_v, ns_h), np.int32)
                    hh_out = np.empty((nd_v, nd_h), np.int32)
                    hl_step = quants[("HL", lev)].step
                    lh_step = quants[("LH", lev)].step
                    hh_step = quants[("HH", lev)].step
                    if last:
                        ll_out = np.empty((ns_v, ns_h), np.int32)
                        ll_step = quants[("LL", lev)].step
                    else:
                        ll_out = np.empty((ns_v, ns_h), np.float64)
                        ll_step = None
                level_bands.append((ll_out, hl_out, lh_out, hh_out))
                for r0, r1 in rows_lo:
                    tasks.append(lambda src=lo_v[ci], r0=r0, r1=r1,
                                 a=ll_out, b=hl_out, sa=ll_step, sb=hl_step:
                                 _hlift_task(lift, src, r0, r1, a, b, sa, sb,
                                             account))
                for r0, r1 in rows_hi:
                    tasks.append(lambda src=hi_v[ci], r0=r0, r1=r1,
                                 a=lh_out, b=hh_out, sa=lh_step, sb=hh_step:
                                 _hlift_task(lift, src, r0, r1, a, b, sa, sb,
                                             account))
            queue.run(tasks)

            cur = []
            for ci in range(ncomp):
                ll_out, hl_out, lh_out, hh_out = level_bands[ci]
                if lossless:
                    details_acc[ci].append(tuple(
                        b.astype(np.int32, copy=False)
                        for b in (hl_out, lh_out, hh_out)
                    ))
                    if last:
                        final_ll[ci] = ll_out.astype(np.int32, copy=False)
                else:
                    details_acc[ci].append((hl_out, lh_out, hh_out))
                    if last:
                        final_ll[ci] = ll_out
                cur.append(ll_out)
            ph, pw = ns_v, ns_h

    return [
        Decomposition(
            shape=(h, w), levels=levels_eff, reversible=lossless,
            ll=final_ll[ci], details=details_acc[ci],
        )
        for ci in range(ncomp)
    ]


def _hlift_task(lift, src, r0, r1, a_out, b_out, a_step, b_step, account) -> None:
    """Horizontal lift of one row chunk, quantizing fused where asked.

    ``a_step`` / ``b_step`` of ``None`` mean the band is written raw (it is
    still an intermediate, or the encode is reversible); a float step means
    the band is final on the irreversible path and its chunk is quantized
    in the same traversal that produced it.
    """
    t0 = time.perf_counter()
    rows = r1 - r0
    a_dst = (a_out[r0:r1] if a_step is None
             else np.empty((rows, a_out.shape[1]), np.float64))
    b_dst = (b_out[r0:r1] if b_step is None
             else np.empty((rows, b_out.shape[1]), np.float64))
    lift(src[r0:r1], a_dst, b_dst, 1)
    t1 = time.perf_counter()
    if a_step is not None:
        a_out[r0:r1] = quantize_fast(a_dst, a_step)
    if b_step is not None:
        b_out[r0:r1] = quantize_fast(b_dst, b_step)
    account(dwt_s=t1 - t0, q_s=time.perf_counter() - t1)


def _fused_level0(
    comps, depth, lossless, dt, quants, queue, chunk_cols, account
) -> list[Decomposition]:
    """Degenerate zero-level decomposition: LL0 is the MCT output itself."""
    ncomp = len(comps)
    h, w = comps[0].shape
    planes = [np.empty((h, w), dt) for _ in range(ncomp)]

    def mtask(c0: int, c1: int) -> None:
        t0 = time.perf_counter()
        out = mct.forward_mct_chunk(
            [c[:, c0:c1] for c in comps], depth, lossless, dt
        )
        for ci in range(ncomp):
            planes[ci][:, c0:c1] = out[ci]
        account(mct_s=time.perf_counter() - t0)

    cols = _ranges(w, resolve_chunk(w, chunk_cols, queue.workers))
    queue.run([lambda a=a, b=b: mtask(a, b) for a, b in cols])
    decomps = []
    for p in planes:
        t0 = time.perf_counter()
        if lossless:
            ll = p.astype(np.int32, copy=False)
        else:
            ll = quantize_fast(p, quants[("LL", 0)].step)
        account(q_s=time.perf_counter() - t0)
        decomps.append(Decomposition(
            shape=(h, w), levels=0, reversible=lossless, ll=ll, details=[],
        ))
    return decomps


# ---------------------------------------------------------------------------
# Chunked inverse front end (decode mirror of run_frontend)
# ---------------------------------------------------------------------------


def _chunked_inverse_once(
    inv, ll, hl, lh, hh, shape, dt, queue: ChunkWorkQueue, chunk_cols
) -> np.ndarray:
    """One synthesis level, chunk-parallel, bit-exact vs ``_inverse_2d_once``.

    The reference runs ``inv(ll.T, hl.T, w).T`` then ``inv(lo_v, hi_v, h)``
    — each 1-D synthesis transforms along axis 0 and is *elementwise* along
    axis 1 (every lifting expression combines samples of one column only).
    Chunking the free axis therefore partitions identical arithmetic:
    horizontal synthesis fans out over row chunks, vertical over column
    chunks, every task writing a disjoint slice of a preallocated output.
    The per-call 5/3 working dtype (``_lift_dtype``) may differ chunk vs
    whole, but 5/3 lifting is exact integer arithmetic with no overflow in
    either width, so the int32 results are equal either way.
    """
    h, w = shape
    ns_v, nd_v = h - h // 2, h // 2
    lo_v = np.empty((ns_v, w), dt)
    hi_v = np.empty((nd_v, w), dt)

    def htask(lo_band, hi_band, dst, r0: int, r1: int) -> None:
        dst[r0:r1] = inv(lo_band[r0:r1].T, hi_band[r0:r1].T, w).T

    tasks = []
    for r0, r1 in _ranges(ns_v, resolve_chunk(ns_v, chunk_cols, queue.workers)):
        tasks.append(lambda a=r0, b=r1: htask(ll, hl, lo_v, a, b))
    for r0, r1 in _ranges(nd_v, resolve_chunk(nd_v, chunk_cols, queue.workers)):
        tasks.append(lambda a=r0, b=r1: htask(lh, hh, hi_v, a, b))
    queue.run(tasks)

    out = np.empty((h, w), dt)

    def vtask(c0: int, c1: int) -> None:
        out[:, c0:c1] = inv(lo_v[:, c0:c1], hi_v[:, c0:c1], h)

    cols = _ranges(w, resolve_chunk(w, chunk_cols, queue.workers))
    queue.run([lambda a=a, b=b: vtask(a, b) for a, b in cols])
    return out


def run_inverse_frontend(
    decomps: list[Decomposition],
    bit_depth: int,
    lossless: bool,
    *,
    workers: int | None = 1,
    chunk_cols: int | None = None,
) -> list[np.ndarray]:
    """Fused inverse DWT + inverse MCT + level unshift for every component.

    The decode mirror of :func:`run_frontend`: synthesis levels run as
    chunked passes over a :class:`ChunkWorkQueue` (threads writing disjoint
    slices, deterministic for any worker count), and the final inverse MCT
    + DC unshift runs as one more chunked traversal over the reconstructed
    planes instead of three separate full-plane passes.  Returns unsigned
    int32 component planes, bit-exact versus
    ``mct.inverse_mct([inverse_dwt2d(d) for d in decomps], ...)`` — every
    chunked expression is the same elementwise arithmetic as the oracle's
    (see :func:`_chunked_inverse_once`), and :func:`mct.inverse_mct` itself
    is elementwise, so applying it per column chunk changes nothing.
    """
    if not decomps:
        raise ValueError("need at least one component decomposition")
    from repro.core.workpool import default_workers

    h, w = decomps[0].shape
    if workers is None:
        workers = default_workers()
    workers = auto_serial_workers(workers, h * w * len(decomps))
    with ChunkWorkQueue(workers) as queue:
        planes = []
        for d in decomps:
            inv = inverse_53_1d if d.reversible else inverse_97_1d
            dt = np.int32 if d.reversible else np.float64
            ll = d.ll
            shapes = _level_shapes(d.shape, d.levels)
            for i in range(d.levels - 1, -1, -1):
                hl, lh, hh = d.details[i]
                ll = _chunked_inverse_once(
                    inv, ll, hl, lh, hh, shapes[i], dt, queue, chunk_cols
                )
            planes.append(ll)

        out = [np.empty((h, w), np.int32) for _ in planes]

        def mtask(c0: int, c1: int) -> None:
            restored = mct.inverse_mct(
                [p[:, c0:c1] for p in planes], bit_depth, lossless
            )
            for ci, r in enumerate(restored):
                out[ci][:, c0:c1] = r

        cols = _ranges(w, resolve_chunk(w, chunk_cols, queue.workers))
        queue.run([lambda a=a, b=b: mtask(a, b) for a, b in cols])
    return out
