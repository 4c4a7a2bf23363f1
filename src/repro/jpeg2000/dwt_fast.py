"""The front end in each direction: a native lifting kernel, ``dwt.py`` as
its only fallback.

The paper's kernel contribution (Section 4) rebuilds the wavelet stage
around two ideas.  First, the vertical lifting steps are *interleaved*:
all two (5/3) or four (9/7) steps run while one column chunk is resident,
with the band split merged into the same traversal.  Second, that
traversal runs over the constant-width column chunks of the Section 2
data decomposition, so a chunk stays in local store (here: cache) across
every lifting step.  Section 3.2 then merges the level shift and MCT into
the first pass and quantization into the last.

:func:`run_frontend` and :func:`run_inverse_frontend` run exactly that as
one C call per tile (``fe_forward`` / ``fe_inverse`` of the package's
library, :mod:`repro.jpeg2000._mq_native`): level shift and RCT/ICT
merged into the first vertical pass, every level's vertical lifting over
:data:`~repro.jpeg2000._mq_native.CHUNK_COLS`-column chunks and its
horizontal lifting over rows, deadzone quantization in the last store;
and in reverse, dequantization in each band's first load, the last level
chunk by chunk, and inverse MCT, ``rint``, level unshift and clip stored
into the caller's image.  5/3
analysis is int32, 5/3 synthesis int64 (decoded coefficients are
unbounded, and the oracle goes to int64 for them too), 9/7 double in the
operation order of :mod:`repro.jpeg2000.dwt`, :mod:`repro.jpeg2000.mct`
and :func:`repro.jpeg2000.quantize.quantize` /
:func:`~repro.jpeg2000.quantize.dequantize`, so outputs equal the
oracle's exactly.

The oracle — :func:`repro.jpeg2000.mct.forward_mct`,
:func:`repro.jpeg2000.dwt.forward_dwt2d` and
:func:`repro.jpeg2000.quantize.quantize`, and their inverses — runs
instead when the library is unavailable (no C compiler, or
``REPRO_MQ_NATIVE=0``), for lossless input with ``depth + levels > 28``
(past the int32 headroom), for ``dwt_backend="reference"``, and for
decompositions the kernel does not take (inconsistent band shapes,
other than 1 or 3 components), where the oracle raises its own errors.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.jpeg2000 import _mq_native, mct
from repro.jpeg2000.dwt import (
    Decomposition,
    effective_levels,
    forward_dwt2d,
    inverse_dwt2d,
)
from repro.jpeg2000.quantize import SubbandQuant, dequantize, derive_quant, quantize

#: Valid DWT backend names: ``auto`` (the native kernel where available)
#: and ``reference`` (the oracle).
DWT_BACKENDS = ("auto", "reference")

#: Largest lossless ``depth + levels`` the kernel's int32 analysis holds:
#: magnitudes roughly double per level and must stay below
#: :data:`repro.jpeg2000.dwt.I32_SAFE_MAX` (2**27), where the oracle
#: itself goes to int64.
MAX_INT32_DEPTH_LEVELS = 28


def resolve_dwt_backend(backend: str | None) -> str:
    """Resolve a backend name (``None`` means ``"auto"``)."""
    if backend is None:
        backend = "auto"
    if backend not in DWT_BACKENDS:
        raise ValueError(
            f"unknown DWT backend {backend!r}; expected one of {DWT_BACKENDS}"
        )
    return backend


@dataclass
class StageTimings:
    """Wall-clock seconds spent in each encode pipeline stage.

    ``frontend`` is level shift + MCT + DWT + quantization: the native
    kernel fuses them, so they are one stage, as ``idwt_mct`` is on
    decode.
    """

    frontend: float = 0.0
    tier1: float = 0.0
    tier2: float = 0.0
    rate_control: float = 0.0
    total: float = 0.0

    #: Stage attribute names in pipeline order (used by the service metrics
    #: and the CLI summary line).
    STAGES: ClassVar[tuple[str, ...]] = (
        "frontend", "tier1", "tier2", "rate_control",
    )

    def as_dict(self) -> dict[str, float]:
        out = {name: getattr(self, name) for name in self.STAGES}
        out["total"] = self.total
        return out

    def summary(self) -> str:
        """One-line, human-oriented stage breakdown for the CLI."""
        labels = {
            "frontend": "frontend", "tier1": "tier1", "tier2": "tier2",
            "rate_control": "rate",
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
    packet parsing, ``tier1`` the code-block bit decoding into the subband
    planes, and ``idwt_mct`` the front end (dequantization, inverse DWT,
    inverse MCT, level unshift and the store into the image).  The
    reference decode backend fills only ``total`` (its stages are
    interleaved by design and left untouched as the oracle).
    """

    parse: float = 0.0
    tier1: float = 0.0
    idwt_mct: float = 0.0
    total: float = 0.0

    #: Stage attribute names in pipeline order (CLI summary, service
    #: metrics).
    STAGES: ClassVar[tuple[str, ...]] = ("parse", "tier1", "idwt_mct")

    def as_dict(self) -> dict[str, float]:
        out = {name: getattr(self, name) for name in self.STAGES}
        out["total"] = self.total
        return out

    def summary(self) -> str:
        """One-line, human-oriented stage breakdown for the CLI."""
        labels = {"parse": "parse", "tier1": "tier1", "idwt_mct": "idwt+mct"}
        parts = []
        for name in self.STAGES:
            value = getattr(self, name)
            if value == 0.0:
                continue  # the reference backend only fills total
            parts.append(f"{labels[name]} {_fmt_seconds(value)}")
        return " | ".join(parts) if parts else "n/a"


# ---------------------------------------------------------------------------
# Kernel bindings
# ---------------------------------------------------------------------------


def _bind(lib):
    if lib is None:
        return None, None, None
    p, pp = ctypes.c_void_p, ctypes.POINTER(ctypes.c_void_p)
    i, lg = ctypes.c_int, ctypes.c_long
    work = lib.fe_work
    work.restype = lg
    work.argtypes = [i, i, lg, lg, i]  # inverse, ncomp, h, w, lossless
    fwd = lib.fe_forward
    fwd.restype = None
    # ncomp, base, strides, kind, depth, h, w, lossless, levels, steps,
    # bands, work
    fwd.argtypes = [i, pp, p, i, i, lg, lg, i, i, p, pp, p]
    inv = lib.fe_inverse
    inv.restype = None
    inv.argtypes = fwd.argtypes  # with base the output
    return fwd, inv, work


_FORWARD, _INVERSE, _WORK = _bind(_mq_native._LIB)


def _work(inverse: bool, ncomp: int, shape, lossless: bool) -> np.ndarray:
    """The kernel's scratch, from NumPy so large buffers get huge pages."""
    size = _WORK(int(inverse), ncomp, *shape, int(lossless))
    return np.empty(size, np.uint8)


def _pointers(arrays) -> ctypes.Array:
    """A C array of the arrays' data pointers (the arrays stay the
    caller's to keep alive)."""
    return (ctypes.c_void_p * len(arrays))(*(a.ctypes.data for a in arrays))


def band_keys(levels: int) -> list[tuple[str, int]]:
    """``(band, dlevel)`` of every subband in the kernel's band order: HL,
    LH, HH per level, finest first, then LL."""
    return [(band, dl) for dl in range(1, levels + 1)
            for band in ("HL", "LH", "HH")] + [("LL", levels)]


def _band_shapes(shape: tuple[int, int], levels: int) -> list[tuple[int, int]]:
    """Shapes of HL, LH, HH per level (finest first), then LL: the kernel's
    band order."""
    out = []
    h, w = shape
    for _ in range(levels):
        ns_v, nd_v, ns_h, nd_h = h - h // 2, h // 2, w - w // 2, w // 2
        out += [(ns_v, nd_h), (nd_v, ns_h), (nd_v, nd_h)]
        h, w = ns_v, ns_h
    return out + [(h, w)]


def _decomposition(shape, levels: int, reversible: bool,
                   bands) -> Decomposition:
    return Decomposition(
        shape=shape, levels=levels, reversible=reversible, ll=bands[-1],
        details=[tuple(bands[3 * i : 3 * i + 3]) for i in range(levels)],
    )


# ---------------------------------------------------------------------------
# Forward front end
# ---------------------------------------------------------------------------


@dataclass
class FrontendResult:
    """Everything the encoder needs from the front end.

    ``decomps`` hold **quantized** subband data: int32 coefficients on the
    reversible path, int32 quantizer indices on the irreversible path —
    either way exactly what Tier-1 consumes.
    """

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
) -> FrontendResult:
    """Level shift + MCT + DWT + quantization for every component.

    ``comps`` are equal-shape 2-D planes; ``params`` is an
    :class:`repro.jpeg2000.params.EncoderParams`; ``backend`` overrides
    ``params.dwt_backend``.  Both backends yield identical subband data.
    The oracle also takes input the kernel does not (other than 1 or 3
    components, depth outside 1..16) and raises its own errors for it.
    """
    if timings is None:
        timings = StageTimings()
    resolved = resolve_dwt_backend(
        backend if backend is not None else params.dwt_backend
    )
    t0 = time.perf_counter()
    h, w = comps[0].shape
    lossless = params.lossless
    levels = effective_levels((h, w), params.levels)
    quants = _derive_quants(levels, depth, params,
                            lossless and len(comps) == 3)
    if (resolved == "auto" and _FORWARD is not None
            and len(comps) in (1, 3) and 1 <= depth <= 16
            and all(c.shape == (h, w) for c in comps)
            and not (lossless and depth + levels > MAX_INT32_DEPTH_LEVELS)):
        decomps = _native_frontend(comps, depth, lossless, levels, quants)
    else:
        decomps = _reference_frontend(comps, depth, params, quants)
    timings.frontend += time.perf_counter() - t0
    return FrontendResult(
        levels=levels, quants=quants, decomps=decomps, timings=timings,
    )


def _derive_quants(
    levels: int, depth: int, params, chroma_expanded: bool
) -> dict[tuple[str, int], SubbandQuant]:
    def derive(band: str, dlevel: int) -> SubbandQuant:
        return derive_quant(
            band, max(dlevel, 1), depth, params.lossless,
            params.guard_bits, params.base_quant_step,
            chroma_expanded=chroma_expanded,
        )

    quants = {("LL", levels): derive("LL", levels)}
    for dl in range(1, levels + 1):
        for band in ("HL", "LH", "HH"):
            quants[(band, dl)] = derive(band, dl)
    return quants


def _reference_frontend(comps, depth, params, quants) -> list[Decomposition]:
    """The oracle: per-stage full-plane passes from the naive modules."""
    planes = mct.forward_mct(list(comps), depth, params.lossless)
    out = []
    for p in planes:
        d = forward_dwt2d(p, params.levels, params.lossless)
        if params.lossless:
            bands = [b.astype(np.int32) for lvl in d.details for b in lvl]
            bands.append(d.ll.astype(np.int32))
        else:
            bands = [
                quantize(b, quants[(name, i + 1)].step)
                for i, lvl in enumerate(d.details)
                for name, b in zip(("HL", "LH", "HH"), lvl)
            ]
            bands.append(quantize(d.ll, quants[("LL", d.levels)].step))
        out.append(_decomposition(d.shape, d.levels, d.reversible, bands))
    return out


def _native_frontend(comps, depth, lossless, levels,
                     quants) -> list[Decomposition]:
    """One ``fe_forward`` call for the tile (see the module docstring)."""
    kinds = {np.dtype(np.uint8): 1, np.dtype(np.uint16): 2,
             np.dtype(np.int32): 4}
    if len({c.dtype for c in comps}) != 1 or comps[0].dtype not in kinds:
        comps = [np.asarray(c, dtype=np.int32) for c in comps]
    h, w = comps[0].shape
    shapes = _band_shapes((h, w), levels)
    steps = np.array([quants[k].step for k in band_keys(levels)])
    bands = [[np.empty(s, np.int32) for s in shapes] for _ in comps]
    strides = np.array([s for c in comps for s in c.strides], dtype=np.int64)
    work = _work(False, len(comps), (h, w), lossless)
    _FORWARD(
        len(comps), _pointers(comps), strides.ctypes.data,
        kinds[comps[0].dtype], depth, h, w, int(lossless), levels,
        steps.ctypes.data, _pointers(sum(bands, [])), work.ctypes.data,
    )
    return [_decomposition((h, w), levels, lossless, b) for b in bands]


# ---------------------------------------------------------------------------
# Inverse front end (decode mirror of run_frontend)
# ---------------------------------------------------------------------------


def run_inverse_frontend(
    bands: list[list[np.ndarray]], steps, bit_depth: int, lossless: bool,
    out: np.ndarray,
) -> None:
    """Dequantization + inverse DWT + inverse MCT + level unshift for
    every component, stored into ``out``.

    ``bands[c]`` holds component ``c``'s int32 subbands and ``steps``
    their quantizer steps (unused on 5/3), in the kernel's band order.
    ``out`` is the tile's ``(h, w[, components])`` uint8 or uint16 window
    of the image.  The oracle, ``dequantize`` + ``inverse_dwt2d`` +
    ``inverse_mct``, runs instead without the kernel or for input the
    kernel does not take.
    """
    outs = [out] if out.ndim == 2 else [out[:, :, c]
                                        for c in range(out.shape[2])]
    shape, levels = out.shape[:2], (len(steps) - 1) // 3
    flat = [b for comp in bands for b in comp]
    takes = (
        _INVERSE is not None and len(bands) in (1, 3)
        and len(outs) == len(bands) and out.dtype in (np.uint8, np.uint16)
        and 1 <= bit_depth <= 16
        and len(steps) % 3 == 1 and (lossless or min(steps) > 0)
        and [b.shape for b in flat] == _band_shapes(shape, levels) * len(bands)
        and all(np.can_cast(b.dtype, np.int32) for b in flat)
    )
    if not takes:
        if not lossless:
            bands = [[dequantize(b, st) for b, st in zip(comp, steps)]
                     for comp in bands]
        planes = [inverse_dwt2d(_decomposition(shape, levels, lossless, comp))
                  for comp in bands]
        for o, plane in zip(outs, mct.inverse_mct(planes, bit_depth, lossless),
                            strict=True):
            o[...] = plane
        return
    flat = [np.ascontiguousarray(b, np.int32) for b in flat]
    steps = np.array(steps, dtype=np.float64)
    strides = np.array([s for o in outs for s in o.strides], dtype=np.int64)
    work = _work(True, len(bands), shape, lossless)
    _INVERSE(
        len(bands), _pointers(outs), strides.ctypes.data, out.itemsize,
        bit_depth, shape[0], shape[1], int(lossless), levels,
        steps.ctypes.data, _pointers(flat), work.ctypes.data,
    )
