"""High-level JPEG2000 decoder: Part-1 codestream in, image out.

Mirrors :mod:`repro.jpeg2000.encoder` exactly: marker parsing, packet
parsing, Tier-1 decoding, dequantization, inverse DWT, inverse MCT, level
unshift.  Lossless codestreams reconstruct bit exactly.

The decoder has two backends, sample-identical (differentially tested):

``reference``
    The original all-scalar path, preserved verbatim as the oracle
    (:func:`decode_reference`).
``auto``
    The default.  The image streams one tile row at a time (an untiled
    image is one row).  The row's code blocks go to
    :func:`repro.jpeg2000.tier1_dec_vec.decode_codeblocks_batched` in one
    call, each decoded into its window of its int32 subband plane.  The
    front end (:func:`repro.jpeg2000.dwt_fast.run_inverse_frontend`, one
    native call per tile) dequantizes the planes and stores the tile into
    its window of the one output image, and the row's planes are dropped
    before the next row's are allocated.

``decode(..., workers=N)`` additionally fans each row's block groups out
over :class:`repro.core.workpool.CodeBlockWorkQueue` (threads of the
calling process); it is deterministic for any worker count, and rows of
few blocks auto-clamp to serial exactly like the encoder's.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from repro.jpeg2000 import mct
from repro.jpeg2000.codeblocks import partition_subband
from repro.jpeg2000.codestream import (
    CodestreamInfo,
    parse_codestream,
    tile_rows,
)
from repro.jpeg2000.dwt import Decomposition, inverse_dwt2d
from repro.jpeg2000.dwt_fast import DecodeStageTimings, band_keys, run_inverse_frontend
from repro.jpeg2000.errors import (
    CodestreamError,
    DecodeLimits,
    HeaderFieldError,
    PacketError,
)
from repro.jpeg2000.params import check_field
from repro.jpeg2000.quantize import dequantize, exponent_mantissa_to_step, nominal_range_bits
from repro.jpeg2000.tier1 import decode_codeblock
from repro.jpeg2000.tier2 import (
    iter_packets,
    parse_packet,
    precinct_band_window,
    precinct_cells,
    precinct_counts,
)

#: Largest ``exponent + guard_bits - 1`` bit-plane count a QCD field may
#: imply (5-bit exponent + 3-bit guard bits keeps well under this; anything
#: larger is a corrupt header, not a deep image).
_MAX_BITPLANES = 38

#: Valid decoder backend names: the block decoder of
#: :mod:`repro.jpeg2000.tier1_dec_vec` (``"auto"``) and the scalar oracle.
#: Both decode to identical samples.
DEC_BACKENDS = ("auto", "reference")


def resolve_dec_backend(backend: str | None) -> str:
    """Resolve a decode backend name (``None`` means ``"auto"``)."""
    if backend is None:
        backend = "auto"
    if backend not in DEC_BACKENDS:
        raise ValueError(
            f"unknown decode backend {backend!r}; expected one of {DEC_BACKENDS}"
        )
    return backend


@dataclass
class _SubbandLayout:
    band: str
    dlevel: int
    height: int
    width: int
    exponent: int
    mantissa: int


def _subband_layouts(
    info: CodestreamInfo,
    height: int | None = None,
    width: int | None = None,
) -> list[_SubbandLayout]:
    """Reconstruct subband geometry in codestream (QCD/packet) order.

    ``height``/``width`` give one tile's dimensions; they default to the
    whole image (the single-tile layout).  The subband *count* depends only
    on ``info.levels``, so the QCD consistency check is tile-independent.
    """
    shapes = []
    h = info.height if height is None else height
    w = info.width if width is None else width
    lvl = 0
    while lvl < info.levels:
        lo_h, hi_h = (h + 1) // 2, h // 2
        lo_w, hi_w = (w + 1) // 2, w // 2
        shapes.append(
            {
                "HL": (lo_h, hi_w),
                "LH": (hi_h, lo_w),
                "HH": (hi_h, hi_w),
            }
        )
        h, w = lo_h, lo_w
        lvl += 1
    layouts = [_SubbandLayout("LL", info.levels, h, w, 0, 0)]
    for i in range(info.levels - 1, -1, -1):
        dl = i + 1
        for band in ("HL", "LH", "HH"):
            bh, bw = shapes[i][band]
            layouts.append(_SubbandLayout(band, dl, bh, bw, 0, 0))
    if len(info.quant_fields) != len(layouts):
        raise HeaderFieldError(
            f"QCD signals {len(info.quant_fields)} subbands, geometry implies "
            f"{len(layouts)}"
        )
    for lay, qf in zip(layouts, info.quant_fields):
        num_bitplanes = qf.exponent + info.guard_bits - 1
        if not (0 <= num_bitplanes <= _MAX_BITPLANES):
            raise HeaderFieldError(
                f"subband {lay.band}{lay.dlevel} implies {num_bitplanes} "
                f"bit planes, outside [0, {_MAX_BITPLANES}]"
            )
        lay.exponent = qf.exponent
        lay.mantissa = qf.mantissa
    return layouts


def decode(
    codestream: bytes,
    limits: DecodeLimits | None = None,
    *,
    backend: str | None = None,
    workers: int | None = 1,
    timings: DecodeStageTimings | None = None,
    pool=None,
) -> np.ndarray:
    """Decode a codestream produced by :func:`repro.jpeg2000.encoder.encode`.

    ``limits`` caps every size a corrupt header could declare (see
    :class:`repro.jpeg2000.errors.DecodeLimits`).  Malformed input of any
    kind raises a :class:`repro.jpeg2000.errors.CodestreamError` subclass;
    no bare ``IndexError``/``struct.error``/``EOFError`` escapes, and no
    allocation is sized by an unvalidated field.

    ``backend`` selects the Tier-1 decode implementation (see
    :data:`DEC_BACKENDS`; ``None`` means ``"auto"``).  ``workers``
    fans code blocks out over threads of this process (``None`` = one per
    core; a count below 1 raises ``ValueError``, as in
    :class:`~repro.jpeg2000.params.EncoderParams`); ``pool`` (a
    :class:`repro.core.workpool.ThreadPool` or a service request's lane
    of one) runs the Tier-1 block groups in place of the thread pool
    opened for this call.
    The output is sample-identical for every backend, worker count and
    pool.  ``timings`` (a
    :class:`repro.jpeg2000.dwt_fast.DecodeStageTimings`) accumulates
    per-stage wall time.
    """
    check_field("workers", workers)  # a caller's error, not the codestream's
    t_start = time.perf_counter()
    info = parse_codestream(codestream, limits=limits)
    resolved = resolve_dec_backend(backend)
    try:
        if resolved == "reference":
            out = _decode_parsed(info)
        else:
            out = _decode_parsed_fast(info, workers, timings, pool)
    except CodestreamError:
        raise
    except (ValueError, ArithmeticError, IndexError, KeyError, EOFError) as exc:
        # Defensive net: anything the typed checks above did not classify
        # still surfaces as a CodestreamError, never a raw traceback type.
        raise CodestreamError(f"malformed codestream content: {exc}") from exc
    if timings is not None:
        timings.total += time.perf_counter() - t_start
    return out


def decode_reference(
    codestream: bytes, limits: DecodeLimits | None = None
) -> np.ndarray:
    """The pinned scalar decode path (the oracle every backend must match)."""
    return decode(codestream, limits, backend="reference")


def _tile_layout(info: CodestreamInfo) -> tuple[list[bytes], list[tuple[int, int, int, int]]]:
    """Tile bodies and their rectangles (one full-image entry when untiled)."""
    if info.tiles is None:
        return [info.tile_data], [(0, 0, info.height, info.width)]
    grid = info.tile_grid()
    if len(grid) != len(info.tiles):
        raise HeaderFieldError(
            f"SIZ tile grid implies {len(grid)} tiles but the codestream "
            f"carries {len(info.tiles)}"
        )
    return info.tiles, grid


def _empty_coeff(
    info: CodestreamInfo, layouts: list[_SubbandLayout], dtype=np.int32
) -> list[dict[tuple[str, int], np.ndarray]]:
    """Per-component, per-subband zeroed coefficient planes."""
    return [
        {
            (lay.band, lay.dlevel): np.zeros((lay.height, lay.width), dtype)
            for lay in layouts
        }
        for _ in range(info.num_components)
    ]


def _band_step(info: CodestreamInfo, lay: _SubbandLayout) -> float:
    """A subband's quantizer step (1.0 on the reversible path)."""
    if info.reversible:
        return 1.0
    rb = nominal_range_bits(info.bit_depth, lay.band, False)
    return exponent_mantissa_to_step(lay.exponent, lay.mantissa, rb)


def _iter_tile_blocks(
    info: CodestreamInfo, layouts: list[_SubbandLayout], data: bytes
):
    """Walk one tile body's packets, yielding every included block.

    Yields ``(ci, lay, spec, blk, msbs, step)`` tuples in packet order —
    the progression/precinct geometry from the COD marker drives the walk,
    which reduces to the historical resolution-major, component-minor
    order for maximal-precinct LRCP streams.  Both decode paths consume
    this one generator, so header validation raises identical typed
    errors at identical points regardless of backend.
    """
    nres = info.levels + 1
    res_layouts: list[list[_SubbandLayout]] = []
    res_parts: list[list[tuple[list, int, int]]] = []
    for res in range(nres):
        if res == 0:
            lays = [layouts[0]]
        else:
            dl = info.levels - res + 1
            lays = [l for l in layouts if l.dlevel == dl and l.band != "LL"]
        res_layouts.append(lays)
        res_parts.append([
            partition_subband(l.height, l.width, info.codeblock_size)
            for l in lays
        ])
    pcb_by_res: list[int | None] = []
    pcols_by_res: list[int] = []
    nprec_by_res: list[int] = []
    for res in range(nres):
        pcb = precinct_cells(info.codeblock_size, info.precinct_size, res)
        grids = [(grows, gcols) for (_s, grows, gcols) in res_parts[res]]
        prows, pcols = precinct_counts(pcb, grids)
        pcb_by_res.append(pcb)
        pcols_by_res.append(pcols)
        nprec_by_res.append(prows * pcols)
    pos = 0
    for res, ci, p in iter_packets(
        info.levels, info.num_components, nprec_by_res, info.progression
    ):
        pcb = pcb_by_res[res]
        pcols = pcols_by_res[res]
        band_grids = []
        band_sel = []
        for (specs, grows, gcols) in res_parts[res]:
            (r_lo, r_hi, c_lo, c_hi), (lr, lc) = precinct_band_window(
                grows, gcols, pcb, pcols, p
            )
            sel = [
                specs[gr * gcols + gc]
                for gr in range(r_lo, r_hi)
                for gc in range(c_lo, c_hi)
            ]
            band_grids.append((lr, lc, len(sel)))
            band_sel.append(sel)
        parsed, pos = parse_packet(data, pos, band_grids)
        for lay, sel, blocks in zip(res_layouts[res], band_sel, parsed):
            num_bitplanes = lay.exponent + info.guard_bits - 1
            step = _band_step(info, lay)
            for spec, blk in zip(sel, blocks):
                if not blk.included:
                    continue
                msbs = num_bitplanes - blk.zero_bitplanes
                if msbs < 0:
                    raise PacketError(
                        f"block ({blk.grid_row}, {blk.grid_col}) signals "
                        f"{blk.zero_bitplanes} missing bit planes but the "
                        f"subband codes only {num_bitplanes}"
                    )
                max_passes = 1 + 3 * (msbs - 1) if msbs else 0
                if blk.num_passes > max_passes:
                    raise PacketError(
                        f"block ({blk.grid_row}, {blk.grid_col}) signals "
                        f"{blk.num_passes} coding passes but {msbs} bit "
                        f"planes allow at most {max_passes}"
                    )
                yield ci, lay, spec, blk, msbs, step


def _decode_tile_reference(
    info: CodestreamInfo, data: bytes, height: int, width: int
) -> list[np.ndarray]:
    """Scalar reference decode of one tile body to component planes.

    Per-sample Tier-1 (:func:`decode_codeblock`) and per-stage full-pass
    inverse DWT (:func:`inverse_dwt2d`) — the oracle the block-decoder
    path is differentially tested against.
    """
    layouts = _subband_layouts(info, height, width)
    coeff = _empty_coeff(info, layouts, np.int32 if info.reversible else np.float64)
    for ci, lay, spec, blk, msbs, step in _iter_tile_blocks(info, layouts, data):
        vals = decode_codeblock(
            blk.data, spec.height, spec.width, lay.band, msbs, blk.num_passes
        )
        out = vals if info.reversible else dequantize(vals, step)
        coeff[ci][(lay.band, lay.dlevel)][
            spec.row0 : spec.row0 + spec.height,
            spec.col0 : spec.col0 + spec.width,
        ] = out

    planes = []
    for ci in range(info.num_components):
        details = []
        for dl in range(1, info.levels + 1):
            details.append(
                (coeff[ci][("HL", dl)], coeff[ci][("LH", dl)], coeff[ci][("HH", dl)])
            )
        decomp = Decomposition(
            shape=(height, width), levels=info.levels,
            reversible=info.reversible,
            ll=coeff[ci][("LL", info.levels)], details=details,
        )
        planes.append(inverse_dwt2d(decomp))
    return mct.inverse_mct(planes, info.bit_depth, info.reversible)


def _decode_parsed(info: CodestreamInfo) -> np.ndarray:
    """Scalar reference decode; multi-tile streams decode tile by tile."""
    tiles, grid = _tile_layout(info)
    full: list[np.ndarray] | None = None
    for body, (row0, col0, t_h, t_w) in zip(tiles, grid):
        comps = _decode_tile_reference(info, body, t_h, t_w)
        if full is None:
            if info.tiles is None:
                return _stack_output(comps, info.bit_depth)
            full = [
                np.zeros((info.height, info.width), dtype=c.dtype)
                for c in comps
            ]
        for ci, c in enumerate(comps):
            full[ci][row0 : row0 + t_h, col0 : col0 + t_w] = c
    assert full is not None
    return _stack_output(full, info.bit_depth)


def _stack_output(comps: list[np.ndarray], bit_depth: int) -> np.ndarray:
    out_dtype = np.uint8 if bit_depth <= 8 else np.uint16
    if len(comps) == 1:
        return comps[0].astype(out_dtype)
    return np.stack([c.astype(out_dtype) for c in comps], axis=-1)


def _decode_parsed_fast(
    info: CodestreamInfo,
    workers: int | None,
    timings: DecodeStageTimings | None,
    pool=None,
) -> np.ndarray:
    """Decode in place, one tile row at a time: blocks into their planes,
    tiles into the image.

    For each row the packet walk (:func:`_iter_tile_blocks`, shared with
    the reference path) *collects* block tasks instead of decoding
    inline, so every typed error (header, packet, tag tree) is raised at
    the same point in the same order.  Tier-1 decoding itself is total
    for validated inputs — the MQ decoder treats truncation as an endless
    ``0xFF`` tail and never raises — so deferring it cannot reorder
    failures.  The row's blocks decode in one batched call (or over the
    work queue) into their windows of the row's planes, each tile's front
    end stores into its window of the output, and the planes are dropped
    before the next row: only one row's planes are ever alive.
    """
    tiles, grid = _tile_layout(info)
    ncomp = info.num_components
    out = np.empty(
        (info.height, info.width) + ((ncomp,) if ncomp > 1 else ()),
        np.uint8 if info.bit_depth <= 8 else np.uint16,
    )
    lays = {(lay.band, lay.dlevel): lay for lay in _subband_layouts(info)}
    keys = band_keys(info.levels)
    steps = [_band_step(info, lays[k]) for k in keys]

    from repro.core.workpool import (
        CodeBlockWorkQueue,
        ThreadPool,
        tier1_auto_workers,
    )
    from repro.jpeg2000.tier1_dec_vec import decode_codeblocks_batched

    with ExitStack() as call_scope:
        # As in ``encode``: one thread pool for the call, its threads
        # started on first use, so rows the serial clamp keeps in process
        # start none.
        if pool is None and (workers is None or workers > 1):
            pool = call_scope.enter_context(ThreadPool(workers))
        for row in tile_rows(grid):
            t0 = time.perf_counter()
            # Packet walk per tile: identical traversal and identical
            # typed-error ordering to the reference; blocks are recorded,
            # not decoded.
            blocks_in: list[tuple] = []
            row_coeffs = []
            for t in row:
                _row0, _col0, t_h, t_w = grid[t]
                layouts = _subband_layouts(info, t_h, t_w)
                coeff = _empty_coeff(info, layouts)
                row_coeffs.append(coeff)
                for ci, lay, spec, blk, msbs, _step in _iter_tile_blocks(
                    info, layouts, tiles[t]
                ):
                    plane = coeff[ci][(lay.band, lay.dlevel)]
                    blocks_in.append((
                        blk.data, spec.height, spec.width, lay.band,
                        msbs, blk.num_passes,
                        plane[spec.row0 : spec.row0 + spec.height,
                              spec.col0 : spec.col0 + spec.width],
                    ))
            t1 = time.perf_counter()

            # Tier-1: per row, not per block or per tile.  Blocks store
            # into disjoint windows, so any worker count gives the same
            # planes.
            if pool is not None and \
                    tier1_auto_workers(pool.workers, len(blocks_in)) > 1:
                CodeBlockWorkQueue(pool).decode_groups(blocks_in)
            else:
                decode_codeblocks_batched(blocks_in)
            del blocks_in
            t2 = time.perf_counter()

            for t, coeff in zip(row, row_coeffs):
                row0, col0, t_h, t_w = grid[t]
                run_inverse_frontend(
                    [[planes[k] for k in keys] for planes in coeff], steps,
                    info.bit_depth, info.reversible,
                    out[row0 : row0 + t_h, col0 : col0 + t_w],
                )
            t3 = time.perf_counter()
            if timings is not None:
                timings.parse += t1 - t0
                timings.tier1 += t2 - t1
                timings.idwt_mct += t3 - t2
    return out
