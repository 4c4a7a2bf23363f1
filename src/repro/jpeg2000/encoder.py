"""High-level JPEG2000 encoder: image in, Part-1 codestream out.

Mirrors Jasper's encode path stage for stage (the paper's Figure 2): read
component data, level shift + inter-component transform (merged), DWT,
quantization, Tier-1, rate control (lossy), Tier-2 + stream output.  The
:class:`EncodeResult` additionally carries :class:`WorkloadStats`, the
per-stage element counts and per-code-block coding statistics that drive
the Cell/B.E. performance model in :mod:`repro.cell`.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace

import numpy as np

from repro.jpeg2000.codeblocks import CodeBlockSpec, partition_subband
from repro.jpeg2000.codestream import (
    CodestreamInfo,
    SubbandQuantField,
    tile_grid,
    tlm_overhead,
    write_codestream,
    write_main_header,
)
from repro.jpeg2000.dwt import effective_levels, synthesis_gain_sq
from repro.jpeg2000.dwt_fast import StageTimings, run_frontend
from repro.jpeg2000.errors import DEFAULT_LIMITS
from repro.jpeg2000.params import EncoderParams
from repro.jpeg2000.quantize import SubbandQuant
from repro.jpeg2000.rate import RateModel, apportion_budget
from repro.jpeg2000.tier1 import CodeBlockResult, encode_codeblock_reference
from repro.jpeg2000.tier2 import (
    BlockContribution,
    PacketBand,
    encode_packet,
    iter_packets,
    packet_length,
    precinct_band_window,
    precinct_cells,
    precinct_counts,
)


@dataclass
class BlockStats:
    """Tier-1 statistics of one code block (Cell work-queue payload)."""

    comp: int
    band: str
    dlevel: int
    height: int
    width: int
    msbs: int
    num_passes: int
    total_symbols: int
    coded_bytes: int
    pass_symbols: list[int] = field(default_factory=list)


@dataclass
class SubbandStats:
    """Geometry of one subband (drives DWT/quantize stage modelling)."""

    comp: int
    band: str
    dlevel: int
    height: int
    width: int


@dataclass
class WorkloadStats:
    """Everything the performance layer needs to know about an encode."""

    height: int
    width: int
    num_components: int
    bit_depth: int
    lossless: bool
    levels: int
    codeblock_size: int
    subbands: list[SubbandStats] = field(default_factory=list)
    blocks: list[BlockStats] = field(default_factory=list)
    codestream_bytes: int = 0
    raw_bytes: int = 0
    #: How Tier-1 blocks reached the coder: ``"serial"`` (in process) or
    #: ``"pool"`` (block groups on a worker pool, see
    #: :class:`repro.core.workpool.CodeBlockWorkQueue`).
    tier1_dispatch: str = "serial"
    #: SIZ tile-grid population (1 for the legacy single-tile layout).
    tiles: int = 1

    @property
    def num_pixels(self) -> int:
        return self.height * self.width


def scale_workload(stats: WorkloadStats, factor: int) -> WorkloadStats:
    """Scale a measured workload to a ``factor``-times larger image.

    Python cannot functionally encode the paper's 28.3 MB photograph in
    reasonable time, so benchmarks measure a smaller crop and tile its
    *statistics*: subband dimensions scale by ``factor`` per axis and the
    per-code-block cost distribution is replicated ``factor**2`` times,
    preserving the data-dependent load imbalance that drives the work
    queue.  (A 256x256 watch crop scaled by 12 is exactly the paper's
    3072x3072x3 = 28.3 MB.)
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return stats
    sq = factor * factor
    return WorkloadStats(
        height=stats.height * factor,
        width=stats.width * factor,
        num_components=stats.num_components,
        bit_depth=stats.bit_depth,
        lossless=stats.lossless,
        levels=stats.levels,
        codeblock_size=stats.codeblock_size,
        subbands=[
            SubbandStats(s.comp, s.band, s.dlevel,
                         s.height * factor, s.width * factor)
            for s in stats.subbands
        ],
        blocks=[b for b in stats.blocks for _ in range(sq)],
        codestream_bytes=stats.codestream_bytes * sq,
        raw_bytes=stats.raw_bytes * sq,
        tier1_dispatch=stats.tier1_dispatch,
        tiles=stats.tiles,
    )


@dataclass
class EncodeResult:
    """Codestream plus everything observed while producing it."""

    codestream: bytes
    params: EncoderParams
    stats: WorkloadStats
    #: Per-stage wall times (see :class:`repro.jpeg2000.dwt_fast.StageTimings`).
    timings: StageTimings | None = None

    @property
    def compression_ratio(self) -> float:
        return self.stats.raw_bytes / max(1, len(self.codestream))


@dataclass
class _PlannedBlock:
    comp: int
    band: str
    dlevel: int
    spec: CodeBlockSpec
    quant: SubbandQuant
    result: CodeBlockResult
    included_passes: int = 0

    def included_length(self) -> int:
        if self.included_passes == 0:
            return 0
        return self.result.pass_lengths[self.included_passes - 1]


@dataclass
class _PlannedSubband:
    comp: int
    band: str
    dlevel: int
    height: int
    width: int
    quant: SubbandQuant
    grid_rows: int
    grid_cols: int
    blocks: list[_PlannedBlock] = field(default_factory=list)


def _normalize_image(image: np.ndarray) -> tuple[list[np.ndarray], int]:
    """Split an input array into components and infer the bit depth."""
    img = np.asarray(image)
    if img.dtype == np.uint8:
        depth = 8
    elif img.dtype == np.uint16:
        depth = 16
    else:
        raise ValueError(f"image dtype must be uint8 or uint16, got {img.dtype}")
    if img.ndim == 2:
        comps = [img]
    elif img.ndim == 3 and img.shape[2] in (1, 3):
        comps = [img[:, :, c] for c in range(img.shape[2])]
    else:
        raise ValueError(f"unsupported image shape {img.shape}")
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"image must be non-empty, got shape {img.shape}")
    return comps, depth


def encode(
    image: np.ndarray,
    params: EncoderParams | None = None,
    pool=None,
) -> EncodeResult:
    """Encode ``image`` (uint8/uint16, gray or RGB) to a JPEG2000 codestream.

    ``pool`` optionally injects the worker pool Tier-1 block groups run
    on (see :class:`repro.core.workpool.CodeBlockWorkQueue`) in place of
    the thread pool opened for this call from ``params.workers`` — the
    encode service passes a scheduler job of its shared thread pool this
    way.  The codestream is byte-identical with or without it.
    """
    if params is None:
        params = EncoderParams.lossless_default()
    t_start = time.perf_counter()
    comps, depth = _normalize_image(image)
    height, width = comps[0].shape
    ncomp = len(comps)
    use_mct = ncomp == 3
    itemsize = comps[0].dtype.itemsize

    grid = tile_grid(width, height, params.tile_size, params.tile_size)
    ntiles = len(grid)
    if ntiles > DEFAULT_LIMITS.max_tiles:
        # SOT Isot and TLM Ttlm are 16-bit tile indices.
        raise ValueError(
            f"{ntiles} tiles of {params.tile_size} exceed the codestream's "
            f"{DEFAULT_LIMITS.max_tiles}-tile limit; use a larger tile_size"
        )
    tiled = ntiles > 1

    stats = WorkloadStats(
        height=height, width=width, num_components=ncomp, bit_depth=depth,
        lossless=params.lossless, levels=params.levels,
        codeblock_size=params.codeblock_size,
        raw_bytes=int(np.asarray(image).nbytes),
        tiles=ntiles,
    )
    timings = StageTimings()

    # Every tile shares one COD: clamp the decomposition depth to what the
    # smallest tile supports so SIZ/COD/QCD describe all tiles at once.
    if tiled:
        actual_levels = min(
            effective_levels((t_h, t_w), params.levels)
            for (_r, _c, t_h, t_w) in grid
        )
        tile_params = replace(params, levels=actual_levels)
    else:
        actual_levels = effective_levels((height, width), params.levels)
        tile_params = params

    # Streaming batches: tiles are front-ended, Tier-1 coded, and reduced
    # to compressed bodies one batch at a time, so peak memory holds a few
    # tiles' working sets instead of the whole image's.  The default batch
    # is one tile row; an explicit ``mem_budget`` sizes the batch by the
    # per-sample working set (TILE_WORKSET_BYTES).
    if tiled:
        if params.mem_budget is not None:
            from repro.jpeg2000.params import TILE_WORKSET_BYTES

            per_tile = (params.tile_size * params.tile_size * ncomp
                        * TILE_WORKSET_BYTES)
            tiles_per_batch = max(1, min(ntiles, params.mem_budget // per_tile))
        else:
            tiles_per_batch = (width + params.tile_size - 1) // params.tile_size
        batches = [
            list(range(i, min(i + tiles_per_batch, ntiles)))
            for i in range(0, ntiles, tiles_per_batch)
        ]
    else:
        batches = [[0]]

    tile_bodies: list[bytes] = [b""] * ntiles
    info: CodestreamInfo | None = None
    tile_budgets: list[tuple[float, float]] | None = None
    with ExitStack() as call_scope:
        # A parallel encode opens one thread pool for the call; its threads
        # start on first use, so clamped-serial encodes never start them,
        # and every tile batch reuses them.
        if pool is None and params.workers != 1:
            from repro.core.workpool import ThreadPool

            pool = call_scope.enter_context(ThreadPool(params.workers))
        for batch in batches:
            # Phase 1: collect the batch's independent Tier-1 work items.
            # Nothing is encoded yet — the blocks go through the work queue
            # as one batch so idle workers can steal from any subband of
            # any tile.  Each subband keeps its quantized plane whole in
            # ``planes``; pending items are (plane index, block spec)
            # descriptors, which the work queue turns into views, so each
            # block's samples are copied once, on their way to one worker.
            batch_planned: list[_PlannedSubband] = []
            planes: list[np.ndarray] = []
            pending: list[tuple[int, CodeBlockSpec]] = []
            tile_slices: list[tuple[int, int, int]] = []
            for t in batch:
                row0, col0, t_h, t_w = grid[t]
                tcomps = [c[row0 : row0 + t_h, col0 : col0 + t_w] for c in comps]
                frontend = run_frontend(tcomps, depth, tile_params,
                                        timings=timings)
                start = len(batch_planned)
                for ci, decomp in enumerate(frontend.decomps):
                    for sb in decomp.subbands():
                        quant = frontend.quants[(sb.band, sb.dlevel)]
                        q = sb.data  # already quantized int32
                        specs, grows, gcols = partition_subband(
                            sb.shape[0], sb.shape[1], params.codeblock_size
                        )
                        psb = _PlannedSubband(
                            comp=ci, band=sb.band, dlevel=sb.dlevel,
                            height=sb.shape[0], width=sb.shape[1], quant=quant,
                            grid_rows=grows, grid_cols=gcols,
                        )
                        stats.subbands.append(
                            SubbandStats(ci, sb.band, sb.dlevel,
                                         sb.shape[0], sb.shape[1])
                        )
                        plane_idx = len(planes)
                        planes.append(q)
                        for spec in specs:
                            pending.append((plane_idx, spec))
                        batch_planned.append(psb)
                tile_slices.append((t, start, len(batch_planned)))

            # Phase 2: Tier-1 encode the batch's blocks — serially or
            # through the threaded work queue (the executable
            # analogue of the paper's SPE dynamic queue).  Results come
            # back in submission order, so everything downstream is
            # identical for any worker count.
            t0 = time.perf_counter()
            results = _encode_pending(batch_planned, planes, pending, params,
                                      pool, stats)
            timings.tier1 += time.perf_counter() - t0

            # Phase 3: reattach results in the original planning order.
            for (plane_idx, spec), res in zip(pending, results):
                psb = batch_planned[plane_idx]
                quant = psb.quant
                if res.msbs > quant.num_bitplanes:
                    raise RuntimeError(
                        f"code block needs {res.msbs} bit planes but subband "
                        f"{psb.band}{psb.dlevel} signals only "
                        f"{quant.num_bitplanes}; increase guard_bits"
                    )
                pb = _PlannedBlock(
                    comp=psb.comp, band=psb.band, dlevel=psb.dlevel, spec=spec,
                    quant=quant, result=res, included_passes=res.num_passes,
                )
                psb.blocks.append(pb)
                stats.blocks.append(
                    BlockStats(
                        comp=psb.comp, band=psb.band, dlevel=psb.dlevel,
                        height=spec.height, width=spec.width,
                        msbs=res.msbs, num_passes=res.num_passes,
                        total_symbols=res.total_symbols,
                        coded_bytes=len(res.data),
                        pass_symbols=list(res.pass_symbols),
                    )
                )

            if info is None:
                _t0, s0, e0 = tile_slices[0]
                info = CodestreamInfo(
                    width=width, height=height, num_components=ncomp,
                    bit_depth=depth, signed=False, levels=actual_levels,
                    codeblock_size=params.codeblock_size,
                    reversible=params.lossless, use_mct=use_mct, num_layers=1,
                    guard_bits=params.guard_bits,
                    quant_fields=_qcd_fields(batch_planned[s0:e0], ncomp),
                    tile_width=params.tile_size if tiled else None,
                    tile_height=params.tile_size if tiled else None,
                    progression=params.progression,
                    precinct_size=params.precinct_size,
                )
                if params.rate is not None:
                    header_len = len(write_main_header(info))
                    if tiled:
                        # Global PCRD budget, apportioned per tile by raw
                        # size; the fixed overhead (main header, TLM, one
                        # SOT+SOD per tile, EOC) splits the same way.
                        overhead = (header_len + tlm_overhead(ntiles)
                                    + ntiles * 14 + 2)
                        raws = [t_h * t_w * ncomp * itemsize
                                for (_r, _c, t_h, t_w) in grid]
                        shares = apportion_budget(float(overhead), raws)
                        tile_budgets = [
                            (params.rate * raws[i], shares[i])
                            for i in range(ntiles)
                        ]
                    else:
                        tile_budgets = [(
                            params.rate * stats.raw_bytes,
                            float(header_len + 14 + 2),  # + SOT + SOD + EOC
                        )]

            # Phase 4: per-tile rate control and packet assembly; the
            # batch's coefficient planes are released as soon as each
            # tile's compressed body exists.
            for (t, s, e) in tile_slices:
                tplan = batch_planned[s:e]
                if params.rate is not None and tile_budgets is not None:
                    t0 = time.perf_counter()
                    target_t, overhead_t = tile_budgets[t]
                    _apply_rate_control(tplan, params, ncomp, actual_levels,
                                        target_t, overhead_t)
                    timings.rate_control += time.perf_counter() - t0
                t0 = time.perf_counter()
                tile_bodies[t] = _assemble_packets(
                    tplan, ncomp, actual_levels, params.progression,
                    params.precinct_size, params.codeblock_size,
                )
                timings.tier2 += time.perf_counter() - t0

    assert info is not None
    t0 = time.perf_counter()
    if tiled:
        info.tiles = tile_bodies
    else:
        info.tile_data = tile_bodies[0]
    codestream = write_codestream(info)
    timings.tier2 += time.perf_counter() - t0
    timings.total = time.perf_counter() - t_start
    stats.codestream_bytes = len(codestream)
    result = EncodeResult(
        codestream=codestream, params=params, stats=stats, timings=timings,
    )
    if params.self_check:
        # Lazy import: repro.verify depends on this module.
        from repro.verify.roundtrip import verify_encode

        verify_encode(image, result)
    return result


def _encode_pending(
    planned: list[_PlannedSubband],
    planes: list[np.ndarray],
    pending: list[tuple[int, CodeBlockSpec]],
    params: EncoderParams,
    pool=None,
    stats: WorkloadStats | None = None,
) -> list[CodeBlockResult]:
    """Tier-1 encode the collected blocks, in process or on ``pool``.

    ``pool`` (the call's :class:`repro.core.workpool.ThreadPool` or a
    service scheduler job) sets the worker count; ``None`` stays serial.
    Past the :func:`repro.core.workpool.tier1_auto_workers` clamp the
    blocks go to the pool as block groups that carry their coefficients
    inline.  ``tier1_backend="reference"`` codes every block with the
    scalar oracle, in process.
    """
    blocks = [
        (pi, spec.row0, spec.col0, spec.height, spec.width, planned[pi].band)
        for pi, spec in pending
    ]
    reference = params.tier1_backend == "reference"
    if pool is not None and len(blocks) >= 2 and not reference:
        # Lazily imported: the serial path must not pay the
        # work-queue import.
        from repro.core.workpool import CodeBlockWorkQueue, tier1_auto_workers

        if tier1_auto_workers(pool.workers, len(blocks)) > 1:
            queue = CodeBlockWorkQueue(pool)
            results = queue.encode_plane_groups(planes, blocks)
            if stats is not None:
                stats.tier1_dispatch = "pool"
            return results

    if stats is not None:
        stats.tier1_dispatch = "serial"
    coded = [
        (planes[pi][r0 : r0 + h, c0 : c0 + w], band)
        for pi, r0, c0, h, w, band in blocks
    ]
    if reference:
        return [encode_codeblock_reference(cb, band) for cb, band in coded]
    # Looked up at call time and handed an occupancy record, so a wrapper
    # installed on the module can count every in-process call and block.
    from repro.jpeg2000 import tier1_batch

    return tier1_batch.encode_codeblocks_batched(
        coded, tier1_batch.BatchOccupancy()
    )


def _qcd_fields(planned: list[_PlannedSubband], ncomp: int) -> list[SubbandQuantField]:
    """QCD subband fields, taken from component 0 (shared across comps)."""
    fields = []
    for psb in planned:
        if psb.comp != 0:
            continue
        fields.append(SubbandQuantField(psb.quant.exponent, psb.quant.mantissa))
    return fields


def _apply_rate_control(
    planned: list[_PlannedSubband],
    params: EncoderParams,
    ncomp: int,
    levels: int,
    target_total: float,
    overhead: float,
) -> None:
    """PCRD-opt truncation to hit ``target_total`` bytes for one tile.

    ``target_total`` is this tile's share of the global ``rate *
    raw_bytes`` budget (the whole budget on the single-tile path) and
    ``overhead`` its share of the fixed marker cost.  The loop converges
    on *lengths* alone: truncations come from one reusable
    :class:`RateModel` (hulls built once, bisection over flat arrays) and
    each candidate's codestream size is priced exactly by
    :func:`repro.jpeg2000.tier2.packet_length` without materializing packet
    bytes.  Only after the loop settles does :func:`_assemble_packets` run —
    once per tile — so the final codestream is byte-identical to the era
    that rebuilt every packet per iteration.
    """
    all_blocks = [b for psb in planned for b in psb.blocks]
    lengths_list = []
    dists_list = []
    for b in all_blocks:
        weight = b.quant.step**2 * synthesis_gain_sq(
            b.band, max(b.dlevel, 1), reversible=False
        )
        lengths_list.append([float(x) for x in b.result.pass_lengths])
        dists_list.append([d * weight for d in b.result.pass_dist])
    model = RateModel(lengths_list, dists_list)
    budget = max(0.0, target_total - overhead)
    for _ in range(6):
        trunc = model.choose(budget)
        for b, t in zip(all_blocks, trunc):
            b.included_passes = int(t)
        total = overhead + _packets_length(
            planned, ncomp, levels, params.progression, params.precinct_size,
            params.codeblock_size,
        )
        if total <= target_total or budget <= 0:
            break
        budget = max(0.0, budget - (total - target_total))


def _band_keys(res: int, ci: int, levels: int) -> list[tuple[int, str, int]]:
    """Subband lookup keys contributing to one (resolution, component)."""
    if res == 0:
        return [(ci, "LL", levels)]
    dl = levels - res + 1
    return [(ci, "HL", dl), (ci, "LH", dl), (ci, "HH", dl)]


def _iter_packet_bands(
    planned: list[_PlannedSubband],
    ncomp: int,
    levels: int,
    with_data: bool,
    progression: str = "LRCP",
    precinct_size: int | None = None,
    codeblock_size: int = 64,
):
    """Packets in ``progression`` order, one band list each.

    With maximal precincts and LRCP this is exactly the historical
    resolution-major, component-minor walk.  Precincts window each band's
    code-block grid; block coordinates inside a packet are local to the
    precinct.  ``with_data=False`` builds length-only contributions for
    the rate loop's pricing; ``with_data=True`` carries the truncated body
    bytes for the final assembly.  Both describe the identical packet.
    """
    by_key: dict[tuple[int, str, int], _PlannedSubband] = {
        (p.comp, p.band, p.dlevel): p for p in planned
    }
    nres = levels + 1
    pcb_by_res: list[int | None] = []
    pcols_by_res: list[int] = []
    nprec_by_res: list[int] = []
    for res in range(nres):
        pcb = precinct_cells(codeblock_size, precinct_size, res)
        grids = [
            (psb.grid_rows, psb.grid_cols)
            for key in _band_keys(res, 0, levels)
            if (psb := by_key.get(key)) is not None
        ]
        prows, pcols = precinct_counts(pcb, grids)
        pcb_by_res.append(pcb)
        pcols_by_res.append(pcols)
        nprec_by_res.append(prows * pcols)
    for res, ci, p in iter_packets(levels, ncomp, nprec_by_res, progression):
        pcb = pcb_by_res[res]
        pcols = pcols_by_res[res]
        bands = []
        for key in _band_keys(res, ci, levels):
            psb = by_key.get(key)
            if psb is None:
                continue
            (r_lo, r_hi, c_lo, c_hi), (lr, lc) = precinct_band_window(
                psb.grid_rows, psb.grid_cols, pcb, pcols, p
            )
            contribs = []
            for b in psb.blocks:
                gr, gc = b.spec.grid_row, b.spec.grid_col
                if not (r_lo <= gr < r_hi and c_lo <= gc < c_hi):
                    continue
                inc = b.included_passes > 0
                length = b.included_length()
                contribs.append(
                    BlockContribution(
                        grid_row=gr - r_lo,
                        grid_col=gc - c_lo,
                        included=inc,
                        zero_bitplanes=(
                            b.quant.num_bitplanes - b.result.msbs if inc else 0
                        ),
                        num_passes=b.included_passes,
                        data=b.result.data[:length] if with_data else b"",
                        length=length,
                    )
                )
            bands.append(PacketBand(lr, lc, contribs))
        yield bands


def _packets_length(
    planned: list[_PlannedSubband],
    ncomp: int,
    levels: int,
    progression: str = "LRCP",
    precinct_size: int | None = None,
    codeblock_size: int = 64,
) -> int:
    """Exact ``len(_assemble_packets(...))`` without building any bytes."""
    return sum(
        packet_length(bands)
        for bands in _iter_packet_bands(
            planned, ncomp, levels, False, progression, precinct_size,
            codeblock_size,
        )
    )


def _assemble_packets(
    planned: list[_PlannedSubband],
    ncomp: int,
    levels: int,
    progression: str = "LRCP",
    precinct_size: int | None = None,
    codeblock_size: int = 64,
) -> bytes:
    """Concatenate one tile's packets in ``progression`` order."""
    _assemble_packets.calls += 1
    out = bytearray()
    for bands in _iter_packet_bands(
        planned, ncomp, levels, True, progression, precinct_size,
        codeblock_size,
    ):
        out += encode_packet(bands)
    return bytes(out)


#: Invocation counter (test observability): rate control prices candidate
#: truncations via :func:`_packets_length`, so a lossy encode assembles
#: packet bytes exactly once per tile (once per encode when untiled).
_assemble_packets.calls = 0
