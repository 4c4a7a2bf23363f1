"""Whole-image batched EBCOT Tier-1 encoder backend.

:mod:`repro.jpeg2000.tier1_vec` already replaced the per-sample Python
loops of the reference coder with whole-array NumPy passes — but it still
pays the fixed per-call NumPy overhead (array allocation, ufunc dispatch,
fixpoint bookkeeping) once per code block per bit plane.  For images cut
into many small code blocks that fixed cost dominates, which is exactly
the overhead the paper amortizes by streaming many code blocks through a
single SPE kernel instead of dispatching them one at a time (Section 3.2).

This module batches *across blocks*: all same-geometry ``(h, w)`` code
blocks of an image — across every subband and component — are stacked into
3-D arrays ``(nblocks, h, w)`` and the SPP/MRP/CUP context-modelling
passes run over the whole stack per bit plane.  The per-plane NumPy cost
is then paid once per *image*, not once per block.

Correctness requirements and how they are met:

* **Byte identity.**  Code blocks are statistically independent (each has
  its own MQ coder and significance state), so stacking only batches the
  arithmetic; every per-block decision stream is sliced back out of the
  stacked emission in scan order and fed to that block's own
  :class:`~repro.jpeg2000.mq.MQEncoder` — the same ``encode_run`` loop and
  pass bookkeeping as the vectorized backend, hence byte-identical
  :class:`~repro.jpeg2000.tier1.CodeBlockResult`\\ s (``pass_dist``
  included: per-block distortion terms are summed left to right in scan
  order exactly like the reference).
* **Ragged edges.**  Edge blocks batch with each other: the group key is
  the block geometry ``(h, w)``, so an image contributes one big group of
  full-size blocks plus small groups for each distinct edge geometry.
* **Bit-depth skew.**  Blocks in a group start coding at different bit
  planes (their own ``msbs``).  Sorting each group by ``msbs`` descending
  makes the active set at plane ``p`` a contiguous *prefix* of the stack,
  so the per-plane passes operate on plain ``stack[:k]`` views — no
  gather/scatter masking — and a block simply drops out of planes above
  its MSB.  A block at its top plane joins the cleanup pass only (its
  significance state is still empty), exactly like the reference.
* **Mixed bands.**  Significance-context LUTs differ per band; groups
  carry a per-block LUT stack and gather contexts with
  ``np.take_along_axis`` (collapsing to a single shared LUT when the whole
  group agrees, which is the common case for the large full-size group
  only when one band dominates — mixed groups cost one extra gather).

The iteration structure (blocks of a group advance through planes in lock
step, each draining its own MQ state) is the software analogue of the
paper's time-shared Tier-1 SPE kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.jpeg2000 import tier1_geom
from repro.jpeg2000.mq import MQEncoder
from repro.jpeg2000.tier1 import (
    INITIAL_STATES,
    NUM_CONTEXTS,
    PASS_CLEAN,
    PASS_REF,
    PASS_SIG,
    CTX_RUNLEN,
    CTX_UNIFORM,
    CodeBlockResult,
    _validate_block,
)
from repro.jpeg2000.tier1_vec import (
    _dist_become,
    _dist_refine,
    _sign_grids,
)

_OFFSETS = tier1_geom.NEIGHBOUR_OFFSETS


@dataclass
class BatchOccupancy:
    """How well the batched backend packed blocks into stacks."""

    groups: int = 0        # distinct (h, w) geometry groups
    blocks: int = 0        # code blocks batched
    largest_group: int = 0

    @property
    def mean_blocks_per_group(self) -> float:
        return (self.blocks / self.groups) if self.groups else 0.0


def _pad3(arr: np.ndarray) -> np.ndarray:
    m, h, w = arr.shape
    out = np.zeros((m, h + 2, w + 2), dtype=arr.dtype)
    out[:, 1:-1, 1:-1] = arr
    return out


def _views3(padded: np.ndarray, h: int, w: int) -> list[np.ndarray]:
    return [padded[:, 1 + dr:1 + dr + h, 1 + dc:1 + dc + w]
            for dr, dc in _OFFSETS]


def _split_scan_sums(vals: np.ndarray, counts) -> list[float]:
    """Per-block left-to-right float sums of block-major ``vals``.

    Matches the reference's scan-order accumulation (and
    ``tier1_vec._scan_sum``) bit for bit per block.
    """
    lst = vals.tolist()
    out = []
    o = 0
    for c in counts:
        c = int(c)
        out.append(float(sum(lst[o:o + c])))
        o += c
    return out


_CANONICAL_BAND = {"LL": "LL", "LH": "LL", "HL": "HL", "HH": "HH"}


def _encode_group(
    arrs: list[np.ndarray],
    bands: list[str],
    indices: list[int],
    results: list,
) -> None:
    """Encode one same-geometry group of code blocks in lock step."""
    h, w = arrs[0].shape
    n = h * w

    signed_all = np.stack([a.astype(np.int64) for a in arrs])
    mag_all = np.abs(signed_all)
    maxv = mag_all.reshape(len(arrs), -1).max(axis=1)
    msbs_all = [int(v).bit_length() for v in maxv]

    # Blocks with no magnitude bits produce the canonical empty result and
    # are dropped from the stack.
    live = [j for j, ms in enumerate(msbs_all) if ms > 0]
    for j, ms in enumerate(msbs_all):
        if ms == 0:
            results[indices[j]] = CodeBlockResult(data=b"", num_passes=0,
                                                  msbs=0)
    if not live:
        return

    # Sort by msbs descending (stable) so the blocks active at plane p are
    # always the prefix [:k] of the stack.
    live.sort(key=lambda j: -msbs_all[j])
    signed = signed_all[live]
    mag = mag_all[live]
    msbs_np = np.asarray([msbs_all[j] for j in live], dtype=np.int64)
    nb = len(live)

    geo = tier1_geom.geometry(h, w)
    order = geo.order
    earlier_self = geo.earlier_self
    earlier_top = geo.earlier_top

    # Per-block significance LUTs; collapse to one shared LUT when the
    # whole group codes the same band class (LL/LH share a table).
    canon = [_CANONICAL_BAND.get(bands[j]) for j in live]
    single_lut = None
    luts = None
    if len(set(canon)) == 1:
        single_lut = tier1_geom.sig_lut_array(bands[live[0]])
    else:
        luts = np.stack([tier1_geom.sig_lut_array(bands[j]) for j in live])

    def ctx_grid(eff, m):
        hc = eff[0].astype(np.int16) + eff[1]
        vc = eff[2].astype(np.int16) + eff[3]
        dc = eff[4].astype(np.int16) + eff[5] + eff[6] + eff[7]
        code = hc * 15 + vc * 5 + dc
        if single_lut is not None:
            return single_lut[code]
        flat = np.take_along_axis(
            luts[:m], code.reshape(m, n).astype(np.intp), axis=1
        )
        return flat.reshape(m, h, w)

    sgn_u8 = (signed < 0).view(np.uint8)
    signw_views = _views3(
        _pad3(np.where(signed < 0, -1, 1).astype(np.int8)), h, w
    )[:4]

    sig = np.zeros((nb, h, w), dtype=bool)
    visited = np.zeros((nb, h, w), dtype=bool)
    refined = np.zeros((nb, h, w), dtype=bool)

    mqs = [MQEncoder(NUM_CONTEXTS, INITIAL_STATES) for _ in range(nb)]
    res = [CodeBlockResult(data=b"", num_passes=0, msbs=int(ms))
           for ms in msbs_np]

    def end_pass(j: int, kind: str, nsym: int, dist: float) -> None:
        r = res[j]
        r.pass_types.append(kind)
        r.pass_lengths.append(mqs[j].safe_length())
        r.pass_dist.append(dist)
        r.pass_symbols.append(nsym)

    def emit(starts, tot_b, out_b, out_c, kind, dists, m) -> None:
        """Feed each block its slice of the stacked decision stream."""
        for j in range(m):
            t = int(tot_b[j])
            if t:
                s0 = int(starts[j])
                mqs[j].encode_run(out_b[s0:s0 + t], out_c[s0:s0 + t])
            end_pass(j, kind, t, dists[j])

    def sig_prop_pass(p: int, m: int, bitp: np.ndarray) -> None:
        s = sig[:m]
        cand = ~s
        sig_sh = _views3(_pad3(s), h, w)
        newly = np.zeros((m, h, w), dtype=bool)
        # Same least-fixpoint as tier1_vec, over the whole stack.  Extra
        # iterations past a given block's convergence are no-ops for it
        # (the per-block map is monotone and stable at its fixpoint), so
        # the stack converging as a whole preserves per-block results.
        while True:
            new_sh = _views3(_pad3(newly), h, w)
            eff = [sv | (nv & e)
                   for sv, nv, e in zip(sig_sh, new_sh, earlier_self)]
            ctx = ctx_grid(eff, m)
            coded = cand & (ctx != 0)
            newly2 = coded & bitp
            if np.array_equal(newly2, newly):
                break
            newly = newly2

        cv = coded.reshape(m, n)[:, order]
        bi, sp = np.nonzero(cv)           # block-major, scan order inside
        ci = order[sp]
        flat = bi * n + ci
        bits = bitp.reshape(-1)[flat].view(np.uint8)
        nly = bits.view(bool)
        ndec_b = np.bincount(bi, minlength=m)
        nsig_b = np.bincount(bi[nly], minlength=m)
        tot_b = ndec_b + nsig_b
        total = int(tot_b.sum())
        dists = [0.0] * m
        if total:
            cxs = ctx.reshape(-1)[flat]
            out_b = np.empty(total, dtype=np.uint8)
            out_c = np.empty(total, dtype=np.uint8)
            pos = np.arange(bits.size, dtype=np.int64)
            nsig = int(nsig_b.sum())
            if nsig:
                pos[1:] += np.cumsum(nly[:-1])
            out_b[pos] = bits
            out_c[pos] = cxs
            if nsig:
                sbit, sctx = _sign_grids(
                    eff, [v[:m] for v in signw_views], sgn_u8[:m]
                )
                ni = flat[nly]
                spos = pos[nly] + 1
                out_b[spos] = sbit.reshape(-1)[ni]
                out_c[spos] = sctx.reshape(-1)[ni]
                dists = _split_scan_sums(
                    _dist_become(mag.reshape(-1)[ni], p), nsig_b
                )
            starts = np.concatenate(([0], np.cumsum(tot_b[:-1])))
            emit(starts, tot_b, out_b, out_c, PASS_SIG, dists, m)
        else:
            for j in range(m):
                end_pass(j, PASS_SIG, 0, 0.0)
        sig[:m] |= newly
        visited[:m] = coded

    def mag_ref_pass(p: int, m: int, bitp: np.ndarray) -> None:
        s = sig[:m]
        cand = s & ~visited[:m]
        cv = cand.reshape(m, n)[:, order]
        bi, sp = np.nonzero(cv)
        ndec_b = np.bincount(bi, minlength=m)
        dists = [0.0] * m
        if bi.size:
            flat = bi * n + order[sp]
            sig_sh = _views3(_pad3(s), h, w)
            anysig = sig_sh[0].copy()
            for sv in sig_sh[1:]:
                anysig |= sv
            ctx = np.where(refined[:m], np.uint8(16),
                           np.where(anysig, np.uint8(15), np.uint8(14)))
            bits = bitp.reshape(-1)[flat].view(np.uint8)
            cxs = ctx.reshape(-1)[flat]
            dists = _split_scan_sums(
                _dist_refine(mag.reshape(-1)[flat], p), ndec_b
            )
            starts = np.concatenate(([0], np.cumsum(ndec_b[:-1])))
            emit(starts, ndec_b, bits, cxs, PASS_REF, dists, m)
            refined[:m] |= cand
        else:
            for j in range(m):
                end_pass(j, PASS_REF, 0, 0.0)

    def cleanup_pass(p: int, m: int, bitp: np.ndarray) -> None:
        s = sig[:m]
        cand = ~s & ~visited[:m]
        newly = cand & bitp
        sig_sh = _views3(_pad3(s), h, w)
        new_sh = _views3(_pad3(newly), h, w)
        eff = [sv | (nv & e)
               for sv, nv, e in zip(sig_sh, new_sh, earlier_self)]
        ctx = ctx_grid(eff, m)

        normal = cand.copy()
        rl_zero_top = np.zeros((m, h, w), dtype=bool)
        rl_esc_top = np.zeros((m, h, w), dtype=bool)
        is_f = np.zeros((m, h, w), dtype=bool)
        tail = np.zeros((m, h, w), dtype=bool)
        fhi = np.zeros((m, h, w), dtype=np.uint8)
        flo = np.zeros((m, h, w), dtype=np.uint8)

        nfull = h // 4
        if nfull:
            h4 = nfull * 4
            eff_t = [sv | (nv & e)
                     for sv, nv, e in zip(sig_sh, new_sh, earlier_top)]
            ctx_t = ctx_grid(eff_t, m)
            c4 = cand[:, :h4].reshape(m, nfull, 4, w)
            b4 = bitp[:, :h4].reshape(m, nfull, 4, w)
            z4 = ctx_t[:, :h4].reshape(m, nfull, 4, w) == 0
            rl = c4.all(axis=2) & z4.all(axis=2)           # (m, nfull, w)
            has1 = b4.any(axis=2)
            f = np.argmax(b4, axis=2)
            rl_z = rl & ~has1
            rl_e = rl & has1
            karr = np.arange(4, dtype=np.int64)[None, None, :, None]
            in_rl = np.broadcast_to(rl[:, :, None, :], (m, nfull, 4, w))
            normal[:, :h4] &= ~in_rl.reshape(m, h4, w)
            top = karr == 0
            rl_zero_top[:, :h4] = (rl_z[:, :, None, :] & top
                                   ).reshape(m, h4, w)
            rl_esc_top[:, :h4] = (rl_e[:, :, None, :] & top
                                  ).reshape(m, h4, w)
            is_f[:, :h4] = (rl_e[:, :, None, :] & (karr == f[:, :, None, :])
                            ).reshape(m, h4, w)
            tail[:, :h4] = (rl_e[:, :, None, :] & (karr > f[:, :, None, :])
                            ).reshape(m, h4, w)
            toprows = np.arange(nfull) * 4
            fhi[:, toprows, :] = ((f >> 1) & 1).astype(np.uint8)
            flo[:, toprows, :] = (f & 1).astype(np.uint8)

        cnt = np.zeros((m, h, w), dtype=np.int64)
        cnt[normal] = 1 + bitp[normal]
        cnt[rl_zero_top] = 1
        cnt[rl_esc_top] += 3
        cnt[is_f] += 1
        cnt[tail] += 1 + bitp[tail]

        cnt_v = cnt.reshape(m, n)[:, order]
        tot_b = cnt_v.sum(axis=1)
        total = int(tot_b.sum())
        if total == 0:
            for j in range(m):
                end_pass(j, PASS_CLEAN, 0, 0.0)
            return
        # Block-major global offsets: the exclusive cumsum over the
        # concatenated scan-ordered counts lands block j's stream at
        # starts[j] with per-sample offsets inside it.
        offs2 = np.empty((m, n), dtype=np.int64)
        flat_counts = cnt_v.reshape(-1)
        offs2[:, order] = np.concatenate(
            ([0], np.cumsum(flat_counts[:-1]))
        ).reshape(m, n)
        offs = offs2.reshape(-1)
        out_b = np.empty(total, dtype=np.uint8)
        out_c = np.empty(total, dtype=np.uint8)
        bitp_f = bitp.reshape(-1).view(np.uint8)
        ctx_f = ctx.reshape(-1)
        newly_f = newly.reshape(-1)
        sbit, sctx = _sign_grids(
            eff, [v[:m] for v in signw_views], sgn_u8[:m]
        )
        sbit_f = sbit.reshape(-1)
        sctx_f = sctx.reshape(-1)

        msk = normal.reshape(-1)
        pos = offs[msk]
        out_b[pos] = bitp_f[msk]
        out_c[pos] = ctx_f[msk]
        mn = msk & newly_f
        out_b[offs[mn] + 1] = sbit_f[mn]
        out_c[offs[mn] + 1] = sctx_f[mn]

        msk = rl_zero_top.reshape(-1)
        out_b[offs[msk]] = 0
        out_c[offs[msk]] = CTX_RUNLEN

        msk = rl_esc_top.reshape(-1)
        o = offs[msk]
        out_b[o] = 1
        out_c[o] = CTX_RUNLEN
        out_b[o + 1] = fhi.reshape(-1)[msk]
        out_c[o + 1] = CTX_UNIFORM
        out_b[o + 2] = flo.reshape(-1)[msk]
        out_c[o + 2] = CTX_UNIFORM

        msk = is_f.reshape(-1)
        spos = offs[msk] + np.where(rl_esc_top.reshape(-1)[msk], 3, 0)
        out_b[spos] = sbit_f[msk]
        out_c[spos] = sctx_f[msk]

        msk = tail.reshape(-1)
        pos = offs[msk]
        out_b[pos] = bitp_f[msk]
        out_c[pos] = ctx_f[msk]
        mt = msk & newly_f
        out_b[offs[mt] + 1] = sbit_f[mt]
        out_c[offs[mt] + 1] = sctx_f[mt]

        nv_scan = newly.reshape(m, n)[:, order]
        bi, sp = np.nonzero(nv_scan)
        dists = [0.0] * m
        if bi.size:
            ni = bi * n + order[sp]
            dists = _split_scan_sums(
                _dist_become(mag.reshape(-1)[ni], p),
                np.bincount(bi, minlength=m),
            )
        starts = np.concatenate(([0], np.cumsum(tot_b[:-1])))
        emit(starts, tot_b, out_b, out_c, PASS_CLEAN, dists, m)
        sig[:m] |= newly

    max_p = int(msbs_np[0])
    for p in range(max_p - 1, -1, -1):
        # Active prefixes: k blocks code plane p at all; the first k2 of
        # them started at a higher plane and therefore run SPP/MRP too.
        k = int(np.count_nonzero(msbs_np > p))
        k2 = int(np.count_nonzero(msbs_np > p + 1))
        bitp = ((mag[:k] >> p) & 1).astype(bool)
        if k2:
            sig_prop_pass(p, k2, bitp[:k2])
            mag_ref_pass(p, k2, bitp[:k2])
        cleanup_pass(p, k, bitp)

    for j, gj in enumerate(live):
        r = res[j]
        data = mqs[j].flush()
        r.data = data
        r.num_passes = len(r.pass_types)
        r.pass_lengths = [min(pl, len(data)) for pl in r.pass_lengths]
        if r.pass_lengths:
            r.pass_lengths[-1] = len(data)
        results[indices[gj]] = r


def encode_codeblocks_batched(
    blocks, occupancy: BatchOccupancy | None = None
) -> list[CodeBlockResult]:
    """Tier-1 encode many code blocks at once, batched by geometry.

    ``blocks`` is a sequence of ``(coeffs, band)`` pairs; the returned
    list of :class:`CodeBlockResult` matches the input order and is
    byte-identical to encoding each block with either per-block backend.
    ``occupancy`` (optional) is filled with batching statistics.
    """
    arrs = []
    bands = []
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (coeffs, band) in enumerate(blocks):
        arr = _validate_block(coeffs)
        tier1_geom.sig_lut_for_band(band)  # raises on unknown bands
        arrs.append(arr)
        bands.append(band)
        groups.setdefault(arr.shape, []).append(i)

    results: list[CodeBlockResult | None] = [None] * len(arrs)
    largest = 0
    for (h, w), idxs in groups.items():
        largest = max(largest, len(idxs))
        if h * w == 0:
            for i in idxs:
                results[i] = CodeBlockResult(data=b"", num_passes=0, msbs=0)
            continue
        _encode_group([arrs[i] for i in idxs], [bands[i] for i in idxs],
                      idxs, results)

    if occupancy is not None:
        occupancy.groups = len(groups)
        occupancy.blocks = len(arrs)
        occupancy.largest_group = largest
    return results


def group_shard_count(nblocks: int, workers: int) -> int:
    """Blocks per shard when geometry groups fan out across a worker pool.

    Splits the image's blocks into about ``2 * workers`` shards — enough
    shards that the dynamic queue can balance the data-dependent load
    imbalance, few enough that each worker still amortizes its NumPy
    overhead over a stack.  Returns the shard *size* (blocks per task),
    >= 1.
    """
    shards = 2 * max(1, workers)
    return max(1, -(-nblocks // shards))
