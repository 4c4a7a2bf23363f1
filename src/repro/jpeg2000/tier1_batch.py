"""The Tier-1 block encoder: byte-identical to the scalar reference.

Every code block is coded by one call of the compiled whole-block kernel
of :mod:`repro.jpeg2000._mq_native` — SPP/MRP/CUP over all bit planes, the
MQ coder and the per-pass rate/distortion bookkeeping — the way the paper
codes each block as one self-contained SPE job (Sections 2 and 3.2).
Tier-1 is serial within a block, so speed comes from that tight per-block
loop plus parallelism across blocks, which :mod:`repro.core.workpool`
supplies.  On a host without a C compiler (or with ``REPRO_MQ_NATIVE=0``)
every block goes to the scalar oracle,
:func:`repro.jpeg2000.tier1.encode_codeblock_reference`, instead.

Both paths are differentially pinned to identical
:class:`~repro.jpeg2000.tier1.CodeBlockResult`\\ s: every stream byte,
pass length, symbol count and distortion float.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.jpeg2000 import _mq_native, tier1_geom
from repro.jpeg2000.tier1 import (
    CodeBlockResult,
    _validate_block,
    encode_codeblock_reference,
)


@dataclass
class BatchOccupancy:
    """Blocks handed to one :func:`encode_codeblocks_batched` call."""

    groups: int = 0        # calls (one per in-process image or pool group)
    blocks: int = 0        # code blocks coded


def encode_codeblocks_batched(
    blocks, occupancy: BatchOccupancy | None = None
) -> list[CodeBlockResult]:
    """Tier-1 encode code blocks, in input order.

    ``blocks`` is a sequence of ``(coeffs, band)`` pairs, the arguments of
    :func:`repro.jpeg2000.tier1.encode_codeblock`.  Each block is
    validated and runs through the native kernel.  The scalar oracle
    takes the blocks the kernel does not: all of them when it is missing,
    empty blocks (no samples, or all zero) and blocks deeper than
    :data:`repro.jpeg2000._mq_native.MAX_MSBS`.  ``occupancy`` (optional)
    counts the call and its blocks.
    """
    kernel = _mq_native.native_encode_block
    out = []
    for coeffs, band in blocks:
        arr = _validate_block(coeffs)
        lut = tier1_geom.sig_lut_array(band)  # raises on unknown bands
        res = None
        if kernel is not None and arr.size:
            res = kernel(arr, lut, tier1_geom.geometry(*arr.shape).nbr)
        out.append(res if res is not None
                   else encode_codeblock_reference(arr, band))
    if occupancy is not None:
        occupancy.groups = 1
        occupancy.blocks = len(out)
    return out


def group_shard_count(nblocks: int, workers: int) -> int:
    """Blocks per group when a block list fans out across a worker pool.

    Splits the blocks into about ``2 * workers`` groups — enough that the
    dynamic queue can balance the data-dependent load imbalance, few
    enough that each task amortizes its dispatch cost.  Returns the group
    *size* (blocks per task), >= 1.
    """
    shards = 2 * max(1, workers)
    return max(1, -(-nblocks // shards))
