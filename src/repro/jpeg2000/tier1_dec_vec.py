"""The Tier-1 block decoder: sample-identical to the scalar reference.

Tier-1 decoding is serial within a block: a decoder learns each bit only
from the MQ coder, whose (A, C) registers every decision updates.
Speed therefore comes from a tight per-block loop plus parallelism across
blocks, which :mod:`repro.core.workpool` supplies, exactly as for the
block encoder (:mod:`repro.jpeg2000.tier1_batch`).  The per-block loop is
the compiled whole-block kernel of :mod:`repro.jpeg2000._t1_dec_native`:
all passes, the MQ decoder and the midpoint reconstruction run in C and
store the block's int32 samples into its window of the subband plane.
On a host without a C compiler (or with ``REPRO_MQ_NATIVE=0``) every
block goes to the scalar oracle,
:func:`repro.jpeg2000.tier1.decode_codeblock`, instead.

Both paths are differentially pinned to identical int32 samples for any
``(data, geometry, band, msbs, num_passes)``, including truncated
segments.
"""

from __future__ import annotations

import numpy as np

from repro.jpeg2000 import _t1_dec_native, tier1_geom
from repro.jpeg2000.tier1 import decode_codeblock


def _validate(height: int, width: int, msbs: int, num_passes: int) -> None:
    """The reference decoder's checks for a block with ``msbs > 0``."""
    if height <= 0 or width <= 0 or height > 64 or width > 64:
        raise ValueError(f"invalid code block dims {height}x{width}")
    max_passes = 1 + 3 * (msbs - 1)
    if num_passes > max_passes:
        raise ValueError(f"num_passes {num_passes} exceeds maximum {max_passes}")


def _check_dst(dst, height: int, width: int) -> None:
    """The kernel stores a block through a row stride of whole samples."""
    if (not isinstance(dst, np.ndarray) or dst.shape != (height, width)
            or dst.dtype != np.int32 or dst.strides[1] != 4
            or dst.strides[0] % 4 or not dst.flags.writeable):
        raise ValueError(f"bad destination for a {height}x{width} block")


def decode_codeblocks_batched(blocks) -> None:
    """Decode code blocks, each into its own int32 view.

    ``blocks`` is a sequence of ``(data, height, width, band, msbs,
    num_passes, dst)`` tuples: the arguments of
    :func:`repro.jpeg2000.tier1.decode_codeblock`, then the block's
    window of its subband plane.  Each block runs through the native
    kernel.  The scalar oracle takes, into the same window, the blocks
    the kernel does not: all of them when it is missing, empty blocks
    (all zeros, band unchecked) and blocks deeper than
    :data:`repro.jpeg2000._t1_dec_native.MAX_MSBS`, which no parsed
    codestream reaches.
    """
    kernel = _t1_dec_native.native_decode_block
    for data, height, width, band, msbs, num_passes, dst in blocks:
        _check_dst(dst, height, width)
        if kernel is None or num_passes == 0 or not (
            0 < msbs <= _t1_dec_native.MAX_MSBS
        ):
            dst[...] = decode_codeblock(data, height, width, band, msbs,
                                        num_passes)
            continue
        _validate(height, width, msbs, num_passes)
        kernel(
            data, height, width, tier1_geom.sig_lut_array(band),
            tier1_geom.geometry(height, width).nbr, msbs, num_passes, dst,
        )
