"""Binding of the whole-block Tier-1 decode kernel.

Tier-1 *decoding* is inherently serial: every decoded bit updates the MQ
coder's (A, C) registers and the significance state that contextualizes
the next bit.  ``t1_decode_block``, compiled into the package's one
library by :mod:`repro.jpeg2000._mq_native`, decodes one whole code
block (SPP/MRP/CUP over all bit planes, the MQ decoder and the midpoint
reconstruction) into its window of the subband plane, with a fixed
per-block state footprint, like the paper's constant Local-Store
footprint per code block.  It is a transliteration of the scalar
reference decoder (:func:`repro.jpeg2000.tier1.decode_codeblock`), and
differential tests pin it to the reference sample for sample.  Without
the library (no compiler, or ``REPRO_MQ_NATIVE=0``)
:data:`native_decode_block` is ``None`` and
:mod:`repro.jpeg2000.tier1_dec_vec` falls back to the scalar reference
decoder.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.jpeg2000._mq_native import _LIB


def _bind(lib):
    fn = lib.t1_decode_block
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_char_p,  # data
        ctypes.c_long,  # dlen
        ctypes.c_int,  # height
        ctypes.c_int,  # width
        ctypes.c_int,  # msbs
        ctypes.c_int,  # num_passes
        ctypes.c_void_p,  # lut (uint8)
        ctypes.c_void_p,  # nbr (int32)
        ctypes.c_void_p,  # out (int32)
        ctypes.c_long,  # stride of out's rows, in samples
    ]
    return fn


def _make_wrapper(fn):
    def native_decode_block(
        data: bytes, height: int, width: int, lut: np.ndarray,
        nbr: np.ndarray, msbs: int, num_passes: int, dst: np.ndarray,
    ) -> None:
        """Decode one block into ``dst``, an int32 ``(height, width)``
        view with contiguous rows (the caller checks it)."""
        fn(
            bytes(data), len(data), height, width, msbs, num_passes,
            lut.ctypes.data, nbr.ctypes.data, dst.ctypes.data,
            dst.strides[0] // 4,
        )

    return native_decode_block


#: Deepest block the kernel takes: its int64 magnitude plus the half
#: interval of the reconstruction stays in range up to 62 bit planes.
#: Parsed codestreams stop at 38 (``decoder._MAX_BITPLANES``).
MAX_MSBS = 62

#: The compiled ``t1_decode_block``, or None when unavailable.
_fn = None if _LIB is None else _bind(_LIB)

#: Callable ``(data, h, w, lut, nbr, msbs, num_passes, dst)`` or None when
#: unavailable.
native_decode_block = None if _fn is None else _make_wrapper(_fn)
