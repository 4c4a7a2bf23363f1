"""Compiled kernel for whole-block Tier-1 decoding.

Tier-1 *decoding* is inherently serial: every decoded bit updates the MQ
coder's (A, C) registers and the significance state that contextualizes
the next bit.  When a C compiler is present this module compiles the
*entire* decode of one code block (SPP/MRP/CUP over all bit planes, the
MQ decoder and the midpoint reconstruction) to native code at import,
the mirror of the encode kernel in :mod:`repro.jpeg2000._mq_native`, and
drives it
through :mod:`ctypes`.  One call decodes one block to its int32 samples,
with a fixed per-block state footprint, like the paper's constant
Local-Store footprint per code block.

Design constraints mirror :mod:`repro.jpeg2000._mq_native`:

* **Bit-exact**: the C code is a transliteration of the scalar reference
  decoder (:func:`repro.jpeg2000.tier1.decode_codeblock`), with
  incremental neighbour-count context keys in place of the reference's
  per-visit eight-neighbour sums; the MQ state tables and context
  constants are generated from :mod:`repro.jpeg2000.mq` /
  :mod:`repro.jpeg2000.tier1` so there is one source of truth.
  Differential tests pin it to the reference sample for sample.
* **Optional**: if no compiler is available, compilation fails, or the
  environment sets ``REPRO_MQ_NATIVE=0``, :data:`native_decode_block` is
  ``None`` and :mod:`repro.jpeg2000.tier1_dec_vec` falls back to the
  scalar reference decoder.
* **Cached**: built and loaded by :func:`repro.jpeg2000._mq_native.build_library`.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.jpeg2000._mq_native import build_library
from repro.jpeg2000.mq import STATE_TABLE
from repro.jpeg2000.tier1 import (
    CTX_RUNLEN,
    CTX_UNIFORM,
    INITIAL_STATES,
    NUM_CONTEXTS,
)
from repro.jpeg2000.tier1_geom import SIGN_LUT

_C_TEMPLATE = r"""
#include <stdint.h>
#include <string.h>

static const uint16_t QE[{nstates}] = {{{qe}}};
static const uint8_t NMPS[{nstates}] = {{{nmps}}};
static const uint8_t NLPS[{nstates}] = {{{nlps}}};
static const uint8_t SWITCH_[{nstates}] = {{{switch}}};
static const uint8_t SIGN_CTX[9] = {{{sign_ctx}}};
static const uint8_t SIGN_XOR[9] = {{{sign_xor}}};

#define NCX {ncx}
#define CTX_RUNLEN {ctx_runlen}
#define CTX_UNIFORM {ctx_uniform}
#define MAXN 4096

#define MQ_RENORM do {{ \
    do {{ \
        if (ct == 0) {{ \
            if (b == 0xFF) {{ \
                if (((bp + 1 < dlen) ? data[bp + 1] : 0xFFu) > 0x8Fu) {{ \
                    c += 0xFF00u; ct = 8; \
                }} else {{ \
                    bp += 1; b = data[bp]; \
                    c += ((uint32_t)b) << 9; ct = 7; \
                }} \
            }} else {{ \
                bp += 1; b = (bp < dlen) ? data[bp] : 0xFF; \
                c += ((uint32_t)b) << 8; ct = 8; \
            }} \
        }} \
        a = (a << 1) & 0xFFFFu; \
        c = c << 1; \
        ct -= 1; \
    }} while (!(a & 0x8000u)); \
}} while (0)

#define MQ_DECODE(cxe, dvar) do {{ \
    int _cx = (cxe); \
    int _idx = index_[_cx]; \
    uint32_t _qe = QE[_idx]; \
    a -= _qe; \
    if (((c >> 16) & 0xFFFFu) < _qe) {{ \
        if (a < _qe) {{ dvar = mps[_cx]; index_[_cx] = NMPS[_idx]; }} \
        else {{ \
            dvar = 1 - mps[_cx]; \
            if (SWITCH_[_idx]) mps[_cx] = dvar; \
            index_[_cx] = NLPS[_idx]; \
        }} \
        a = _qe; \
        MQ_RENORM; \
    }} else {{ \
        c -= _qe << 16; \
        if (a & 0x8000u) {{ dvar = mps[_cx]; }} \
        else {{ \
            if (a < _qe) {{ \
                dvar = 1 - mps[_cx]; \
                if (SWITCH_[_idx]) mps[_cx] = dvar; \
                index_[_cx] = NLPS[_idx]; \
            }} else {{ dvar = mps[_cx]; index_[_cx] = NMPS[_idx]; }} \
            MQ_RENORM; \
        }} \
    }} \
}} while (0)

/* Sample i just decoded significant at plane p: decode its sign, record
   it, and bump the eight neighbours' incremental context keys. */
#define BECOME_SIG(iexp) do {{ \
    long _i = (iexp); \
    const int32_t *_nb = nbr + _i * 8; \
    int _hc = (sig[_nb[0]] ? (1 - 2 * sgn[_nb[0]]) : 0) \
            + (sig[_nb[1]] ? (1 - 2 * sgn[_nb[1]]) : 0); \
    int _vc = (sig[_nb[2]] ? (1 - 2 * sgn[_nb[2]]) : 0) \
            + (sig[_nb[3]] ? (1 - 2 * sgn[_nb[3]]) : 0); \
    if (_hc > 1) _hc = 1; else if (_hc < -1) _hc = -1; \
    if (_vc > 1) _vc = 1; else if (_vc < -1) _vc = -1; \
    int _k9 = (_hc + 1) * 3 + (_vc + 1); \
    int _sd; \
    MQ_DECODE(SIGN_CTX[_k9], _sd); \
    sgn[_i] = (uint8_t)(_sd ^ SIGN_XOR[_k9]); \
    sig[_i] = 1; \
    mag[_i] = (int64_t)1 << p; \
    prec[_i] = (uint8_t)p; \
    key[_nb[0]] += 15; key[_nb[1]] += 15; \
    key[_nb[2]] += 5;  key[_nb[3]] += 5; \
    key[_nb[4]] += 1;  key[_nb[5]] += 1; \
    key[_nb[6]] += 1;  key[_nb[7]] += 1; \
}} while (0)

/* Decode one block to its midpoint-reconstructed int32 samples.  The
   caller guarantees 1 <= msbs <= 62 (MAX_MSBS), 1 <= num_passes <=
   1 + 3 * (msbs - 1) and height * width <= MAXN. */
int t1_decode_block(const uint8_t *data, long dlen,
                    int height, int width, int msbs, int num_passes,
                    const uint8_t *lut, const int32_t *nbr, int32_t *out)
{{
    long n = (long)height * width;
    int32_t sig[MAXN + 1];
    int32_t key[MAXN + 1];
    uint8_t visited[MAXN];
    uint8_t refined[MAXN];
    uint8_t sgn[MAXN];
    uint8_t prec[MAXN];
    int64_t mag[MAXN];
    memset(sig, 0, (n + 1) * sizeof(int32_t));
    memset(key, 0, (n + 1) * sizeof(int32_t));
    memset(visited, 0, n);
    memset(refined, 0, n);
    memset(sgn, 0, n);
    memset(prec, 0, n);
    memset(mag, 0, n * sizeof(int64_t));

    int32_t index_[NCX];
    int32_t mps[NCX];
    memset(index_, 0, sizeof(index_));
    memset(mps, 0, sizeof(mps));
{init_states}

    /* MQ decoder INITDEC */
    long bp = 0;
    int b = dlen ? data[0] : 0xFF;
    uint32_t c = ((uint32_t)b) << 16;
    int ct = 0;
    if (b == 0xFF) {{
        if (((bp + 1 < dlen) ? data[bp + 1] : 0xFFu) > 0x8Fu) {{
            c += 0xFF00u; ct = 8;
        }} else {{
            bp += 1; b = data[bp];
            c += ((uint32_t)b) << 9; ct = 7;
        }}
    }} else {{
        bp += 1; b = (bp < dlen) ? data[bp] : 0xFF;
        c += ((uint32_t)b) << 8; ct = 8;
    }}
    c <<= 7;
    ct -= 7;
    uint32_t a = 0x8000;

    int passes_done = 0;
    for (int p = msbs - 1; p >= 0; p--) {{
        if (p != msbs - 1) {{
            /* Significance propagation pass */
            for (int top = 0; top < height; top += 4) {{
                int bot = (top + 4 < height) ? top + 4 : height;
                for (int col = 0; col < width; col++) {{
                    for (int r = top; r < bot; r++) {{
                        long i = (long)r * width + col;
                        if (sig[i]) {{ visited[i] = 0; continue; }}
                        int k = key[i];
                        if (!k) {{ visited[i] = 0; continue; }}
                        int d;
                        MQ_DECODE(lut[k], d);
                        if (d) BECOME_SIG(i);
                        visited[i] = 1;
                    }}
                }}
            }}
            passes_done += 1;
            if (passes_done >= num_passes) break;
            /* Magnitude refinement pass */
            for (int top = 0; top < height; top += 4) {{
                int bot = (top + 4 < height) ? top + 4 : height;
                for (int col = 0; col < width; col++) {{
                    for (int r = top; r < bot; r++) {{
                        long i = (long)r * width + col;
                        if (!sig[i] || visited[i]) continue;
                        int cx = refined[i] ? 16 : (key[i] ? 15 : 14);
                        int d;
                        MQ_DECODE(cx, d);
                        mag[i] |= ((int64_t)d) << p;
                        refined[i] = 1;
                        prec[i] = (uint8_t)p;
                    }}
                }}
            }}
            passes_done += 1;
            if (passes_done >= num_passes) break;
        }}
        /* Cleanup pass */
        for (int top = 0; top < height; top += 4) {{
            int nrows = (height - top < 4) ? height - top : 4;
            for (int col = 0; col < width; col++) {{
                long i0 = (long)top * width + col;
                int start = 0;
                if (nrows == 4) {{
                    long ia = i0, ib = i0 + width;
                    long ic = ib + width, id_ = ic + width;
                    if (!(sig[ia] | visited[ia] | key[ia]
                          | sig[ib] | visited[ib] | key[ib]
                          | sig[ic] | visited[ic] | key[ic]
                          | sig[id_] | visited[id_] | key[id_])) {{
                        int d;
                        MQ_DECODE(CTX_RUNLEN, d);
                        if (!d) continue;
                        int b1, b2;
                        MQ_DECODE(CTX_UNIFORM, b1);
                        MQ_DECODE(CTX_UNIFORM, b2);
                        int first = (b1 << 1) | b2;
                        BECOME_SIG(i0 + (long)first * width);
                        start = first + 1;
                    }}
                }}
                for (int k = start; k < nrows; k++) {{
                    long i = i0 + (long)k * width;
                    if (sig[i] || visited[i]) continue;
                    int d;
                    MQ_DECODE(lut[key[i]], d);
                    if (d) BECOME_SIG(i);
                }}
            }}
        }}
        passes_done += 1;
        if (passes_done >= num_passes) break;
    }}

    /* Midpoint reconstruction in int64, then narrowed to the low 32 bits
       two's complement, exactly as the reference's .astype(np.int32)
       (GCC and Clang define the signed conversion as modulo 2^32). */
    for (long i = 0; i < n; i++) {{
        int64_t v = 0;
        if (mag[i]) {{
            v = mag[i] + ((((int64_t)1) << prec[i]) >> 1);
            if (sgn[i]) v = -v;
        }}
        out[i] = (int32_t)(uint32_t)(uint64_t)v;
    }}
    return 0;
}}
"""


def _c_source() -> str:
    init_states = "\n".join(
        f"    index_[{cx}] = {state};"
        for cx, state in sorted(INITIAL_STATES.items())
    )
    return _C_TEMPLATE.format(
        nstates=len(STATE_TABLE),
        qe=", ".join(f"0x{q:04X}" for q, _, _, _ in STATE_TABLE),
        nmps=", ".join(str(v) for _, v, _, _ in STATE_TABLE),
        nlps=", ".join(str(v) for _, _, v, _ in STATE_TABLE),
        switch=", ".join(str(v) for _, _, _, v in STATE_TABLE),
        sign_ctx=", ".join(str(cx) for cx, _ in SIGN_LUT),
        sign_xor=", ".join(str(x) for _, x in SIGN_LUT),
        ncx=NUM_CONTEXTS,
        ctx_runlen=CTX_RUNLEN,
        ctx_uniform=CTX_UNIFORM,
        init_states=init_states,
    )


def _load():
    lib = build_library(_c_source(), "t1dec")
    if lib is None:
        return None
    fn = lib.t1_decode_block
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_char_p,  # data
        ctypes.c_long,  # dlen
        ctypes.c_int,  # height
        ctypes.c_int,  # width
        ctypes.c_int,  # msbs
        ctypes.c_int,  # num_passes
        ctypes.POINTER(ctypes.c_uint8),  # lut
        ctypes.POINTER(ctypes.c_int32),  # nbr
        ctypes.POINTER(ctypes.c_int32),  # out
    ]
    return fn


def _make_wrapper(fn):
    _i32p = ctypes.POINTER(ctypes.c_int32)
    _u8p = ctypes.POINTER(ctypes.c_uint8)

    def native_decode_block(
        data: bytes, height: int, width: int, lut: np.ndarray,
        nbr: np.ndarray, msbs: int, num_passes: int,
    ) -> np.ndarray:
        """Decode one block to its ``(height, width)`` int32 samples."""
        out = np.empty((height, width), dtype=np.int32)
        fn(
            bytes(data), len(data), height, width, msbs, num_passes,
            lut.ctypes.data_as(_u8p), nbr.ctypes.data_as(_i32p),
            out.ctypes.data_as(_i32p),
        )
        return out

    return native_decode_block


#: Deepest block the kernel takes: its int64 magnitude plus the half
#: interval of the reconstruction stays in range up to 62 bit planes.
#: Parsed codestreams stop at 38 (``decoder._MAX_BITPLANES``).
MAX_MSBS = 62

#: The compiled ``t1_decode_block``, or None when unavailable.
_fn = _load()

#: Callable ``(data, h, w, lut, nbr, msbs, num_passes) -> int32 samples``
#: or None when unavailable.
native_decode_block = None if _fn is None else _make_wrapper(_fn)
