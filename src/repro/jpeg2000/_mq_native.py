"""The package's compiled library: Tier-1 block encode and decode and the
wavelet front end, built in one ``cc`` run.

Three kernels live here as C source, compiled together as one
translation unit into one shared object:

* ``t1_encode_block`` codes a whole code block (SPP/MRP/CUP over all bit
  planes, the MQ coder and its flush, the per-pass truncation lengths,
  symbol counts and distortion reductions), a transliteration of
  :func:`repro.jpeg2000.tier1.encode_codeblock_reference` with
  incremental neighbour-count context keys.  This module wraps it as
  :data:`native_encode_block`.
* ``t1_decode_block`` is its mirror, a transliteration of
  :func:`repro.jpeg2000.tier1.decode_codeblock`, wrapped by
  :mod:`repro.jpeg2000._t1_dec_native`.
* ``fe_forward`` / ``fe_inverse`` are the front end in each direction
  (level shift, MCT, every DWT level and quantization), the executable
  form of the paper's Section 4 lifting kernel over the column chunks of
  its Section 2 decomposition; :mod:`repro.jpeg2000.dwt_fast` drives
  them.

Tier-1 is serial within a block, so one call codes one block with a
fixed state footprint, like the paper's constant Local-Store footprint
per code block; parallelism comes from running blocks on many workers
(:mod:`repro.core.workpool`).

Design constraints:

* **Bit-exact**: every table and constant is generated from its Python
  source (:mod:`repro.jpeg2000.mq`, :mod:`repro.jpeg2000.tier1`,
  :mod:`repro.jpeg2000.tier1_geom`, :mod:`repro.jpeg2000.dwt`,
  :mod:`repro.jpeg2000.mct`; doubles through ``float.hex``), so there is
  one source of truth.  The library is built with ``-ffp-contract=off``
  and every double expression keeps the oracle's operation order:
  ``pass_dist`` is summed in the reference's scan order and each lifting
  step is ``x + c * (a + b)``, so no multiply-add is fused.
* **Optional**: if no compiler is available, compilation fails, or the
  environment sets ``REPRO_MQ_NATIVE=0``, :data:`_LIB` is ``None``, every
  binding is ``None`` and callers run the scalar oracles.  No third-party
  packages are involved — only the system C compiler.
* **Cached**: :func:`build_library` builds the shared object once per
  source hash in a per-user cache directory, so repeated processes just
  ``dlopen`` it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

from repro.jpeg2000 import dwt, mct
from repro.jpeg2000.mq import STATE_TABLE
from repro.jpeg2000.tier1 import (
    CTX_RUNLEN,
    CTX_UNIFORM,
    INITIAL_STATES,
    NUM_CONTEXTS,
    PASS_CLEAN,
    PASS_REF,
    PASS_SIG,
    CodeBlockResult,
)
from repro.jpeg2000.tier1_geom import SIGN_LUT

#: Deepest block the kernel codes: its uint64 magnitudes and the
#: reconstruction points of the distortion terms stay in range up to 62
#: bit planes.  Deeper blocks go to the scalar oracle.
MAX_MSBS = 62

#: Coding passes of the deepest block the kernel codes.
MAX_PASSES = 1 + 3 * (MAX_MSBS - 1)

#: Pass names by the kernel's pass-type code.
_PASS_NAMES = (PASS_SIG, PASS_REF, PASS_CLEAN)

#: Width of the front end's column chunks, in samples: the paper's chunks
#: are multiples of the 128-byte cache line (32 4-byte samples), and one
#: chunk of every row stays in cache across all lifting steps of a level.
CHUNK_COLS = 32

_T1_ENC_BODY = r"""
#define T1_TOO_DEEP (-1)
#define T1_OVERFLOW (-2)

#define EMIT(byte) do { \
    if (olen >= cap) return T1_OVERFLOW; \
    out[olen++] = (uint8_t)(byte); \
} while (0)

/* MQEncoder._byteout, on a 64-bit C register so the flush's unmasked
   shifts behave as on Python ints. */
#define BYTEOUT do { \
    if (b == 0xFF) { \
        EMIT(b); b = (int)((c >> 20) & 0xFF); c &= 0xFFFFFu; ct = 7; \
    } else if (c < 0x8000000u) { \
        if (b >= 0) EMIT(b); \
        b = (int)((c >> 19) & 0xFF); c &= 0x7FFFFu; ct = 8; \
    } else { \
        if (b >= 0) b += 1; \
        if (b == 0xFF) { \
            c &= 0x7FFFFFFu; \
            EMIT(b); b = (int)((c >> 20) & 0xFF); c &= 0xFFFFFu; ct = 7; \
        } else { \
            if (b >= 0) EMIT(b); \
            b = (int)((c >> 19) & 0xFF); c &= 0x7FFFFu; ct = 8; \
        } \
    } \
} while (0)

/* MQEncoder.encode: one decision, then renormalize. */
#define MQ_ENCODE(bitexp, cxexp) do { \
    int cx_ = (cxexp); \
    int idx_ = index_[cx_]; \
    uint32_t qe_ = QE[idx_]; \
    a -= qe_; \
    if ((int)(bitexp) == mps[cx_]) { \
        if (a & 0x8000u) { c += qe_; break; } \
        if (a < qe_) a = qe_; else c += qe_; \
        index_[cx_] = NMPS[idx_]; \
    } else { \
        if (a < qe_) c += qe_; else a = qe_; \
        if (SWITCH_[idx_]) mps[cx_] = 1 - mps[cx_]; \
        index_[cx_] = NLPS[idx_]; \
    } \
    do { \
        a = (a << 1) & 0xFFFFu; \
        c = (c << 1) & 0xFFFFFFFu; \
        if (--ct == 0) BYTEOUT; \
    } while (!(a & 0x8000u)); \
} while (0)

/* Sample i turns significant at plane p: code its sign, add its
   distortion reduction, and bump the eight neighbours' context keys
   (h * 15 + v * 5 + d, the index of the significance LUT). */
#define BECOME_SIG(iexp) do { \
    long i_ = (iexp); \
    const int32_t *nb_ = nbr + i_ * 8; \
    int hc_ = (sig[nb_[0]] ? 1 - 2 * sgn[nb_[0]] : 0) \
            + (sig[nb_[1]] ? 1 - 2 * sgn[nb_[1]] : 0); \
    int vc_ = (sig[nb_[2]] ? 1 - 2 * sgn[nb_[2]] : 0) \
            + (sig[nb_[3]] ? 1 - 2 * sgn[nb_[3]] : 0); \
    if (hc_ > 1) hc_ = 1; else if (hc_ < -1) hc_ = -1; \
    if (vc_ > 1) vc_ = 1; else if (vc_ < -1) vc_ = -1; \
    int k9_ = (hc_ + 1) * 3 + (vc_ + 1); \
    MQ_ENCODE(sgn[i_] ^ SIGN_XOR[k9_], SIGN_CTX[k9_]); \
    symbols += 1; \
    sig[i_] = 1; \
    dist += dist_become(mag[i_], p); \
    key[nb_[0]] += 15; key[nb_[1]] += 15; \
    key[nb_[2]] += 5;  key[nb_[3]] += 5; \
    key[nb_[4]] += 1;  key[nb_[5]] += 1; \
    key[nb_[6]] += 1;  key[nb_[7]] += 1; \
} while (0)

#define END_PASS(kind) do { \
    ptype[npass] = (kind); \
    plen[npass] = olen + (b >= 0) + 4; \
    psym[npass] = symbols; \
    pdist[npass] = dist; \
    npass += 1; \
    symbols = 0; \
    dist = 0.0; \
} while (0)

/* The reference's dist_become: v^2 - (v - midpoint)^2 in double. */
static double dist_become(uint64_t m, int p)
{
    double v = (double)m;
    int64_t rec = (int64_t)((m >> p) << p) + ((((int64_t)1) << p) >> 1);
    double e1 = v - (double)rec;
    return v * v - e1 * e1;
}

/* The reference's dist_refine: error at plane p+1 squared minus at p. */
static double dist_refine(uint64_t m, int p)
{
    double v = (double)m;
    int64_t rec_prev = (int64_t)((m >> (p + 1)) << (p + 1))
                     + ((((int64_t)1) << (p + 1)) >> 1);
    int64_t rec = (int64_t)((m >> p) << p) + ((((int64_t)1) << p) >> 1);
    double e0 = v - (double)rec_prev;
    double e1 = v - (double)rec;
    return e0 * e0 - e1 * e1;
}

/* Encode one block.  Returns its msbs (0: all zero, nothing coded),
   T1_TOO_DEEP past MAX_MSBS, or T1_OVERFLOW when the output would pass
   cap bytes.  Writes the flushed segment to out (*olen_out bytes) and,
   per pass, its type code (0 SPP, 1 MRP, 2 CUP), its truncation length,
   its symbol count and its distortion reduction.  The caller guarantees
   1 <= height * width <= MAXN. */
int t1_encode_block(const int64_t *coeffs, int height, int width,
                    const uint8_t *lut, const int32_t *nbr,
                    uint8_t *out, long cap, long *olen_out,
                    int64_t *ptype, int64_t *plen, int64_t *psym,
                    double *pdist)
{
    long n = (long)height * width;
    uint64_t mag[MAXN];
    uint8_t sgn[MAXN];
    uint8_t sig[MAXN + 1];
    uint8_t key[MAXN + 1];
    uint8_t visited[MAXN];
    uint8_t refined[MAXN];

    uint64_t bits = 0;
    for (long i = 0; i < n; i++) {
        int64_t v = coeffs[i];
        mag[i] = (v < 0) ? (uint64_t)0 - (uint64_t)v : (uint64_t)v;
        sgn[i] = (uint8_t)(v < 0);
        bits |= mag[i];
    }
    int msbs = 0;
    while (msbs < 64 && (bits >> msbs)) msbs++;
    if (msbs == 0) return 0;
    if (msbs > MAX_MSBS) return T1_TOO_DEEP;
    memset(sig, 0, n + 1);
    memset(key, 0, n + 1);
    memset(visited, 0, n);
    memset(refined, 0, n);

    int32_t index_[NCX];
    int32_t mps[NCX];
    memset(index_, 0, sizeof(index_));
    memset(mps, 0, sizeof(mps));
    INIT_STATES;

    uint32_t a = 0x8000u;
    uint64_t c = 0;
    int ct = 12;
    int b = -1;                    /* -1 encodes Python None */
    long olen = 0;
    int npass = 0;
    int64_t symbols = 0;
    double dist = 0.0;

    for (int p = msbs - 1; p >= 0; p--) {
        if (p != msbs - 1) {
            /* Significance propagation pass */
            for (int top = 0; top < height; top += 4) {
                int bot = (top + 4 < height) ? top + 4 : height;
                for (int col = 0; col < width; col++) {
                    for (int r = top; r < bot; r++) {
                        long i = (long)r * width + col;
                        if (sig[i]) { visited[i] = 0; continue; }
                        int cx = lut[key[i]];
                        if (!cx) { visited[i] = 0; continue; }
                        int bit = (int)((mag[i] >> p) & 1);
                        MQ_ENCODE(bit, cx);
                        symbols += 1;
                        if (bit) BECOME_SIG(i);
                        visited[i] = 1;
                    }
                }
            }
            END_PASS(0);
            /* Magnitude refinement pass */
            for (int top = 0; top < height; top += 4) {
                int bot = (top + 4 < height) ? top + 4 : height;
                for (int col = 0; col < width; col++) {
                    for (int r = top; r < bot; r++) {
                        long i = (long)r * width + col;
                        if (!sig[i] || visited[i]) continue;
                        int cx = refined[i] ? 16 : (key[i] ? 15 : 14);
                        MQ_ENCODE((mag[i] >> p) & 1, cx);
                        symbols += 1;
                        refined[i] = 1;
                        dist += dist_refine(mag[i], p);
                    }
                }
            }
            END_PASS(1);
        }
        /* Cleanup pass */
        for (int top = 0; top < height; top += 4) {
            int nrows = (height - top < 4) ? height - top : 4;
            for (int col = 0; col < width; col++) {
                long i0 = (long)top * width + col;
                int start = 0;
                if (nrows == 4) {
                    long ia = i0, ib = i0 + width;
                    long ic = ib + width, id_ = ic + width;
                    if (!(sig[ia] | visited[ia] | lut[key[ia]]
                          | sig[ib] | visited[ib] | lut[key[ib]]
                          | sig[ic] | visited[ic] | lut[key[ic]]
                          | sig[id_] | visited[id_] | lut[key[id_]])) {
                        int first = 0;
                        while (first < 4
                               && !((mag[i0 + (long)first * width] >> p) & 1))
                            first++;
                        if (first == 4) {
                            MQ_ENCODE(0, CTX_RUNLEN);
                            symbols += 1;
                            continue;
                        }
                        MQ_ENCODE(1, CTX_RUNLEN);
                        MQ_ENCODE((first >> 1) & 1, CTX_UNIFORM);
                        MQ_ENCODE(first & 1, CTX_UNIFORM);
                        symbols += 3;
                        BECOME_SIG(i0 + (long)first * width);
                        start = first + 1;
                    }
                }
                for (int k = start; k < nrows; k++) {
                    long i = i0 + (long)k * width;
                    if (sig[i] || visited[i]) continue;
                    int bit = (int)((mag[i] >> p) & 1);
                    MQ_ENCODE(bit, lut[key[i]]);
                    symbols += 1;
                    if (bit) BECOME_SIG(i);
                }
            }
        }
        END_PASS(2);
    }

    /* MQEncoder.flush: SETBITS, two byte-outs, the last byte, and no
       trailing 0xFF bytes (T.800 C.2.9). */
    uint64_t temp = c + a - 1;
    c |= 0xFFFFu;
    if (c > temp) c -= 0x8000u;
    c <<= ct;
    BYTEOUT;
    c <<= ct;
    BYTEOUT;
    if (b >= 0) EMIT(b);
    while (olen > 0 && out[olen - 1] == 0xFF) olen--;
    for (int k = 0; k < npass; k++)
        if (plen[k] > olen) plen[k] = olen;
    plen[npass - 1] = olen;
    *olen_out = olen;
    return msbs;
}
"""


_T1_DEC_BODY = r"""
#define MQ_RENORM do { \
    do { \
        if (ct == 0) { \
            if (b == 0xFF) { \
                if (((bp + 1 < dlen) ? data[bp + 1] : 0xFFu) > 0x8Fu) { \
                    c += 0xFF00u; ct = 8; \
                } else { \
                    bp += 1; b = data[bp]; \
                    c += ((uint32_t)b) << 9; ct = 7; \
                } \
            } else { \
                bp += 1; b = (bp < dlen) ? data[bp] : 0xFF; \
                c += ((uint32_t)b) << 8; ct = 8; \
            } \
        } \
        a = (a << 1) & 0xFFFFu; \
        c = c << 1; \
        ct -= 1; \
    } while (!(a & 0x8000u)); \
} while (0)

#define MQ_DECODE(cxe, dvar) do { \
    int _cx = (cxe); \
    int _idx = index_[_cx]; \
    uint32_t _qe = QE[_idx]; \
    a -= _qe; \
    if (((c >> 16) & 0xFFFFu) < _qe) { \
        if (a < _qe) { dvar = mps[_cx]; index_[_cx] = NMPS[_idx]; } \
        else { \
            dvar = 1 - mps[_cx]; \
            if (SWITCH_[_idx]) mps[_cx] = dvar; \
            index_[_cx] = NLPS[_idx]; \
        } \
        a = _qe; \
        MQ_RENORM; \
    } else { \
        c -= _qe << 16; \
        if (a & 0x8000u) { dvar = mps[_cx]; } \
        else { \
            if (a < _qe) { \
                dvar = 1 - mps[_cx]; \
                if (SWITCH_[_idx]) mps[_cx] = dvar; \
                index_[_cx] = NLPS[_idx]; \
            } else { dvar = mps[_cx]; index_[_cx] = NMPS[_idx]; } \
            MQ_RENORM; \
        } \
    } \
} while (0)

/* Sample i just decoded significant at plane p: decode its sign, record
   it, and bump the eight neighbours' incremental context keys. */
#define BECOME_SIG(iexp) do { \
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
} while (0)

/* Decode one block to its midpoint-reconstructed int32 samples.  The
   caller guarantees 1 <= msbs <= 62 (MAX_MSBS), 1 <= num_passes <=
   1 + 3 * (msbs - 1) and height * width <= MAXN. */
int t1_decode_block(const uint8_t *data, long dlen,
                    int height, int width, int msbs, int num_passes,
                    const uint8_t *lut, const int32_t *nbr, int32_t *out)
{
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
    INIT_STATES;

    /* MQ decoder INITDEC */
    long bp = 0;
    int b = dlen ? data[0] : 0xFF;
    uint32_t c = ((uint32_t)b) << 16;
    int ct = 0;
    if (b == 0xFF) {
        if (((bp + 1 < dlen) ? data[bp + 1] : 0xFFu) > 0x8Fu) {
            c += 0xFF00u; ct = 8;
        } else {
            bp += 1; b = data[bp];
            c += ((uint32_t)b) << 9; ct = 7;
        }
    } else {
        bp += 1; b = (bp < dlen) ? data[bp] : 0xFF;
        c += ((uint32_t)b) << 8; ct = 8;
    }
    c <<= 7;
    ct -= 7;
    uint32_t a = 0x8000;

    int passes_done = 0;
    for (int p = msbs - 1; p >= 0; p--) {
        if (p != msbs - 1) {
            /* Significance propagation pass */
            for (int top = 0; top < height; top += 4) {
                int bot = (top + 4 < height) ? top + 4 : height;
                for (int col = 0; col < width; col++) {
                    for (int r = top; r < bot; r++) {
                        long i = (long)r * width + col;
                        if (sig[i]) { visited[i] = 0; continue; }
                        int k = key[i];
                        if (!k) { visited[i] = 0; continue; }
                        int d;
                        MQ_DECODE(lut[k], d);
                        if (d) BECOME_SIG(i);
                        visited[i] = 1;
                    }
                }
            }
            passes_done += 1;
            if (passes_done >= num_passes) break;
            /* Magnitude refinement pass */
            for (int top = 0; top < height; top += 4) {
                int bot = (top + 4 < height) ? top + 4 : height;
                for (int col = 0; col < width; col++) {
                    for (int r = top; r < bot; r++) {
                        long i = (long)r * width + col;
                        if (!sig[i] || visited[i]) continue;
                        int cx = refined[i] ? 16 : (key[i] ? 15 : 14);
                        int d;
                        MQ_DECODE(cx, d);
                        mag[i] |= ((int64_t)d) << p;
                        refined[i] = 1;
                        prec[i] = (uint8_t)p;
                    }
                }
            }
            passes_done += 1;
            if (passes_done >= num_passes) break;
        }
        /* Cleanup pass */
        for (int top = 0; top < height; top += 4) {
            int nrows = (height - top < 4) ? height - top : 4;
            for (int col = 0; col < width; col++) {
                long i0 = (long)top * width + col;
                int start = 0;
                if (nrows == 4) {
                    long ia = i0, ib = i0 + width;
                    long ic = ib + width, id_ = ic + width;
                    if (!(sig[ia] | visited[ia] | key[ia]
                          | sig[ib] | visited[ib] | key[ib]
                          | sig[ic] | visited[ic] | key[ic]
                          | sig[id_] | visited[id_] | key[id_])) {
                        int d;
                        MQ_DECODE(CTX_RUNLEN, d);
                        if (!d) continue;
                        int b1, b2;
                        MQ_DECODE(CTX_UNIFORM, b1);
                        MQ_DECODE(CTX_UNIFORM, b2);
                        int first = (b1 << 1) | b2;
                        BECOME_SIG(i0 + (long)first * width);
                        start = first + 1;
                    }
                }
                for (int k = start; k < nrows; k++) {
                    long i = i0 + (long)k * width;
                    if (sig[i] || visited[i]) continue;
                    int d;
                    MQ_DECODE(lut[key[i]], d);
                    if (d) BECOME_SIG(i);
                }
            }
        }
        passes_done += 1;
        if (passes_done >= num_passes) break;
    }

    /* Midpoint reconstruction in int64, then narrowed to the low 32 bits
       two's complement, exactly as the reference's .astype(np.int32)
       (GCC and Clang define the signed conversion as modulo 2^32). */
    for (long i = 0; i < n; i++) {
        int64_t v = 0;
        if (mag[i]) {
            v = mag[i] + ((((int64_t)1) << prec[i]) >> 1);
            if (sgn[i]) v = -v;
        }
        out[i] = (int32_t)(uint32_t)(uint64_t)v;
    }
    return 0;
}
"""

_FE_LIFTING = r"""
#define CLAMP(i, n) ((i) < 0 ? 0 : (i) >= (n) ? (n) - 1 : (i))

/* x >> k (floor division by 2^k) of an int64 |x| < 2^62, through an
   unsigned shift: 2^62 is a multiple of 2^k, so adding it first and
   taking 2^(62-k) off after is exact, and the compiler can vectorize
   the logical shift where the baseline ISA has no int64 arithmetic one. */
#define FLOOR_SHR(x, k) \
    ((int64_t)(((uint64_t)(x) + ((uint64_t)1 << 62)) >> (k)) \
     - ((int64_t)1 << (62 - (k))))

/* One lifting step over m side-by-side signals: x holds nx rows of m
   samples, y the ny rows of the other parity, and row k of x is updated
   by STEP from a and b, its neighbours in rows k - shift and k - shift + 1
   of y (shift 0 for a step on the odd, high samples, 1 for one on the
   even, low samples).  Past either end of y the whole-sample symmetric
   extension reflects onto the edge row, so an edge row pairs with
   itself: the doubling of T.800 Annex F.  Rows with both neighbours
   inside y, [k0, k1), run as one flat loop; the edge rows after it. */
#define DEF_LIFT(NAME, T, STEP) \
static void NAME(T *restrict x, const T *restrict y, long nx, long ny, \
                 long m, long shift, double c) \
{ \
    long k0 = shift < nx ? shift : nx; \
    long k1 = ny - 1 + shift < nx ? ny - 1 + shift : nx; \
    if (k1 < k0) k1 = k0; \
    const T *y0 = y - shift * m; \
    for (long e = k0 * m; e < k1 * m; e++) { \
        T a = y0[e], b = y0[e + m]; \
        x[e] STEP; \
    } \
    long from[2] = {0, k1}, to[2] = {k0, nx}; \
    for (int r = 0; r < 2; r++) \
        for (long k = from[r]; k < to[r]; k++) { \
            const T *ya = y + CLAMP(k - shift, ny) * m; \
            const T *yb = y + CLAMP(k - shift + 1, ny) * m; \
            for (long j = 0; j < m; j++) { \
                T a = ya[j], b = yb[j]; \
                x[k * m + j] STEP; \
            } \
        } \
    (void)c; \
}

/* 9/7: x + c * (a + b), the oracle's order.  Synthesis passes -c:
   x + (-c) * s is the same double as the oracle's x - c * s. */
DEF_LIFT(lift97, double, += c * (a + b))
/* 5/3 analysis in int32 (the caller keeps depth + levels within the
   oracle's int32 headroom); synthesis in int64, as the oracle does for
   any input, since decoded coefficients are unbounded. */
DEF_LIFT(predict53, int32_t, -= (a + b) >> 1)
DEF_LIFT(update53, int32_t, += (a + b + 2) >> 2)
DEF_LIFT(unupdate53, int64_t, -= FLOOR_SHR(a + b + 2, 2))
DEF_LIFT(unpredict53, int64_t, += FLOOR_SHR(a + b, 1))

/* Analysis of lo/hi in place (ns even-position rows, nd odd ones, n = ns
   + nd >= 2); the 9/7 K scaling is the caller's. */
static void fwd53(int32_t *lo, int32_t *hi, long ns, long nd, long m)
{
    predict53(hi, lo, nd, ns, m, 0, 0);
    update53(lo, hi, ns, nd, m, 1, 0);
}

static void fwd97(double *lo, double *hi, long ns, long nd, long m)
{
    lift97(hi, lo, nd, ns, m, 0, LIFT_ALPHA);
    lift97(lo, hi, ns, nd, m, 1, LIFT_BETA);
    lift97(hi, lo, nd, ns, m, 0, LIFT_GAMMA);
    lift97(lo, hi, ns, nd, m, 1, LIFT_DELTA);
}

/* Synthesis: the analysis steps undone in reverse order. */
static void inv53(int64_t *lo, int64_t *hi, long ns, long nd, long m)
{
    unupdate53(lo, hi, ns, nd, m, 1, 0);
    unpredict53(hi, lo, nd, ns, m, 0, 0);
}

static void inv97(double *lo, double *hi, long ns, long nd, long m)
{
    lift97(lo, hi, ns, nd, m, 1, -LIFT_DELTA);
    lift97(hi, lo, nd, ns, m, 0, -LIFT_GAMMA);
    lift97(lo, hi, ns, nd, m, 1, -LIFT_BETA);
    lift97(hi, lo, nd, ns, m, 0, -LIFT_ALPHA);
}

/* The source samples of one tile: up to three components sharing a
   sample type (kind = bytes per sample: uint8, uint16 or int32). */
typedef struct {
    const char *base[3];
    long rs[3], cs[3];
    int ncomp, kind;
    int32_t half;
} Src;

/* Row i, columns j0..j0+n-1 (n <= CHUNK) of component c, level shifted. */
static void shifted(const Src *s, int c, long i, long j0, long n, int32_t *dst)
{
    const char *p = s->base[c] + i * s->rs[c] + j0 * s->cs[c];
    long cs = s->cs[c];
    if (s->kind == 1)
        for (long j = 0; j < n; j++) dst[j] = *(const uint8_t *)(p + j * cs);
    else if (s->kind == 2)
        for (long j = 0; j < n; j++) dst[j] = *(const uint16_t *)(p + j * cs);
    else
        for (long j = 0; j < n; j++) dst[j] = *(const int32_t *)(p + j * cs);
    for (long j = 0; j < n; j++) dst[j] -= s->half;
}

/* The same row of component c after the merged level shift and RCT
   (mct.forward_mct's integer path). */
static void rct_row(const Src *s, int c, long i, long j0, long n, int32_t *dst)
{
    if (s->ncomp == 1) { shifted(s, 0, i, j0, n, dst); return; }
    int32_t r[CHUNK], g[CHUNK], b[CHUNK];
    shifted(s, 0, i, j0, n, r);
    shifted(s, 1, i, j0, n, g);
    shifted(s, 2, i, j0, n, b);
    for (long j = 0; j < n; j++)
        dst[j] = c == 0 ? (r[j] + 2 * g[j] + b[j]) >> 2
               : c == 1 ? b[j] - g[j] : r[j] - g[j];
}

/* ... and after the ICT, row c of the matrix as mct._matrix_rows. */
static void ict_row(const Src *s, int c, long i, long j0, long n, double *dst)
{
    int32_t r[CHUNK], g[CHUNK], b[CHUNK];
    shifted(s, 0, i, j0, n, r);
    if (s->ncomp == 1) {
        for (long j = 0; j < n; j++) dst[j] = r[j];
        return;
    }
    shifted(s, 1, i, j0, n, g);
    shifted(s, 2, i, j0, n, b);
    const double *m = ICT_FWD[c];
    for (long j = 0; j < n; j++)
        dst[j] = (double)r[j] * m[0] + (double)g[j] * m[1]
               + (double)b[j] * m[2];
}
"""

#: The level passes of the front end, compiled once per filter: the
#: macros of :data:`_FE_FILTERS` give the plane type ``T``, the synthesis
#: working type ``W``, the lifting and the scaling, quantizing and
#: narrowing stores.
_FE_PASSES = r"""
/* Analysis of every component of s.  Per level, the vertical pass lifts
   column chunks of CHUNK samples (the first level reads them through the
   merged level shift + MCT) and the horizontal pass lifts rows; final
   bands are stored through QUANT.  bands holds 3 * levels + 1 outputs
   per component, HL LH HH of level 1 first and LL last, and steps their
   quantizer steps in the same order.  work holds fe_work(0, ...) bytes. */
static void FORWARD(const Src *s, long h, long w, int levels,
                    const double *steps, int32_t *const *bands, char *work)
{
    long nbands = 3L * levels + 1;
    T *scr = (T *)work;
    T *v = scr + SCRATCH(h, w);
    T *ll = v + h * w;
    for (int c = 0; c < s->ncomp; c++) {
        int32_t *const *out = bands + c * nbands;
        for (long c0 = 0; levels == 0 && c0 < w; c0 += CHUNK) {
            long cw = w - c0 < CHUNK ? w - c0 : CHUNK;
            for (long i = 0; i < h; i++) {
                ROW(s, c, i, c0, cw, scr);
                for (long j = 0; j < cw; j++)
                    out[0][i * w + c0 + j] = QUANT(scr[j], steps[0]);
            }
        }
        long ph = h, pw = w;
        for (int l = 1; l <= levels; l++) {
            long ns_v = (ph + 1) / 2, nd_v = ph / 2;
            long ns_h = (pw + 1) / 2, nd_h = pw / 2;
            /* Vertical: each chunk is split into its low rows, then its
               high rows, lifted, and copied into v in that row order. */
            for (long c0 = 0; c0 < pw; c0 += CHUNK) {
                long cw = pw - c0 < CHUNK ? pw - c0 : CHUNK;
                T *lo = scr, *hi = scr + ns_v * cw;
                for (long i = 0; i < ph; i++) {
                    T *row = (i & 1 ? hi : lo) + (i >> 1) * cw;
                    if (l == 1) ROW(s, c, i, c0, cw, row);
                    else memcpy(row, ll + i * pw + c0, sizeof(T) * cw);
                }
                if (ph > 1) {
                    LIFT(lo, hi, ns_v, nd_v, cw);
                    for (long e = 0; e < ns_v * cw; e++) lo[e] = LO(lo[e]);
                    for (long e = 0; e < nd_v * cw; e++) hi[e] = HI(hi[e]);
                }
                for (long i = 0; i < ph; i++)
                    memcpy(v + i * pw + c0, scr + i * cw, sizeof(T) * cw);
            }
            /* Horizontal: low rows of v give LL (the next level's input,
               or final) and HL, high rows LH and HH. */
            int32_t *const *b = out + 3 * (l - 1);
            const double *st = steps + 3 * (l - 1);
            for (long r = 0; r < ph; r++) {
                T *lo = scr, *hi = scr + ns_h;
                const T *src = v + r * pw;
                for (long k = 0; k < ns_h; k++) lo[k] = src[2 * k];
                for (long k = 0; k < nd_h; k++) hi[k] = src[2 * k + 1];
                if (pw > 1) {
                    LIFT(lo, hi, ns_h, nd_h, 1);
                    for (long k = 0; k < ns_h; k++) lo[k] = LO(lo[k]);
                    for (long k = 0; k < nd_h; k++) hi[k] = HI(hi[k]);
                }
                int low = r < ns_v;
                long rr = low ? r : r - ns_v;
                int32_t *lb = low ? out[nbands - 1] : b[1];
                double ls = low ? steps[nbands - 1] : st[1];
                if (low && l < levels)
                    memcpy(ll + rr * ns_h, lo, sizeof(T) * ns_h);
                else
                    for (long k = 0; k < ns_h; k++)
                        lb[rr * ns_h + k] = QUANT(lo[k], ls);
                int32_t *hb = low ? b[0] : b[2];
                double hs = low ? st[0] : st[2];
                for (long k = 0; k < nd_h; k++)
                    hb[rr * nd_h + k] = QUANT(hi[k], hs);
            }
            ph = ns_v;
            pw = ns_h;
        }
    }
}

/* One horizontal synthesis pass: rows of (ll, hl) and of (lh, hh), the
   bands of a level whose plane is ph x pw, interleave into the low rows,
   then the high rows, of v. */
static void UNROWS(const T *ll, const T *const *b, long ph, long pw, T *v,
                   W *scr)
{
    long ns_v = (ph + 1) / 2, ns_h = (pw + 1) / 2, nd_h = pw / 2;
    for (long r = 0; r < ph; r++) {
        int low = r < ns_v;
        long rr = low ? r : r - ns_v;
        const T *a = low ? ll + rr * ns_h : b[1] + rr * ns_h;
        const T *d = low ? b[0] + rr * nd_h : b[2] + rr * nd_h;
        T *dst = v + r * pw;
        if (pw == 1) { dst[0] = a[0]; continue; }
        W *lo = scr, *hi = scr + ns_h;
        for (long k = 0; k < ns_h; k++) lo[k] = UNLO(a[k]);
        for (long k = 0; k < nd_h; k++) hi[k] = UNHI(d[k]);
        UNLIFT(lo, hi, ns_h, nd_h, 1);
        for (long k = 0; k < ns_h; k++) dst[2 * k] = NARROW(lo[k]);
        for (long k = 0; k < nd_h; k++) dst[2 * k + 1] = NARROW(hi[k]);
    }
}

/* One vertical synthesis of columns c0..c0+cw-1 of v (ph rows: low, then
   high) into dst rows of dst_stride samples. */
static void UNCOLS(const T *v, long ph, long pw, long c0, long cw, T *dst,
                   long dst_stride, W *scr)
{
    long ns_v = (ph + 1) / 2, nd_v = ph / 2;
    if (ph == 1) { memcpy(dst, v + c0, sizeof(T) * cw); return; }
    for (long i = 0; i < ph; i++)
        for (long j = 0; j < cw; j++)
            scr[i * cw + j] = i < ns_v ? UNLO(v[i * pw + c0 + j])
                                       : UNHI(v[i * pw + c0 + j]);
    UNLIFT(scr, scr + ns_v * cw, ns_v, nd_v, cw);
    for (long i = 0; i < ph; i++)
        for (long j = 0; j < cw; j++)
            dst[i * dst_stride + j] =
                NARROW(scr[(i & 1 ? ns_v + i / 2 : i / 2) * cw + j]);
}

/* Synthesis of one component up to its last vertical pass: levels down
   to 2 into plane (through vq), both of ((h + 1) / 2) * ((w + 1) / 2)
   samples, then level 1's horizontal pass into v (h x w).  Returns v,
   or the LL band itself when levels is 0. */
static const T *INVERSE(long h, long w, int levels, const T *const *bands,
                        T *v, T *plane, T *vq, W *scr)
{
    const T *ll = bands[3 * levels];
    for (int l = levels; l >= 1; l--) {
        long ph = h, pw = w;
        for (int i = 1; i < l; i++) { ph = (ph + 1) / 2; pw = (pw + 1) / 2; }
        const T *const *b = bands + 3 * (l - 1);
        if (l == 1) {
            UNROWS(ll, b, ph, pw, v, scr);
            return v;
        }
        UNROWS(ll, b, ph, pw, vq, scr);
        for (long c0 = 0; c0 < pw; c0 += CHUNK)
            UNCOLS(vq, ph, pw, c0, pw - c0 < CHUNK ? pw - c0 : CHUNK,
                   plane + c0, pw, scr);
        ll = plane;
    }
    return ll;
}
"""

_FE_FILTERS = (
    {"T": "int32_t", "W": "int64_t", "FORWARD": "forward53",
     "INVERSE": "inverse53", "UNROWS": "unrows53", "UNCOLS": "uncols53",
     "ROW": "rct_row", "LIFT": "fwd53", "UNLIFT": "inv53",
     "LO(x)": "(x)", "HI(x)": "(x)", "QUANT(x, step)": "((void)(step), (x))",
     "UNLO(x)": "((int64_t)(x))", "UNHI(x)": "((int64_t)(x))",
     "NARROW(x)": "((int32_t)(uint32_t)(uint64_t)(x))"},
    {"T": "double", "W": "double", "FORWARD": "forward97",
     "INVERSE": "inverse97", "UNROWS": "unrows97", "UNCOLS": "uncols97",
     "ROW": "ict_row", "LIFT": "fwd97", "UNLIFT": "inv97",
     "LO(x)": "((x) * INV_K)", "HI(x)": "((x) * LIFT_K)",
     "QUANT(x, step)": "((int32_t)((x) / (step)))",
     "UNLO(x)": "((x) * LIFT_K)", "UNHI(x)": "((x) * INV_K)",
     "NARROW(x)": "(x)"},
)

_FE_ENTRY = r"""
/* One 1-D lifting transform of m side-by-side signals in place (as fwd53
   and its kin; no K scaling), exported for the differential tests: lo
   and hi are int32 for 5/3 analysis, int64 for 5/3 synthesis and double
   for 9/7, and ns + nd >= 2. */
void fe_lift(int lossless, int inverse, void *lo, void *hi, long ns, long nd,
             long m)
{
    if (lossless && inverse) inv53(lo, hi, ns, nd, m);
    else if (lossless) fwd53(lo, hi, ns, nd, m);
    else if (inverse) inv97(lo, hi, ns, nd, m);
    else fwd97(lo, hi, ns, nd, m);
}

/* Bytes of the work buffer fe_forward (inverse 0) or fe_inverse (1)
   needs for ncomp h x w components.  The caller allocates it, so large
   buffers come from NumPy, which asks the kernel for huge pages. */
long fe_work(int inverse, int ncomp, long h, long w, int lossless)
{
    long t = lossless ? (long)sizeof(int32_t) : (long)sizeof(double);
    long wsz = lossless && inverse ? (long)sizeof(int64_t) : t;
    long scr = SCRATCH(h, w) * wsz;
    long quarter = ((h + 1) / 2) * ((w + 1) / 2);
    if (!inverse) return scr + t * (h * w + quarter);
    /* 5/3 synthesis keeps level 1's rows in out itself (see fe_inverse). */
    return scr + t * ((lossless ? 0 : ncomp * h * w) + 2 * quarter
                      + ncomp * h * CHUNK);
}

/* Forward front end of one tile (see FORWARD).  base, strides (row and
   column, in bytes) and kind describe the ncomp source components. */
void fe_forward(int ncomp, const char *const *base, const long *strides,
                int kind, int depth, long h, long w, int lossless, int levels,
                const double *steps, int32_t *const *bands, char *work)
{
    Src s = {{0}, {0}, {0}, ncomp, kind, (int32_t)1 << (depth - 1)};
    for (int c = 0; c < ncomp; c++) {
        s.base[c] = base[c];
        s.rs[c] = strides[2 * c];
        s.cs[c] = strides[2 * c + 1];
    }
    if (lossless) forward53(&s, h, w, levels, steps, bands, work);
    else forward97(&s, h, w, levels, steps, bands, work);
}

/* The level unshift and clip of one sample: an int64 narrowed to int32
   and shifted with NumPy's int32 wrap, or a double after rint. */
static inline int32_t unshift_int(int64_t x, int32_t half, int32_t top)
{
    int32_t y = (int32_t)((uint32_t)(int32_t)(uint32_t)x + (uint32_t)half);
    return y < 0 ? 0 : y > top ? top : y;
}

static inline int32_t unshift_real(double x, int32_t half, int32_t top)
{
    double y = rint(x) + half;
    return (int32_t)(y < 0 ? 0.0 : y > top ? (double)top : y);
}

/* Inverse MCT (mct.inverse_mct: the RCT in int64 narrowed to int32, or
   the ICT row by row), rint, level unshift and clip of an h x cw block:
   p[c] holds component c's samples (int32 for 5/3, double for 9/7) in
   rows of cw, out[c] its output in rows of w. */
static void unshift(int ncomp, int lossless, const void *const *p, long h,
                    long cw, long w, int depth, int32_t *const *out)
{
    int32_t half = 1 << (depth - 1), top = (1 << depth) - 1;
    for (long i = 0; i < h; i++) {
        long a = i * cw, o = i * w;
        if (lossless) {
            const int32_t *y = (const int32_t *)p[0] + a;
            if (ncomp == 1) {
                for (long j = 0; j < cw; j++)
                    out[0][o + j] = unshift_int(y[j], half, top);
                continue;
            }
            const int32_t *u = (const int32_t *)p[1] + a;
            const int32_t *v = (const int32_t *)p[2] + a;
            for (long j = 0; j < cw; j++) {
                int64_t g = (int64_t)y[j] - (((int64_t)u[j] + v[j]) >> 2);
                out[0][o + j] = unshift_int(v[j] + g, half, top);
                out[1][o + j] = unshift_int(g, half, top);
                out[2][o + j] = unshift_int(u[j] + g, half, top);
            }
        } else {
            const double *y = (const double *)p[0] + a;
            if (ncomp == 1) {
                for (long j = 0; j < cw; j++)
                    out[0][o + j] = unshift_real(y[j], half, top);
                continue;
            }
            const double *cb = (const double *)p[1] + a;
            const double *cr = (const double *)p[2] + a;
            for (int c = 0; c < 3; c++) {
                const double *m = ICT_INV[c];
                for (long j = 0; j < cw; j++)
                    out[c][o + j] = unshift_real(
                        y[j] * m[0] + cb[j] * m[1] + cr[j] * m[2], half, top);
            }
        }
    }
}

/* Inverse front end of one tile (bands laid out as in fe_forward, int32
   for 5/3 and double for 9/7): each component is synthesized up to its
   last vertical pass (INVERSE); that pass then runs chunk by chunk for
   all components together, and each chunk's rows go straight through
   the inverse MCT, rint, level unshift and clip into out.  On the 5/3
   path level 1's horizontal pass writes into out, whose int32 planes a
   chunk's columns leave before its results come back.  work holds
   fe_work(1, ...) bytes. */
void fe_inverse(int ncomp, int depth, long h, long w, int lossless,
                int levels, const void *const *bands, int32_t *const *out,
                char *work)
{
    long n = h * w, nq = ((h + 1) / 2) * ((w + 1) / 2);
    long nbands = 3L * levels + 1;
    size_t t = lossless ? sizeof(int32_t) : sizeof(double);
    void *scr = work;
    char *v = work + SCRATCH(h, w) * (lossless ? sizeof(int64_t) : t);
    char *quarter = lossless ? v : v + t * n * ncomp;
    char *chunks = quarter + t * nq * 2;
    const void *vc[3];
    for (int c = 0; c < ncomp; c++) {
        const void *const *cb = bands + c * nbands;
        char *vcomp = lossless ? (char *)out[c] : v + t * n * c;
        char *vq = quarter + t * nq;
        vc[c] = lossless
            ? (const void *)inverse53(h, w, levels, (const int32_t *const *)cb,
                                      (int32_t *)vcomp, (int32_t *)quarter,
                                      (int32_t *)vq, scr)
            : (const void *)inverse97(h, w, levels, (const double *const *)cb,
                                      (double *)vcomp, (double *)quarter,
                                      (double *)vq, scr);
    }
    for (long c0 = 0; c0 < w; c0 += CHUNK) {
        long cw = w - c0 < CHUNK ? w - c0 : CHUNK;
        const void *p[3];
        for (int c = 0; c < ncomp; c++) {
            char *dst = chunks + t * h * CHUNK * c;
            p[c] = dst;
            /* Level 0 has no vertical pass: the chunk is the LL band's. */
            if (levels == 0)
                for (long i = 0; i < h; i++)
                    memcpy(dst + t * i * cw,
                           (const char *)vc[c] + t * (i * w + c0), t * cw);
            else if (lossless)
                uncols53(vc[c], h, w, c0, cw, (int32_t *)dst, cw, scr);
            else
                uncols97(vc[c], h, w, c0, cw, (double *)dst, cw, scr);
        }
        int32_t *o[3];
        for (int c = 0; c < ncomp; c++) o[c] = out[c] + c0;
        unshift(ncomp, lossless, p, h, cw, w, depth, o);
    }
}
"""


def _tier1_header() -> str:
    """Tables and constants both Tier-1 kernels read, from their Python
    sources."""
    init_states = " ".join(
        f"index_[{cx}] = {state};" for cx, state in sorted(INITIAL_STATES.items())
    )
    return "\n".join([
        "#include <stdint.h>",
        "#include <string.h>",
        f"static const uint16_t QE[{len(STATE_TABLE)}] = "
        f"{{{', '.join(f'0x{q:04X}' for q, _, _, _ in STATE_TABLE)}}};",
        f"static const uint8_t NMPS[{len(STATE_TABLE)}] = "
        f"{{{', '.join(str(v) for _, v, _, _ in STATE_TABLE)}}};",
        f"static const uint8_t NLPS[{len(STATE_TABLE)}] = "
        f"{{{', '.join(str(v) for _, _, v, _ in STATE_TABLE)}}};",
        f"static const uint8_t SWITCH_[{len(STATE_TABLE)}] = "
        f"{{{', '.join(str(v) for _, _, _, v in STATE_TABLE)}}};",
        f"static const uint8_t SIGN_CTX[9] = "
        f"{{{', '.join(str(cx) for cx, _ in SIGN_LUT)}}};",
        f"static const uint8_t SIGN_XOR[9] = "
        f"{{{', '.join(str(x) for _, x in SIGN_LUT)}}};",
        f"#define NCX {NUM_CONTEXTS}",
        f"#define CTX_RUNLEN {CTX_RUNLEN}",
        f"#define CTX_UNIFORM {CTX_UNIFORM}",
        f"#define MAX_MSBS {MAX_MSBS}",
        "#define MAXN 4096",
        f"#define INIT_STATES do {{ {init_states} }} while (0)",
    ])


def _frontend_source() -> str:
    """The front end's C source; constants written with ``float.hex`` from
    :mod:`repro.jpeg2000.dwt` and :mod:`repro.jpeg2000.mct`, so they are
    the Python doubles bit for bit."""

    def const(name: str, value: float) -> str:
        return f"static const double {name} = {float(value).hex()};"

    def matrix(name: str, m) -> str:
        rows = ", ".join(
            "{" + ", ".join(float(v).hex() for v in row) + "}" for row in m
        )
        return f"static const double {name}[3][3] = {{{rows}}};"

    passes = []
    for macros in _FE_FILTERS:
        passes += [f"#define {k} {v}" for k, v in macros.items()]
        passes.append(_FE_PASSES)
        passes += [f"#undef {k.split('(')[0]}" for k in macros]
    return "\n".join([
        "#include <math.h>",
        "#include <stdint.h>",
        "#include <string.h>",
        const("LIFT_ALPHA", dwt.LIFT_ALPHA),
        const("LIFT_BETA", dwt.LIFT_BETA),
        const("LIFT_GAMMA", dwt.LIFT_GAMMA),
        const("LIFT_DELTA", dwt.LIFT_DELTA),
        const("LIFT_K", dwt.LIFT_K),
        const("INV_K", 1.0 / dwt.LIFT_K),
        matrix("ICT_FWD", mct._ICT_FWD),
        matrix("ICT_INV", mct._ICT_INV),
        f"#define CHUNK {CHUNK_COLS}",
        "/* Samples of lifting scratch: a column chunk, or a row. */",
        "#define SCRATCH(h, w) ((h) * CHUNK > (w) ? (h) * CHUNK : (w))",
        _FE_LIFTING,
        *passes,
        _FE_ENTRY,
    ])


#: Compiler flags of every kernel.  ``-ffp-contract=off`` keeps each
#: multiply and add a separately rounded double operation, as in Python;
#: ``-O3`` vectorizes the front end's lifting loops (their trip counts are
#: not multiples of the vector width, which ``-O2`` declines), and
#: neither reassociates floating-point arithmetic.
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def build_library(src: str):
    """Compile ``src`` into a shared object in one ``cc`` run, or load its
    cached build; the ``CDLL`` or None.

    The shared object is cached per source and flag hash in a per-user
    directory, so later processes (and ``spawn``-ed workers) only
    ``dlopen`` it.  No compiler, a failed build, an unloadable object or
    ``REPRO_MQ_NATIVE=0`` in the environment all return None, and callers
    fall back to the oracles.
    """
    if os.environ.get("REPRO_MQ_NATIVE", "1") == "0":
        return None
    tag = hashlib.sha256((" ".join(_CFLAGS) + src).encode()).hexdigest()[:16]
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"repro-mq-native-{os.getuid()}"
    )
    so_path = os.path.join(cache_dir, f"repro_{tag}.so")
    if not os.path.exists(so_path):
        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
        c_path = os.path.join(cache_dir, f"repro_{tag}_{os.getpid()}.c")
        tmp_so = so_path + f".{os.getpid()}.tmp"
        try:
            with open(c_path, "w") as fh:
                fh.write(src)
            subprocess.run(
                ["cc", *_CFLAGS, "-o", tmp_so, c_path, "-lm"],
                check=True,
                capture_output=True,
                timeout=60,
            )
            os.replace(tmp_so, so_path)  # atomic vs. concurrent builders
        except (OSError, subprocess.SubprocessError):
            return None
        finally:
            for path in (c_path, tmp_so):
                try:
                    os.unlink(path)
                except OSError:
                    pass
    try:
        return ctypes.CDLL(so_path)
    except OSError:
        return None


def _bind_encode(lib):
    fn = lib.t1_encode_block
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_void_p,  # coeffs (int64)
        ctypes.c_int,  # height
        ctypes.c_int,  # width
        ctypes.c_void_p,  # lut (uint8)
        ctypes.c_void_p,  # nbr (int32)
        ctypes.c_void_p,  # out (uint8)
        ctypes.c_long,  # cap
        ctypes.POINTER(ctypes.c_long),  # olen
        ctypes.c_void_p,  # ptype (int64)
        ctypes.c_void_p,  # plen (int64)
        ctypes.c_void_p,  # psym (int64)
        ctypes.c_void_p,  # pdist (double)
    ]
    return fn


def _make_wrapper(fn):
    def native_encode_block(
        arr: np.ndarray, lut: np.ndarray, nbr: np.ndarray
    ) -> CodeBlockResult | None:
        """Encode one non-empty block; None when it is all zero or deeper
        than :data:`MAX_MSBS` (the scalar oracle codes those)."""
        height, width = arr.shape
        coeffs = arr.astype(np.int64, order="C", copy=False)
        # Every sample is coded at most once per plane, with at most 2.5
        # decisions (a run-length stripe: 4 decisions for its first
        # significant sample, 2 for each of the other three), and one
        # decision renormalizes at most 15 times, emitting a byte per 7
        # shifts at worst: 6 bytes per sample per plane bounds the segment.
        # Only the pages the segment touches are ever committed.
        cap = 6 * height * width * MAX_MSBS + 64
        out = np.empty(cap, dtype=np.uint8)
        info = np.empty((3, MAX_PASSES), dtype=np.int64)
        pdist = np.empty(MAX_PASSES, dtype=np.float64)
        olen = ctypes.c_long(0)
        base = info.ctypes.data
        msbs = fn(
            coeffs.ctypes.data, height, width, lut.ctypes.data,
            nbr.ctypes.data, out.ctypes.data, cap, ctypes.byref(olen),
            base, base + 8 * MAX_PASSES, base + 16 * MAX_PASSES,
            pdist.ctypes.data,
        )
        if msbs == -2:
            raise RuntimeError("tier-1 kernel overran its output bound")
        if msbs <= 0:
            return None
        npass = 1 + 3 * (msbs - 1)
        types, lengths, symbols = info[:, :npass].tolist()
        return CodeBlockResult(
            data=out[: olen.value].tobytes(),
            num_passes=npass,
            msbs=msbs,
            pass_types=[_PASS_NAMES[t] for t in types],
            pass_lengths=lengths,
            pass_dist=pdist[:npass].tolist(),
            pass_symbols=symbols,
        )

    return native_encode_block


#: The package's one shared object (Tier-1 encode, Tier-1 decode and the
#: front end), or None when unavailable.
_LIB = build_library("\n".join([
    _tier1_header(),
    _T1_ENC_BODY,
    "#undef BECOME_SIG",  # the decoder's differs
    _T1_DEC_BODY,
    _frontend_source(),
]))

#: The compiled ``t1_encode_block``, or None when unavailable.
_fns = None if _LIB is None else _bind_encode(_LIB)

#: Callable ``(coeffs, lut, nbr) -> CodeBlockResult | None`` or None when
#: unavailable.
native_encode_block = None if _fns is None else _make_wrapper(_fns)
