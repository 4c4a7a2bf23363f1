"""Compiled kernel for whole-block Tier-1 encoding, and the package's build routine.

Tier-1 coding is serial within a code block: every MQ decision updates
the (A, C) interval registers the next decision reads, and every sample
that becomes significant changes the contexts of its neighbours.  When a C
compiler is present this module compiles the *entire* encode of one code
block (SPP/MRP/CUP over all bit planes, the MQ coder and its flush, the
per-pass truncation lengths, symbol counts and distortion reductions) to
native code at import and drives it through :mod:`ctypes`.  One call codes
one block, with a fixed per-block state footprint, like the paper's
constant Local-Store footprint per code block; parallelism comes from
running blocks on many workers (:mod:`repro.core.workpool`).

Design constraints:

* **Bit-exact**: the C code is a transliteration of the scalar reference
  coder (:func:`repro.jpeg2000.tier1.encode_codeblock_reference`), with
  incremental neighbour-count context keys in place of the reference's
  per-visit eight-neighbour sums.  The MQ state tables, sign LUT and
  context constants are generated from :mod:`repro.jpeg2000.mq`,
  :mod:`repro.jpeg2000.tier1` and :mod:`repro.jpeg2000.tier1_geom`, so
  there is one source of truth.  ``pass_dist`` is summed in double in
  the reference's scan order and the kernel is built with
  ``-ffp-contract=off``: lossy truncation compares those floats bit for
  bit, so no multiply-add may be fused.
* **Optional**: if no compiler is available, compilation fails, or the
  environment sets ``REPRO_MQ_NATIVE=0``, :data:`native_encode_block` is
  ``None`` and :mod:`repro.jpeg2000.tier1_batch` falls back to the scalar
  reference coder.  No third-party packages are involved — only the
  system C compiler.
* **Cached**: :func:`build_library` builds the shared object once per
  source hash in a per-user cache directory, so repeated processes (and
  multiprocessing workers under ``spawn``) just ``dlopen`` it.  The
  whole-block decode kernel (:mod:`repro.jpeg2000._t1_dec_native`) loads
  through the same routine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

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

_C_BODY = r"""
#define MAXN 4096
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


def _c_source() -> str:
    """The kernel's C source: tables generated from their Python sources."""
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
        f"#define INIT_STATES do {{ {init_states} }} while (0)",
        _C_BODY,
    ])


#: Compiler flags of every kernel.  ``-ffp-contract=off`` keeps each
#: multiply and add a separately rounded double operation, as in Python.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def build_library(src: str, stem: str):
    """Compile ``src`` (or load its cached build); the ``CDLL`` or None.

    The shared object is cached per source and flag hash in a per-user
    directory, so later processes (and ``spawn``-ed workers) only
    ``dlopen`` it.  No compiler, a failed build, an unloadable object or
    ``REPRO_MQ_NATIVE=0`` in the environment all return None, and callers
    fall back to the scalar oracles.  Every compiled kernel of the
    package loads through here.
    """
    if os.environ.get("REPRO_MQ_NATIVE", "1") == "0":
        return None
    tag = hashlib.sha256((" ".join(_CFLAGS) + src).encode()).hexdigest()[:16]
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"repro-mq-native-{os.getuid()}"
    )
    so_path = os.path.join(cache_dir, f"{stem}_{tag}.so")
    if not os.path.exists(so_path):
        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
        c_path = os.path.join(cache_dir, f"{stem}_{tag}_{os.getpid()}.c")
        tmp_so = so_path + f".{os.getpid()}.tmp"
        try:
            with open(c_path, "w") as fh:
                fh.write(src)
            subprocess.run(
                ["cc", *_CFLAGS, "-o", tmp_so, c_path],
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


def _load():
    lib = build_library(_c_source(), "t1enc")
    if lib is None:
        return None
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


#: The compiled ``t1_encode_block``, or None when unavailable.
_fns = _load()

#: Callable ``(coeffs, lut, nbr) -> CodeBlockResult | None`` or None when
#: unavailable.
native_encode_block = None if _fns is None else _make_wrapper(_fns)
