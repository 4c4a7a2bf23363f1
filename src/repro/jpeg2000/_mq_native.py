"""Optional compiled kernel for the batched MQ encoder loop.

The MQ coder is the one part of Tier-1 that cannot be vectorized: every
decision updates the (A, C) interval registers that the next decision
reads.  :meth:`repro.jpeg2000.mq.MQEncoder.encode_run` therefore consumes
the whole per-pass decision stream in one loop — and this module, when a C
compiler is present, compiles that loop to native code at first use and
drives it through :mod:`ctypes`.  This is the Python-world analogue of the
paper running Tier-1 on the SPEs: the context modelling is batched (NumPy,
in :mod:`repro.jpeg2000.tier1_vec`) and the serial arithmetic coder runs
at machine speed.

Design constraints:

* **Bit-exact**: the C loop is a transliteration of ``MQEncoder.encode``
  /``_renorm``/``_byteout``; the state tables are generated from
  :data:`repro.jpeg2000.mq.STATE_TABLE` so there is one source of truth.
* **Optional**: if no compiler is available, compilation fails, or the
  environment sets ``REPRO_MQ_NATIVE=0``, :data:`native_encode_run` is
  ``None`` and callers fall back to the pure-Python tight loop.  No
  third-party packages are involved — only the system C compiler.
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

from repro.jpeg2000.mq import STATE_TABLE

_C_TEMPLATE = r"""
#include <stdint.h>

static const uint16_t QE[{n}] = {{{qe}}};
static const uint8_t NMPS[{n}] = {{{nmps}}};
static const uint8_t NLPS[{n}] = {{{nlps}}};
static const uint8_t SWITCH_[{n}] = {{{switch}}};

long mq_encode_run(int32_t *index, int32_t *mps,
                   uint32_t *areg, uint32_t *creg,
                   int32_t *ctreg, int32_t *breg,
                   const uint8_t *bits, const uint8_t *ctxs, long nsym,
                   uint8_t *out)
{{
    uint32_t a = *areg, c = *creg;
    int32_t ct = *ctreg;
    int32_t b = *breg;             /* -1 encodes Python None */
    long olen = 0;
    for (long k = 0; k < nsym; k++) {{
        int cx = ctxs[k];
        int idx = index[cx];
        uint32_t qe = QE[idx];
        if (bits[k] == mps[cx]) {{
            uint32_t na = a - qe;
            if (na & 0x8000u) {{ a = na; c += qe; continue; }}
            if (na < qe) {{ a = qe; }} else {{ a = na; c += qe; }}
            index[cx] = NMPS[idx];
        }} else {{
            uint32_t na = a - qe;
            if (na < qe) {{ c += qe; a = na; }} else {{ a = qe; }}
            if (SWITCH_[idx]) mps[cx] = 1 - mps[cx];
            index[cx] = NLPS[idx];
        }}
        do {{
            a = (a << 1) & 0xFFFFu;
            c = (c << 1) & 0xFFFFFFFu;
            if (--ct == 0) {{
                if (b == 0xFF) {{
                    out[olen++] = (uint8_t)b;
                    b = (c >> 20) & 0xFF; c &= 0xFFFFFu; ct = 7;
                }} else if (c < 0x8000000u) {{
                    if (b >= 0) out[olen++] = (uint8_t)b;
                    b = (c >> 19) & 0xFF; c &= 0x7FFFFu; ct = 8;
                }} else {{
                    if (b >= 0) b += 1;
                    if (b == 0xFF) {{
                        c &= 0x7FFFFFFu;
                        out[olen++] = (uint8_t)b;
                        b = (c >> 20) & 0xFF; c &= 0xFFFFFu; ct = 7;
                    }} else {{
                        if (b >= 0) out[olen++] = (uint8_t)b;
                        b = (c >> 19) & 0xFF; c &= 0x7FFFFu; ct = 8;
                    }}
                }}
            }}
        }} while (!(a & 0x8000u));
    }}
    *areg = a; *creg = c; *ctreg = ct; *breg = b;
    return olen;
}}
"""


def _c_source() -> str:
    return _C_TEMPLATE.format(
        n=len(STATE_TABLE),
        qe=", ".join(f"0x{q:04X}" for q, _, _, _ in STATE_TABLE),
        nmps=", ".join(str(n) for _, n, _, _ in STATE_TABLE),
        nlps=", ".join(str(n) for _, _, n, _ in STATE_TABLE),
        switch=", ".join(str(s) for _, _, _, s in STATE_TABLE),
    )


def build_library(src: str, stem: str):
    """Compile ``src`` (or load its cached build); the ``CDLL`` or None.

    The shared object is cached per source hash in a per-user directory,
    so later processes (and ``spawn``-ed workers) only ``dlopen`` it.  No
    compiler, a failed build, an unloadable object or
    ``REPRO_MQ_NATIVE=0`` in the environment all return None, and callers
    fall back to Python.  Every compiled kernel of the package loads
    through here.
    """
    if os.environ.get("REPRO_MQ_NATIVE", "1") == "0":
        return None
    tag = hashlib.sha256(src.encode()).hexdigest()[:16]
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
                ["cc", "-O2", "-shared", "-fPIC", "-o", tmp_so, c_path],
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
    lib = build_library(_c_source(), "mq")
    if lib is None:
        return None
    fn = lib.mq_encode_run
    fn.restype = ctypes.c_long
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_int32),  # index
        ctypes.POINTER(ctypes.c_int32),  # mps
        ctypes.POINTER(ctypes.c_uint32),  # a
        ctypes.POINTER(ctypes.c_uint32),  # c
        ctypes.POINTER(ctypes.c_int32),  # ct
        ctypes.POINTER(ctypes.c_int32),  # b
        ctypes.c_char_p,  # bits
        ctypes.c_char_p,  # ctxs
        ctypes.c_long,  # nsym
        ctypes.POINTER(ctypes.c_uint8),  # out
    ]
    return fn


def _make_wrapper(fn):
    def native_encode_run(enc, bseq: bytes, cseq: bytes) -> None:
        """Drive the compiled loop with ``enc``'s state, then sync back."""
        ncx = len(enc._index)
        index = (ctypes.c_int32 * ncx)(*enc._index)
        mps = (ctypes.c_int32 * ncx)(*enc._mps)
        a = ctypes.c_uint32(enc._a)
        c = ctypes.c_uint32(enc._c)
        ct = ctypes.c_int32(enc._ct)
        b = ctypes.c_int32(-1 if enc._b is None else enc._b)
        n = len(bseq)
        # Worst case: every symbol renormalizes by the full 15 positions and
        # every 7 shifted bits emit a byte — 3n + slack is comfortably above.
        out = (ctypes.c_uint8 * (3 * n + 16))()
        olen = fn(index, mps, ctypes.byref(a), ctypes.byref(c),
                  ctypes.byref(ct), ctypes.byref(b),
                  bytes(bseq), bytes(cseq), n, out)
        enc._index[:] = index
        enc._mps[:] = mps
        enc._a = a.value
        enc._c = c.value
        enc._ct = ct.value
        enc._b = None if b.value < 0 else b.value
        if olen:
            enc._out += ctypes.string_at(out, olen)

    return native_encode_run


#: The compiled ``mq_encode_run``, or None when unavailable.
_fns = _load()

#: Callable ``(MQEncoder, bytes, bytes) -> None`` or None when unavailable.
native_encode_run = None if _fns is None else _make_wrapper(_fns)
