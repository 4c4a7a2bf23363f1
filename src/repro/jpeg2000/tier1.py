"""EBCOT Tier-1: context-modelled bit-plane coding of code blocks (T.800 D).

Each code block's quantized coefficients are coded magnitude bit plane by
bit plane in up to three passes per plane — significance propagation (SPP),
magnitude refinement (MRP), and cleanup (CUP) — driving the MQ coder of
:mod:`repro.jpeg2000.mq` with 19 adaptive contexts.  This is the paper's
dominant compute kernel ("Tier-1 coding in the EBCOT and the DWT are the
most computationally expensive algorithmic kernels").

The encoder records, per coding pass: a safe truncation length, the
distortion reduction (for PCRD-opt rate control), and the number of binary
decisions coded (the workload statistic the Cell performance model charges
for).  The decoder mirrors the encoder exactly and tolerates truncated
segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.jpeg2000 import tier1_geom
from repro.jpeg2000.mq import MQDecoder, MQEncoder

#: Valid Tier-1 encoder backend names: the block encoder of
#: :mod:`repro.jpeg2000.tier1_batch` (``"auto"``) and the scalar oracle.
BACKENDS = ("auto", "reference")

# Context numbering (T.800 Table D.1 layout).
NUM_CONTEXTS = 19
CTX_SIG_BASE = 0      # 0..8  significance coding
CTX_SIGN_BASE = 9     # 9..13 sign coding
CTX_MAG_BASE = 14     # 14..16 magnitude refinement
CTX_RUNLEN = 17
CTX_UNIFORM = 18

#: Initial MQ states: the all-zero significance context starts at state 4,
#: run-length at 3, uniform at 46 (T.800 Table D.7).
INITIAL_STATES = {CTX_SIG_BASE: 4, CTX_RUNLEN: 3, CTX_UNIFORM: 46}

PASS_SIG = "SPP"
PASS_REF = "MRP"
PASS_CLEAN = "CUP"


def _neighbour_indices(h: int, w: int) -> np.ndarray:
    """Flat neighbour indices (W, E, N, S, NW, NE, SW, SE) per sample.

    Returns a read-only ``(h*w, 8)`` int32 array; out-of-block neighbours
    point at a sentinel slot ``h*w`` that always holds "insignificant".
    The array is shared through the process-wide geometry cache
    (:func:`repro.jpeg2000.tier1_geom.geometry`): repeated calls return the
    same immutable object.
    """
    return tier1_geom.geometry(h, w).nbr


@dataclass
class CodeBlockResult:
    """Output of Tier-1 encoding of one code block."""

    data: bytes
    num_passes: int
    msbs: int                     # magnitude bit planes actually coded
    pass_types: list[str] = field(default_factory=list)
    #: Cumulative safe truncation length (bytes) after each pass.
    pass_lengths: list[int] = field(default_factory=list)
    #: Distortion reduction of each pass, in (quantizer-step)^2 units.
    pass_dist: list[float] = field(default_factory=list)
    #: Binary decisions coded in each pass (Cell workload statistic).
    pass_symbols: list[int] = field(default_factory=list)

    @property
    def total_symbols(self) -> int:
        return sum(self.pass_symbols)


def _validate_block(coeffs: np.ndarray) -> np.ndarray:
    """Shared code-block argument validation for both encoder paths."""
    arr = np.asarray(coeffs)
    if arr.ndim != 2:
        raise ValueError(f"code block must be 2-D, got shape {arr.shape}")
    if arr.shape[0] > 64 or arr.shape[1] > 64:
        raise ValueError(f"code block too large: {arr.shape}")
    return arr


def encode_codeblock(
    coeffs: np.ndarray, band: str, backend: str | None = None
) -> CodeBlockResult:
    """Tier-1 encode one code block of signed integer coefficients.

    ``backend`` selects the implementation: ``"reference"`` is the scalar
    per-sample coder below (the differential-testing oracle) and
    ``"auto"`` (default) the block encoder,
    :func:`repro.jpeg2000.tier1_batch.encode_codeblocks_batched`
    (byte-identical output, native when a C compiler is present).
    """
    if backend is None:
        backend = "auto"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown tier-1 backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "reference":
        return encode_codeblock_reference(coeffs, band)
    from repro.jpeg2000.tier1_batch import encode_codeblocks_batched

    return encode_codeblocks_batched([(coeffs, band)])[0]


def encode_codeblock_reference(coeffs: np.ndarray, band: str) -> CodeBlockResult:
    """Scalar per-sample Tier-1 encoder (T.800 D, followed literally).

    This is the oracle the block encoder is differentially tested
    against: every stream byte, pass length, symbol count and distortion
    value of :func:`repro.jpeg2000.tier1_batch.encode_codeblocks_batched`
    must match this implementation exactly.  It is also that encoder's
    fallback on hosts without a C compiler.
    """
    arr = _validate_block(coeffs)
    hgt, wid = arr.shape
    n = hgt * wid
    flat = arr.astype(np.int64).ravel()
    mag_arr = np.abs(flat)
    mag = mag_arr.tolist()
    sgn = (flat < 0).view(np.int8).tolist()
    msbs = int(mag_arr.max()).bit_length() if n else 0
    if msbs == 0:
        return CodeBlockResult(data=b"", num_passes=0, msbs=0)

    sig_lut = tier1_geom.sig_lut_for_band(band)
    nbr = _neighbour_indices(hgt, wid).tolist()
    sig = [0] * (n + 1)       # +1 sentinel slot
    visited = [0] * n
    refined = [0] * n

    mq = MQEncoder(NUM_CONTEXTS, INITIAL_STATES)
    result = CodeBlockResult(data=b"", num_passes=0, msbs=msbs)

    symbols = 0

    def sig_ctx(i: int) -> int:
        w_, e_, n_, s_, nw_, ne_, sw_, se_ = nbr[i]
        hcnt = sig[w_] + sig[e_]
        vcnt = sig[n_] + sig[s_]
        dcnt = sig[nw_] + sig[ne_] + sig[sw_] + sig[se_]
        return sig_lut[hcnt * 15 + vcnt * 5 + dcnt]

    def sign_ctx(i: int) -> tuple[int, int]:
        w_, e_, n_, s_ = nbr[i][:4]
        hc = (sig[w_] and (1 - 2 * sgn[w_])) + (sig[e_] and (1 - 2 * sgn[e_]))
        vc = (sig[n_] and (1 - 2 * sgn[n_])) + (sig[s_] and (1 - 2 * sgn[s_]))
        hc = max(-1, min(1, hc))
        vc = max(-1, min(1, vc))
        return tier1_geom.SIGN_LUT[(hc + 1) * 3 + (vc + 1)]

    def code_sign(i: int) -> None:
        nonlocal symbols
        ctx, xor = sign_ctx(i)
        mq.encode(sgn[i] ^ xor, ctx)
        symbols += 1

    def dist_become(i: int, p: int) -> float:
        v = float(mag[i])
        mhat = (mag[i] >> p) << p
        rec = mhat + ((1 << p) >> 1)
        e1 = v - rec
        return v * v - e1 * e1

    def dist_refine(i: int, p: int) -> float:
        v = float(mag[i])
        mhat_prev = (mag[i] >> (p + 1)) << (p + 1)
        rec_prev = mhat_prev + ((1 << (p + 1)) >> 1)
        mhat = (mag[i] >> p) << p
        rec = mhat + ((1 << p) >> 1)
        e0 = v - rec_prev
        e1 = v - rec
        return e0 * e0 - e1 * e1

    def end_pass(kind: str, dist: float) -> None:
        nonlocal symbols
        result.pass_types.append(kind)
        result.pass_lengths.append(mq.safe_length())
        result.pass_dist.append(dist)
        result.pass_symbols.append(symbols)
        symbols = 0

    def sig_prop_pass(p: int) -> None:
        nonlocal symbols
        dist = 0.0
        for top in range(0, hgt, 4):
            rows = range(top, min(top + 4, hgt))
            for col in range(wid):
                for r in rows:
                    i = r * wid + col
                    if sig[i]:
                        visited[i] = 0
                        continue
                    ctx = sig_ctx(i)
                    if ctx == 0:
                        visited[i] = 0
                        continue
                    bit = (mag[i] >> p) & 1
                    mq.encode(bit, ctx)
                    symbols += 1
                    if bit:
                        code_sign(i)
                        sig[i] = 1
                        dist += dist_become(i, p)
                    visited[i] = 1
        end_pass(PASS_SIG, dist)

    def mag_ref_pass(p: int) -> None:
        nonlocal symbols
        dist = 0.0
        for top in range(0, hgt, 4):
            rows = range(top, min(top + 4, hgt))
            for col in range(wid):
                for r in rows:
                    i = r * wid + col
                    if not sig[i] or visited[i]:
                        continue
                    if refined[i]:
                        ctx = 16
                    else:
                        w_, e_, n_, s_, nw_, ne_, sw_, se_ = nbr[i]
                        any_sig = (sig[w_] or sig[e_] or sig[n_] or sig[s_]
                                   or sig[nw_] or sig[ne_] or sig[sw_] or sig[se_])
                        ctx = 15 if any_sig else 14
                    mq.encode((mag[i] >> p) & 1, ctx)
                    symbols += 1
                    refined[i] = 1
                    dist += dist_refine(i, p)
        end_pass(PASS_REF, dist)

    def cleanup_pass(p: int) -> None:
        nonlocal symbols
        dist = 0.0
        for top in range(0, hgt, 4):
            nrows = min(4, hgt - top)
            for col in range(wid):
                base = top * wid + col
                idxs = [base + k * wid for k in range(nrows)]
                start = 0
                if nrows == 4:
                    # Run-length mode: all four insignificant, unvisited, and
                    # with all-zero significance contexts.
                    if all((not sig[i]) and (not visited[i]) and sig_ctx(i) == 0
                           for i in idxs):
                        if all(((mag[i] >> p) & 1) == 0 for i in idxs):
                            mq.encode(0, CTX_RUNLEN)
                            symbols += 1
                            continue
                        mq.encode(1, CTX_RUNLEN)
                        first = next(k for k, i in enumerate(idxs)
                                     if (mag[i] >> p) & 1)
                        mq.encode((first >> 1) & 1, CTX_UNIFORM)
                        mq.encode(first & 1, CTX_UNIFORM)
                        symbols += 3
                        i = idxs[first]
                        code_sign(i)
                        sig[i] = 1
                        dist += dist_become(i, p)
                        start = first + 1
                for k in range(start, nrows):
                    i = idxs[k]
                    if sig[i] or visited[i]:
                        continue
                    ctx = sig_ctx(i)
                    bit = (mag[i] >> p) & 1
                    mq.encode(bit, ctx)
                    symbols += 1
                    if bit:
                        code_sign(i)
                        sig[i] = 1
                        dist += dist_become(i, p)
        end_pass(PASS_CLEAN, dist)

    for p in range(msbs - 1, -1, -1):
        if p != msbs - 1:
            sig_prop_pass(p)
            mag_ref_pass(p)
        cleanup_pass(p)

    data = mq.flush()
    result.data = data
    result.num_passes = len(result.pass_types)
    result.pass_lengths = [min(pl, len(data)) for pl in result.pass_lengths]
    if result.pass_lengths:
        result.pass_lengths[-1] = len(data)
    return result


def decode_codeblock(
    data: bytes,
    height: int,
    width: int,
    band: str,
    msbs: int,
    num_passes: int,
) -> np.ndarray:
    """Tier-1 decode mirroring :func:`encode_codeblock`.

    Returns int32 coefficients.  When the segment is truncated
    (``num_passes`` fewer than ``1 + 3*(msbs-1)``), significant samples are
    reconstructed at the midpoint of their decoded-precision interval.
    """
    if height <= 0 or width <= 0 or height > 64 or width > 64:
        raise ValueError(f"invalid code block dims {height}x{width}")
    if msbs < 0:
        raise ValueError(f"msbs must be non-negative, got {msbs}")
    n = height * width
    out = np.zeros((height, width), dtype=np.int32)
    if msbs == 0 or num_passes == 0:
        return out
    max_passes = 1 + 3 * (msbs - 1)
    if num_passes > max_passes:
        raise ValueError(f"num_passes {num_passes} exceeds maximum {max_passes}")

    sig_lut = tier1_geom.sig_lut_for_band(band)
    nbr = _neighbour_indices(height, width).tolist()
    sig = [0] * (n + 1)
    visited = [0] * n
    refined = [0] * n
    mag = [0] * n
    sgn = [0] * n
    prec = [0] * n  # last plane at which the sample's value was updated

    mq = MQDecoder(data, NUM_CONTEXTS, INITIAL_STATES)
    passes_done = 0

    def sig_ctx(i: int) -> int:
        w_, e_, n_, s_, nw_, ne_, sw_, se_ = nbr[i]
        return sig_lut[(sig[w_] + sig[e_]) * 15 + (sig[n_] + sig[s_]) * 5
                       + sig[nw_] + sig[ne_] + sig[sw_] + sig[se_]]

    def decode_sign(i: int) -> None:
        w_, e_, n_, s_ = nbr[i][:4]
        hc = (sig[w_] and (1 - 2 * sgn[w_])) + (sig[e_] and (1 - 2 * sgn[e_]))
        vc = (sig[n_] and (1 - 2 * sgn[n_])) + (sig[s_] and (1 - 2 * sgn[s_]))
        hc = max(-1, min(1, hc))
        vc = max(-1, min(1, vc))
        ctx, xor = tier1_geom.SIGN_LUT[(hc + 1) * 3 + (vc + 1)]
        sgn[i] = mq.decode(ctx) ^ xor

    def sig_prop_pass(p: int) -> None:
        for top in range(0, height, 4):
            rows = range(top, min(top + 4, height))
            for col in range(width):
                for r in rows:
                    i = r * width + col
                    if sig[i]:
                        visited[i] = 0
                        continue
                    ctx = sig_ctx(i)
                    if ctx == 0:
                        visited[i] = 0
                        continue
                    if mq.decode(ctx):
                        decode_sign(i)
                        sig[i] = 1
                        mag[i] = 1 << p
                        prec[i] = p
                    visited[i] = 1

    def mag_ref_pass(p: int) -> None:
        for top in range(0, height, 4):
            rows = range(top, min(top + 4, height))
            for col in range(width):
                for r in rows:
                    i = r * width + col
                    if not sig[i] or visited[i]:
                        continue
                    if refined[i]:
                        ctx = 16
                    else:
                        w_, e_, n_, s_, nw_, ne_, sw_, se_ = nbr[i]
                        any_sig = (sig[w_] or sig[e_] or sig[n_] or sig[s_]
                                   or sig[nw_] or sig[ne_] or sig[sw_] or sig[se_])
                        ctx = 15 if any_sig else 14
                    mag[i] |= mq.decode(ctx) << p
                    refined[i] = 1
                    prec[i] = p

    def cleanup_pass(p: int) -> None:
        for top in range(0, height, 4):
            nrows = min(4, height - top)
            for col in range(width):
                base = top * width + col
                idxs = [base + k * width for k in range(nrows)]
                start = 0
                if nrows == 4:
                    if all((not sig[i]) and (not visited[i]) and sig_ctx(i) == 0
                           for i in idxs):
                        if not mq.decode(CTX_RUNLEN):
                            continue
                        first = (mq.decode(CTX_UNIFORM) << 1) | mq.decode(CTX_UNIFORM)
                        i = idxs[first]
                        decode_sign(i)
                        sig[i] = 1
                        mag[i] = 1 << p
                        prec[i] = p
                        start = first + 1
                for k in range(start, nrows):
                    i = idxs[k]
                    if sig[i] or visited[i]:
                        continue
                    ctx = sig_ctx(i)
                    if mq.decode(ctx):
                        decode_sign(i)
                        sig[i] = 1
                        mag[i] = 1 << p
                        prec[i] = p

    for p in range(msbs - 1, -1, -1):
        if p != msbs - 1:
            sig_prop_pass(p)
            passes_done += 1
            if passes_done >= num_passes:
                break
            mag_ref_pass(p)
            passes_done += 1
            if passes_done >= num_passes:
                break
        cleanup_pass(p)
        passes_done += 1
        if passes_done >= num_passes:
            break

    values = np.zeros(n, dtype=np.int64)
    for i in range(n):
        if mag[i]:
            v = mag[i] + ((1 << prec[i]) >> 1)
            values[i] = -v if sgn[i] else v
    return values.reshape(height, width).astype(np.int32)


#: The scalar decoder above is the pinned oracle of the block decoder
#: (:func:`repro.jpeg2000.tier1_dec_vec.decode_codeblocks_batched`, whose
#: native kernel is differentially tested against it sample by sample)
#: and that decoder's fallback on hosts without a C compiler; the alias
#: mirrors :func:`encode_codeblock_reference` on the encode side.
decode_codeblock_reference = decode_codeblock
