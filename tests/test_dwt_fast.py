"""Native front end: differential vs the dwt.py oracle, byte-identity, wiring.

The kernel's contract is absolute: subbands equal to the oracle's
(:mod:`repro.jpeg2000.mct`, :mod:`repro.jpeg2000.dwt`,
:func:`repro.jpeg2000.quantize.quantize`) for every shape, filter, depth,
component count and level count, in both directions — and therefore
byte-identical codestreams.  Every comparison is ``==``.  Without the
compiled library (no C compiler, ``REPRO_MQ_NATIVE=0``) the front end runs
the oracle, so the same cases check the fallback; the tests that call the
lifting kernel directly skip.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.core import workpool
from repro.image.synthetic import watch_face_image
from repro.jpeg2000 import _mq_native, dwt, dwt_fast, mct
from repro.jpeg2000.decoder import decode, decode_reference
from repro.jpeg2000.dwt_fast import (
    DWT_BACKENDS,
    FrontendResult,
    StageTimings,
    resolve_dwt_backend,
    run_frontend,
    run_inverse_frontend,
)
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.jpeg2000.quantize import dequantize

RNG = np.random.default_rng(20080612)

needs_kernel = pytest.mark.skipif(
    _mq_native._LIB is None,
    reason="no compiled library (no C compiler or REPRO_MQ_NATIVE=0)",
)


def _lift(lossless: bool, inverse: bool, lo: np.ndarray, hi: np.ndarray) -> None:
    """The kernel's 1-D lifting, in place, on row-stacked signals."""
    fn = _mq_native._LIB.fe_lift
    fn.restype = None
    fn.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_void_p,
                   ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_long]
    m = lo[0].size if lo.ndim > 1 else 1
    fn(int(lossless), int(inverse), lo.ctypes.data, hi.ctypes.data,
       lo.shape[0], hi.shape[0], m)


def _image(shape, ncomp: int, depth: int) -> list[np.ndarray]:
    dtype = np.uint8 if depth <= 8 else np.uint16
    img = RNG.integers(0, 1 << depth, size=(*shape, ncomp)).astype(dtype)
    return [img[:, :, c] for c in range(ncomp)]  # strided views, as encode()


def _frontends(comps, depth, params):
    ref = run_frontend(comps, depth, params, backend="reference")
    native = run_frontend(comps, depth, params)
    return ref, native


def _assert_identical(ref: FrontendResult, native: FrontendResult) -> None:
    assert native.levels == ref.levels
    assert len(native.decomps) == len(ref.decomps)
    for dr, dn in zip(ref.decomps, native.decomps):
        assert dn.shape == dr.shape and dn.levels == dr.levels
        assert dn.ll.dtype == dr.ll.dtype
        assert np.array_equal(dn.ll, dr.ll)
        assert len(dn.details) == len(dr.details)
        for lr, ln in zip(dr.details, dn.details):
            for br, bn in zip(lr, ln):
                assert bn.dtype == br.dtype and bn.shape == br.shape
                assert np.array_equal(bn, br)


def _kernel_steps(result: FrontendResult) -> list[float]:
    """The forward result's quantizer steps in the kernel's band order."""
    return [result.quants[k].step for k in dwt_fast.band_keys(result.levels)]


def _bands(decomp: dwt.Decomposition) -> list[np.ndarray]:
    """A decomposition's subbands in the kernel's band order."""
    return [*(b for lvl in decomp.details for b in lvl), decomp.ll]


def _assert_inverse_identical(shape, bands, depth, lossless, steps) -> None:
    """run_inverse_frontend on int32 bands and steps equals dequantize +
    inverse_dwt2d + inverse_mct, and writes only its window of a
    sentinel-filled output."""
    levels = (len(steps) - 1) // 3
    expected = mct.inverse_mct([
        dwt.inverse_dwt2d(dwt_fast._decomposition(
            shape, levels, lossless,
            comp if lossless else [dequantize(b, s)
                                   for b, s in zip(comp, steps)]))
        for comp in bands
    ], depth, lossless)
    (h, w), ncomp = shape, len(bands)
    dtype = np.uint8 if depth <= 8 else np.uint16
    sentinel = np.iinfo(dtype).max - 0x5A
    full = np.full((h + 3, w + 5) + ((ncomp,) if ncomp > 1 else ()),
                   sentinel, dtype)
    window = full[1 : 1 + h, 2 : 2 + w]
    run_inverse_frontend(bands, steps, depth, lossless, window)
    got = [window] if ncomp == 1 else [window[..., c] for c in range(ncomp)]
    for e, g in zip(expected, got, strict=True):
        assert np.array_equal(g, e)
    window[...] = sentinel
    assert (full == sentinel).all(), "wrote outside its window"


def _random_bands(shape, levels, ncomp, low=-600, high=600):
    return [[RNG.integers(low, high, size=s, dtype=np.int64).astype(np.int32)
             for s in dwt_fast._band_shapes(shape, levels)]
            for _ in range(ncomp)]


def _roundtrip(shape, ncomp, depth, lossless, levels) -> None:
    """Forward native == oracle, then inverse native == oracle on the
    oracle's int32 subband data and quantizer steps."""
    comps = _image(shape, ncomp, depth)
    params = EncoderParams(lossless=lossless, levels=levels)
    ref, native = _frontends(comps, depth, params)
    _assert_identical(ref, native)
    _assert_inverse_identical(shape, [_bands(d) for d in ref.decomps],
                              depth, lossless, _kernel_steps(ref))


class TestLiftKernels:
    """The kernel's 1-D lifting against the oracle transforms, every length,
    and the front end on 1 x n and n x 1 images."""

    @pytest.mark.parametrize("n", list(range(1, 40)))
    def test_lift_53_matches_oracle(self, n):
        for shape in ((1, n), (n, 1)):
            _roundtrip(shape, 1, 16, True, 1)
        if n < 2 or _mq_native._LIB is None:
            return
        x = RNG.integers(-(1 << 15), 1 << 15, size=n).astype(np.int32)
        lo_ref, hi_ref = dwt.forward_53_1d(x)
        lo, hi = x[0::2].copy(), x[1::2].copy()
        _lift(True, False, lo, hi)
        assert np.array_equal(lo, lo_ref) and np.array_equal(hi, hi_ref)
        lo, hi = lo_ref.astype(np.int64), hi_ref.astype(np.int64)
        _lift(True, True, lo, hi)
        out = np.empty(n, np.int64)
        out[0::2], out[1::2] = lo, hi
        assert np.array_equal(out, dwt.inverse_53_1d(lo_ref, hi_ref, n))

    @pytest.mark.parametrize("n", list(range(1, 40)))
    def test_lift_97_matches_oracle_bitwise(self, n):
        for shape in ((1, n), (n, 1)):
            _roundtrip(shape, 1, 12, False, 1)
        if n < 2 or _mq_native._LIB is None:
            return
        # Bitwise, not allclose: the front end's contract is equality.
        x = RNG.standard_normal(n) * 300.0
        lo_ref, hi_ref = dwt.forward_97_1d(x)
        lo, hi = x[0::2].copy(), x[1::2].copy()
        _lift(False, False, lo, hi)
        assert np.array_equal(lo * (1.0 / dwt.LIFT_K), lo_ref)
        assert np.array_equal(hi * dwt.LIFT_K, hi_ref)
        lo, hi = lo_ref * dwt.LIFT_K, hi_ref * (1.0 / dwt.LIFT_K)
        _lift(False, True, lo, hi)
        out = np.empty(n)
        out[0::2], out[1::2] = lo, hi
        assert np.array_equal(out, dwt.inverse_97_1d(lo_ref, hi_ref, n))

    @pytest.mark.parametrize("shape", [(3, 1), (3, 2), (4, 9), (5, 16), (1, 7)])
    def test_lift_axis1_matches_per_row_oracle(self, shape):
        # Lifting rows of x as the h side-by-side signals of x.T — the
        # layout of the vertical pass's column chunks.
        h, w = shape
        _roundtrip(shape, 3, 8, True, 1)
        _roundtrip(shape, 3, 8, False, 1)
        if w < 2 or _mq_native._LIB is None:
            return
        xi = RNG.integers(-500, 500, size=shape).astype(np.int32)
        xf = RNG.standard_normal(shape) * 50.0
        for x, lossless in ((xi, True), (xf, False)):
            lo, hi = x.T[0::2].copy(), x.T[1::2].copy()
            _lift(lossless, False, lo, hi)
            fwd = dwt.forward_53_1d if lossless else dwt.forward_97_1d
            if not lossless:  # the oracle's K scaling, as the kernel's store
                lo, hi = lo * (1.0 / dwt.LIFT_K), hi * dwt.LIFT_K
            for r in range(h):
                lo_ref, hi_ref = fwd(x[r])
                assert np.array_equal(lo[:, r], lo_ref)
                assert np.array_equal(hi[:, r], hi_ref)

    def test_lift_53_int64_intermediates(self):
        # Decoded coefficients are unbounded: magnitudes above I32_SAFE_MAX
        # put the oracle's synthesis on int64, and the kernel's int64
        # synthesis (narrowed to int32 like the oracle) must match it, in
        # 1-D and through the whole inverse front end.
        n = 33
        low = RNG.integers(-(1 << 30), 1 << 30, size=17).astype(np.int32)
        high = RNG.integers(-(1 << 30), 1 << 30, size=16).astype(np.int32)
        ref = dwt.inverse_53_1d(low, high, n)
        if _mq_native._LIB is not None:
            lo, hi = low.astype(np.int64), high.astype(np.int64)
            _lift(True, True, lo, hi)
            out = np.empty(n, np.int64)
            out[0::2], out[1::2] = lo, hi
            assert np.array_equal(out.astype(np.int32), ref)
        bands = _random_bands((37, 29), 3, 3, -(1 << 31), (1 << 31) - 1)
        _assert_inverse_identical((37, 29), bands, 16, True, [1.0] * 10)


class TestNativeDifferential:
    """Forward and inverse, both filters, 1 and 3 components, depths 1 to
    16, every level count up to one past what the shape supports."""

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 45), (45, 1), (15, 9), (13, 10), (97, 131),
                  (21, 70)],
        ids=lambda s: f"{s[0]}x{s[1]}",
    )
    @pytest.mark.parametrize("ncomp", [1, 3])
    @pytest.mark.parametrize("depth", [1, 8, 12, 16])
    @pytest.mark.parametrize("lossless", [True, False], ids=["53", "97"])
    def test_every_level_count(self, shape, ncomp, depth, lossless):
        for levels in range(dwt.effective_levels(shape, 64) + 2):
            _roundtrip(shape, ncomp, depth, lossless, levels)

    @pytest.mark.parametrize("lossless", [True, False], ids=["53", "97"])
    def test_inverse_of_arbitrary_coefficients(self, lossless):
        # Subband data no encoder produced: saturating clips, rint ties,
        # a step per band (so the band order counts), huge indices.
        steps = list(RNG.uniform(0.25, 4.0, size=13))
        for ncomp in (1, 3):
            bands = _random_bands((45, 38), 4, ncomp, -4000, 4000)
            _assert_inverse_identical((45, 38), bands, 8, lossless, steps)
        if not lossless:
            bands = _random_bands((45, 38), 4, 1, -(1 << 31), (1 << 31) - 1)
            _assert_inverse_identical((45, 38), bands, 12, False, steps)

    @pytest.mark.parametrize("lossless", [True, False], ids=["53", "97"])
    @pytest.mark.parametrize("ncomp", [1, 3])
    @pytest.mark.parametrize(
        "width",
        sorted({1, 2, 3, 5, 7, 9}
               | {k * _mq_native.CHUNK_COLS + d for k in (1, 2, 3)
                  for d in (-5, -4, -1, 0, 1, 4, 5)}),
    )
    def test_window_every_level_count(self, width, ncomp, lossless):
        # Widths below the last level's 4-column halo and either side of
        # a column chunk, odd heights: random int32 bands and steps into
        # a strided window of a sentinel-filled output.
        for h in (1, 6, 7):
            shape = (h, width)
            for levels in range(min(dwt.effective_levels(shape, 64), 5) + 1):
                steps = list(RNG.uniform(0.25, 4.0, size=3 * levels + 1))
                bands = _random_bands(shape, levels, ncomp)
                for depth in (8, 12):
                    _assert_inverse_identical(shape, bands, depth, lossless,
                                              steps)

    @pytest.mark.parametrize("step", [1.0, 3.0, 5.0])
    def test_dequantization_ties(self, step):
        # With no levels and one component the sample is rint of the
        # dequantized index, and (|q| + 0.5) * step lands exactly on a
        # rint tie: one ulp of difference in the dequantizing load would
        # round the other way.
        bands = _random_bands((9, 70), 0, 1, -150, 150)
        _assert_inverse_identical((9, 70), bands, 8, False, [step])
        _assert_inverse_identical((9, 70), bands, 12, False, [step])

    def test_inconsistent_bands_take_the_oracle(self):
        # A band of the wrong shape is the oracle's to reject.
        d = dwt.forward_dwt2d(np.zeros((8, 8), np.int32), 1, True)
        hl, lh, hh = d.details[0]
        with pytest.raises(ValueError):
            run_inverse_frontend([[hl[:, :3], lh, hh, d.ll]], [1.0] * 4, 8,
                                 True, np.zeros((8, 8), np.uint8))


class TestFrontendDifferential:
    """run_frontend native == reference, across the parameter space."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (5, 5),
                                       (33, 17), (64, 48)])
    @pytest.mark.parametrize("lossless", [True, False], ids=["53", "97"])
    def test_degenerate_and_odd_shapes(self, shape, lossless):
        _roundtrip(shape, 1, 8, lossless, 5)

    @pytest.mark.parametrize("levels", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lossless", [True, False], ids=["53", "97"])
    def test_all_level_counts_rgb(self, levels, lossless):
        _roundtrip((21, 34), 3, 8, lossless, levels)

    @pytest.mark.parametrize("chunk", [1, 7, 32, 100, None])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_any_chunk_width_and_worker_count(self, chunk, workers,
                                              monkeypatch):
        # Image widths around the kernel's column chunks (a last chunk of
        # 1 or 7 columns, exactly one chunk, three and a remainder; None:
        # two chunks and one column), encoded and decoded with Tier-1 on
        # a real pool: bytes and samples equal the reference backends'.
        monkeypatch.setattr(workpool, "TIER1_AUTO_SERIAL_MIN_BLOCKS", 0)
        monkeypatch.setattr(workpool, "available_cores", lambda: workers)
        width = 2 * _mq_native.CHUNK_COLS + 1 if chunk is None else chunk
        img = watch_face_image(24, width, channels=3)
        for lossless in (True, False):
            kw = dict(lossless=lossless, levels=3, codeblock_size=16)
            ref = encode(img, EncoderParams(dwt_backend="reference",
                                            tier1_backend="reference", **kw))
            native = encode(img, EncoderParams(workers=workers, **kw))
            assert native.codestream == ref.codestream
            assert np.array_equal(decode(native.codestream, workers=workers),
                                  decode_reference(ref.codestream))

    def test_deep_imagery_int64_fallback(self, monkeypatch):
        # depth 16 with 13 effective levels -> depth + levels > 28, past
        # the kernel's int32 headroom: the oracle takes it.
        def no_kernel(*args):
            raise AssertionError("the kernel ran past its int32 headroom")

        monkeypatch.setattr(dwt_fast, "_native_frontend", no_kernel)
        comps = [RNG.integers(0, 1 << 16, size=(1, 8192)).astype(np.uint16)]
        params = EncoderParams(lossless=True, levels=20)
        ref, native = _frontends(comps, 16, params)
        assert ref.levels == 13
        _assert_identical(ref, native)

    def test_timings_populated(self):
        comps = [RNG.integers(0, 256, size=(32, 32)).astype(np.uint8)]
        for backend in ("reference", "auto"):
            t = run_frontend(
                comps, 8, EncoderParams(levels=3), backend=backend
            ).timings
            assert t.frontend > 0.0


class TestFullEncodeByteIdentity:
    """The acceptance criterion: identical codestreams, native vs reference."""

    @pytest.mark.parametrize("channels", [1, 3], ids=["gray", "rgb"])
    @pytest.mark.parametrize("lossless", [True, False], ids=["lossless", "lossy"])
    def test_codestreams_identical(self, channels, lossless):
        img = watch_face_image(40, 56, channels=channels)
        kw = dict(lossless=lossless, rate=None if lossless else 0.5, levels=3)
        ref = encode(img, EncoderParams(dwt_backend="reference", **kw))
        for workers in (1, 2):
            native = encode(img, EncoderParams(workers=workers, **kw))
            assert native.codestream == ref.codestream
        assert ref.timings is not None and ref.timings.total > 0.0
        assert ref.timings.tier1 > 0.0

    def test_degenerate_images_encode(self):
        for shape in [(1, 1), (1, 17), (17, 1)]:
            img = watch_face_image(*shape, channels=1)
            ref = encode(img, EncoderParams(dwt_backend="reference"))
            native = encode(img, EncoderParams())
            assert native.codestream == ref.codestream
            assert np.array_equal(decode(native.codestream), img)


class TestBackendSelection:
    def test_backend_names(self):
        assert DWT_BACKENDS == ("auto", "reference")
        assert resolve_dwt_backend("auto") == "auto"
        assert resolve_dwt_backend(None) == "auto"
        assert resolve_dwt_backend("reference") == "reference"
        for gone in ("fused", "simd"):
            with pytest.raises(ValueError):
                resolve_dwt_backend(gone)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            EncoderParams(dwt_backend="fused")
        with pytest.raises(TypeError):
            EncoderParams(dwt_chunk_cols=64)  # chunking is the kernel's
        assert EncoderParams(dwt_backend="reference").dwt_backend == "reference"


class TestChunkPolicy:
    @needs_kernel
    def test_chunk_is_cache_line_multiple(self):
        # The paper's chunks are whole 128-byte cache lines of 4-byte
        # samples; images one column either side of a chunk edge match
        # the oracle at every level.
        assert _mq_native.CHUNK_COLS % 32 == 0
        for width in (_mq_native.CHUNK_COLS - 1, _mq_native.CHUNK_COLS + 1,
                      2 * _mq_native.CHUNK_COLS + 1):
            for lossless in (True, False):
                for levels in range(dwt.effective_levels((9, width), 64) + 1):
                    _roundtrip((9, width), 3, 8, lossless, levels)


class TestStageTimings:
    def test_as_dict_and_summary(self):
        t = StageTimings(frontend=0.25, tier1=12.5, tier2=0.03, total=13.0)
        d = t.as_dict()
        assert set(d) == {"frontend", "tier1", "tier2", "rate_control",
                          "total"}
        s = t.summary()
        assert "frontend 0.25s" in s and "tier1 12.5s" in s
        assert "rate" not in s  # zero rate-control stage is omitted
        assert "rate" in StageTimings(rate_control=0.1).summary()
