"""Fused front end: differential vs the dwt.py oracle, byte-identity, wiring.

The fused backend's contract is absolute: bit-exact subbands against the
reference oracle for every shape, filter, level count, chunk width, and
worker count — and therefore byte-identical codestreams.  These tests are
the differential harness that lets :mod:`repro.jpeg2000.dwt` stay the
readable specification while :mod:`repro.jpeg2000.dwt_fast` carries the
performance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.image.synthetic import watch_face_image
from repro.jpeg2000 import dwt
from repro.jpeg2000.dwt_fast import (
    AUTO_SERIAL_ENV,
    AUTO_SERIAL_MIN_SAMPLES,
    CACHE_LINE_COLS,
    DWT_BACKENDS,
    FrontendResult,
    StageTimings,
    auto_serial_workers,
    dwt_serial_threshold,
    lift_53,
    lift_97,
    resolve_chunk,
    resolve_dwt_backend,
    run_frontend,
)
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams

RNG = np.random.default_rng(20080612)


@pytest.fixture(autouse=True)
def _disable_auto_serial(monkeypatch):
    """Keep the worker-parametrized differential tests genuinely parallel.

    The auto-serial clamp (PR 4) would otherwise turn every small-image
    ``workers > 1`` case into a serial run and the chunk fan-out would go
    untested.  Clamp-specific tests re-set the variable themselves — the
    monkeypatch instance is shared, so their ``setenv`` wins.
    """
    monkeypatch.setenv(AUTO_SERIAL_ENV, "0")


def _frontends(comps, depth, params, **fused_kw):
    ref = run_frontend(comps, depth, params, backend="reference")
    fused = run_frontend(comps, depth, params, backend="fused", **fused_kw)
    return ref, fused


def _assert_identical(ref: FrontendResult, fused: FrontendResult) -> None:
    assert fused.levels == ref.levels
    assert len(fused.decomps) == len(ref.decomps)
    for dr, df in zip(ref.decomps, fused.decomps):
        assert df.shape == dr.shape and df.levels == dr.levels
        assert df.ll.dtype == dr.ll.dtype
        np.testing.assert_array_equal(df.ll, dr.ll)
        assert len(df.details) == len(dr.details)
        for lr, lf in zip(dr.details, df.details):
            for br, bf in zip(lr, lf):
                assert bf.dtype == br.dtype and bf.shape == br.shape
                np.testing.assert_array_equal(bf, br)


class TestLiftKernels:
    """The fused 1-D kernels against the oracle transforms, every length."""

    @pytest.mark.parametrize("n", list(range(1, 40)))
    def test_lift_53_matches_oracle(self, n):
        x = RNG.integers(-(1 << 15), 1 << 15, size=n).astype(np.int32)
        lo_ref, hi_ref = dwt.forward_53_1d(x)
        lo = np.empty(n - n // 2, np.int32)
        hi = np.empty(n // 2, np.int32)
        lift_53(x, lo, hi, 0)
        np.testing.assert_array_equal(lo, lo_ref)
        np.testing.assert_array_equal(hi, hi_ref)

    @pytest.mark.parametrize("n", list(range(1, 40)))
    def test_lift_97_matches_oracle_bitwise(self, n):
        x = RNG.standard_normal(n) * 300.0
        lo_ref, hi_ref = dwt.forward_97_1d(x)
        lo = np.empty(n - n // 2, np.float64)
        hi = np.empty(n // 2, np.float64)
        lift_97(x, lo, hi, 0)
        # Bitwise, not allclose: byte-identical codestreams depend on it.
        np.testing.assert_array_equal(lo, lo_ref)
        np.testing.assert_array_equal(hi, hi_ref)

    @pytest.mark.parametrize("shape", [(3, 1), (3, 2), (4, 9), (5, 16), (1, 7)])
    def test_lift_axis1_matches_per_row_oracle(self, shape):
        h, w = shape
        xi = RNG.integers(-500, 500, size=shape).astype(np.int32)
        lo = np.empty((h, w - w // 2), np.int32)
        hi = np.empty((h, w // 2), np.int32)
        lift_53(xi, lo, hi, 1)
        for r in range(h):
            lo_ref, hi_ref = dwt.forward_53_1d(xi[r])
            np.testing.assert_array_equal(lo[r], lo_ref)
            np.testing.assert_array_equal(hi[r], hi_ref)

    def test_lift_53_int64_intermediates(self):
        # Magnitudes above I32_SAFE_MAX force the oracle's int64 lifting
        # path; coefficients still land in int32 storage (the contract for
        # any real bit depth), and the fused kernel must match it.
        x = RNG.integers(-(1 << 28), 1 << 28, size=33).astype(np.int64)
        lo_ref, hi_ref = dwt.forward_53_1d(x)
        assert lo_ref.dtype == np.int32
        lo = np.empty(17, np.int64)
        hi = np.empty(16, np.int64)
        lift_53(x, lo, hi, 0)
        np.testing.assert_array_equal(lo.astype(np.int32), lo_ref)
        np.testing.assert_array_equal(hi.astype(np.int32), hi_ref)


class TestFrontendDifferential:
    """run_frontend fused == reference, across the whole parameter space."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (5, 5),
                                       (33, 17), (64, 48)])
    @pytest.mark.parametrize("lossless", [True, False], ids=["53", "97"])
    def test_degenerate_and_odd_shapes(self, shape, lossless):
        comps = [RNG.integers(0, 256, size=shape).astype(np.int32)]
        params = EncoderParams(lossless=lossless, levels=5)
        _assert_identical(*_frontends(comps, 8, params))

    @pytest.mark.parametrize("levels", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lossless", [True, False], ids=["53", "97"])
    def test_all_level_counts_rgb(self, levels, lossless):
        comps = [RNG.integers(0, 256, size=(21, 34)).astype(np.int32)
                 for _ in range(3)]
        params = EncoderParams(lossless=lossless, levels=levels)
        _assert_identical(*_frontends(comps, 8, params))

    @pytest.mark.parametrize("chunk", [1, 7, 32, 100, None])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_any_chunk_width_and_worker_count(self, chunk, workers):
        comps = [RNG.integers(0, 256, size=(40, 56)).astype(np.int32)
                 for _ in range(3)]
        for lossless in (True, False):
            params = EncoderParams(lossless=lossless, levels=3)
            _assert_identical(*_frontends(
                comps, 8, params, workers=workers, chunk_cols=chunk
            ))

    def test_deep_imagery_int64_fallback(self):
        # depth 16 with 13 effective levels -> depth + levels > 28 -> the
        # fused path must fall back to int64 and still match the oracle.
        comps = [RNG.integers(0, 1 << 16, size=(1, 8192)).astype(np.int32)]
        params = EncoderParams(lossless=True, levels=20)
        ref, fused = _frontends(comps, 16, params, workers=2, chunk_cols=33)
        assert ref.levels == 13
        _assert_identical(ref, fused)

    def test_timings_populated(self):
        comps = [RNG.integers(0, 256, size=(32, 32)).astype(np.int32)]
        for backend in ("reference", "fused"):
            t = run_frontend(
                comps, 8, EncoderParams(levels=3), backend=backend
            ).timings
            assert t.dwt > 0.0
            assert t.levelshift_mct > 0.0


class TestFullEncodeByteIdentity:
    """The acceptance criterion: identical codestreams, fused vs reference."""

    @pytest.mark.parametrize("channels", [1, 3], ids=["gray", "rgb"])
    @pytest.mark.parametrize("lossless", [True, False], ids=["lossless", "lossy"])
    def test_codestreams_identical(self, channels, lossless):
        img = watch_face_image(40, 56, channels=channels)
        kw = dict(lossless=lossless, rate=None if lossless else 0.5, levels=3)
        ref = encode(img, EncoderParams(dwt_backend="reference", **kw))
        for chunk, workers in [(None, 1), (5, 2), (64, 4)]:
            fused = encode(img, EncoderParams(
                dwt_backend="fused", dwt_chunk_cols=chunk, workers=workers, **kw
            ))
            assert fused.codestream == ref.codestream
        assert ref.timings is not None and ref.timings.total > 0.0
        assert ref.timings.tier1 > 0.0

    def test_degenerate_images_encode(self):
        for shape in [(1, 1), (1, 17), (17, 1)]:
            img = watch_face_image(*shape, channels=1)
            ref = encode(img, EncoderParams(dwt_backend="reference"))
            fused = encode(img, EncoderParams(dwt_backend="fused"))
            assert fused.codestream == ref.codestream


class TestBackendSelection:
    def test_backend_names(self):
        assert DWT_BACKENDS == ("auto", "reference", "fused")
        assert resolve_dwt_backend("auto") == "fused"
        assert resolve_dwt_backend(None) == "fused"
        assert resolve_dwt_backend("reference") == "reference"
        with pytest.raises(ValueError):
            resolve_dwt_backend("simd")

    def test_params_validation(self):
        with pytest.raises(ValueError):
            EncoderParams(dwt_backend="simd")
        with pytest.raises(ValueError):
            EncoderParams(dwt_chunk_cols=0)
        assert EncoderParams(dwt_backend="fused", dwt_chunk_cols=64).dwt_chunk_cols == 64


class TestChunkPolicy:
    def test_chunk_is_cache_line_multiple(self):
        assert resolve_chunk(1000, 33, 1) == 2 * CACHE_LINE_COLS
        assert resolve_chunk(1000, 1, 1) == CACHE_LINE_COLS
        assert resolve_chunk(1000, 64, 1) == 64

    def test_auto_policy(self):
        # Serial: one whole-extent chunk; parallel: ~2 chunks per worker.
        assert resolve_chunk(1000, None, 1) == 1000
        auto4 = resolve_chunk(1024, None, 4)
        assert auto4 % CACHE_LINE_COLS == 0
        assert 1 < -(-1024 // auto4) <= 9

    def test_invalid_chunk_rejected(self):
        with pytest.raises(ValueError):
            resolve_chunk(100, 0, 1)


class TestStageTimings:
    def test_as_dict_and_summary(self):
        t = StageTimings(levelshift_mct=0.001, dwt=0.25, quantize=0.002,
                         tier1=12.5, tier2=0.03, total=13.0)
        d = t.as_dict()
        assert set(d) == {"levelshift_mct", "dwt", "quantize", "tier1",
                          "tier2", "rate_control", "total"}
        s = t.summary()
        assert "dwt 0.25s" in s and "tier1 12.5s" in s
        assert "rate" not in s  # zero rate-control stage is omitted
        assert "rate" in StageTimings(rate_control=0.1).summary()


class TestAutoSerial:
    """Small images skip the thread fan-out (PR 4 scaling fix)."""

    def test_threshold_defaults_to_constant(self, monkeypatch):
        monkeypatch.delenv(AUTO_SERIAL_ENV, raising=False)
        assert AUTO_SERIAL_MIN_SAMPLES == 1 << 21
        assert dwt_serial_threshold() == AUTO_SERIAL_MIN_SAMPLES

    def test_small_image_clamps_to_serial(self, monkeypatch):
        monkeypatch.delenv(AUTO_SERIAL_ENV, raising=False)
        threshold = dwt_serial_threshold()
        assert auto_serial_workers(4, threshold - 1) == 1
        assert auto_serial_workers(8, (1 << 18) - 1) == 1

    def test_large_image_keeps_workers(self, monkeypatch):
        monkeypatch.delenv(AUTO_SERIAL_ENV, raising=False)
        threshold = dwt_serial_threshold()
        assert auto_serial_workers(4, threshold) == 4
        assert auto_serial_workers(2, 1 << 23) == 2  # above max clamp

    def test_serial_request_untouched(self, monkeypatch):
        monkeypatch.delenv(AUTO_SERIAL_ENV, raising=False)
        assert auto_serial_workers(1, 10) == 1

    def test_env_zero_disables_clamp(self, monkeypatch):
        monkeypatch.setenv(AUTO_SERIAL_ENV, "0")
        assert auto_serial_workers(4, 10) == 4

    def test_env_overrides_threshold(self, monkeypatch):
        monkeypatch.setenv(AUTO_SERIAL_ENV, "50")
        assert auto_serial_workers(4, 49) == 1
        assert auto_serial_workers(4, 50) == 4

    def test_env_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv(AUTO_SERIAL_ENV, "lots")
        with pytest.raises(ValueError):
            auto_serial_workers(4, 10)

    def test_frontend_applies_clamp(self, monkeypatch):
        # With the clamp active a small multi-worker run must equal the
        # serial one *and* hand the chunk queue a single worker.
        monkeypatch.delenv(AUTO_SERIAL_ENV, raising=False)
        from repro.jpeg2000 import dwt_fast

        calls = []
        real = dwt_fast.ChunkWorkQueue

        class Spy(real):
            def __init__(self, *a, **kw):
                calls.append((a, kw))
                super().__init__(*a, **kw)

        monkeypatch.setattr(dwt_fast, "ChunkWorkQueue", Spy)
        img = watch_face_image(40, 56, channels=1)
        comps, depth = __import__(
            "repro.jpeg2000.encoder", fromlist=["_normalize_image"]
        )._normalize_image(img)
        params = EncoderParams(lossless=True, levels=3)
        ref, fused = _frontends(comps, depth, params, workers=4)
        _assert_identical(ref, fused)
        # Every queue the front end built was clamped down to one worker.
        assert calls and all(a == (1,) and not kw for a, kw in calls)
