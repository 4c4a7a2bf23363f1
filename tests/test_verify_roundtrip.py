"""Round-trip verification: PSNR math, self-check hook, corpus gate."""

import json
import math
import os

import numpy as np
import pytest

from repro.image.synthetic import watch_face_image
from repro.jpeg2000.decoder import decode
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.verify import (
    VerificationError,
    base_corpus,
    psnr,
    psnr_floor,
    run_corpus,
    verify_roundtrip,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestPsnr:
    def test_identical_is_inf(self):
        img = watch_face_image(16, 16, channels=1)
        assert math.isinf(psnr(img, img))

    def test_known_mse(self):
        a = np.zeros((10, 10), dtype=np.uint8)
        b = np.full((10, 10), 16, dtype=np.uint8)  # MSE = 256
        assert psnr(a, b) == pytest.approx(10 * math.log10(255**2 / 256))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_uint16_peak(self):
        a = np.zeros((8, 8), dtype=np.uint16)
        b = np.full((8, 8), 256, dtype=np.uint16)
        assert psnr(a, b) == pytest.approx(10 * math.log10(65535**2 / 256**2))

    def test_floor_lookup(self):
        assert psnr_floor(0.1) == 28.0
        assert psnr_floor(0.17) == 28.0   # floor of largest key <= rate
        assert psnr_floor(1.0) == 38.0
        assert psnr_floor(0.01) == 20.0   # below the smallest key
        assert psnr_floor(None) == 34.0   # lossy without rate control


class TestVerifyRoundtrip:
    def test_lossless_passes(self):
        img = watch_face_image(32, 32, channels=1)
        params = EncoderParams(lossless=True, levels=2)
        cs = encode(img, params).codestream
        report = verify_roundtrip(img, cs, params)
        assert report.exact and math.isinf(report.psnr)
        assert report.kind == "lossless"

    def test_wrong_image_fails_bit_exact(self):
        img = watch_face_image(32, 32, channels=1)
        params = EncoderParams(lossless=True, levels=2)
        cs = encode(img, params).codestream
        other = img.copy()
        other[0, 0] ^= 1
        with pytest.raises(VerificationError) as err:
            verify_roundtrip(other, cs, params)
        assert err.value.details["kind"] == "lossless"
        assert err.value.details["differing_samples"] == 1

    def test_undecodable_codestream_fails(self):
        img = watch_face_image(16, 16, channels=1)
        with pytest.raises(VerificationError) as err:
            verify_roundtrip(img, b"\x00garbage", EncoderParams())
        assert err.value.details["kind"] == "undecodable"

    def test_lossy_floor_enforced(self):
        img = watch_face_image(32, 32, channels=1)
        params = EncoderParams(lossless=False, levels=2)
        cs = encode(img, params).codestream
        report = verify_roundtrip(img, cs, params)
        assert report.psnr >= report.floor
        with pytest.raises(VerificationError) as err:
            verify_roundtrip(img, cs, params, floor=1000.0)
        assert err.value.details["kind"] == "lossy"
        assert err.value.details["floor_db"] == 1000.0

    def test_shape_mismatch_fails(self):
        img = watch_face_image(32, 32, channels=1)
        params = EncoderParams(lossless=True, levels=2)
        cs = encode(img, params).codestream
        with pytest.raises(VerificationError) as err:
            verify_roundtrip(watch_face_image(16, 16, channels=1), cs, params)
        assert err.value.details["kind"] == "shape"


class TestSelfCheckParam:
    def test_self_check_encode_succeeds(self):
        img = watch_face_image(24, 24, channels=1)
        result = encode(img, EncoderParams(lossless=True, levels=2,
                                           self_check=True))
        assert result.codestream  # identical path, just verified

    def test_self_check_failure_propagates(self, monkeypatch):
        def boom(image, result):
            raise VerificationError("forced", {"kind": "test"})

        monkeypatch.setattr("repro.verify.roundtrip.verify_encode", boom)
        img = watch_face_image(24, 24, channels=1)
        with pytest.raises(VerificationError, match="forced"):
            encode(img, EncoderParams(lossless=True, levels=2, self_check=True))

    def test_self_check_off_never_verifies(self, monkeypatch):
        def boom(image, result):  # pragma: no cover - must not run
            raise AssertionError("self_check=False must not verify")

        monkeypatch.setattr("repro.verify.roundtrip.verify_encode", boom)
        img = watch_face_image(24, 24, channels=1)
        encode(img, EncoderParams(lossless=True, levels=2))


class TestParamsValidation:
    def test_lossless_with_rate_raises(self):
        with pytest.raises(ValueError, match="lossless=True cannot be combined"):
            EncoderParams(lossless=True, rate=0.1)

    def test_message_names_both_remedies(self):
        with pytest.raises(ValueError, match="lossless=False or rate=None"):
            EncoderParams(lossless=True, rate=0.5)


class TestCorpusGate:
    def test_corpus_is_diverse(self):
        entries = base_corpus()
        assert len(entries) >= 5
        assert any(e.params.lossless for e in entries)
        assert any(not e.params.lossless for e in entries)
        assert any(e.params.rate is not None for e in entries)
        assert any(e.image.ndim == 3 and e.image.shape[2] == 3 for e in entries)
        assert len({e.name for e in entries}) == len(entries)

    def test_quick_corpus_passes(self):
        report = run_corpus(rates=(0.25,), quick=True)
        assert report.ok, report.summary() + str(report.failures)
        names = [c.name for c in report.checks]
        assert any(n.startswith("lossy-psnr-floor") for n in names)
        assert any(n.startswith("byte-identity") for n in names)


class TestBenchRateGeometry:
    """Lossy round trip for the BENCH_rate.json geometry, scaled down.

    The benchmark encodes 2048x2048x3 at 5 levels / 64x64 blocks — far too
    slow to decode in a Python test, so the sweep keeps the coding
    parameters (channels, levels, code block size) and scales the canvas
    to 128x128.  Byte identity across backends and worker counts transfers
    each decode verdict to every combination.
    """

    @pytest.fixture(scope="class")
    def geometry(self):
        with open(os.path.join(REPO_ROOT, "BENCH_rate.json")) as fh:
            bench = json.load(fh)
        geo = bench["rate_control"]["geometry"]
        dims, levels_s, blocks_s = [part.strip() for part in geo.split(",")]
        w, h, channels = (int(x) for x in dims.split("x"))
        levels = int(levels_s.split()[0])
        cb = int(blocks_s.split()[0].split("x")[0])
        assert (w, h, channels) == (2048, 2048, 3)
        return channels, levels, cb

    @pytest.fixture(scope="class")
    def rate_sweep(self, geometry):
        channels, levels, cb = geometry
        img = watch_face_image(128, 128, channels=channels)
        sweep = {}
        for rate in (0.1, 0.25, 1.0):
            params = EncoderParams(lossless=False, rate=rate, levels=levels,
                                   codeblock_size=cb)
            cs = encode(img, params).codestream
            sweep[rate] = (params, cs, psnr(img, decode(cs)))
        return img, sweep

    def test_psnr_clears_per_rate_floor(self, rate_sweep):
        _, sweep = rate_sweep
        for rate, (_, _, measured) in sweep.items():
            assert measured >= psnr_floor(rate), (
                f"rate {rate}: {measured:.2f} dB under "
                f"{psnr_floor(rate):.2f} dB floor"
            )

    def test_psnr_monotone_in_rate(self, rate_sweep):
        _, sweep = rate_sweep
        psnrs = [sweep[r][2] for r in sorted(sweep)]
        for lo, hi in zip(psnrs, psnrs[1:]):
            assert hi >= lo - 0.01  # equal allowed: the cap may not bind

    @pytest.mark.parametrize("backend", ["auto", "reference"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_byte_identity_transfers_verdict(self, rate_sweep, backend, workers):
        img, sweep = rate_sweep
        for rate, (params, cs, _) in sweep.items():
            variant = EncoderParams(
                lossless=False, rate=rate, levels=params.levels,
                codeblock_size=params.codeblock_size,
                tier1_backend=backend, workers=workers,
            )
            assert encode(img, variant).codestream == cs, (
                f"{backend}/workers={workers} diverges at rate {rate}"
            )
