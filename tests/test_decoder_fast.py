"""The block decoder against the scalar reference.

The contract under test: every backend x workers combination of
:func:`repro.jpeg2000.decoder.decode` reconstructs samples identical to
:func:`decode_reference`, enforces the same :class:`DecodeLimits`, and
rejects the same malformed inputs with the same typed error — the fast
path buys speed only, never behaviour.
"""

import os

import numpy as np
import pytest

from repro.core import workpool
from repro.image.synthetic import gradient_image, watch_face_image
from repro.jpeg2000 import _mq_native
from repro.jpeg2000.decoder import (
    DEC_BACKENDS,
    decode,
    decode_reference,
    resolve_dec_backend,
)
from repro.jpeg2000.dwt_fast import DecodeStageTimings, run_inverse_frontend
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.errors import CodestreamError, DecodeLimits
from repro.jpeg2000.params import EncoderParams

FAST_BACKENDS = ("auto",)


def _roundtrip_stream(shape, lossless=True, levels=2, codeblock=64, seed=0):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=shape, dtype=np.uint8)
    params = EncoderParams(lossless=lossless, levels=levels,
                           codeblock_size=codeblock)
    return img, encode(img, params).codestream


class TestBackendResolution:
    def test_default_is_batched(self, monkeypatch):
        # The default backend is the block decoder entry,
        # tier1_dec_vec.decode_codeblocks_batched.
        from repro.jpeg2000 import tier1_dec_vec

        assert DEC_BACKENDS == ("auto", "reference")
        assert resolve_dec_backend(None) == "auto"
        assert resolve_dec_backend("auto") == "auto"
        assert resolve_dec_backend("reference") == "reference"
        calls = []
        real = tier1_dec_vec.decode_codeblocks_batched
        monkeypatch.setattr(tier1_dec_vec, "decode_codeblocks_batched",
                            lambda blocks: calls.append(1) or real(blocks))
        img, cs = _roundtrip_stream((16, 16))
        assert np.array_equal(decode(cs), img)
        assert calls == [1]

    def test_invalid_names_raise(self):
        for name in ("turbo", "batched", "vectorized"):
            with pytest.raises(ValueError, match="unknown decode backend"):
                resolve_dec_backend(name)

    def test_backends_constant(self):
        assert set(FAST_BACKENDS) < set(DEC_BACKENDS)


class TestDifferential:
    """Fast backends vs the scalar oracle, across the geometry space."""

    @pytest.mark.parametrize("shape", [
        (16, 16), (61, 47), (64, 64, 3), (40, 72, 3),
    ])
    @pytest.mark.parametrize("lossless", [True, False])
    def test_shapes_and_filters(self, shape, lossless):
        img, cs = _roundtrip_stream(shape, lossless=lossless)
        ref = decode_reference(cs)
        for backend in FAST_BACKENDS:
            out = decode(cs, backend=backend)
            assert out.dtype == ref.dtype and out.shape == ref.shape
            assert np.array_equal(out, ref), (shape, lossless, backend)
        if lossless:
            assert np.array_equal(ref, img)

    @pytest.mark.parametrize("levels", [0, 1, 5])
    def test_levels(self, levels):
        img, cs = _roundtrip_stream((96, 80, 3), levels=levels)
        ref = decode_reference(cs)
        for backend in FAST_BACKENDS:
            assert np.array_equal(decode(cs, backend=backend), ref)

    def test_ragged_small_codeblocks(self):
        img, cs = _roundtrip_stream((53, 37), codeblock=16, levels=3)
        ref = decode_reference(cs)
        for backend in FAST_BACKENDS:
            assert np.array_equal(decode(cs, backend=backend), ref)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_identical(self, workers):
        img, cs = _roundtrip_stream((64, 96, 3), levels=2)
        ref = decode_reference(cs)
        for backend in FAST_BACKENDS:
            out = decode(cs, backend=backend, workers=workers)
            assert np.array_equal(out, ref), (backend, workers)

    def test_workers_through_real_pool(self, monkeypatch):
        # Small images auto-clamp to serial; force the thread pool so
        # block groups really decode into the planes from its threads.
        monkeypatch.setattr(workpool, "TIER1_AUTO_SERIAL_MIN_BLOCKS", 0)
        monkeypatch.setattr(workpool, "available_cores", lambda: 2)
        img, cs = _roundtrip_stream((64, 96, 3), levels=2)
        ref = decode_reference(cs)
        out = decode(cs, workers=2)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one_rejected_like_encode(self, workers):
        # Both directions agree on what a worker count may be: the error
        # is the caller's ValueError, never a CodestreamError.
        img, cs = _roundtrip_stream((16, 16), levels=1)
        with pytest.raises(ValueError) as encode_err:
            EncoderParams(workers=workers)
        with pytest.raises(ValueError) as decode_err:
            decode(cs, workers=workers)
        assert not isinstance(decode_err.value, CodestreamError)
        assert str(decode_err.value) == str(encode_err.value)
        assert np.array_equal(decode(cs, workers=None), img)

    def test_timings_populated(self):
        _, cs = _roundtrip_stream((64, 64, 3))
        t = DecodeStageTimings()
        decode(cs, timings=t)
        assert t.total > 0
        assert t.tier1 > 0 and t.idwt_mct > 0
        assert set(t.as_dict()) == set(DecodeStageTimings.STAGES) | {"total"}


class TestTiledDecode:
    """A tiled decode streams tile rows; each row is clamped on its own.

    80x120 gray in 64-px tiles with 16-px blocks and 2 levels: the top row
    (two full-height tiles) decodes 32 blocks, over the 24-block serial
    clamp; the 16-px bottom row decodes 20, under it.
    """

    @pytest.fixture
    def dispatch(self, monkeypatch):
        from repro.jpeg2000 import tier1_dec_vec

        monkeypatch.setattr(workpool, "available_cores", lambda: 2)
        calls = []
        serial = tier1_dec_vec.decode_codeblocks_batched
        grouped = workpool.CodeBlockWorkQueue.decode_groups
        monkeypatch.setattr(
            tier1_dec_vec, "decode_codeblocks_batched",
            lambda blocks: calls.append(("serial", len(blocks)))
            or serial(blocks))
        monkeypatch.setattr(
            workpool.CodeBlockWorkQueue, "decode_groups",
            lambda queue, blocks: calls.append(("pool", len(blocks)))
            or grouped(queue, blocks))
        return calls

    @pytest.mark.parametrize("lossless", [True, False])
    def test_rows_match_reference(self, dispatch, lossless):
        img = watch_face_image(80, 120, channels=1)
        cs = encode(img, EncoderParams(
            lossless=lossless, rate=None if lossless else 0.5, levels=2,
            codeblock_size=16, tile_size=64)).codestream
        ref = decode_reference(cs)
        if lossless:
            assert np.array_equal(ref, img)
        assert np.array_equal(decode(cs, workers=1), ref)
        assert dispatch == [("serial", 32), ("serial", 20)]
        dispatch.clear()
        assert np.array_equal(decode(cs, workers=2), ref)
        assert dispatch == [("pool", 32), ("serial", 20)]
        dispatch.clear()
        with workpool.ThreadPool(2) as pool, pool.job(0) as lane:
            assert np.array_equal(decode(cs, pool=lane), ref)
        assert dispatch == [("pool", 32), ("serial", 20)]


_DECODE_PEAK_SCRIPT = """
import sys
from repro.image.synthetic import watch_face_image
from repro.jpeg2000.decoder import decode
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams


def hwm():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024


lossless = sys.argv[2] == "lossless"
small = watch_face_image(64, 64, channels=3)
decode(encode(small, EncoderParams(lossless=lossless,
                                   rate=None if lossless else 0.1)).codestream)
with open(sys.argv[1], "rb") as fh:
    codestream = fh.read()
base = hwm()
decode(codestream)
print(hwm() - base)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status for VmHWM")
@pytest.mark.skipif(_mq_native._LIB is None,
                    reason="the oracle front end keeps float64 planes")
class TestDecodePeakMemory:
    """A decode's memory peak follows its output: the VmHWM rise of a
    1024^2x3 decode in a fresh process, per decoded sample.  Before
    blocks decoded into their planes and the front end stored into the
    image it was 14.6 (lossless) and 24.3 (lossy) bytes per sample; it
    is about 7.2 and 7.4 now.  In 128-px tiles a decode holds one tile
    row's planes at a time: 1.8 and 0.5 bytes per sample, against 6.0
    and 4.5 when every tile's planes were alive together."""

    @staticmethod
    def _rise_per_sample(tmp_path, mode, tile_size=None):
        import subprocess
        import sys

        lossless = mode == "lossless"
        img = watch_face_image(1024, 1024, channels=3)
        path = tmp_path / "image.j2c"
        path.write_bytes(encode(img, EncoderParams(
            lossless=lossless, rate=None if lossless else 0.1,
            tile_size=tile_size)).codestream)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        rise = int(subprocess.run(
            [sys.executable, "-c", _DECODE_PEAK_SCRIPT, str(path), mode],
            capture_output=True, text=True, check=True, env=env,
            timeout=300,
        ).stdout)
        return rise / img.size

    @pytest.mark.parametrize("mode,bound", [("lossless", 10.0),
                                            ("lossy", 10.0)])
    def test_vmhwm_rise_per_sample(self, tmp_path, mode, bound):
        per_sample = self._rise_per_sample(tmp_path, mode)
        assert per_sample <= bound, (
            f"{mode} decode peaked {per_sample:.2f} B/sample > {bound}"
        )

    @pytest.mark.parametrize("mode", ["lossless", "lossy"])
    def test_tiled_vmhwm_rise_per_sample(self, tmp_path, mode):
        per_sample = self._rise_per_sample(tmp_path, mode, tile_size=128)
        assert per_sample <= 3.0, (
            f"tiled {mode} decode peaked {per_sample:.2f} B/sample > 3.0"
        )


class TestGoldenCorpus:
    """Every verification-corpus entry, every backend, one oracle."""

    def test_corpus_roundtrips(self):
        from repro.verify.corpus import base_corpus

        for entry in base_corpus():
            cs = encode(entry.image, entry.params).codestream
            ref = decode_reference(cs)
            if entry.params.lossless:
                assert np.array_equal(ref, entry.image), entry.name
            for backend in FAST_BACKENDS:
                for workers in (1, 2):
                    out = decode(cs, backend=backend, workers=workers)
                    assert np.array_equal(out, ref), (
                        entry.name, backend, workers,
                    )


class TestInverseFrontend:
    """The native inverse front end against the oracle pipeline."""

    @pytest.mark.parametrize("lossless", [True, False])
    @pytest.mark.parametrize("ncomp", [1, 3])
    def test_matches_inverse_dwt_plus_mct(self, lossless, ncomp):
        from repro.jpeg2000 import mct
        from repro.jpeg2000.dwt import forward_dwt2d, inverse_dwt2d
        from repro.jpeg2000.dwt_fast import _decomposition
        from repro.jpeg2000.quantize import dequantize, quantize

        rng = np.random.default_rng(42)
        planes = [
            rng.integers(-255, 256, size=(75, 101)).astype(np.int32)
            for _ in range(ncomp)
        ]
        steps = [1.0] * 10 if lossless else list(rng.uniform(0.5, 3.0, 10))
        bands, oracle = [], []
        for p in planes:
            d = forward_dwt2d(p, levels=3, reversible=lossless)
            coeffs = [b for lvl in d.details for b in lvl] + [d.ll]
            if not lossless:
                coeffs = [quantize(b, s) for b, s in zip(coeffs, steps)]
                d = _decomposition(d.shape, 3, False, [
                    dequantize(b, s) for b, s in zip(coeffs, steps)])
            bands.append(coeffs)
            oracle.append(d)
        expected = mct.inverse_mct(
            [inverse_dwt2d(d) for d in oracle], 8, lossless
        )
        out = np.empty((75, 101) + ((ncomp,) if ncomp > 1 else ()), np.uint8)
        run_inverse_frontend(bands, steps, 8, lossless, out)
        got = [out] if ncomp == 1 else [out[..., c] for c in range(ncomp)]
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)


class TestLimitsAndErrorParity:
    """Same limits, same typed rejections, on every backend."""

    def test_limits_enforced_identically(self):
        _, cs = _roundtrip_stream((64, 64))
        limits = DecodeLimits(max_dimension=16)
        outcomes = []
        for backend in ("reference",) + FAST_BACKENDS:
            with pytest.raises(CodestreamError) as err:
                decode(cs, limits=limits, backend=backend)
            outcomes.append(type(err.value).__name__)
        assert len(set(outcomes)) == 1

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_truncation_parity(self, backend):
        _, cs = _roundtrip_stream((48, 48, 3))
        for cut in (10, 30, len(cs) * 2 // 3, len(cs) - 3):
            ref_outcome = _outcome(cs[:cut], "reference")
            assert _outcome(cs[:cut], backend) == ref_outcome, cut

    def test_fuzz_parity_seeded(self):
        """Mutated codestreams classify identically on every backend."""
        from repro.verify.corpus import base_codestreams
        from repro.verify.fuzz import FUZZ_LIMITS, case_rng, classify, mutate

        bases = base_codestreams()
        mismatches = []
        for case in range(150):
            rng = case_rng(2008, case)
            _, base = bases[case % len(bases)]
            data, mutators = mutate(base, rng)
            ref_name, ref_exc = classify(data, FUZZ_LIMITS, "reference")
            assert ref_exc is None, (case, mutators, ref_exc)
            for backend in FAST_BACKENDS:
                name, exc = classify(data, FUZZ_LIMITS, backend)
                assert exc is None, (case, mutators, backend, exc)
                if name != ref_name:
                    mismatches.append((case, mutators, backend,
                                       ref_name, name))
        assert not mismatches, mismatches[:5]


def _outcome(data, backend):
    try:
        out = decode(data, backend=backend)
        return ("decoded", out.tobytes())
    except CodestreamError as exc:
        return (type(exc).__name__,)


def _decode_blocks(seed=3, count=6):
    """Encoded blocks, each with a window of one int32 plane to decode
    into; returns the items and the plane."""
    from repro.jpeg2000.tier1 import encode_codeblock

    rng = np.random.default_rng(seed)
    plane = np.zeros((32, 24 * count), np.int32)
    blocks = []
    for i in range(count):
        h, w = (32, 24) if i % 3 else (16, 8)
        vals = rng.integers(-80, 81, size=(h, w)).astype(np.int32)
        enc = encode_codeblock(vals, "LL")
        blocks.append((enc.data, h, w, "LL", enc.msbs, enc.num_passes,
                       plane[:h, 24 * i : 24 * i + w]))
    return blocks, plane


class TestWorkpoolDecodeAll:
    def test_injected_pool_accepted(self):
        from repro.core.workpool import CodeBlockWorkQueue, _group_task
        from repro.jpeg2000.tier1_dec_vec import decode_codeblocks_batched

        class InlinePool:
            """Duck-typed pool (like a service request's lane)."""
            workers = 2

            def imap_unordered(self, payloads):
                for p in payloads:
                    assert p[0] == "decode"
                    yield _group_task(p)

        blocks, plane = _decode_blocks()
        queue = CodeBlockWorkQueue(InlinePool())
        assert queue.decode_groups([]) is None
        assert queue.decode_groups(blocks) is None
        assert queue.last_stats.groups < len(blocks)
        serial, want = _decode_blocks()
        decode_codeblocks_batched(serial)
        assert want.any() and np.array_equal(plane, want)

    def test_serial_and_parallel_agree(self):
        from repro.core.workpool import CodeBlockWorkQueue, ThreadPool
        from repro.jpeg2000.tier1_dec_vec import decode_codeblocks_batched

        serial, want = _decode_blocks()
        decode_codeblocks_batched(serial)
        blocks, plane = _decode_blocks()
        with ThreadPool(3) as pool:
            CodeBlockWorkQueue(pool).decode_groups(blocks)
        assert want.any() and np.array_equal(plane, want)


class TestBlockDecoderDifferential:
    """:func:`decode_codeblocks_batched` against the scalar oracle, block
    by block: the native kernel where it loads, the oracle fallback where
    it does not."""

    SENTINEL = -0x5A5A5A5A

    @classmethod
    def _assert_matches_oracle(cls, blocks):
        """Each block decodes into a strided window of its own larger
        sentinel-filled plane, equal to the oracle inside it and leaving
        every sample outside it as it was."""
        from repro.jpeg2000.tier1 import decode_codeblock
        from repro.jpeg2000.tier1_dec_vec import decode_codeblocks_batched

        planes, items = [], []
        for i, (data, h, w, band, msbs, passes) in enumerate(blocks):
            plane = np.full((h + 3, w + 7 + i % 5), cls.SENTINEL, np.int32)
            planes.append(plane)
            items.append((data, h, w, band, msbs, passes,
                          plane[1 : 1 + h, 2 + i % 5 : 2 + i % 5 + w]))
        decode_codeblocks_batched(items)
        for blk, plane, item in zip(blocks, planes, items):
            dst = item[-1]
            assert np.array_equal(dst, decode_codeblock(*blk)), blk[1:]
            dst[...] = cls.SENTINEL
            assert (plane == cls.SENTINEL).all(), blk[1:]

    @pytest.mark.parametrize("band", ["LL", "HL", "LH", "HH"])
    @pytest.mark.parametrize("shape", [(1, 1), (13, 10), (16, 64), (64, 64)])
    def test_every_truncation(self, shape, band):
        from repro.jpeg2000.tier1 import encode_codeblock

        rng = np.random.default_rng([*shape, len(band), ord(band[0])])
        vals = rng.integers(-300, 301, size=shape).astype(np.int32)
        vals[rng.random(shape) < 0.5] = 0
        enc = encode_codeblock(vals, band)
        h, w = shape
        blocks = [(enc.data, h, w, band, enc.msbs, k)
                  for k in range(enc.num_passes + 1)]
        self._assert_matches_oracle(blocks)

    @pytest.mark.parametrize("band", ["LL", "HL", "LH", "HH"])
    def test_coefficients_near_two_to_the_30(self, band):
        from repro.jpeg2000.tier1 import encode_codeblock

        rng = np.random.default_rng(30)
        vals = rng.integers(-3, 4, size=(13, 10)).astype(np.int32)
        vals[::3, ::2] = (1 << 30) - rng.integers(0, 1 << 20, size=(5, 5))
        vals[1::4, 1::3] *= -1
        enc = encode_codeblock(vals, band)
        assert enc.msbs == 30
        blocks = [(enc.data, 13, 10, band, enc.msbs, k)
                  for k in range(enc.num_passes + 1)]
        self._assert_matches_oracle(blocks)

    @pytest.mark.parametrize("msbs", [31, 32, 35, 38])
    def test_random_bytes_deep_planes(self, msbs):
        # Samples made significant above plane 31 reconstruct past the
        # int32 range; the int32 narrowing must wrap exactly as the
        # oracle's astype does.  38 is the decoder's header cap.
        rng = np.random.default_rng(msbs)
        max_passes = 1 + 3 * (msbs - 1)
        blocks = []
        for band in ("LL", "HL", "LH", "HH"):
            for h, w in ((1, 1), (13, 10), (16, 64)):
                data = rng.integers(0, 256, size=int(rng.integers(0, 400)),
                                    dtype=np.uint8).tobytes()
                for k in (1, 2, 3, 4, max_passes // 2, max_passes):
                    blocks.append((data, h, w, band, msbs, k))
        self._assert_matches_oracle(blocks)

    def test_empty_and_invalid_blocks(self):
        from repro.jpeg2000.tier1_dec_vec import decode_codeblocks_batched

        self._assert_matches_oracle([
            (b"", 4, 4, "LL", 0, 0), (b"\x12", 3, 5, "XX", 0, 7),
            (b"\x12", 3, 5, "HH", 4, 0),
        ])
        for bad in ((b"", 65, 4, "LL", 3, 1), (b"", 4, 4, "LL", -1, 1),
                    (b"", 4, 4, "LL", 2, 5), (b"", 4, 4, "XX", 2, 1)):
            dst = np.zeros(bad[1:3], np.int32)
            with pytest.raises(ValueError):
                decode_codeblocks_batched([(*bad, dst)])
        # A destination the block does not fit is refused, never written
        # past.
        enc = b"\x12\x34"
        plane = np.zeros((8, 8), np.int32)
        for dst in (plane[:4, :3], plane[:4, :4].astype(np.int64),
                    plane[:4, ::2]):
            with pytest.raises(ValueError):
                decode_codeblocks_batched([(enc, 4, 4, "LL", 3, 1, dst)])
        assert not plane.any()
