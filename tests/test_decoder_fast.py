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
        # Small images auto-clamp to serial; force the process pool so the
        # pickle round trip and seq reassembly actually run.
        monkeypatch.setattr(workpool, "TIER1_AUTO_SERIAL_MIN_BLOCKS", 0)
        monkeypatch.setattr(workpool, "available_cores", lambda: 2)
        img, cs = _roundtrip_stream((64, 96, 3), levels=2)
        ref = decode_reference(cs)
        out = decode(cs, workers=2)
        assert np.array_equal(out, ref)

    def test_timings_populated(self):
        _, cs = _roundtrip_stream((64, 64, 3))
        t = DecodeStageTimings()
        decode(cs, timings=t)
        assert t.total > 0
        assert t.tier1 > 0 and t.idwt_mct > 0
        assert set(t.as_dict()) == set(DecodeStageTimings.STAGES) | {"total"}


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

        rng = np.random.default_rng(42)
        planes = [
            rng.integers(-255, 256, size=(75, 101)).astype(np.int32)
            for _ in range(ncomp)
        ]
        decomps = [forward_dwt2d(p, levels=3, reversible=lossless)
                   for p in planes]
        expected = mct.inverse_mct(
            [inverse_dwt2d(d) for d in decomps], 8, lossless
        )
        got = run_inverse_frontend(decomps, 8, lossless)
        for e, g in zip(expected, got):
            assert e.dtype == g.dtype
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
    from repro.jpeg2000.tier1 import encode_codeblock

    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(count):
        h, w = (32, 24) if i % 3 else (16, 8)
        vals = rng.integers(-80, 81, size=(h, w)).astype(np.int32)
        enc = encode_codeblock(vals, "LL")
        blocks.append((enc.data, h, w, "LL", enc.msbs, enc.num_passes))
    return blocks


class TestWorkpoolDecodeAll:
    def test_injected_pool_accepted(self):
        from repro.core.workpool import CodeBlockWorkQueue, _group_task
        from repro.jpeg2000.tier1_dec_vec import decode_codeblocks_batched

        class InlinePool:
            """Duck-typed pool (like a service scheduler job)."""
            workers = 2

            def imap_unordered(self, payloads):
                for p in payloads:
                    assert p[0] == "decode"
                    yield _group_task(p)

        blocks = _decode_blocks()
        queue = CodeBlockWorkQueue(InlinePool())
        assert queue.decode_groups([]) == []
        got = queue.decode_groups(blocks)
        assert queue.last_stats.groups < len(blocks)
        for g, w in zip(got, decode_codeblocks_batched(blocks)):
            assert np.array_equal(g, w)

    def test_serial_and_parallel_agree(self):
        from repro.core.workpool import CodeBlockWorkQueue, ThreadPool
        from repro.jpeg2000.tier1_dec_vec import decode_codeblocks_batched

        blocks = _decode_blocks()
        serial = decode_codeblocks_batched(blocks)
        with ThreadPool(3) as pool:
            parallel = CodeBlockWorkQueue(pool).decode_groups(blocks)
        assert len(serial) == len(parallel) == len(blocks)
        for s, p in zip(serial, parallel):
            assert np.array_equal(s, p)


class TestBlockDecoderDifferential:
    """:func:`decode_codeblocks_batched` against the scalar oracle, block
    by block: the native kernel where it loads, the oracle fallback where
    it does not."""

    @staticmethod
    def _assert_matches_oracle(blocks):
        from repro.jpeg2000.tier1 import decode_codeblock
        from repro.jpeg2000.tier1_dec_vec import decode_codeblocks_batched

        got = decode_codeblocks_batched(blocks)
        assert len(got) == len(blocks)
        for blk, g in zip(blocks, got):
            want = decode_codeblock(*blk)
            assert g.dtype == want.dtype and g.shape == want.shape
            assert np.array_equal(g, want), blk[1:]

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
            with pytest.raises(ValueError):
                decode_codeblocks_batched([bad])
