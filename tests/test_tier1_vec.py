"""Differential tests: the Tier-1 block encoder vs. the scalar oracle.

The block encoder (:func:`repro.jpeg2000.tier1_batch.encode_codeblocks_batched`,
native whole-block kernel in :mod:`repro.jpeg2000._mq_native`) must
reproduce the reference coder *exactly* — every stream byte, pass
boundary, symbol count, and distortion float — because rate control and
the Cell performance model consume all of them.  These tests sweep block
shapes, bands, every pass count up to 46, the kernel's bit-plane limit,
coefficient profiles and randomized blocks via hypothesis.  On a host
without the kernel (or under ``REPRO_MQ_NATIVE=0``) the same tests pin the
oracle fallback.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg2000 import _mq_native, tier1, tier1_geom
from repro.jpeg2000.tier1 import (
    decode_codeblock,
    encode_codeblock,
    encode_codeblock_reference,
)
from repro.jpeg2000.tier1_batch import encode_codeblocks_batched

BANDS = ["LL", "HL", "LH", "HH"]
ISSUE_SHAPES = [(1, 1), (3, 5), (5, 7), (33, 64), (64, 64)]
DIFF_SHAPES = [(1, 1), (13, 10), (16, 64), (64, 64)]


def shape_id(shape) -> str:
    return f"{shape[0]}x{shape[1]}"


def encode_block(cb: np.ndarray, band: str):
    return encode_codeblocks_batched([(cb, band)])[0]


def assert_identical(cb: np.ndarray, band: str) -> None:
    ref = encode_codeblock_reference(cb, band)
    got = encode_block(cb, band)
    assert got.data == ref.data
    assert got.msbs == ref.msbs
    assert got.num_passes == ref.num_passes
    assert got.pass_types == ref.pass_types
    assert got.pass_lengths == ref.pass_lengths
    assert got.pass_symbols == ref.pass_symbols
    assert got.pass_dist == ref.pass_dist  # exact float equality, on purpose
    assert got == ref


def block_at_msbs(rng, shape, msbs: int, zero_share: float) -> np.ndarray:
    """Signed int64 block whose largest magnitude has exactly ``msbs`` bits.

    Magnitudes are drawn below ``2**msbs``; ``zero_share`` of the samples
    are zeroed (run-length stripes), and one sample sits at the top bit.
    """
    h, w = shape
    mag = rng.integers(0, 2**msbs, size=shape, dtype=np.uint64)
    mag[rng.random(shape) < zero_share] = 0
    mag.flat[rng.integers(h * w)] |= np.uint64(1) << np.uint64(msbs - 1)
    neg = rng.random(shape) < 0.5
    cb = mag.astype(np.int64)
    cb[neg] = -cb[neg]
    return cb


def profile_block(rng, shape, profile: str) -> np.ndarray:
    h, w = shape
    if profile == "sparse":
        cb = np.zeros(shape, dtype=np.int32)
        k = max(1, (h * w) // 8)
        idx = rng.choice(h * w, size=k, replace=False)
        cb.ravel()[idx] = rng.integers(-500, 500, size=k)
        return cb
    if profile == "dense":
        return rng.integers(-2000, 2000, size=shape).astype(np.int32)
    if profile == "negative":
        return rng.integers(-4000, -1, size=shape).astype(np.int32)
    raise AssertionError(profile)


class TestDifferential:
    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("shape", ISSUE_SHAPES)
    @pytest.mark.parametrize("profile", ["sparse", "dense", "negative"])
    def test_issue_matrix(self, band, shape, profile):
        rng = np.random.default_rng((hash((band, shape, profile))) % 2**32)
        assert_identical(profile_block(rng, shape, profile), band)

    @pytest.mark.parametrize("band", BANDS)
    def test_all_zero(self, band):
        assert_identical(np.zeros((8, 8), dtype=np.int32), band)
        assert_identical(np.zeros((1, 1), dtype=np.int32), band)

    @pytest.mark.parametrize("band", BANDS)
    def test_single_coefficient(self, band):
        cb = np.zeros((4, 4), dtype=np.int32)
        cb[2, 1] = -7
        assert_identical(cb, band)

    def test_stripe_remainders(self):
        # Heights 1..9 cross every 4-row stripe remainder case.
        rng = np.random.default_rng(11)
        for h in range(1, 10):
            cb = rng.integers(-64, 64, size=(h, 6)).astype(np.int32)
            assert_identical(cb, "HH")

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 16),
        w=st.integers(1, 16),
        band=st.sampled_from(BANDS),
        mag=st.sampled_from([1, 7, 255, 4095]),
        seed=st.integers(0, 2**31),
    )
    def test_randomized(self, h, w, band, mag, seed):
        rng = np.random.default_rng(seed)
        cb = rng.integers(-mag, mag + 1, size=(h, w)).astype(np.int32)
        assert_identical(cb, band)

    @pytest.mark.parametrize("band", BANDS)
    def test_vectorized_roundtrips(self, band):
        rng = np.random.default_rng(5)
        cb = rng.integers(-300, 300, size=(13, 10)).astype(np.int32)
        res = encode_block(cb, band)
        out = decode_codeblock(res.data, 13, 10, band, res.msbs, res.num_passes)
        assert np.array_equal(out, cb)


class TestBlockEncoderDifferential:
    """The block encoder against the oracle over shapes x bands x depths."""

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("shape", DIFF_SHAPES, ids=shape_id)
    def test_every_pass_count(self, shape, band):
        # msbs 1..16 codes 1, 4, ..., 46 passes; dense and sparse blocks
        # exercise both the per-sample and the run-length cleanup paths.
        rng = np.random.default_rng([*shape, BANDS.index(band)])
        for msbs in range(1, 17):
            for zero_share in (0.0, 0.85):
                cb = block_at_msbs(rng, shape, msbs, zero_share)
                got = encode_block(cb, band)
                assert got.msbs == msbs
                assert got.num_passes == 1 + 3 * (msbs - 1)
                assert_identical(cb, band)

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("shape", DIFF_SHAPES, ids=shape_id)
    def test_all_zero_and_single_sample(self, shape, band):
        zero = np.zeros(shape, dtype=np.int32)
        assert encode_block(zero, band).num_passes == 0
        assert_identical(zero, band)
        h, w = shape
        one = np.zeros(shape, dtype=np.int32)
        one[h // 2, w // 2] = -5
        assert_identical(one, band)

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("shape", DIFF_SHAPES, ids=shape_id)
    def test_alternating_signs(self, shape, band):
        h, w = shape
        signs = np.where((np.add.outer(np.arange(h), np.arange(w)) % 2) == 0,
                         1, -1)
        rng = np.random.default_rng(3)
        assert_identical(signs * rng.integers(1, 200, size=shape), band)
        assert_identical(signs * 1000, band)

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("shape", DIFF_SHAPES[:3], ids=shape_id)
    def test_deepest_kernel_block(self, shape, band):
        # Magnitudes just under 2**MAX_MSBS: the deepest block the kernel
        # codes, where distortion terms exceed 2**53 and their float sums
        # depend on the order they are added in.
        rng = np.random.default_rng([*shape, BANDS.index(band), 62])
        for zero_share in (0.0, 0.6):
            cb = block_at_msbs(rng, shape, _mq_native.MAX_MSBS, zero_share)
            assert_identical(cb, band)
            if _mq_native.native_encode_block is not None:
                arr = np.asarray(cb)
                assert _mq_native.native_encode_block(
                    arr, tier1_geom.sig_lut_array(band),
                    tier1_geom.geometry(*shape).nbr,
                ) is not None

    @pytest.mark.parametrize("band", BANDS)
    def test_past_limit_takes_oracle(self, band):
        rng = np.random.default_rng(63)
        cb = block_at_msbs(rng, (13, 10), _mq_native.MAX_MSBS + 1, 0.5)
        assert_identical(cb, band)
        assert encode_block(cb, band).msbs == _mq_native.MAX_MSBS + 1
        if _mq_native.native_encode_block is not None:
            assert _mq_native.native_encode_block(
                cb, tier1_geom.sig_lut_array(band),
                tier1_geom.geometry(13, 10).nbr,
            ) is None

    def test_invalid_blocks_raise_like_the_oracle(self):
        for bad in (np.zeros(4, np.int32), np.zeros((65, 2), np.int32)):
            with pytest.raises(ValueError):
                encode_codeblock_reference(bad, "LL")
            with pytest.raises(ValueError):
                encode_block(bad, "LL")
        with pytest.raises(ValueError, match="band"):
            encode_block(np.ones((2, 2), np.int32), "XX")


class TestBackendSelection:
    def test_explicit_backends_agree(self):
        rng = np.random.default_rng(9)
        cb = rng.integers(-100, 100, size=(12, 12)).astype(np.int32)
        a = encode_codeblock(cb, "LL", backend="reference")
        b = encode_codeblock(cb, "LL", backend="auto")
        c = encode_codeblock(cb, "LL")
        assert a == b == c

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            encode_codeblock(np.zeros((2, 2), np.int32), "LL", backend="simd")


class TestNeighbourIndices:
    def test_cached_array_is_readonly(self):
        nbr = tier1._neighbour_indices(5, 7)
        assert isinstance(nbr, np.ndarray)
        assert nbr.shape == (35, 8)
        assert not nbr.flags.writeable
        with pytest.raises(ValueError):
            nbr[0, 0] = 1
        assert tier1._neighbour_indices(5, 7) is nbr  # lru_cache hit

    def test_neighbour_semantics(self):
        # 2x2 grid, flat order [0 1 / 2 3]; sample 0 has E=1, S=2, SE=3 and
        # no W/N/NW/NE/SW (marked with the out-of-block sentinel).
        nbr = tier1._neighbour_indices(2, 2)
        w, e, n, s, nw, ne, sw, se = nbr[0]
        assert (e, s, se) == (1, 2, 3)
        sentinel = 4  # == h*w, the always-insignificant padding slot
        assert all(x == sentinel for x in (w, n, nw, ne, sw))


@pytest.mark.skipif(
    os.environ.get("REPRO_MQ_NATIVE", "1") == "0",
    reason="native kernel disabled via environment",
)
def test_native_kernel_optionality():
    """With the kernels force-disabled, encodes take the scalar oracle and
    give the same bytes, and decodes give the reference's samples."""
    from repro.image.synthetic import watch_face_image
    from repro.jpeg2000.encoder import encode
    from repro.jpeg2000.params import EncoderParams

    img = watch_face_image(24, 20, channels=3)
    lossless = encode(img, EncoderParams(levels=2)).codestream
    lossy = encode(img, EncoderParams(lossless=False, rate=0.5,
                                      levels=2)).codestream
    code = (
        "import numpy as np;"
        "from repro.jpeg2000 import _mq_native, _t1_dec_native;"
        "assert _mq_native._fns is None;"
        "assert _mq_native.native_encode_block is None;"
        "assert _t1_dec_native.native_decode_block is None;"
        "from repro.image.synthetic import watch_face_image;"
        "from repro.jpeg2000.decoder import decode, decode_reference;"
        "from repro.jpeg2000.encoder import encode;"
        "from repro.jpeg2000.params import EncoderParams;"
        "img = watch_face_image(24, 20, channels=3);"
        "lossless = encode(img, EncoderParams(levels=2)).codestream;"
        "assert np.array_equal(decode(lossless), decode_reference(lossless));"
        "assert np.array_equal(decode(lossless), img);"
        "lossy = encode(img, EncoderParams(lossless=False, rate=0.5, "
        "levels=2)).codestream;"
        "assert np.array_equal(decode(lossy), decode_reference(lossy));"
        "print(lossless.hex(), lossy.hex())"
    )
    env = dict(os.environ, REPRO_MQ_NATIVE="0",
               PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout.split()
    assert out == [lossless.hex(), lossy.hex()]
