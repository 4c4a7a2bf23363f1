"""Differential tests: vectorized Tier-1 backend vs. the scalar oracle.

The vectorized coder must reproduce the reference coder *exactly* — every
stream byte, pass boundary, symbol count, and distortion float — because
rate control and the Cell performance model consume all of them.  These
tests sweep the shapes/coefficient profiles named in the issue plus
randomized blocks via hypothesis.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg2000 import tier1
from repro.jpeg2000.mq import MQEncoder
from repro.jpeg2000.tier1 import (
    decode_codeblock,
    encode_codeblock,
    encode_codeblock_reference,
)
from repro.jpeg2000.tier1_vec import encode_codeblock_vectorized

BANDS = ["LL", "HL", "LH", "HH"]
ISSUE_SHAPES = [(1, 1), (3, 5), (5, 7), (33, 64), (64, 64)]


def assert_identical(cb: np.ndarray, band: str) -> None:
    ref = encode_codeblock_reference(cb, band)
    vec = encode_codeblock_vectorized(cb, band)
    assert vec.data == ref.data
    assert vec.msbs == ref.msbs
    assert vec.num_passes == ref.num_passes
    assert vec.pass_types == ref.pass_types
    assert vec.pass_lengths == ref.pass_lengths
    assert vec.pass_symbols == ref.pass_symbols
    assert vec.pass_dist == ref.pass_dist  # exact float equality, on purpose
    assert vec == ref


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
        res = encode_codeblock_vectorized(cb, band)
        out = decode_codeblock(res.data, 13, 10, band, res.msbs, res.num_passes)
        assert np.array_equal(out, cb)


class TestBackendSelection:
    def test_explicit_backends_agree(self):
        rng = np.random.default_rng(9)
        cb = rng.integers(-100, 100, size=(12, 12)).astype(np.int32)
        a = encode_codeblock(cb, "LL", backend="reference")
        b = encode_codeblock(cb, "LL", backend="vectorized")
        c = encode_codeblock(cb, "LL", backend="auto")
        d = encode_codeblock(cb, "LL")
        assert a == b == c == d

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            encode_codeblock(np.zeros((2, 2), np.int32), "LL", backend="simd")

    def test_auto_picks_scalar_for_tiny_blocks(self, monkeypatch):
        calls = []
        real = encode_codeblock_reference
        monkeypatch.setattr(
            tier1, "encode_codeblock_reference",
            lambda cb, band: calls.append(cb.shape) or real(cb, band),
        )
        encode_codeblock(np.ones((2, 2), np.int32), "LL")  # 4 < threshold
        assert calls == [(2, 2)]


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


class TestEncodeRunParity:
    """The batched MQ entry point must equal symbol-at-a-time coding."""

    def _stream(self, seed, n=600):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=n).astype(np.uint8)
        ctxs = rng.integers(0, 19, size=n).astype(np.uint8)
        return bits, ctxs

    def _run(self, bits, ctxs, batched, chunk=None):
        enc = MQEncoder(19, initial_states=tier1.INITIAL_STATES)
        if batched:
            if chunk:
                for i in range(0, len(bits), chunk):
                    enc.encode_run(bits[i : i + chunk], ctxs[i : i + chunk])
            else:
                enc.encode_run(bits, ctxs)
        else:
            for b, c in zip(bits, ctxs):
                enc.encode(int(b), int(c))
        return enc.flush()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_equals_serial(self, seed):
        bits, ctxs = self._stream(seed)
        assert self._run(bits, ctxs, True) == self._run(bits, ctxs, False)

    def test_chunked_runs_equal_one_run(self):
        bits, ctxs = self._stream(3)
        assert self._run(bits, ctxs, True, chunk=37) == self._run(
            bits, ctxs, True
        )

    def test_python_fallback_matches_native(self, monkeypatch):
        from repro.jpeg2000 import _mq_native

        bits, ctxs = self._stream(4)
        with_native = self._run(bits, ctxs, True)
        monkeypatch.setattr(_mq_native, "native_encode_run", None)
        assert self._run(bits, ctxs, True) == with_native

    def test_rejects_bad_input(self):
        enc = MQEncoder(19, initial_states=tier1.INITIAL_STATES)
        with pytest.raises(ValueError, match="length mismatch"):
            enc.encode_run(b"\x00\x01", b"\x00")
        with pytest.raises(IndexError, match="context"):
            enc.encode_run(b"\x00", b"\x7f")
        enc.encode_run(b"", b"")  # empty run is a no-op
        enc.encode(1, 0)
        enc.flush()
        with pytest.raises(RuntimeError, match="flushed"):
            enc.encode_run(b"\x00", b"\x00")


@pytest.mark.skipif(
    os.environ.get("REPRO_MQ_NATIVE", "1") == "0",
    reason="native kernel disabled via environment",
)
def test_native_kernel_optionality():
    """With the kernels force-disabled, everything still encodes, and
    decodes through the scalar oracle to the reference's samples."""
    import subprocess
    import sys

    code = (
        "import numpy as np;"
        "from repro.jpeg2000 import _mq_native, _t1_dec_native;"
        "assert _mq_native.native_encode_run is None;"
        "assert _t1_dec_native.native_decode_block is None;"
        "from repro.jpeg2000.tier1 import encode_codeblock;"
        "from repro.jpeg2000.tier1_vec import encode_codeblock_vectorized;"
        "cb = np.arange(-32, 32, dtype=np.int32).reshape(8, 8);"
        "assert encode_codeblock_vectorized(cb, 'HL') == "
        "encode_codeblock(cb, 'HL', backend='reference');"
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
        "assert np.array_equal(decode(lossy), decode_reference(lossy))"
    )
    env = dict(os.environ, REPRO_MQ_NATIVE="0",
               PYTHONPATH=os.pathsep.join(__import__("sys").path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
