"""PCRD-opt rate control tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg2000.rate import BlockRateInfo, choose_truncations


def block(lengths, dists) -> BlockRateInfo:
    return BlockRateInfo(lengths=lengths, dist_reductions=dists)


class TestHull:
    def test_concave_curve_keeps_all_points(self):
        b = block([10, 20, 30], [100, 50, 10])
        assert b.hull_passes == [1, 2, 3]
        assert b.hull_slopes[0] > b.hull_slopes[1] > b.hull_slopes[2]

    def test_non_hull_pass_removed(self):
        # pass 2 gains almost nothing, pass 3 a lot: 2 is below the hull
        b = block([10, 20, 30], [100, 1, 99])
        assert 2 not in b.hull_passes
        assert 3 in b.hull_passes

    def test_zero_gain_passes_never_candidates(self):
        b = block([10, 20], [50, 0])
        assert b.hull_passes == [1]

    def test_slopes_strictly_decreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(1, 15)
            lengths = np.cumsum(rng.integers(1, 50, n)).tolist()
            dists = rng.uniform(0, 100, n).tolist()
            b = block(lengths, dists)
            slopes = b.hull_slopes
            assert all(s1 > s2 for s1, s2 in zip(slopes, slopes[1:]))

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            block([1, 2], [3])


class TestTruncationForSlope:
    def test_zero_lambda_keeps_everything_on_hull(self):
        b = block([10, 20, 30], [100, 50, 10])
        assert b.truncation_for_slope(0.0) == 3

    def test_huge_lambda_drops_block(self):
        b = block([10, 20], [100, 50])
        assert b.truncation_for_slope(1e12) == 0

    def test_intermediate_lambda(self):
        b = block([10, 20, 30], [100, 50, 10])  # slopes 10, 5, 1
        assert b.truncation_for_slope(6.0) == 1
        assert b.truncation_for_slope(4.0) == 2
        assert b.truncation_for_slope(1.0) == 3


class TestChooseTruncations:
    def test_generous_budget_keeps_all(self):
        blocks = [block([10, 20], [50, 20]), block([5, 15], [40, 30])]
        trunc = choose_truncations(blocks, 1000)
        assert trunc == [2, 2]

    def test_zero_budget_drops_all(self):
        blocks = [block([10], [50])]
        assert choose_truncations(blocks, 0.0) == [0]

    def test_budget_respected(self):
        rng = np.random.default_rng(1)
        blocks = []
        for _ in range(30):
            n = int(rng.integers(1, 12))
            lengths = np.cumsum(rng.integers(5, 60, n)).tolist()
            dists = sorted(rng.uniform(0, 1000, n), reverse=True)
            blocks.append(block(lengths, [float(d) for d in dists]))
        for budget in (100, 300, 700):
            trunc = choose_truncations(blocks, budget)
            total = sum(b.length_at(t) for b, t in zip(blocks, trunc))
            assert total <= budget

    def test_prefers_high_slope_blocks(self):
        cheap_good = block([10], [1000.0])   # slope 100
        dear_bad = block([10], [10.0])       # slope 1
        trunc = choose_truncations([cheap_good, dear_bad], 10)
        assert trunc == [1, 0]

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(2)
        blocks = []
        for _ in range(10):
            n = int(rng.integers(1, 8))
            lengths = np.cumsum(rng.integers(5, 40, n)).tolist()
            dists = sorted(rng.uniform(1, 500, n), reverse=True)
            blocks.append(block(lengths, [float(d) for d in dists]))
        prev_total = -1.0
        for budget in (50, 150, 400, 1000):
            trunc = choose_truncations(blocks, budget)
            total = sum(b.length_at(t) for b, t in zip(blocks, trunc))
            assert total >= prev_total
            prev_total = total

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            choose_truncations([block([1], [1.0])], -1)

    @given(st.integers(0, 2**31), st.integers(10, 2000))
    @settings(max_examples=60, deadline=None)
    def test_budget_property(self, seed, budget):
        rng = np.random.default_rng(seed)
        blocks = []
        for _ in range(int(rng.integers(1, 15))):
            n = int(rng.integers(1, 10))
            lengths = np.cumsum(rng.integers(1, 80, n)).tolist()
            dists = rng.uniform(0, 100, n).tolist()
            blocks.append(block(lengths, dists))
        trunc = choose_truncations(blocks, float(budget))
        total = sum(b.length_at(t) for b, t in zip(blocks, trunc))
        assert total <= budget
        for b, t in zip(blocks, trunc):
            assert 0 <= t <= len(b.lengths)


# ---------------------------------------------------------------------------
# Vectorized PCRD-opt (PR 4): differential against the scalar oracle,
# golden-codestream regression, and end-to-end byte identity.
# ---------------------------------------------------------------------------

import hashlib

from repro.core import workpool
from repro.image.synthetic import watch_face_image
from repro.jpeg2000 import encoder as encoder_mod
from repro.jpeg2000.decoder import decode
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.jpeg2000.rate import RateModel, choose_truncations_reference


def _random_blocks(rng, max_blocks=20):
    blocks = []
    for _ in range(int(rng.integers(1, max_blocks))):
        n = int(rng.integers(1, 14))
        lengths = np.cumsum(rng.integers(1, 90, n)).tolist()
        dists = rng.uniform(0, 120, n)
        dists[rng.uniform(size=n) < 0.15] = 0.0  # dead passes
        blocks.append(block(lengths, [float(d) for d in dists]))
    return blocks


class TestVectorizedMatchesReference:
    """choose_truncations must replicate the scalar oracle bit for bit."""

    @given(st.integers(0, 2**31), st.floats(0.0, 5000.0))
    @settings(max_examples=80, deadline=None)
    def test_differential_property(self, seed, budget):
        rng = np.random.default_rng(seed)
        blocks = _random_blocks(rng)
        ref = choose_truncations_reference(
            [block(b.lengths, b.dist_reductions) for b in blocks], budget
        )
        vec = choose_truncations(blocks, budget)
        assert vec == ref

    def test_empty_block_list(self):
        assert choose_truncations([], 100.0) == []
        assert choose_truncations_reference([], 100.0) == []

    def test_model_choose_matches_per_call(self):
        # One RateModel reused across shrinking budgets (the encoder's
        # convergence loop) must equal fresh scalar runs at each budget.
        rng = np.random.default_rng(7)
        blocks = _random_blocks(rng, max_blocks=30)
        model = RateModel(
            [b.lengths for b in blocks],
            [b.dist_reductions for b in blocks],
        )
        for budget in (0.0, 37.0, 150.0, 600.0, 1e9):
            ref = choose_truncations_reference(
                [block(b.lengths, b.dist_reductions) for b in blocks], budget
            )
            assert list(model.choose(budget)) == ref

    def test_single_pass_blocks(self):
        blocks = [block([5], [10.0]), block([7], [0.0]), block([3], [50.0])]
        for budget in (0.0, 3.0, 8.0, 100.0):
            ref = choose_truncations_reference(
                [block(b.lengths, b.dist_reductions) for b in blocks], budget
            )
            assert choose_truncations(blocks, budget) == ref


#: sha256 of lossy codestreams captured at the pre-PR encoder (PR 3 HEAD).
#: Any drift here is a byte-compatibility break, not a tuning change.
GOLDEN_LOSSY_SHA256 = {
    (64, 64, 3, 0.05, 3): "63007c2d4678d3010b936b4826211c39e1d1abbb8705e9ff7a1fbf60244656da",
    (64, 64, 3, 0.1, 3): "9f5ccd0bbdca81d76d6f5a392b205f814a7bfb065019267e0d926d28ca411562",
    (64, 64, 3, 0.3, 3): "3c8c6b5e46e764809ef4481fbe769e7952b64a04154261f5b82e06bc93a641be",
    (96, 96, 1, 0.05, 3): "18188e68f9e93b9be102fb94a8f687af33cad0dce8a225f8b9fdaae5fbfa21de",
    (96, 96, 1, 0.1, 3): "bd40deca7d31f4af976bc8f8f6b39afa9e24b877d81a6d6f1407ed36636d626d",
    (96, 96, 1, 0.3, 3): "ddcce9f3154bcd78e1669403e83c370c207355264023a3251f9091a04e1e5e35",
    (96, 96, 3, 0.05, 3): "617e7240d740ccf06ffb74c27fb916df8b852ce7935320023bb470657a7f7839",
    (96, 96, 3, 0.1, 3): "c670a3c3b05a7a8486e57558f8f87eeb15be6b8c42881b92d80f6b7b4b651ac8",
    (96, 96, 3, 0.3, 3): "2c8ce6c2b8c5c00997a1196e932dc1ddf10c5a1fd9dafb28f97579e59dabf013",
    (70, 50, 1, 0.2, 5): "4075a005d83ab031a181dca99f6de3695d5c901012e99fc8cafb4338032111d3",
    (81, 33, 3, 0.15, 2): "03566df226992a23b20dbf4d46d5ce483430dae392e0b12132c43c16eb030b87",
    (64, 64, 1, 1.0, 3): "e86b96d14d4beb29ffbf8bdd7460a4eae296a5ec6f598a776491c27834368310",
}


class TestGoldenCodestreams:
    """Byte-identity with the pre-PR encoder, single Tier-2 assembly."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_LOSSY_SHA256))
    def test_codestream_sha256(self, key):
        h, w, channels, rate, levels = key
        img = watch_face_image(h, w, channels=channels)
        before = encoder_mod._assemble_packets.calls
        res = encode(img, EncoderParams(lossless=False, rate=rate, levels=levels))
        after = encoder_mod._assemble_packets.calls
        digest = hashlib.sha256(res.codestream).hexdigest()
        assert digest == GOLDEN_LOSSY_SHA256[key], key
        assert after - before == 1, "Tier-2 packets must assemble exactly once"


def _pool_always(monkeypatch) -> None:
    """Send every multi-block encode to the pool, on any core count."""
    cores = workpool.available_cores()
    monkeypatch.setattr(workpool, "TIER1_AUTO_SERIAL_MIN_BLOCKS", 0)
    monkeypatch.setattr(workpool, "available_cores", lambda: max(2, cores))


class TestByteIdentityAcrossDispatch:
    """Same codestream for every worker count x Tier-1 backend x rate."""

    @pytest.mark.parametrize("backend", ["reference", "auto"])
    @pytest.mark.parametrize("rate", [0.1, 0.3])
    def test_workers_and_backends(self, backend, rate, monkeypatch):
        # Disable the auto-serial clamp so the pool path actually runs even
        # on single-core CI machines.
        _pool_always(monkeypatch)
        img = watch_face_image(64, 64, channels=3)
        streams = {}
        for workers in (1, 2, 4):
            params = EncoderParams(
                lossless=False, rate=rate, levels=3,
                workers=workers, tier1_backend=backend,
            )
            res = encode(img, params)
            streams[workers] = res.codestream
            if workers == 1 or backend == "reference":
                # The oracle always codes in process.
                assert res.stats.tier1_dispatch == "serial"
            else:
                assert res.stats.tier1_dispatch == "pool"
        assert streams[2] == streams[1]
        assert streams[4] == streams[1]

    def test_auto_serial_clamp_stays_serial_below_threshold(self, monkeypatch):
        # A 30-block encode under a raised threshold stays in-process (no
        # pool) yet remains byte-identical.
        monkeypatch.setattr(workpool, "TIER1_AUTO_SERIAL_MIN_BLOCKS", 1000)
        img = watch_face_image(64, 64, channels=3)
        serial = encode(img, EncoderParams(lossless=False, rate=0.2, levels=3))
        pooled = encode(
            img, EncoderParams(lossless=False, rate=0.2, levels=3, workers=2)
        )
        assert pooled.codestream == serial.codestream
        assert pooled.stats.tier1_dispatch == "serial"

    def test_pickle_fallback_is_identical(self, monkeypatch):
        # Block groups pickle their coefficients inline: the pooled encode
        # is the serial one and leaves nothing in /dev/shm.
        import os

        _pool_always(monkeypatch)
        shm_dir = "/dev/shm"
        before = set(os.listdir(shm_dir)) if os.path.isdir(shm_dir) else set()
        img = watch_face_image(64, 64, channels=3)
        serial = encode(img, EncoderParams(lossless=False, rate=0.2, levels=3))
        pooled = encode(
            img, EncoderParams(lossless=False, rate=0.2, levels=3, workers=2)
        )
        assert pooled.codestream == serial.codestream
        assert pooled.stats.tier1_dispatch == "pool"
        after = set(os.listdir(shm_dir)) if os.path.isdir(shm_dir) else set()
        assert after <= before


class TestTruncatedStreamsDecode:
    """Rate-controlled codestreams must still parse and reconstruct."""

    @pytest.mark.parametrize("rate", [0.05, 0.15, 0.5])
    def test_round_trip(self, rate):
        img = watch_face_image(96, 96, channels=3)
        res = encode(img, EncoderParams(lossless=False, rate=rate, levels=3))
        out = decode(res.codestream)
        assert out.shape == img.shape
        assert out.dtype == img.dtype
        # Truncation loses detail, not the picture: demand a sane PSNR.
        mse = np.mean((out.astype(np.float64) - img.astype(np.float64)) ** 2)
        psnr = float("inf") if mse == 0 else 10 * np.log10(255.0**2 / mse)
        assert psnr > 20.0

    def test_rate_budget_respected_end_to_end(self):
        img = watch_face_image(96, 96, channels=3)
        rate = 0.1
        res = encode(img, EncoderParams(lossless=False, rate=rate, levels=3))
        budget = rate * img.size  # bytes: rate is per source byte at 8 bpp
        assert len(res.codestream) <= budget * 1.02  # header slack only
