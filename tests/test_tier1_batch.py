"""The block encoder entry: lists of blocks, dispatch and the cutover.

:func:`repro.jpeg2000.tier1_batch.encode_codeblocks_batched` codes a list
of blocks of any geometries, bands and bit depths in input order; rate
control and the Cell model consume every byte, pass boundary, symbol
count, and distortion float it produces, so all of them must equal the
per-block reference coder exactly.  These tests sweep ragged edge
geometries, mixed subbands in one call, skewed bit depths, whole-image
byte identity, the serial/pool cutover, and the shared geometry cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import workpool
from repro.core.workpool import TIER1_AUTO_SERIAL_MIN_BLOCKS, tier1_auto_workers
from repro.image.synthetic import watch_face_image
from repro.jpeg2000 import tier1_geom
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.jpeg2000.tier1 import (
    decode_codeblock,
    encode_codeblock,
    encode_codeblock_reference,
)
from repro.jpeg2000.tier1_batch import BatchOccupancy, encode_codeblocks_batched

BANDS = ["LL", "HL", "LH", "HH"]
#: Ragged shapes a 33x65 subband tiled by 16x16 blocks would produce,
#: plus degenerate single-row/column strips.
RAGGED_SHAPES = [(16, 16), (16, 1), (1, 16), (1, 1), (3, 16), (16, 5), (7, 11)]


def profile_block(rng, shape, mag):
    return rng.integers(-mag, mag + 1, size=shape).astype(np.int32)


def assert_results_identical(got, blocks):
    assert len(got) == len(blocks)
    for res, (cb, band) in zip(got, blocks):
        ref = encode_codeblock_reference(cb, band)
        assert res.data == ref.data
        assert res.msbs == ref.msbs
        assert res.num_passes == ref.num_passes
        assert res.pass_types == ref.pass_types
        assert res.pass_lengths == ref.pass_lengths
        assert res.pass_symbols == ref.pass_symbols
        assert res.pass_dist == ref.pass_dist  # exact float equality
        assert res == ref


class TestDifferential:
    @pytest.mark.parametrize("band", BANDS)
    def test_uniform_group_per_band(self, band):
        rng = np.random.default_rng(hash(band) % 2**32)
        blocks = [(profile_block(rng, (8, 8), 300), band) for _ in range(6)]
        assert_results_identical(encode_codeblocks_batched(blocks), blocks)

    def test_mixed_bands_share_one_stack(self):
        # One call spanning all four bands (three significance LUTs).
        rng = np.random.default_rng(7)
        blocks = [
            (profile_block(rng, (8, 8), 200), BANDS[i % 4]) for i in range(8)
        ]
        occ = BatchOccupancy()
        got = encode_codeblocks_batched(blocks, occ)
        assert occ.groups == 1 and occ.blocks == 8
        assert_results_identical(got, blocks)

    def test_ragged_geometries_group_separately(self):
        # Every ragged geometry in one call comes back in input order.
        rng = np.random.default_rng(13)
        blocks = []
        for shape in RAGGED_SHAPES:
            for band in ("LL", "HH"):
                blocks.append((profile_block(rng, shape, 150), band))
        occ = BatchOccupancy()
        got = encode_codeblocks_batched(blocks, occ)
        assert occ.groups == 1
        assert occ.blocks == len(blocks)
        assert_results_identical(got, blocks)

    def test_skewed_bit_depths_mask_inactive_blocks(self):
        # Magnitudes spanning 1..4095 in one call, including an all-zero
        # member: each block codes its own number of planes.
        rng = np.random.default_rng(21)
        blocks = []
        for mag in (0, 1, 3, 15, 255, 4095):
            cb = profile_block(rng, (12, 12), mag) if mag else np.zeros(
                (12, 12), np.int32
            )
            blocks.append((cb, "HL"))
        assert_results_identical(encode_codeblocks_batched(blocks), blocks)

    def test_sparse_and_sign_profiles(self):
        rng = np.random.default_rng(3)
        sparse = np.zeros((16, 16), np.int32)
        idx = rng.choice(256, size=20, replace=False)
        sparse.ravel()[idx] = rng.integers(-900, 900, size=20)
        negative = rng.integers(-4000, -1, size=(16, 16)).astype(np.int32)
        blocks = [(sparse, "LH"), (negative, "LH"), (sparse.copy(), "HH")]
        assert_results_identical(encode_codeblocks_batched(blocks), blocks)

    def test_empty_and_zero_blocks(self):
        blocks = [
            (np.zeros((0, 8), np.int32), "LL"),
            (np.zeros((4, 4), np.int32), "HH"),
            (np.ones((4, 4), np.int32), "HL"),
        ]
        got = encode_codeblocks_batched(blocks)
        assert got[0].data == b"" and got[0].num_passes == 0
        assert_results_identical(got[1:], blocks[1:])

    def test_batched_roundtrips_through_decoder(self):
        rng = np.random.default_rng(17)
        cbs = [rng.integers(-300, 300, size=(13, 10)).astype(np.int32)
               for _ in range(3)]
        got = encode_codeblocks_batched([(cb, "HH") for cb in cbs])
        for cb, res in zip(cbs, got):
            out = decode_codeblock(
                res.data, 13, 10, "HH", res.msbs, res.num_passes
            )
            assert np.array_equal(out, cb)

    def test_single_block_backend_dispatch(self):
        rng = np.random.default_rng(9)
        cb = rng.integers(-100, 100, size=(12, 12)).astype(np.int32)
        assert encode_codeblock(cb, "LL", backend="auto") == \
            encode_codeblock(cb, "LL", backend="reference")

    def test_unknown_band_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            encode_codeblocks_batched([(np.zeros((2, 2), np.int32), "XX")])


class TestEncodeIdentity:
    """Whole-image encodes: block-encoder bytes == oracle bytes."""

    @pytest.mark.parametrize("rate", [0.1, 0.5])
    @pytest.mark.parametrize("codeblock", [16, 64])
    def test_lossy_byte_identity(self, rate, codeblock):
        image = watch_face_image(96, 96, channels=3)
        base = encode(image, EncoderParams(
            lossless=False, rate=rate, codeblock_size=codeblock,
            tier1_backend="reference",
        )).codestream
        got = encode(image, EncoderParams(
            lossless=False, rate=rate, codeblock_size=codeblock,
        )).codestream
        assert got == base

    def test_lossless_byte_identity_and_dispatch(self):
        image = watch_face_image(64, 64, channels=1)
        base = encode(image, EncoderParams(tier1_backend="reference"))
        got = encode(image, EncoderParams())
        assert got.codestream == base.codestream
        assert got.stats.tier1_dispatch == "serial"
        assert base.stats.tier1_dispatch == "serial"

    def test_multi_worker_byte_identity(self, monkeypatch):
        # Lower the cutover and claim two cores so a pool actually spins up
        # even on single-core CI boxes, then require byte identity + group
        # dispatch.
        monkeypatch.setattr(workpool, "TIER1_AUTO_SERIAL_MIN_BLOCKS", 0)
        monkeypatch.setattr(workpool, "available_cores", lambda: 2)
        image = watch_face_image(96, 96, channels=3)
        base = encode(image, EncoderParams(
            lossless=False, rate=0.2, workers=1,
        ))
        multi = encode(image, EncoderParams(
            lossless=False, rate=0.2, workers=2,
        ))
        assert multi.codestream == base.codestream
        assert multi.stats.tier1_dispatch == "pool"

    def test_self_check_accepts_batched(self):
        image = watch_face_image(96, 96, channels=3)
        result = encode(image, EncoderParams(
            lossless=False, rate=0.25, self_check=True,
        ))
        assert result.codestream  # self_check raises on a bad round trip


class TestAutoSerialClamp:
    def test_serial_inputs_stay_serial(self):
        assert tier1_auto_workers(1, 1000) == 1
        assert tier1_auto_workers(4, TIER1_AUTO_SERIAL_MIN_BLOCKS - 1) == 1

    def test_cpu_affinity_counts_cores(self, monkeypatch):
        # A cpuset-limited process sees every host core in os.cpu_count()
        # but may run on one: workers=None and the single-core clamp must
        # follow the affinity mask.
        import os

        from repro.core.workpool import default_workers

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert default_workers() == 1
        assert tier1_auto_workers(None, 1000) == 1
        assert tier1_auto_workers(4, 1000) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert default_workers() == 3
        assert tier1_auto_workers(None, 1000) == 3

    def test_threshold_defaults_to_constant(self, monkeypatch):
        assert TIER1_AUTO_SERIAL_MIN_BLOCKS == 24
        monkeypatch.setattr(workpool, "available_cores", lambda: 4)
        assert tier1_auto_workers(4, TIER1_AUTO_SERIAL_MIN_BLOCKS) == 4
        assert tier1_auto_workers(4, TIER1_AUTO_SERIAL_MIN_BLOCKS - 1) == 1
        # The constant is read at call time, so tests and tools can move it.
        monkeypatch.setattr(workpool, "TIER1_AUTO_SERIAL_MIN_BLOCKS", 5)
        assert tier1_auto_workers(4, 5) == 4
        assert tier1_auto_workers(4, 4) == 1


class TestGeometryCache:
    def test_hits_misses_and_identity(self):
        tier1_geom.reset_cache_stats()
        before = tier1_geom.cache_stats()
        geo = tier1_geom.geometry(9, 9)
        again = tier1_geom.geometry(9, 9)
        assert again is geo
        after = tier1_geom.cache_stats()
        assert after["misses"] >= before["misses"]
        assert after["hits"] >= before["hits"] + 1
        assert 0.0 <= after["hit_rate"] <= 1.0

    def test_arrays_are_readonly(self):
        geo = tier1_geom.geometry(5, 7)
        assert not geo.nbr.flags.writeable
        with pytest.raises(ValueError):
            geo.nbr[0, 0] = 1

    def test_stats_reporting_hook(self):
        stats = tier1_geom.cache_stats()
        assert set(stats) == {"hits", "misses", "entries", "hit_rate"}
