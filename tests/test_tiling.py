"""Multi-tile codestreams: differential suite against the single-tile path.

The tiling tentpole must not disturb anything the seed guaranteed, so
every property here is stated differentially: tiled output decodes to the
same pixels as untiled at lossless, tiled bytes are identical at any
worker count and any memory-budget batching, TLM entries point at real
SOT markers, and malformed tile-part boundaries fail through the typed
error taxonomy — never through a raw exception.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.image.synthetic import watch_face_image
from repro.jpeg2000.codestream import (
    PROGRESSIONS,
    parse_codestream,
    tile_grid,
    tlm_overhead,
)
from repro.jpeg2000.decoder import decode, decode_reference
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.errors import (
    CodestreamError,
    DecodeLimits,
    HeaderFieldError,
    LimitExceededError,
    TruncatedCodestreamError,
)
from repro.jpeg2000.params import EncoderParams


@pytest.fixture(scope="module")
def rgb_img() -> np.ndarray:
    return watch_face_image(70, 90, channels=3)


@pytest.fixture(scope="module")
def gray_img() -> np.ndarray:
    return watch_face_image(65, 47, channels=1)


@pytest.fixture(scope="module")
def tiled_rgb(rgb_img) -> bytes:
    return encode(rgb_img, EncoderParams(tile_size=32)).codestream


# -- tile grid math -----------------------------------------------------------


class TestTileGrid:
    def test_exact_division(self):
        grid = tile_grid(64, 64, 32, 32)
        assert grid == [(0, 0, 32, 32), (0, 32, 32, 32),
                        (32, 0, 32, 32), (32, 32, 32, 32)]

    def test_ragged_edges(self):
        grid = tile_grid(70, 50, 32, 32)
        assert len(grid) == 3 * 2
        assert grid[-1] == (32, 64, 18, 6)  # bottom-right remainder

    def test_none_means_single_tile(self):
        assert tile_grid(70, 50, None, None) == [(0, 0, 50, 70)]

    def test_grid_covers_every_sample_once(self):
        cover = np.zeros((37, 53), dtype=int)
        for r0, c0, h, w in tile_grid(53, 37, 16, 16):
            cover[r0:r0 + h, c0:c0 + w] += 1
        assert (cover == 1).all()


# -- lossless pixel equality --------------------------------------------------


class TestTiledRoundtrip:
    @pytest.mark.parametrize("tile", [16, 32, 64])
    def test_rgb_lossless_matches_untiled(self, rgb_img, tile):
        tiled = encode(rgb_img, EncoderParams(tile_size=tile)).codestream
        assert np.array_equal(decode(tiled), rgb_img)
        assert np.array_equal(decode_reference(tiled), rgb_img)

    def test_gray_lossless(self, gray_img):
        cs = encode(gray_img, EncoderParams(tile_size=32)).codestream
        assert np.array_equal(decode(cs), gray_img)
        assert np.array_equal(decode_reference(cs), gray_img)

    def test_tile_larger_than_image_is_byte_identical_to_untiled(self, rgb_img):
        base = encode(rgb_img, EncoderParams()).codestream
        big = encode(rgb_img, EncoderParams(tile_size=128)).codestream
        assert big == base

    @pytest.mark.parametrize("progression", sorted(PROGRESSIONS))
    def test_progression_orders_roundtrip(self, rgb_img, progression):
        cs = encode(
            rgb_img, EncoderParams(tile_size=32, progression=progression)
        ).codestream
        assert np.array_equal(decode(cs), rgb_img)
        assert np.array_equal(decode_reference(cs), rgb_img)

    def test_precincts_roundtrip(self, rgb_img):
        cs = encode(
            rgb_img,
            EncoderParams(tile_size=64, precinct_size=128,
                          progression="RPCL"),
        ).codestream
        info = parse_codestream(cs)
        assert info.precinct_size == 128
        assert np.array_equal(decode(cs), rgb_img)
        assert np.array_equal(decode_reference(cs), rgb_img)

    def test_precincts_without_tiles_roundtrip(self, rgb_img):
        cs = encode(rgb_img, EncoderParams(precinct_size=64)).codestream
        assert np.array_equal(decode(cs), rgb_img)
        assert np.array_equal(decode_reference(cs), rgb_img)

    def test_lossy_tiled_decoders_agree(self, rgb_img):
        cs = encode(
            rgb_img, EncoderParams(lossless=False, rate=0.5, tile_size=32)
        ).codestream
        assert np.array_equal(decode(cs), decode_reference(cs))

    def test_lossy_rate_budget_holds_when_tiled(self, rgb_img):
        raw = rgb_img.size
        cs = encode(
            rgb_img, EncoderParams(lossless=False, rate=0.5, tile_size=32)
        ).codestream
        assert len(cs) <= raw * 0.5 * 1.05  # same 5% tolerance as untiled


# -- byte identity across execution strategy ----------------------------------


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_do_not_change_bytes(self, rgb_img, tiled_rgb, workers):
        cs = encode(
            rgb_img, EncoderParams(tile_size=32, workers=workers)
        ).codestream
        assert cs == tiled_rgb

    @pytest.mark.parametrize("budget_mib", [1, 4])
    def test_mem_budget_does_not_change_bytes(
        self, rgb_img, tiled_rgb, budget_mib
    ):
        cs = encode(
            rgb_img,
            EncoderParams(tile_size=32, mem_budget=budget_mib * 2**20),
        ).codestream
        assert cs == tiled_rgb

    def test_tier1_backends_agree(self, rgb_img, tiled_rgb):
        cs = encode(
            rgb_img, EncoderParams(tile_size=32, tier1_backend="reference")
        ).codestream
        assert cs == tiled_rgb


# -- TLM conformance ----------------------------------------------------------


class TestTLM:
    def test_offsets_point_at_real_sots(self, tiled_rgb):
        info = parse_codestream(tiled_rgb)
        assert info.num_tiles == 9  # ceil(90/32) * ceil(70/32)
        assert len(info.tile_part_offsets) == info.num_tiles
        for off in info.tile_part_offsets:
            assert tiled_rgb[off:off + 2] == b"\xff\x90"

    def test_tlm_lengths_match_tile_parts(self, tiled_rgb):
        info = parse_codestream(tiled_rgb)
        assert len(info.tlm_lengths) == info.num_tiles
        # Each Ptlm is the full tile-part length: SOT segment + SOD + body.
        offs = info.tile_part_offsets
        spans = [b - a for a, b in zip(offs, offs[1:])]
        spans.append(len(tiled_rgb) - 2 - offs[-1])  # last ends at EOC
        assert info.tlm_lengths == spans

    def test_tlm_seeks_to_any_tile(self, tiled_rgb):
        """TLM is the random-access contract: offsets are derivable from
        the main header alone, without scanning tile-parts."""
        info = parse_codestream(tiled_rgb)
        first = info.tile_part_offsets[0]
        derived = [first]
        for length in info.tlm_lengths[:-1]:
            derived.append(derived[-1] + length)
        assert derived == info.tile_part_offsets

    def test_tlm_overhead_is_exact(self, rgb_img, tiled_rgb):
        info = parse_codestream(tiled_rgb)
        tlm_at = tiled_rgb.find(b"\xff\x55")
        assert tlm_at > 0
        (ltlm,) = struct.unpack_from(">H", tiled_rgb, tlm_at + 2)
        assert 2 + ltlm == tlm_overhead(info.num_tiles)

    def test_corrupt_tlm_length_is_typed(self, tiled_rgb):
        info = parse_codestream(tiled_rgb)
        mutated = bytearray(tiled_rgb)
        tlm_at = tiled_rgb.find(b"\xff\x55")
        # First entry's Ptlm (u32) lives after Ztlm/Stlm + Ttlm (u16).
        p = tlm_at + 4 + 2 + 2
        struct.pack_into(">I", mutated, p, info.tlm_lengths[0] + 1)
        with pytest.raises(HeaderFieldError):
            parse_codestream(bytes(mutated))

    def test_single_tile_has_no_tlm(self, rgb_img):
        cs = encode(rgb_img, EncoderParams()).codestream
        assert b"\xff\x55" not in cs.split(b"\xff\x90")[0]


# -- Psot=0 (spec-legal open-ended tile-parts) --------------------------------


def _zero_psot(cs: bytes, which: int = 0) -> bytes:
    """Zero the Psot field of the ``which``-th SOT segment."""
    out = bytearray(cs)
    pos = 0
    for _ in range(which + 1):
        pos = out.find(b"\xff\x90", pos)
        assert pos >= 0
        sot_at = pos
        pos += 2
    out[sot_at + 6:sot_at + 10] = b"\x00\x00\x00\x00"
    return bytes(out)


class TestPsotZero:
    def test_last_tile_part_decodes(self, rgb_img):
        cs = encode(rgb_img, EncoderParams()).codestream
        assert np.array_equal(decode(_zero_psot(cs)), rgb_img)

    def test_interior_tile_part_decodes(self, rgb_img, tiled_rgb):
        for which in (0, 4, 8):
            assert np.array_equal(decode(_zero_psot(tiled_rgb, which)),
                                  rgb_img)

    def test_every_psot_zeroed_decodes(self, rgb_img, tiled_rgb):
        info = parse_codestream(tiled_rgb)
        cs = tiled_rgb
        for which in range(info.num_tiles):
            cs = _zero_psot(cs, which)
        # TLM now disagrees with nothing: parse still sees the same
        # boundaries, because the scan lands on the very next SOT.
        assert np.array_equal(decode(cs), rgb_img)

    def test_unterminated_psot_zero_is_typed(self, rgb_img):
        cs = _zero_psot(encode(rgb_img, EncoderParams()).codestream)
        # Strip the EOC: an open-ended tile-part must end *somewhere*.
        truncated = cs[:-2]
        body = truncated[truncated.find(b"\xff\x93"):]
        if b"\xff\x90" not in body and b"\xff\xd9" not in body:
            with pytest.raises(TruncatedCodestreamError):
                decode(truncated)

    def test_fuzz_mutator_is_registered(self):
        from repro.verify.fuzz import MUTATORS

        assert "psot_zero" in dict(MUTATORS)


# -- malformed tile-part boundaries -------------------------------------------


class TestMalformedTiles:
    def test_truncation_at_every_boundary_is_typed(self, tiled_rgb):
        info = parse_codestream(tiled_rgb)
        cuts = [off for off in info.tile_part_offsets]
        cuts += [off + 5 for off in info.tile_part_offsets]
        for cut in cuts:
            with pytest.raises(CodestreamError):
                decode(tiled_rgb[:cut])

    def test_missing_tile_part_is_typed(self, tiled_rgb):
        info = parse_codestream(tiled_rgb)
        a = info.tile_part_offsets[3]
        b = info.tile_part_offsets[4]
        with pytest.raises(CodestreamError):
            decode(tiled_rgb[:a] + tiled_rgb[b:])

    def test_out_of_range_tile_index_is_typed(self, tiled_rgb):
        info = parse_codestream(tiled_rgb)
        mutated = bytearray(tiled_rgb)
        off = info.tile_part_offsets[0]
        struct.pack_into(">H", mutated, off + 4, info.num_tiles)  # Isot
        with pytest.raises(HeaderFieldError):
            parse_codestream(bytes(mutated))

    def test_tile_count_cap_is_enforced(self, rgb_img):
        cs = encode(rgb_img, EncoderParams(tile_size=16)).codestream
        limits = DecodeLimits(max_tiles=4)
        with pytest.raises(LimitExceededError):
            decode(cs, limits=limits)

    def test_fuzz_over_tiled_base_stays_typed(self, tiled_rgb):
        from repro.verify.fuzz import run_fuzz

        report = run_fuzz(
            cases=250, seed=2008, bases=[("tiled_rgb", tiled_rgb)]
        )
        assert report.ok, report.summary()


# -- parameter validation -----------------------------------------------------


class TestParamValidation:
    def test_tiny_tile_rejected(self):
        with pytest.raises(ValueError):
            EncoderParams(tile_size=8)

    def test_bad_progression_rejected(self):
        with pytest.raises(ValueError):
            EncoderParams(progression="RLCP")

    def test_precinct_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            EncoderParams(precinct_size=100)

    def test_precinct_smaller_than_codeblock_rejected(self):
        with pytest.raises(ValueError):
            EncoderParams(codeblock_size=64, precinct_size=32)

    def test_tiny_mem_budget_rejected(self):
        with pytest.raises(ValueError):
            EncoderParams(mem_budget=1024)

    def test_too_many_tiles_rejected_before_coding(self):
        # SOT Isot / TLM Ttlm are u16: 65,536 tiles cannot be indexed, and
        # the encode must say so before the front end runs, not after.
        import time

        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="65535-tile limit"):
            encode(np.zeros((16, 16 * 65536), np.uint8),
                   EncoderParams(tile_size=16))
        assert time.perf_counter() - t0 < 1.0


# -- tile sizing and cache integration ----------------------------------------


class TestPlannerSurface:
    def test_choose_tile_size_fits_budget(self):
        from repro.jpeg2000.params import TILE_WORKSET_BYTES, choose_tile_size

        ts = choose_tile_size(8192, 8192, 3, 256 * 2**20)
        assert ts is not None and ts >= 64
        assert ts & (ts - 1) == 0
        assert 8192 * ts * 3 * TILE_WORKSET_BYTES <= 256 * 2**20

    def test_choose_tile_size_none_when_image_fits(self):
        from repro.jpeg2000.params import choose_tile_size

        assert choose_tile_size(64, 64, 3, 1 << 30) is None

    def test_cache_key_distinguishes_tiling(self, rgb_img):
        from repro.service.cache import cache_key

        plain = cache_key(rgb_img, EncoderParams())
        tiled = cache_key(rgb_img, EncoderParams(tile_size=32))
        rpcl = cache_key(rgb_img, EncoderParams(tile_size=32,
                                                progression="RPCL"))
        assert len({plain, tiled, rpcl}) == 3

    def test_cache_key_ignores_mem_budget(self, rgb_img):
        from repro.service.cache import cache_key

        a = cache_key(rgb_img, EncoderParams(tile_size=32))
        b = cache_key(rgb_img, EncoderParams(tile_size=32,
                                             mem_budget=64 * 2**20))
        assert a == b


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_tile_flag_roundtrip(self, tmp_path, rgb_img):
        from repro.cli import main
        from repro.image.pnm import read_pnm, write_pnm

        src = tmp_path / "in.ppm"
        out = tmp_path / "out.j2c"
        back = tmp_path / "back.ppm"
        write_pnm(str(src), rgb_img)
        assert main(["encode", str(src), str(out), "--tile", "32",
                     "--progression", "rpcl"]) == 0
        cs = out.read_bytes()
        info = parse_codestream(cs)
        assert info.num_tiles == 9 and info.progression == "RPCL"
        assert main(["decode", str(out), str(back)]) == 0
        assert np.array_equal(read_pnm(str(back)), rgb_img)

    def test_mem_budget_without_tile_picks_one(self, tmp_path):
        from repro.cli import main
        from repro.image.pnm import write_pnm

        img = watch_face_image(512, 512, channels=1)
        src = tmp_path / "in.pgm"
        out = tmp_path / "out.j2c"
        write_pnm(str(src), img)
        # A 512x512 image at TILE_WORKSET_BYTES (16) per sample needs
        # 4 MiB, over the 1 MiB budget, so the CLI must auto-pick a tile
        # size.
        assert main(["encode", str(src), str(out), "--mem-budget", "1"]) == 0
        info = parse_codestream(out.read_bytes())
        assert info.num_tiles > 1
        assert np.array_equal(decode(out.read_bytes()), img)
