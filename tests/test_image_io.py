"""BMP/PNM reader-writer and synthetic generator tests."""

import struct

import numpy as np
import pytest

from repro.image import ImageFormatError
from repro.image.bmp import parse_bmp, read_bmp, write_bmp
from repro.image.pnm import read_pnm, write_pnm
from repro.image.synthetic import gradient_image, noise_image, watch_face_image


def _bmp8(width=4, height=4, header_size=40, bpp=8, compression=0,
          palette_count=2, index=1, trim=0, rows=None):
    """A small hand-built 8-bit BMP whose header fields can be corrupted."""
    palette = bytes(
        b for v in range(palette_count or 256) for b in (v & 255,) * 3 + (0,)
    )
    stride = (width + 3) & ~3
    pixels = bytes([index]) * (stride * (height if rows is None else rows))
    offset = 14 + 40 + len(palette)
    head = struct.pack("<2sIHHI", b"BM", offset + len(pixels), 0, 0, offset)
    info = struct.pack("<IiiHHIIiiII", header_size, width, height, 1, bpp,
                       compression, len(pixels), 0, 0, palette_count, 0)
    data = head + info + palette + pixels
    return data[: len(data) - trim]


class TestBmp:
    def test_rgb_roundtrip(self, tmp_path):
        img = watch_face_image(33, 47, channels=3)
        path = str(tmp_path / "t.bmp")
        write_bmp(path, img)
        assert np.array_equal(read_bmp(path), img)

    def test_gray_roundtrip(self, tmp_path):
        img = watch_face_image(20, 31, channels=1)
        path = str(tmp_path / "g.bmp")
        write_bmp(path, img)
        assert np.array_equal(read_bmp(path), img)

    def test_row_padding_widths(self, tmp_path):
        # widths that exercise every 4-byte stride padding case
        for w in (1, 2, 3, 4, 5):
            img = gradient_image(3, w, 3)
            path = str(tmp_path / f"w{w}.bmp")
            write_bmp(path, img)
            assert np.array_equal(read_bmp(path), img)

    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(ValueError):
            write_bmp(str(tmp_path / "x.bmp"), np.zeros((4, 4), dtype=np.float32))

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bmp"
        p.write_bytes(b"XX" + b"\0" * 100)
        with pytest.raises(ValueError):
            read_bmp(str(p))

    def test_rejects_truncated(self, tmp_path):
        p = tmp_path / "short.bmp"
        p.write_bytes(b"BM\0\0")
        with pytest.raises(ValueError):
            read_bmp(str(p))

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_bmp(str(tmp_path / "x.bmp"), np.zeros((4, 4, 2), dtype=np.uint8))

    def test_hand_built_bmp_parses(self):
        img = parse_bmp(_bmp8(index=1))
        assert img.shape == (4, 4) and np.all(img == 1)

    @pytest.mark.parametrize("data, reason", [
        (b"XX" + b"\0" * 100, "bad-magic"),
        (b"BM\0\0", "truncated"),
        (_bmp8(index=255), "bad-palette-index"),
        (_bmp8(palette_count=300), "bad-palette"),
        (_bmp8(header_size=40 + 4096), "truncated"),
        (_bmp8(trim=1), "truncated"),
        (_bmp8(height=1 << 20, rows=4), "truncated"),
        (_bmp8(bpp=16), "bad-depth"),
        (_bmp8(compression=1), "bad-compression"),
        (_bmp8(header_size=12), "bad-header"),
        (_bmp8(width=0), "bad-dimensions"),
    ], ids=["magic", "short", "palette-index", "palette-size",
            "palette-extent", "pixels-trimmed", "pixels-huge", "depth",
            "compression", "header", "dimensions"])
    def test_malformed_is_typed(self, data, reason):
        with pytest.raises(ImageFormatError) as err:
            parse_bmp(data)
        assert err.value.reason == reason


class TestPnm:
    def test_ppm_roundtrip(self, tmp_path):
        img = watch_face_image(21, 17, channels=3)
        path = str(tmp_path / "t.ppm")
        write_pnm(path, img)
        assert np.array_equal(read_pnm(path), img)

    def test_pgm_roundtrip(self, tmp_path):
        img = noise_image(9, 13, seed=5)
        path = str(tmp_path / "t.pgm")
        write_pnm(path, img)
        assert np.array_equal(read_pnm(path), img)

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
        img = read_pnm(str(p))
        assert img.tolist() == [[1, 2], [3, 4]]

    def test_16bit_pgm_roundtrip(self, tmp_path):
        img = (np.arange(12, dtype=np.uint16).reshape(3, 4) * 5000)
        path = str(tmp_path / "m.pgm")
        write_pnm(path, img)
        back = read_pnm(path)
        assert back.dtype == np.uint16
        assert np.array_equal(back, img)

    def test_16bit_ppm_roundtrip(self, tmp_path):
        img = np.random.default_rng(3).integers(
            0, 65536, size=(5, 7, 3), dtype=np.uint16
        )
        path = str(tmp_path / "m.ppm")
        write_pnm(path, img)
        assert np.array_equal(read_pnm(path), img)

    def test_16bit_samples_are_big_endian(self, tmp_path):
        # Netpbm: two-byte samples are most-significant byte first.
        p = tmp_path / "be.pgm"
        p.write_bytes(b"P5\n2 1\n65535\n\x01\x00\x00\x02")
        assert read_pnm(str(p)).tolist() == [[256, 2]]

    def test_maxval_above_16bit_is_typed(self, tmp_path):
        from repro.image.errors import ImageFormatError

        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 2\n70000\n" + b"\0" * 8)
        with pytest.raises(ImageFormatError) as err:
            read_pnm(str(p))
        assert err.value.reason == "bad-maxval"

    def test_truncated_pixels_are_typed(self, tmp_path):
        from repro.image.errors import ImageFormatError

        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ImageFormatError) as err:
            read_pnm(str(p))
        assert err.value.reason == "truncated"

    def test_rejects_ascii_pnm(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n2 2\n255\n1 2 3 4")
        with pytest.raises(ValueError):
            read_pnm(str(p))

    def test_format_error_is_a_value_error(self):
        from repro.image.errors import ImageFormatError

        assert issubclass(ImageFormatError, ValueError)


class TestSynthetic:
    def test_watch_deterministic(self):
        a = watch_face_image(32, 32, seed=7)
        b = watch_face_image(32, 32, seed=7)
        assert np.array_equal(a, b)

    def test_watch_seed_changes_image(self):
        a = watch_face_image(32, 32, seed=1)
        b = watch_face_image(32, 32, seed=2)
        assert not np.array_equal(a, b)

    def test_watch_has_structure(self):
        # the dial should make the centre brighter than the corners
        img = watch_face_image(128, 128, channels=1)
        centre = img[48:80, 48:80].mean()
        corners = np.concatenate(
            [img[:8, :8].ravel(), img[-8:, -8:].ravel()]
        ).mean()
        assert centre > corners + 20

    def test_watch_gray_shape_dtype(self):
        img = watch_face_image(40, 50, channels=1)
        assert img.shape == (40, 50) and img.dtype == np.uint8

    def test_watch_rgb_channels_differ(self):
        img = watch_face_image(64, 64, channels=3)
        assert not np.array_equal(img[:, :, 0], img[:, :, 2])

    def test_gradient_monotone(self):
        img = gradient_image(16, 16)
        assert img[0, 0] <= img[-1, -1]

    def test_noise_range(self):
        img = noise_image(64, 64, seed=0)
        assert img.min() >= 0 and img.max() <= 255
        assert img.std() > 50  # uniform noise is spread out

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            watch_face_image(0, 10)
        with pytest.raises(ValueError):
            gradient_image(10, -1)

    def test_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            watch_face_image(8, 8, channels=4)
