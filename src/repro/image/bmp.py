"""Minimal BMP (Windows DIB) reader and writer.

Supports the formats the Jasper workflow in the paper needs: uncompressed
24-bit BGR and 8-bit grayscale (with a gray palette), BITMAPINFOHEADER.
Images are exchanged as ``uint8`` arrays of shape ``(H, W)`` (gray) or
``(H, W, 3)`` (RGB, channel order R,G,B).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.image.errors import ImageFormatError

_FILE_HEADER = struct.Struct("<2sIHHI")
_INFO_HEADER = struct.Struct("<IiiHHIIiiII")
_INFO_HEADER_SIZE = 40


def write_bmp(path: str, image: np.ndarray) -> None:
    """Write ``image`` (uint8, gray or RGB) to ``path`` as an uncompressed BMP."""
    img = np.asarray(image)
    if img.dtype != np.uint8:
        raise ValueError(f"BMP writer requires uint8 pixels, got {img.dtype}")
    if img.ndim == 2:
        _write_gray8(path, img)
    elif img.ndim == 3 and img.shape[2] == 3:
        _write_rgb24(path, img)
    else:
        raise ValueError(f"unsupported image shape {img.shape}")


def _row_stride(width: int, bytes_per_pixel: int) -> int:
    return (width * bytes_per_pixel + 3) & ~3


def _write_rgb24(path: str, img: np.ndarray) -> None:
    height, width = img.shape[:2]
    stride = _row_stride(width, 3)
    rows = np.zeros((height, stride), dtype=np.uint8)
    # BMP stores rows bottom-up in BGR order.
    rows[:, : width * 3] = img[::-1, :, ::-1].reshape(height, width * 3)
    pixel_bytes = rows.tobytes()
    offset = _FILE_HEADER.size + _INFO_HEADER_SIZE
    with open(path, "wb") as fh:
        fh.write(_FILE_HEADER.pack(b"BM", offset + len(pixel_bytes), 0, 0, offset))
        fh.write(
            _INFO_HEADER.pack(
                _INFO_HEADER_SIZE, width, height, 1, 24, 0, len(pixel_bytes), 2835, 2835, 0, 0
            )
        )
        fh.write(pixel_bytes)


def _write_gray8(path: str, img: np.ndarray) -> None:
    height, width = img.shape
    stride = _row_stride(width, 1)
    rows = np.zeros((height, stride), dtype=np.uint8)
    rows[:, :width] = img[::-1]
    pixel_bytes = rows.tobytes()
    palette = bytes(
        b for v in range(256) for b in (v, v, v, 0)
    )
    offset = _FILE_HEADER.size + _INFO_HEADER_SIZE + len(palette)
    with open(path, "wb") as fh:
        fh.write(_FILE_HEADER.pack(b"BM", offset + len(pixel_bytes), 0, 0, offset))
        fh.write(
            _INFO_HEADER.pack(
                _INFO_HEADER_SIZE, width, height, 1, 8, 0, len(pixel_bytes), 2835, 2835, 256, 0
            )
        )
        fh.write(palette)
        fh.write(pixel_bytes)


def read_bmp(path: str) -> np.ndarray:
    """Read an uncompressed 24-bit or 8-bit BMP into a uint8 array."""
    with open(path, "rb") as fh:
        return parse_bmp(fh.read())


def parse_bmp(data: bytes) -> np.ndarray:
    """Parse uncompressed BMP bytes (e.g. an HTTP body) into a uint8 array.

    Every rejection raises :class:`~repro.image.errors.ImageFormatError`
    with a ``reason`` slug; every extent a header declares (palette, pixel
    rows) is checked against the buffer before it is read.
    """
    if len(data) < _FILE_HEADER.size + _INFO_HEADER_SIZE:
        raise ImageFormatError("file too short to be a BMP", reason="truncated")
    magic, _size, _r1, _r2, offset = _FILE_HEADER.unpack_from(data, 0)
    if magic != b"BM":
        raise ImageFormatError(
            f"not a BMP file (magic {magic!r})", reason="bad-magic"
        )
    (
        header_size,
        width,
        height,
        _planes,
        bpp,
        compression,
        _img_size,
        _xppm,
        _yppm,
        palette_count,
        _important,
    ) = _INFO_HEADER.unpack_from(data, _FILE_HEADER.size)
    if header_size < _INFO_HEADER_SIZE:
        raise ImageFormatError(
            f"unsupported DIB header size {header_size}", reason="bad-header"
        )
    if compression != 0:
        raise ImageFormatError(
            f"unsupported BMP compression {compression}",
            reason="bad-compression",
        )
    if bpp not in (8, 24):
        raise ImageFormatError(
            f"unsupported BMP bit depth {bpp}", reason="bad-depth"
        )
    bottom_up = height > 0
    height = abs(height)
    if width <= 0 or height <= 0:
        raise ImageFormatError(
            f"invalid BMP dimensions {width}x{height}", reason="bad-dimensions"
        )
    stride = _row_stride(width, bpp // 8)
    if offset + stride * height > len(data):
        raise ImageFormatError(
            f"BMP pixel data truncated: header promises {height} rows of "
            f"{stride} bytes at offset {offset}", reason="truncated",
        )
    raw = np.frombuffer(data, dtype=np.uint8, count=stride * height, offset=offset)

    if bpp == 24:
        rows = raw.reshape(height, stride)[:, : width * 3].reshape(height, width, 3)
        img = rows[:, :, ::-1]  # BGR -> RGB
    else:
        idx = raw.reshape(height, stride)[:, :width]
        pal_off = _FILE_HEADER.size + header_size
        count = palette_count or 256
        if count > 256:
            raise ImageFormatError(
                f"8-bit BMP palette has {count} entries (max 256)",
                reason="bad-palette",
            )
        if pal_off + count * 4 > len(data):
            raise ImageFormatError(
                f"BMP palette truncated: {count} entries at offset {pal_off}",
                reason="truncated",
            )
        if int(idx.max()) >= count:
            raise ImageFormatError(
                f"pixel index {int(idx.max())} outside the {count}-entry "
                "palette", reason="bad-palette-index",
            )
        pal = np.frombuffer(data, dtype=np.uint8, count=count * 4, offset=pal_off)
        pal = pal.reshape(count, 4)[:, :3][:, ::-1]  # BGRA -> RGB
        if np.all(pal[:, 0] == pal[:, 1]) and np.all(pal[:, 1] == pal[:, 2]):
            img = pal[idx, 0]
        else:
            img = pal[idx]
    if bottom_up:
        img = img[::-1]
    return np.ascontiguousarray(img)
