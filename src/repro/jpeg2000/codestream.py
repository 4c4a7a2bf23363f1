"""JPEG2000 Part-1 codestream markers (T.800 Annex A).

Writes and parses the marker segments a Part-1 codestream needs: SOC,
SIZ, COD, QCD, TLM, SOT, SOD, EOC.  The parsed representation is a
:class:`CodestreamInfo` from which the decoder reconstructs every coding
parameter.

Single-tile codestreams (the default) are laid out exactly as previous
versions wrote them — main header, one SOT..SOD tile-part, EOC — so the
byte-identity gates keep holding.  When ``CodestreamInfo.tiles`` is set,
the image is partitioned on the SIZ tile grid (``XTsiz``/``YTsiz``) and
each tile is emitted as its own tile-part, preceded by a TLM marker in
the main header so readers can seek to any tile without scanning.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.jpeg2000.errors import (
    DEFAULT_LIMITS,
    CodestreamError,
    DecodeLimits,
    HeaderFieldError,
    LimitExceededError,
    MarkerError,
    TruncatedCodestreamError,
)

__all__ = [
    "CodestreamError",
    "CodestreamInfo",
    "DecodeLimits",
    "PROGRESSIONS",
    "SubbandQuantField",
    "parse_codestream",
    "tile_grid",
    "tile_rows",
    "tlm_overhead",
    "write_codestream",
    "write_main_header",
]

MARKER_SOC = 0xFF4F
MARKER_SIZ = 0xFF51
MARKER_COD = 0xFF52
MARKER_TLM = 0xFF55
MARKER_QCD = 0xFF5C
MARKER_SOT = 0xFF90
MARKER_SOD = 0xFF93
MARKER_EOC = 0xFFD9

_QUANT_NONE = 0      # Sqcd style: reversible, exponents only
_QUANT_EXPOUNDED = 2  # Sqcd style: scalar expounded, exponent+mantissa

#: Progression order name -> COD SGcod progression value (T.800 Table A.16).
PROGRESSIONS = {"LRCP": 0, "RPCL": 2, "PCRL": 3}
_PROG_NAMES = {v: k for k, v in PROGRESSIONS.items()}

#: TLM entries per segment at ST=2/SP=1 (6 bytes each, 65535-byte Ltlm cap).
_TLM_CHUNK = (65535 - 2 - 2) // 6


@dataclass
class SubbandQuantField:
    """(exponent, mantissa) signalled for one subband, in QCD order."""

    exponent: int
    mantissa: int


@dataclass
class CodestreamInfo:
    """Everything the main header conveys."""

    width: int
    height: int
    num_components: int
    bit_depth: int
    signed: bool
    levels: int
    codeblock_size: int
    reversible: bool
    use_mct: bool
    num_layers: int
    guard_bits: int
    quant_fields: list[SubbandQuantField] = field(default_factory=list)
    tile_data: bytes = b""
    #: SIZ tile grid; ``None`` means one tile covering the image (legacy).
    tile_width: int | None = None
    tile_height: int | None = None
    #: COD progression order name (``PROGRESSIONS`` key).
    progression: str = "LRCP"
    #: Precinct edge at full resolution, or ``None`` for maximal precincts.
    precinct_size: int | None = None
    #: Per-tile bodies in raster order; ``None`` on the single-tile path.
    tiles: list[bytes] | None = None
    #: Emit a TLM tile-part index in the main header (multi-tile writes).
    write_tlm: bool = True
    #: Parser-filled: Ptlm lengths from TLM, SOT marker byte offsets.
    tlm_lengths: list[int] = field(default_factory=list)
    tile_part_offsets: list[int] = field(default_factory=list)

    def tile_grid(self) -> list[tuple[int, int, int, int]]:
        """Tile rectangles ``(row0, col0, height, width)`` in raster order."""
        return tile_grid(self.width, self.height, self.tile_width, self.tile_height)

    @property
    def num_tiles(self) -> int:
        tw = self.tile_width or self.width
        th = self.tile_height or self.height
        return ((self.width + tw - 1) // tw) * ((self.height + th - 1) // th)


def tile_grid(
    width: int, height: int, tile_width: int | None, tile_height: int | None
) -> list[tuple[int, int, int, int]]:
    """Raster-order tile rectangles ``(row0, col0, height, width)``."""
    tw = tile_width or width
    th = tile_height or height
    grid: list[tuple[int, int, int, int]] = []
    for row0 in range(0, height, th):
        for col0 in range(0, width, tw):
            grid.append(
                (row0, col0, min(th, height - row0), min(tw, width - col0))
            )
    return grid


def tile_rows(grid: list[tuple[int, int, int, int]]) -> list[list[int]]:
    """Indices into ``grid``, one list per tile row.

    A tile row is the streaming unit of both directions: the encoder and
    the decoder hold one row's coefficient planes at a time.
    """
    rows: dict[int, list[int]] = {}
    for t, (row0, _col0, _h, _w) in enumerate(grid):
        rows.setdefault(row0, []).append(t)
    return list(rows.values())


def _marker(code: int, payload: bytes = b"") -> bytes:
    if payload:
        return struct.pack(">HH", code, len(payload) + 2) + payload
    return struct.pack(">H", code)


def tlm_overhead(ntiles: int) -> int:
    """Exact byte cost of the TLM segment(s) indexing ``ntiles`` tile-parts."""
    nseg = (ntiles + _TLM_CHUNK - 1) // _TLM_CHUNK
    return nseg * (2 + 2 + 2) + ntiles * 6  # marker + Ltlm + Ztlm/Stlm + entries


def _write_tlm(psots: list[int]) -> bytes:
    """TLM segments: Ztlm, Stlm=0x60 (ST=2, SP=1), (Ttlm:u16, Ptlm:u32)*."""
    out = bytearray()
    for z in range((len(psots) + _TLM_CHUNK - 1) // _TLM_CHUNK):
        chunk = psots[z * _TLM_CHUNK : (z + 1) * _TLM_CHUNK]
        payload = bytearray(struct.pack(">BB", z, 0x60))
        for i, psot in enumerate(chunk):
            payload += struct.pack(">HI", z * _TLM_CHUNK + i, psot)
        out += _marker(MARKER_TLM, bytes(payload))
    return bytes(out)


def write_main_header(info: CodestreamInfo) -> bytes:
    """Serialize SOC + SIZ + COD + QCD (plus TLM for multi-tile streams)."""
    out = bytearray(_marker(MARKER_SOC))

    ssiz = (info.bit_depth - 1) | (0x80 if info.signed else 0)
    siz = struct.pack(
        ">HIIIIIIIIH",
        0,  # Rsiz: baseline Part-1
        info.width, info.height, 0, 0,
        info.tile_width or info.width, info.tile_height or info.height, 0, 0,
        info.num_components,
    )
    siz += b"".join(struct.pack(">BBB", ssiz, 1, 1) for _ in range(info.num_components))
    out += _marker(MARKER_SIZ, siz)

    cb_exp = info.codeblock_size.bit_length() - 1
    scod = 1 if info.precinct_size is not None else 0
    cod = struct.pack(
        ">BBHBBBBBB",
        scod,                   # Scod: bit 0 = precincts signalled
        PROGRESSIONS[info.progression],
        info.num_layers,
        1 if info.use_mct else 0,
        info.levels,
        cb_exp - 2,             # code block width exponent - 2
        cb_exp - 2,             # code block height exponent - 2
        0,                      # code block style: all defaults
        1 if info.reversible else 0,
    )
    if info.precinct_size is not None:
        pp = info.precinct_size.bit_length() - 1
        cod += bytes([(pp << 4) | pp]) * (info.levels + 1)
    out += _marker(MARKER_COD, cod)

    style = _QUANT_NONE if info.reversible else _QUANT_EXPOUNDED
    sqcd = style | (info.guard_bits << 5)
    qcd = bytes([sqcd])
    for f in info.quant_fields:
        if info.reversible:
            qcd += bytes([f.exponent << 3])
        else:
            qcd += struct.pack(">H", (f.exponent << 11) | f.mantissa)
    out += _marker(MARKER_QCD, qcd)

    if info.tiles is not None and len(info.tiles) > 1 and info.write_tlm:
        out += _write_tlm([12 + 2 + len(body) for body in info.tiles])
    return bytes(out)


def write_codestream(info: CodestreamInfo) -> bytes:
    """Full codestream: main header, tile-part(s), EOC."""
    header = write_main_header(info)
    if info.tiles is None or len(info.tiles) == 1:
        body = info.tile_data if info.tiles is None else info.tiles[0]
        psot = 12 + 2 + len(body)  # SOT segment + SOD + data
        sot = struct.pack(">HIBB", 0, psot, 0, 1)
        return (
            header
            + _marker(MARKER_SOT, sot)
            + _marker(MARKER_SOD)
            + body
            + _marker(MARKER_EOC)
        )
    out = bytearray(header)
    for idx, body in enumerate(info.tiles):
        psot = 12 + 2 + len(body)
        out += _marker(MARKER_SOT, struct.pack(">HIBB", idx, psot, 0, 1))
        out += _marker(MARKER_SOD)
        out += body
    out += _marker(MARKER_EOC)
    return bytes(out)


def parse_codestream(
    data: bytes, limits: DecodeLimits | None = None
) -> CodestreamInfo:
    """Parse a codestream produced by :func:`write_codestream`.

    Every field that later sizes an allocation or a loop is validated
    against ``limits`` *here*, before the decoder touches it; malformed
    input raises a :class:`CodestreamError` subclass carrying the byte
    offset at which the problem was detected.
    """
    if limits is None:
        limits = DEFAULT_LIMITS
    pos = 0

    def read_marker() -> int:
        nonlocal pos
        if pos + 2 > len(data):
            raise TruncatedCodestreamError(
                "truncated codestream: no marker", offset=pos
            )
        (code,) = struct.unpack_from(">H", data, pos)
        if code >> 8 != 0xFF:
            raise MarkerError(f"invalid marker 0x{code:04X}", offset=pos)
        pos += 2
        return code

    def read_segment() -> tuple[bytes, int]:
        """Read one marker-segment payload; returns (payload, its offset)."""
        nonlocal pos
        if pos + 2 > len(data):
            raise TruncatedCodestreamError("truncated marker segment", offset=pos)
        (length,) = struct.unpack_from(">H", data, pos)
        if length < 2:
            raise HeaderFieldError(
                f"marker segment length {length} smaller than its own "
                "length field", offset=pos,
            )
        if pos + length > len(data):
            raise TruncatedCodestreamError(
                f"marker segment of {length} bytes overruns codestream",
                offset=pos,
            )
        payload = data[pos + 2 : pos + length]
        seg_offset = pos + 2
        pos += length
        return payload, seg_offset

    if read_marker() != MARKER_SOC:
        raise MarkerError("missing SOC marker", offset=0)

    info: CodestreamInfo | None = None
    cod_seen = qcd_seen = False
    reversible = True
    quant_fields: list[SubbandQuantField] = []
    guard_bits = 0
    ntiles = 1
    tile_parts: dict[int, bytearray] = {}
    part_lengths: list[int] = []
    tlm_lengths: list[int] = []
    tile_part_offsets: list[int] = []

    while True:
        marker_offset = pos
        code = read_marker()
        if code == MARKER_SIZ:
            seg, off = read_segment()
            if info is not None:
                raise MarkerError("duplicate SIZ marker", offset=marker_offset)
            if len(seg) < 38:
                raise TruncatedCodestreamError(
                    f"SIZ segment needs >= 38 bytes, got {len(seg)}", offset=off
                )
            (_rsiz, w, h, xo, yo, tw, th, txo, tyo, ncomp) = struct.unpack_from(
                ">HIIIIIIIIH", seg, 0
            )
            if ncomp < 1 or ncomp > limits.max_components:
                raise (
                    LimitExceededError if ncomp > limits.max_components
                    else HeaderFieldError
                )(f"component count {ncomp} outside [1, {limits.max_components}]",
                  offset=off)
            if len(seg) < 36 + 3 * ncomp:
                raise TruncatedCodestreamError(
                    f"SIZ segment truncated: {ncomp} components need "
                    f"{36 + 3 * ncomp} bytes, got {len(seg)}", offset=off,
                )
            if w < 1 or h < 1:
                raise HeaderFieldError(
                    f"image dimensions must be positive, got {w}x{h}", offset=off
                )
            if xo or yo:
                raise HeaderFieldError(
                    f"nonzero image offset ({xo}, {yo}) unsupported", offset=off
                )
            if w > limits.max_dimension or h > limits.max_dimension:
                raise LimitExceededError(
                    f"declared dimensions {w}x{h} exceed the "
                    f"{limits.max_dimension} cap", offset=off,
                )
            if w * h * ncomp > limits.max_samples:
                raise LimitExceededError(
                    f"declared size {w}x{h}x{ncomp} exceeds the "
                    f"{limits.max_samples}-sample cap", offset=off,
                )
            if tw < 1 or th < 1:
                raise HeaderFieldError(
                    f"tile dimensions must be positive, got {tw}x{th}",
                    offset=off,
                )
            if txo or tyo:
                raise HeaderFieldError(
                    f"nonzero tile offset ({txo}, {tyo}) unsupported", offset=off
                )
            ntiles = ((w + tw - 1) // tw) * ((h + th - 1) // th)
            if ntiles > limits.max_tiles:
                raise LimitExceededError(
                    f"declared tile grid has {ntiles} tiles, more than the "
                    f"{limits.max_tiles} cap", offset=off,
                )
            ssiz, xr, yr = struct.unpack_from(">BBB", seg, 36)
            for c in range(1, ncomp):
                if struct.unpack_from(">BBB", seg, 36 + 3 * c) != (ssiz, xr, yr):
                    raise HeaderFieldError(
                        "per-component SIZ fields must match component 0",
                        offset=off,
                    )
            if (xr, yr) != (1, 1):
                raise HeaderFieldError(
                    f"component subsampling {xr}x{yr} unsupported", offset=off
                )
            bit_depth = (ssiz & 0x7F) + 1
            if bit_depth > limits.max_bit_depth:
                raise LimitExceededError(
                    f"bit depth {bit_depth} exceeds the "
                    f"{limits.max_bit_depth}-bit cap", offset=off,
                )
            info = CodestreamInfo(
                width=w, height=h, num_components=ncomp,
                bit_depth=bit_depth, signed=bool(ssiz & 0x80),
                levels=0, codeblock_size=64, reversible=True,
                use_mct=False, num_layers=1, guard_bits=0,
                tile_width=None if (tw >= w and th >= h) else tw,
                tile_height=None if (tw >= w and th >= h) else th,
            )
        elif code == MARKER_COD:
            seg, off = read_segment()
            if info is None:
                raise MarkerError("COD before SIZ", offset=marker_offset)
            if len(seg) < 10:
                raise TruncatedCodestreamError(
                    f"COD segment needs >= 10 bytes, got {len(seg)}", offset=off
                )
            (scod, prog, layers, mct, levels, cbw, cbh, style, transform) = (
                struct.unpack_from(">BBHBBBBBB", seg, 0)
            )
            if scod not in (0, 1) or style != 0:
                raise HeaderFieldError(
                    f"unsupported COD options (Scod={scod}, style={style}); "
                    "this codec writes default style with optional precincts",
                    offset=off,
                )
            if prog not in _PROG_NAMES:
                raise HeaderFieldError(
                    f"unsupported progression order {prog}; this codec "
                    "writes LRCP, RPCL, or PCRL", offset=off,
                )
            if layers != 1:
                raise HeaderFieldError(
                    f"unsupported layer count {layers}; this codec writes a "
                    "single quality layer", offset=off,
                )
            if levels > limits.max_levels:
                raise LimitExceededError(
                    f"declared {levels} DWT levels exceed the "
                    f"{limits.max_levels} cap", offset=off,
                )
            if cbw != cbh or not (0 <= cbw <= 4):
                raise HeaderFieldError(
                    f"code block exponents ({cbw}, {cbh}) outside the square "
                    "4..64 range this codec writes", offset=off,
                )
            if transform not in (0, 1):
                raise HeaderFieldError(
                    f"unknown wavelet transform {transform}", offset=off
                )
            precinct_size: int | None = None
            if scod & 1:
                if len(seg) < 10 + levels + 1:
                    raise TruncatedCodestreamError(
                        f"COD precinct bytes truncated: {levels + 1} needed, "
                        f"got {len(seg) - 10}", offset=off,
                    )
                pps = seg[10 : 10 + levels + 1]
                ppx, ppy = pps[0] & 0x0F, pps[0] >> 4
                if ppx != ppy or any(b != pps[0] for b in pps):
                    raise HeaderFieldError(
                        "unsupported precinct layout; this codec writes one "
                        "square precinct size for all resolutions", offset=off,
                    )
                if ppx == 0:
                    raise HeaderFieldError(
                        "precinct exponent 0 smaller than any code block",
                        offset=off,
                    )
                precinct_size = 1 << ppx
            info.num_layers = layers
            info.use_mct = bool(mct)
            info.levels = levels
            info.codeblock_size = 1 << (cbw + 2)
            info.progression = _PROG_NAMES[prog]
            info.precinct_size = precinct_size
            reversible = transform == 1
            info.reversible = reversible
            cod_seen = True
        elif code == MARKER_TLM:
            seg, off = read_segment()
            if info is None:
                raise MarkerError("TLM before SIZ", offset=marker_offset)
            if len(seg) < 2:
                raise TruncatedCodestreamError(
                    f"TLM segment needs >= 2 bytes, got {len(seg)}", offset=off
                )
            stlm = seg[1]
            st = (stlm >> 4) & 0x3
            sp = (stlm >> 6) & 0x1
            if st == 3 or stlm & 0x8F:
                raise HeaderFieldError(
                    f"invalid TLM Stlm byte 0x{stlm:02X}", offset=off
                )
            entry = st + (4 if sp else 2)
            body = seg[2:]
            if len(body) % entry:
                raise HeaderFieldError(
                    f"TLM body of {len(body)} bytes is not a multiple of its "
                    f"{entry}-byte entries", offset=off,
                )
            for i in range(0, len(body), entry):
                p = i + st  # skip Ttlm (0, 1, or 2 bytes)
                if sp:
                    (length,) = struct.unpack_from(">I", body, p)
                else:
                    (length,) = struct.unpack_from(">H", body, p)
                tlm_lengths.append(length)
            if len(tlm_lengths) > limits.max_tiles:
                raise LimitExceededError(
                    f"TLM indexes {len(tlm_lengths)} tile-parts, more than "
                    f"the {limits.max_tiles} cap", offset=off,
                )
        elif code == MARKER_QCD:
            seg, off = read_segment()
            if not seg:
                raise TruncatedCodestreamError("empty QCD segment", offset=off)
            sqcd = seg[0]
            guard_bits = sqcd >> 5
            style = sqcd & 0x1F
            body = seg[1:]
            quant_fields = []
            if style == _QUANT_NONE:
                quant_fields = [SubbandQuantField(b >> 3, 0) for b in body]
            elif style == _QUANT_EXPOUNDED:
                if len(body) % 2:
                    raise TruncatedCodestreamError(
                        "expounded QCD body has an odd byte count", offset=off
                    )
                for i in range(0, len(body), 2):
                    (v,) = struct.unpack_from(">H", body, i)
                    quant_fields.append(SubbandQuantField(v >> 11, v & 0x7FF))
            else:
                raise HeaderFieldError(
                    f"unsupported quantization style {style}", offset=off
                )
            max_fields = 1 + 3 * limits.max_levels
            if len(quant_fields) > max_fields:
                raise LimitExceededError(
                    f"QCD signals {len(quant_fields)} subbands, more than "
                    f"{limits.max_levels} levels allow", offset=off,
                )
            qcd_seen = True
        elif code == MARKER_SOT:
            seg, off = read_segment()
            if len(seg) < 8:
                raise TruncatedCodestreamError(
                    f"SOT segment needs >= 8 bytes, got {len(seg)}", offset=off
                )
            (tile_idx, psot, _tpsot, _tnsot) = struct.unpack_from(">HIBB", seg, 0)
            if read_marker() != MARKER_SOD:
                raise MarkerError("expected SOD after SOT", offset=pos - 2)
            if info is None or not (cod_seen and qcd_seen):
                raise MarkerError(
                    "tile before complete main header", offset=marker_offset
                )
            if tile_idx >= ntiles:
                raise HeaderFieldError(
                    f"SOT tile index {tile_idx} outside the {ntiles}-tile "
                    "grid", offset=off,
                )
            if psot == 0:
                # Psot=0: the tile-part extends to the next SOT or to EOC
                # (T.800 A.4.2).  Tile bodies are bit-stuffed (packet
                # headers) and MQ byte-stuffed, so a raw FF90/FFD9 cannot
                # occur inside entropy-coded data.
                next_sot = data.find(b"\xff\x90", pos)
                next_eoc = data.find(b"\xff\xd9", pos)
                candidates = [c for c in (next_sot, next_eoc) if c != -1]
                if not candidates:
                    raise TruncatedCodestreamError(
                        "Psot=0 tile-part with no terminating SOT or EOC",
                        offset=marker_offset,
                    )
                data_len = min(candidates) - pos
            else:
                data_len = psot - 12 - 2
                if data_len < 0:
                    raise HeaderFieldError(
                        f"SOT Psot {psot} smaller than its own headers",
                        offset=off,
                    )
            if pos + data_len > len(data):
                raise TruncatedCodestreamError(
                    f"tile data of {data_len} bytes overruns codestream",
                    offset=pos,
                )
            tile_parts.setdefault(tile_idx, bytearray()).extend(
                data[pos : pos + data_len]
            )
            part_lengths.append(12 + 2 + data_len)
            tile_part_offsets.append(marker_offset)
            pos += data_len
        elif code == MARKER_EOC:
            break
        else:
            raise MarkerError(f"unexpected marker 0x{code:04X}", offset=marker_offset)

    if info is None or not cod_seen or not qcd_seen:
        raise MarkerError("incomplete main header", offset=pos)
    info.guard_bits = guard_bits
    info.quant_fields = quant_fields
    info.tlm_lengths = tlm_lengths
    info.tile_part_offsets = tile_part_offsets
    if tlm_lengths:
        if len(tlm_lengths) != len(part_lengths) or any(
            t != p for t, p in zip(tlm_lengths, part_lengths)
        ):
            raise HeaderFieldError(
                f"TLM tile-part lengths {tlm_lengths} do not match the "
                f"observed tile-parts {part_lengths}", offset=pos,
            )
    if ntiles == 1:
        info.tile_data = bytes(tile_parts.get(0, b""))
        info.tiles = None
    else:
        missing = [i for i in range(ntiles) if i not in tile_parts]
        if missing:
            raise MarkerError(
                f"codestream declares {ntiles} tiles but tile(s) "
                f"{missing[:8]} have no tile-part", offset=pos,
            )
        info.tiles = [bytes(tile_parts[i]) for i in range(ntiles)]
        info.tile_data = b""
    return info
