"""MQ arithmetic coder (ITU-T T.88 / JPEG2000 Annex C).

The adaptive binary arithmetic coder that EBCOT Tier-1 drives.  Contexts are
small integers owning an (index-into-state-table, MPS) pair.  The encoder
supports querying a *safe truncation length* after every coding pass — the
mechanism PCRD-opt rate control relies on — and the decoder tolerates
truncated codeword segments by feeding 1-bits past the end, exactly the
behaviour the standard mandates after a marker byte.
"""

from __future__ import annotations

#: T.88 Table E.1: (Qe, NMPS, NLPS, SWITCH) per state index.
STATE_TABLE: tuple[tuple[int, int, int, int], ...] = (
    (0x5601, 1, 1, 1), (0x3401, 2, 6, 0), (0x1801, 3, 9, 0), (0x0AC1, 4, 12, 0),
    (0x0521, 5, 29, 0), (0x0221, 38, 33, 0), (0x5601, 7, 6, 1), (0x5401, 8, 14, 0),
    (0x4801, 9, 14, 0), (0x3801, 10, 14, 0), (0x3001, 11, 17, 0), (0x2401, 12, 18, 0),
    (0x1C01, 13, 20, 0), (0x1601, 29, 21, 0), (0x5601, 15, 14, 1), (0x5401, 16, 14, 0),
    (0x5101, 17, 15, 0), (0x4801, 18, 16, 0), (0x3801, 19, 17, 0), (0x3401, 20, 18, 0),
    (0x3001, 21, 19, 0), (0x2801, 22, 19, 0), (0x2401, 23, 20, 0), (0x2201, 24, 21, 0),
    (0x1C01, 25, 22, 0), (0x1801, 26, 23, 0), (0x1601, 27, 24, 0), (0x1401, 28, 25, 0),
    (0x1201, 29, 26, 0), (0x1101, 30, 27, 0), (0x0AC1, 31, 28, 0), (0x09C1, 32, 29, 0),
    (0x08A1, 33, 30, 0), (0x0521, 34, 31, 0), (0x0441, 35, 32, 0), (0x02A1, 36, 33, 0),
    (0x0221, 37, 34, 0), (0x0141, 38, 35, 0), (0x0111, 39, 36, 0), (0x0085, 40, 37, 0),
    (0x0049, 41, 38, 0), (0x0025, 42, 39, 0), (0x0015, 43, 40, 0), (0x0009, 44, 41, 0),
    (0x0005, 45, 42, 0), (0x0001, 45, 43, 0), (0x5601, 46, 46, 0),
)

_QE = tuple(row[0] for row in STATE_TABLE)
_NMPS = tuple(row[1] for row in STATE_TABLE)
_NLPS = tuple(row[2] for row in STATE_TABLE)
_SWITCH = tuple(row[3] for row in STATE_TABLE)


class MQEncoder:
    """T.88 MQ encoder over ``num_contexts`` adaptive contexts."""

    def __init__(self, num_contexts: int, initial_states: dict[int, int] | None = None):
        if num_contexts <= 0:
            raise ValueError(f"num_contexts must be positive, got {num_contexts}")
        self._index = [0] * num_contexts
        self._mps = [0] * num_contexts
        if initial_states:
            for cx, state in initial_states.items():
                self._index[cx] = state
        self._a = 0x8000
        self._c = 0
        self._ct = 12
        self._b: int | None = None  # byte under construction (BP target)
        self._out = bytearray()
        self._flushed: bytes | None = None

    # -- core coding -------------------------------------------------------

    def encode(self, bit: int, cx: int) -> None:
        """Encode one binary decision ``bit`` in context ``cx``."""
        if self._flushed is not None:
            raise RuntimeError("encoder already flushed")
        idx = self._index[cx]
        qe = _QE[idx]
        if bit == self._mps[cx]:
            a = self._a - qe
            if a & 0x8000:
                self._a = a
                self._c += qe
                return
            if a < qe:
                self._a = qe
            else:
                self._a = a
                self._c += qe
            self._index[cx] = _NMPS[idx]
            self._renorm()
        else:
            a = self._a - qe
            if a < qe:
                # Conditional exchange: the LPS takes the larger subinterval.
                self._c += qe
                self._a = a
            else:
                self._a = qe
            if _SWITCH[idx]:
                self._mps[cx] = 1 - self._mps[cx]
            self._index[cx] = _NLPS[idx]
            self._renorm()

    def _renorm(self) -> None:
        while True:
            self._a = (self._a << 1) & 0xFFFF
            self._c = (self._c << 1) & 0xFFFFFFF
            self._ct -= 1
            if self._ct == 0:
                self._byteout()
            if self._a & 0x8000:
                break

    def _emit(self, byte: int) -> None:
        if self._b is not None:
            self._out.append(self._b)
        self._b = byte

    def _byteout(self) -> None:
        if self._b == 0xFF:
            self._emit((self._c >> 20) & 0xFF)
            self._c &= 0xFFFFF
            self._ct = 7
        else:
            if self._c < 0x8000000:
                self._emit((self._c >> 19) & 0xFF)
                self._c &= 0x7FFFF
                self._ct = 8
            else:
                if self._b is not None:
                    self._b += 1  # carry propagation
                if self._b == 0xFF:
                    self._c &= 0x7FFFFFF
                    self._emit((self._c >> 20) & 0xFF)
                    self._c &= 0xFFFFF
                    self._ct = 7
                else:
                    self._emit((self._c >> 19) & 0xFF)
                    self._c &= 0x7FFFF
                    self._ct = 8

    # -- termination and rate queries ---------------------------------------

    def safe_length(self) -> int:
        """Bytes sufficient to decode everything encoded so far.

        A conservative truncation length: the completed output plus the byte
        under construction plus the at-most-4 bytes still inside the C
        register.  Guaranteed decodable because the decoder feeds 1-bits
        past the end of a truncated segment.
        """
        return len(self._out) + (0 if self._b is None else 1) + 4

    def flush(self) -> bytes:
        """Terminate the codeword (T.88 FLUSH) and return the full segment."""
        if self._flushed is None:
            # SETBITS: choose the largest code value inside [C, C+A) whose
            # low bits are all ones, so the decoder's 1-fill past the end of
            # the segment reproduces the untransmitted bits exactly.
            temp = self._c + self._a - 1
            self._c |= 0xFFFF
            if self._c > temp:
                self._c -= 0x8000
            self._c <<= self._ct
            self._byteout()
            self._c <<= self._ct
            self._byteout()
            if self._b is not None:
                self._out.append(self._b)
                self._b = None
            # Trailing 0xFF bytes need not be transmitted (C.2.9).
            while self._out and self._out[-1] == 0xFF:
                self._out.pop()
            self._flushed = bytes(self._out)
        return self._flushed


class MQDecoder:
    """T.88 MQ decoder; feeds 1-bits beyond the end of the segment."""

    def __init__(self, data: bytes, num_contexts: int,
                 initial_states: dict[int, int] | None = None):
        self._data = data
        self._index = [0] * num_contexts
        self._mps = [0] * num_contexts
        if initial_states:
            for cx, state in initial_states.items():
                self._index[cx] = state
        self._bp = 0
        self._b = data[0] if data else 0xFF
        self._c = self._b << 16
        self._ct = 0
        self._bytein()
        self._c <<= 7
        self._ct -= 7
        self._a = 0x8000

    def _byte_at(self, pos: int) -> int:
        """Byte at ``pos``, or 0xFF past the end (truncated-segment rule)."""
        return self._data[pos] if pos < len(self._data) else 0xFF

    def _bytein(self) -> None:
        if self._b == 0xFF:
            if self._byte_at(self._bp + 1) > 0x8F:
                self._c += 0xFF00  # marker or end of segment: feed 1 bits
                self._ct = 8
            else:
                self._bp += 1
                self._b = self._data[self._bp]
                self._c += self._b << 9
                self._ct = 7
        else:
            self._bp += 1
            self._b = self._byte_at(self._bp)
            self._c += self._b << 8
            self._ct = 8

    def decode(self, cx: int) -> int:
        """Decode one binary decision in context ``cx``."""
        idx = self._index[cx]
        qe = _QE[idx]
        self._a -= qe
        if ((self._c >> 16) & 0xFFFF) < qe:
            # LPS exchange path
            if self._a < qe:
                d = self._mps[cx]
                self._index[cx] = _NMPS[idx]
            else:
                d = 1 - self._mps[cx]
                if _SWITCH[idx]:
                    self._mps[cx] = 1 - self._mps[cx]
                self._index[cx] = _NLPS[idx]
            self._a = qe
            self._renorm()
            return d
        self._c -= qe << 16
        if self._a & 0x8000:
            return self._mps[cx]
        if self._a < qe:
            d = 1 - self._mps[cx]
            if _SWITCH[idx]:
                self._mps[cx] = 1 - self._mps[cx]
            self._index[cx] = _NLPS[idx]
        else:
            d = self._mps[cx]
            self._index[cx] = _NMPS[idx]
        self._renorm()
        return d

    def _renorm(self) -> None:
        while True:
            if self._ct == 0:
                self._bytein()
            self._a = (self._a << 1) & 0xFFFF
            self._c = (self._c << 1) & 0xFFFFFFFF
            self._ct -= 1
            if self._a & 0x8000:
                break
