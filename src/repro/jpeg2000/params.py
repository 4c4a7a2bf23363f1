"""Encoder parameter objects (the analogue of Jasper's ``-O`` options)."""

from __future__ import annotations

from dataclasses import dataclass, field

#: Measured peak encoder working set per tile sample, in bytes.  The
#: front end's int32/float planes account for ~8, but the batched Tier-1
#: coder's stacked per-block state (sign/significance/context planes and
#: MQ output buffers) dominates at roughly 16x that.  ``mem_budget``
#: batch sizing and :func:`choose_tile_size` both divide by this
#: constant, so they share one definition.
TILE_WORKSET_BYTES = 128


def choose_tile_size(
    height: int, width: int, components: int, mem_budget: int
) -> int | None:
    """Pick a tile size so one streaming tile row fits ``mem_budget`` bytes.

    A row of ``ceil(w/ts)`` tiles costs about ``w * ts * components *
    TILE_WORKSET_BYTES`` bytes.  Returns ``None`` when the whole image
    already fits — tiling then only adds header overhead — otherwise the
    largest power-of-two tile size (>= 64) whose row fits.
    """
    if mem_budget <= 0:
        raise ValueError(f"mem_budget must be > 0, got {mem_budget}")
    per_sample = components * TILE_WORKSET_BYTES
    if height * width * per_sample <= mem_budget:
        return None
    ts = 64
    while ts * 2 <= min(height, width) and \
            width * (ts * 2) * per_sample <= mem_budget:
        ts *= 2
    return ts


@dataclass(frozen=True)
class EncoderParams:
    """Options controlling a JPEG2000 encode.

    Attributes
    ----------
    lossless:
        True selects reversible coding (5/3 DWT + RCT), the paper's
        "default option".  False selects irreversible coding (9/7 DWT + ICT
        + deadzone quantization), the paper's ``-O mode=real``.
    rate:
        Target compressed size as a fraction of the raw image size
        (``-O rate=0.1`` in the paper).  ``None`` disables rate control;
        it must be ``None`` for lossless encoding.
    levels:
        Number of DWT decomposition levels (Jasper default: 5).
    codeblock_size:
        Code block height/width.  The paper uses the standard maximum of
        64x64; Muta et al. use 32x32 (Section 3.2 discussion).
    guard_bits:
        Number of guard bits signalled in the QCD marker.
    base_quant_step:
        Base quantization step for the irreversible path, before per-subband
        scaling by synthesis gain.
    tier1_backend:
        Tier-1 coder implementation: ``"reference"`` (scalar, the
        differential-testing oracle), ``"vectorized"`` (NumPy-batched hot
        path, one block at a time), ``"batched"`` (whole-image stacks of
        same-geometry blocks, :mod:`repro.jpeg2000.tier1_batch`), or
        ``"auto"`` (default; also honours the ``REPRO_TIER1_BACKEND``
        environment variable — picks the batched coder for whole-image
        encodes and the vectorized coder per block).  All backends produce
        byte-identical codestreams.
    workers:
        Worker parallelism — the executable analogue of the paper's SPE
        count.  Controls both the Tier-1 code-block process pool and the
        fused front end's chunk threads.  ``1`` (default) encodes
        in-process; ``None`` uses one worker per CPU core.  The codestream
        is byte-identical for any value.
    dwt_backend:
        Front-end (level shift + MCT + DWT + quantize) implementation:
        ``"reference"`` (the naive per-stage oracle in
        :mod:`repro.jpeg2000.dwt`), ``"fused"`` (interleaved lifting over
        column chunks, :mod:`repro.jpeg2000.dwt_fast`), or ``"auto"``
        (default; honours the ``REPRO_DWT_BACKEND`` environment variable,
        otherwise fused).  Both backends produce byte-identical
        codestreams.
    dwt_chunk_cols:
        Column-chunk width for the fused front end, rounded up to a
        multiple of the 32-sample cache line.  ``None`` (default) picks
        automatically: whole-plane when serial, about two chunks per
        worker otherwise.
    self_check:
        When True, :func:`repro.jpeg2000.encoder.encode` decodes its own
        output before returning and verifies the round trip — bit-exact
        reconstruction for lossless, a per-rate PSNR floor for lossy (see
        :mod:`repro.verify.roundtrip`).  A failed check raises
        :class:`repro.verify.VerificationError` instead of returning a
        bad codestream.  Off by default: it roughly doubles encode cost.
    tile_size:
        Edge length of the square tile grid (SIZ ``XTsiz``/``YTsiz``).
        ``None`` (default) encodes the whole image as a single tile and
        emits exactly the legacy codestream bytes.  When set, the image is
        partitioned into ``tile_size x tile_size`` tiles (edge tiles may be
        smaller), each coded independently and emitted as its own
        SOT..SOD tile-part, with a TLM marker in the main header for
        random spatial access.  Tiles shard across the Tier-1 work queue,
        so a tiled encode parallelizes over spatial regions as well as
        code blocks, and the streaming path bounds peak memory to a few
        tile rows.
    progression:
        Tier-2 packet progression order written into COD and used when
        sequencing packets: ``"LRCP"`` (default, layer-resolution-
        component-position — the legacy order), ``"RPCL"``
        (resolution-position-component-layer, the streaming-friendly
        order), or ``"PCRL"`` (position-major, for spatial random access).
        With one layer and one precinct all orders coincide, so the
        default remains byte-identical.
    precinct_size:
        Precinct edge length at the highest resolution (halved once for
        every lower resolution, floored at one code block).  ``None``
        (default) uses maximal precincts (the whole subband — the legacy
        layout, COD ``Scod`` bit 0 clear).  Must be a power of two and at
        least ``codeblock_size``.
    mem_budget:
        Soft cap, in bytes, on the working set held in planes/coefficients
        during a tiled encode.  Execution-only: it changes batching, never
        bytes.  ``None`` (default) batches one tile row at a time when
        tiled.  Requires ``tile_size`` to have an effect.
    """

    lossless: bool = True
    rate: float | None = None
    levels: int = 5
    codeblock_size: int = 64
    guard_bits: int = 2
    base_quant_step: float = 1.0 / 128.0
    tier1_backend: str = "auto"
    workers: int | None = 1
    dwt_backend: str = "auto"
    dwt_chunk_cols: int | None = None
    tile_size: int | None = None
    progression: str = "LRCP"
    precinct_size: int | None = None
    mem_budget: int | None = None
    self_check: bool = False

    def __post_init__(self) -> None:
        if self.levels < 0 or self.levels > 32:
            raise ValueError(f"levels must be in [0, 32], got {self.levels}")
        cb = self.codeblock_size
        if cb < 4 or cb > 64 or (cb & (cb - 1)) != 0:
            raise ValueError(
                f"codeblock_size must be a power of two in [4, 64], got {cb}"
            )
        if self.rate is not None:
            if self.lossless:
                raise ValueError(
                    "lossless=True cannot be combined with rate control "
                    f"(rate={self.rate}); use lossless=False or rate=None"
                )
            if not (0.0 < self.rate <= 1.0):
                raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if not (0 <= self.guard_bits <= 7):
            raise ValueError(f"guard_bits must be in [0, 7], got {self.guard_bits}")
        if self.base_quant_step <= 0 or self.base_quant_step >= 2.0:
            raise ValueError(
                f"base_quant_step must be in (0, 2), got {self.base_quant_step}"
            )
        from repro.jpeg2000.tier1 import BACKENDS  # lazy: avoids heavy import

        if self.tier1_backend not in BACKENDS:
            raise ValueError(
                f"tier1_backend must be one of {BACKENDS}, "
                f"got {self.tier1_backend!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1 or None, got {self.workers}")
        from repro.jpeg2000.dwt_fast import DWT_BACKENDS  # lazy: avoids cycle

        if self.dwt_backend not in DWT_BACKENDS:
            raise ValueError(
                f"dwt_backend must be one of {DWT_BACKENDS}, "
                f"got {self.dwt_backend!r}"
            )
        if self.dwt_chunk_cols is not None and self.dwt_chunk_cols < 1:
            raise ValueError(
                f"dwt_chunk_cols must be >= 1 or None, got {self.dwt_chunk_cols}"
            )
        if self.tile_size is not None and self.tile_size < 16:
            raise ValueError(
                f"tile_size must be >= 16 or None, got {self.tile_size}"
            )
        from repro.jpeg2000.codestream import PROGRESSIONS  # lazy: avoids cycle

        if self.progression not in PROGRESSIONS:
            raise ValueError(
                f"progression must be one of {sorted(PROGRESSIONS)}, "
                f"got {self.progression!r}"
            )
        ps = self.precinct_size
        if ps is not None:
            if ps < self.codeblock_size or ps > 32768 or (ps & (ps - 1)) != 0:
                raise ValueError(
                    "precinct_size must be a power of two in "
                    f"[codeblock_size, 32768] or None, got {ps}"
                )
        if self.mem_budget is not None and self.mem_budget < (1 << 20):
            raise ValueError(
                f"mem_budget must be >= 1 MiB or None, got {self.mem_budget}"
            )

    @staticmethod
    def lossless_default() -> "EncoderParams":
        """The paper's lossless configuration (Jasper defaults)."""
        return EncoderParams(lossless=True)

    @staticmethod
    def lossy_rate(rate: float = 0.1) -> "EncoderParams":
        """The paper's lossy configuration: ``-O mode=real -O rate=0.1``."""
        return EncoderParams(lossless=False, rate=rate)
