"""Encoder parameters (the analogue of Jasper's ``-O`` options).

:data:`CODING_FIELDS` declares every :class:`EncoderParams` field once:
its wire spelling, parser, default, domain, whether it changes the
codestream, and its help text.  The CLI's coding flags, the ``/encode``
query keys, the range checks of :class:`EncoderParams` and the service's
cache key all derive from it.  Only fields that change the codestream
have a query key: how an encode executes (workers, backends,
self-check) is the library's and the CLI's choice, never an HTTP
client's.
"""

from __future__ import annotations

from dataclasses import field, make_dataclass
from typing import Callable, NamedTuple


def parse_bool(text: str) -> bool:
    """Strict wire boolean: ``1/0``, ``true/false`` or ``yes/no``, any case."""
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/0/true/false/yes/no, got {text!r}")


def parse_lossy(text: str) -> bool:
    """The ``lossy`` wire flag, stored inverted as ``lossless``."""
    return not parse_bool(text)


def parse_workers(text: str) -> int | None:
    """A worker count; ``auto``, ``all`` and ``0`` mean one per core (None)."""
    if text.lower() in ("auto", "all"):
        return None
    n = int(text)
    if n < 0:
        raise ValueError(f"expected a count >= 0 or auto, got {text!r}")
    return n or None


# Choice sets that live beside their implementations, imported lazily.
def _tier1_backends() -> tuple[str, ...]:
    from repro.jpeg2000.tier1 import BACKENDS  # lazy: avoids heavy import

    return BACKENDS


def _dwt_backends() -> tuple[str, ...]:
    from repro.jpeg2000.dwt_fast import DWT_BACKENDS  # lazy: avoids cycle

    return DWT_BACKENDS


def _progressions() -> tuple[str, ...]:
    from repro.jpeg2000.codestream import PROGRESSIONS  # lazy: avoids cycle

    return tuple(PROGRESSIONS)


class CodingField(NamedTuple):
    """One :class:`EncoderParams` field, as every front end sees it."""

    name: str
    #: Query key; the CLI flag is ``--`` plus the key with ``_`` -> ``-``.
    #: None: the library's only.
    wire: str | None
    #: Wire text -> value (also argparse's ``type``).
    parse: Callable[[str], object]
    default: object
    #: An interval in math notation (``"(0, 1]"``, ``"[16, inf) or None"``),
    #: a tuple of choices, a function returning that tuple, or None
    #: (unchecked).
    domain: object
    #: True when the value changes the emitted codestream.
    affects_bytes: bool
    help: str


#: Every EncoderParams field, in declaration order.
CODING_FIELDS = (
    CodingField(
        "lossless", "lossy", parse_lossy, True, None, True,
        "irreversible 9/7 DWT + ICT + deadzone quantization (-O mode=real) "
        "instead of the paper's default reversible 5/3 DWT + RCT"),
    CodingField(
        "rate", "rate", float, None, "(0, 1] or None", True,
        "target compressed size as a fraction of the raw image size "
        "(-O rate=0.1); implies lossy coding; default: no rate control"),
    CodingField(
        "levels", "levels", int, 5, "[0, 32]", True,
        "DWT decomposition levels (Jasper default: 5)"),
    CodingField(
        "codeblock_size", "codeblock", int, 64, (4, 8, 16, 32, 64), True,
        "code block edge (64 = the paper, 32 = Muta et al.)"),
    CodingField(
        "guard_bits", None, int, 2, "[0, 7]", True,
        "guard bits signalled in the QCD marker"),
    CodingField(
        "base_quant_step", None, float, 1.0 / 128.0, "(0, 2)", True,
        "base quantization step of the irreversible path, before "
        "per-subband scaling by synthesis gain"),
    CodingField(
        "tier1_backend", "tier1_backend", str, "auto", _tier1_backends, False,
        "Tier-1 coder: auto (the block encoder, native where a C compiler "
        "is present) or reference (the scalar oracle, in process); "
        "byte-identical"),
    CodingField(
        "workers", "workers", parse_workers, 1, "[1, inf) or None", False,
        "worker threads for Tier-1 code blocks, the paper's SPE count "
        "(the front end is one native call per tile); auto = one per "
        "core; the codestream is identical for any value"),
    CodingField(
        "dwt_backend", "dwt_backend", str, "auto", _dwt_backends, False,
        "front end (level shift + MCT + DWT + quantize): auto (the native "
        "lifting kernel over column chunks where a C compiler is present) "
        "or reference (the per-stage oracle); byte-identical"),
    CodingField(
        "tile_size", "tile", int, None, "[16, inf) or None", True,
        "edge of the square tile grid: each tile is its own SOT..SOD "
        "tile-part indexed by a TLM marker, tiles code in parallel and "
        "stream in rows; default: one tile (the legacy bytes)"),
    CodingField(
        "progression", "progression", str.upper, "LRCP", _progressions, True,
        "Tier-2 packet progression order: LRCP (legacy), RPCL "
        "(streaming) or PCRL (position-major)"),
    CodingField(
        "precinct_size", "precinct", int, None,
        (None, *(1 << k for k in range(2, 16))), True,
        "precinct edge at the highest resolution, halved per lower "
        "resolution; a power of two >= the code block size; default: "
        "maximal precincts (the legacy layout)"),
    CodingField(
        "self_check", "self_check", parse_bool, False, None, False,
        "decode the output before returning it and verify the round trip "
        "(bit-exact lossless, PSNR-floored lossy); roughly doubles encode "
        "time"),
)


def _admits(domain: str | tuple, value) -> bool:
    """True when ``value`` lies in a choice tuple or an interval string."""
    if isinstance(domain, tuple):
        return value in domain
    interval, _, none = domain.partition(" or ")
    if value is None:
        return none == "None"
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo < value if interval[0] == "(" else lo <= value
    below = value < hi if interval[-1] == ")" else value <= hi
    return above and below


def _check_value(f: CodingField, value) -> None:
    if f.domain is None:
        return
    domain = f.domain() if callable(f.domain) else f.domain
    if not _admits(domain, value):
        expected = "in" if isinstance(domain, str) else "one of"
        raise ValueError(
            f"{f.name} must be {expected} {domain}, got {value!r}"
        )


def check_field(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` lies in field ``name``'s domain."""
    _check_value(next(f for f in CODING_FIELDS if f.name == name), value)


def _check(params) -> None:
    """Check every field against its domain, then the cross-field rules."""
    for f in CODING_FIELDS:
        _check_value(f, getattr(params, f.name))
    if params.rate is not None and params.lossless:
        raise ValueError(
            "lossless=True cannot be combined with rate control "
            f"(rate={params.rate}); use lossless=False or rate=None"
        )
    if params.precinct_size is not None and \
            params.precinct_size < params.codeblock_size:
        raise ValueError(
            f"precinct_size must be >= codeblock_size "
            f"({params.codeblock_size}), got {params.precinct_size}"
        )


EncoderParams = make_dataclass(
    "EncoderParams",
    [(f.name, object, field(default=f.default)) for f in CODING_FIELDS],
    namespace={
        "__doc__": "Options controlling a JPEG2000 encode: one frozen field "
                   "per CODING_FIELDS record, range-checked on construction.",
        "__module__": __name__,  # where pickle finds the class
        "__post_init__": _check,
        # The paper's lossless configuration (Jasper defaults).
        "lossless_default": staticmethod(lambda: EncoderParams(lossless=True)),
        # The paper's lossy configuration: -O mode=real -O rate=0.1.
        "lossy_rate": staticmethod(
            lambda rate=0.1: EncoderParams(lossless=False, rate=rate)
        ),
    },
    frozen=True,
)
