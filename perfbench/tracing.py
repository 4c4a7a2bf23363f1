"""Spans recorded from the benchmark's side of each module boundary.

Nothing under ``src/`` is instrumented.  For the traced pass the benchmark
swaps the public functions a codec call goes through for timing wrappers,
recording one span per call, and restores them afterwards.  Each patched
name is the one the caller looks up at call time, so spans never nest:
their durations add up to at most the wall time of the enclosing call.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: (module, attribute or "Class.method", layer) for every traced boundary.
#: Encoder-side names are patched in ``repro.jpeg2000.encoder``'s namespace
#: (where ``encode`` looks them up), so tier2's own internal calls between
#: these functions are not counted twice.
BOUNDARIES = (
    ("repro.jpeg2000.encoder", "run_frontend", "dwt_fast.frontend"),
    ("repro.jpeg2000.tier1_batch", "encode_codeblocks_batched", "tier1_batch.encode"),
    ("repro.core.workpool", "CodeBlockWorkQueue.encode_plane_groups", "workpool.encode"),
    ("repro.core.workpool", "CodeBlockWorkQueue.encode_plane_blocks", "workpool.encode"),
    ("repro.jpeg2000.rate", "RateModel.__init__", "rate.choose"),
    ("repro.jpeg2000.rate", "RateModel.choose", "rate.choose"),
    ("repro.jpeg2000.encoder", "encode_packet", "tier2.packets"),
    ("repro.jpeg2000.encoder", "packet_length", "tier2.packets"),
    ("repro.jpeg2000.decoder", "parse_codestream", "codestream.parse"),
    ("repro.jpeg2000.tier1_dec_vec", "decode_codeblocks_batched", "tier1_dec_vec.decode"),
    ("repro.jpeg2000.decoder", "run_inverse_frontend", "dwt_fast.inverse"),
)

ENCODE_LAYERS = ("dwt_fast.frontend", "tier1_batch.encode", "workpool.encode",
                 "rate.choose", "tier2.packets")
DECODE_LAYERS = ("codestream.parse", "tier1_dec_vec.decode", "dwt_fast.inverse")


@dataclass
class Call:
    """One benchmark-level call and the spans recorded inside it."""

    label: str
    layers: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    wall: float = 0.0
    batch_blocks: int = 0
    batch_groups: int = 0

    def attributed(self) -> float:
        return sum(self.layers.values())


class Tracer:
    """Install timing wrappers; attribute spans to the current :class:`Call`."""

    def __init__(self) -> None:
        self.calls: list[Call] = []
        self._current: Call | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                call = tracer._current
                if call is not None:
                    call.layers[layer] += time.perf_counter() - t0
                    if layer == "tier1_batch.encode":
                        occ = args[1] if len(args) > 1 else kwargs.get("occupancy")
                        if occ is not None:
                            call.batch_blocks += occ.blocks
                            call.batch_groups += occ.groups

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for modname, attr, layer in BOUNDARIES:
            owner = importlib.import_module(modname)
            name = attr
            if "." in attr:
                cls, name = attr.split(".")
                owner = getattr(owner, cls)
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def call(self, label: str, fn, *args, **kwargs):
        """Run ``fn`` as one traced call; returns ``(result, Call)``."""
        rec = Call(label)
        self._current = rec
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.wall = time.perf_counter() - t0
            self._current = None
        self.calls.append(rec)
        return result, rec
