"""In-process workloads: ``photo`` (one large image) and ``thumbs``.

Both call the library directly, so the serving layers are bypassed.  Every
call is checked: codestreams must repeat byte for byte across rounds and
worker counts (and match ``pins.json`` at the default seed), lossless
decodes must be exact and lossy decodes must stay above a PSNR floor.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from measures import median, mpix_per_s, share
from tracing import DECODE_LAYERS, ENCODE_LAYERS, Tracer

from repro.image.synthetic import watch_face_image
from repro.jpeg2000.decoder import decode
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
DEFAULT_SEED = 2008
LOSSY_RATE = 0.1
#: Lossy decodes below this PSNR fail the run.  Rate 0.1 on these watch
#: faces measures 30.9 dB (gray classes) to 47 dB (the photo) over seeds
#: 1-15; a broken quantizer or truncation lands far lower.
PSNR_FLOOR_DB = 27.0
PHOTO_EDGE = 1024
#: Rounds per run are fixed by ``--seconds`` and these nominal round times
#: (two cores), never by how fast a run happens to go, so every run of a
#: workload makes the same calls.  Two rounds is the least a run may hold.
NOMINAL_ROUND_S = {"photo": 16.0, "thumbs": 6.0}
MIN_ROUNDS = 2


@dataclass(frozen=True)
class ImageClass:
    edge: int
    comps: int
    cb: int
    lossless: bool

    @property
    def key(self) -> str:
        mode = "ll" if self.lossless else "lossy"
        return f"{self.edge}x{self.edge}x{self.comps}-cb{self.cb}-{mode}"

    def params(self, workers: int) -> EncoderParams:
        return EncoderParams(
            lossless=self.lossless,
            rate=None if self.lossless else LOSSY_RATE,
            codeblock_size=self.cb, workers=workers,
        )


#: The fixed class mix of ``thumbs`` (and of the fresh encodes of ``serve``).
#: The seed changes pixels only, so runs with different seeds measure the
#: same mix of sizes, components and code-block sizes in the same order.  The two
#: 192x192 cb16 classes are the small-image gate for Tier-1 changes.
THUMB_CLASSES = (
    ImageClass(128, 1, 16, True),
    ImageClass(128, 3, 32, False),
    ImageClass(128, 3, 64, True),
    ImageClass(160, 3, 64, False),
    ImageClass(192, 3, 16, True),
    ImageClass(192, 3, 16, False),
    ImageClass(192, 1, 32, True),
    ImageClass(224, 1, 64, False),
    ImageClass(224, 3, 32, True),
    ImageClass(256, 3, 64, True),
    ImageClass(256, 3, 32, False),
    ImageClass(256, 1, 16, False),
)


def class_image(cls: ImageClass, seed: int) -> np.ndarray:
    return watch_face_image(cls.edge, cls.edge, channels=cls.comps, seed=seed)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    err = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    return float("inf") if err == 0 else float(10.0 * np.log10(255.0**2 / err))


class Checker:
    """Counts attempted and failed calls; remembers the first codestreams."""

    def __init__(self, pins: dict | None) -> None:
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict[str, str] = {}
        self.min_psnr = float("inf")

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)

    def codestream(self, key: str, cs: bytes) -> bool:
        digest = sha(cs)
        want = self.first.setdefault(key, digest)
        if digest != want:
            self.fail(f"{key}: codestream changed between calls")
            return False
        if self.pins is not None and self.pins.get(key) != digest:
            self.fail(f"{key}: codestream differs from pins.json")
            return False
        return True

    def decoded(self, key: str, lossless: bool, out: np.ndarray,
                ref: np.ndarray) -> bool:
        if out.shape != ref.shape:
            self.fail(f"{key}: decoded shape {out.shape} != {ref.shape}")
            return False
        if lossless:
            if not np.array_equal(out, ref):
                self.fail(f"{key}: lossless decode is not exact")
                return False
            return True
        value = psnr(out, ref)
        self.min_psnr = min(self.min_psnr, value)
        if value < PSNR_FLOOR_DB:
            self.fail(f"{key}: PSNR {value:.2f} dB below {PSNR_FLOOR_DB}")
            return False
        return True


class Ledger:
    """Wall seconds of every call, keyed by operation class and input."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.pixels: dict[tuple[str, str], int] = {}
        self.seconds: dict[tuple[str, str], list[float]] = {}
        self.coded_bytes = 0

    def run(self, cls: str, key: str, label: str, pixels: int, fn, *args):
        """Time ``fn`` (traced if this ledger traces); file it under
        ``(cls, key)``."""
        if self.tracer is not None:
            result, call = self.tracer.call(label, fn, *args)
            wall = call.wall
        else:
            t0 = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - t0
        self.pixels[cls, key] = pixels
        self.seconds.setdefault((cls, key), []).append(wall)
        return result

    def mpix(self, cls: str) -> float:
        """Total pixels over total time of class ``cls``, taking for each
        input the median of its calls across rounds, so one slow spell of
        the host moves a figure only if it hits most rounds."""
        keys = [k for k in self.seconds if k[0] == cls]
        return mpix_per_s([self.pixels[k] for k in keys],
                          [median(self.seconds[k]) for k in keys])

    def total_seconds(self) -> float:
        return sum(sum(v) for v in self.seconds.values())


def _encode_checked(ledger, check, cls, label, key, image, params):
    check.attempted += 1
    try:
        res = ledger.run(cls, key, label, image.shape[0] * image.shape[1],
                         encode, image, params)
    except Exception as exc:  # a crash is a failed call, not a dead run
        check.fail(f"{key}: encode raised {exc!r}")
        return None
    if not check.codestream(key, res.codestream):
        return None
    ledger.coded_bytes += sum(b.coded_bytes for b in res.stats.blocks)
    return res.codestream


def _decode_checked(ledger, check, key, lossless, cs, image):
    check.attempted += 1
    try:
        out = ledger.run("decode", key, "decode",
                         image.shape[0] * image.shape[1], decode, cs)
    except Exception as exc:
        check.fail(f"{key}: decode raised {exc!r}")
        return
    check.decoded(key, lossless, out, image)


def photo_round(ledger: Ledger, check: Checker, image: np.ndarray,
                cores: int) -> None:
    """The paper's experiment on one image: serial and parallel lossless,
    parallel lossy, then a decode of both codestreams."""
    ll = _encode_checked(ledger, check, "encode_serial", "encode_serial",
                         "photo-ll", image, EncoderParams(workers=1))
    ll_cores = _encode_checked(ledger, check, "encode_lossless",
                               "encode_lossless", "photo-ll", image,
                               EncoderParams(workers=cores))
    lossy = _encode_checked(ledger, check, "encode_lossy", "encode_lossy",
                            "photo-lossy", image,
                            EncoderParams(lossless=False, rate=LOSSY_RATE,
                                          workers=cores))
    for key, cs, lossless in (("photo-ll", ll or ll_cores, True),
                              ("photo-lossy", lossy, False)):
        if cs is not None:
            _decode_checked(ledger, check, key, lossless, cs, image)


def thumbs_pass(ledger: Ledger, check: Checker, images, cores: int) -> None:
    """Every class once: encode at workers=1 and decode; lossless classes are
    also encoded at usable cores, where the library decides per image
    whether its process pool pays."""
    for cls, image in images:
        if cls.lossless:
            cs = _encode_checked(ledger, check, "encode_serial",
                                 "encode_serial", cls.key, image, cls.params(1))
            _encode_checked(ledger, check, "encode_lossless",
                            "encode_lossless", cls.key, image,
                            cls.params(cores))
        else:
            cs = _encode_checked(ledger, check, "encode_lossy",
                                 "encode_lossy_serial", cls.key, image,
                                 cls.params(1))
        if cs is not None:
            _decode_checked(ledger, check, cls.key, cls.lossless, cs, image)


def thumbs_images(seed: int) -> list[tuple[ImageClass, np.ndarray]]:
    return [(c, class_image(c, seed * 131 + i))
            for i, c in enumerate(THUMB_CLASSES)]


def photo_image(seed: int) -> np.ndarray:
    return watch_face_image(PHOTO_EDGE, PHOTO_EDGE, channels=3, seed=seed)


def _warm_up(cores: int) -> None:
    """Load lazily imported modules (pool, rate control, decoder) untimed."""
    img = watch_face_image(96, 96, channels=3, seed=1)
    for params in (EncoderParams(workers=cores, codeblock_size=16),
                   EncoderParams(lossless=False, rate=LOSSY_RATE)):
        decode(encode(img, params).codestream)


def run_rounds(workload: str, seed: int, seconds: float, cores: int,
               traced: bool, pins: dict | None) -> dict:
    """Run the rounds ``seconds`` pays for at the nominal round time.

    Untraced runs time every call.  Traced runs alternate traced and
    untraced rounds: layer figures come from the traced ones and the ratio
    of the two kinds of round is the tracing overhead.
    """
    n_rounds = max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))
    if workload == "photo":
        inputs = photo_image(seed)

        def one(ledger, check):
            photo_round(ledger, check, inputs, cores)
    else:
        inputs = thumbs_images(seed)

        def one(ledger, check):
            thumbs_pass(ledger, check, inputs, cores)

    _warm_up(cores)
    check = Checker(pins)
    plain = Ledger(None)
    tracer = Tracer() if traced else None
    traced_ledger = Ledger(tracer) if traced else None
    rounds = {"plain": 0, "traced": 0}
    coded = []
    for i in range(n_rounds):
        use_trace = traced and i % 2 == 0
        ledger = traced_ledger if use_trace else plain
        before = ledger.coded_bytes
        if use_trace:
            with tracer:
                one(ledger, check)
        else:
            one(ledger, check)
        coded.append(ledger.coded_bytes - before)
        rounds["traced" if use_trace else "plain"] += 1
    if len(set(coded)) != 1:
        check.fail(f"coded bytes differ between rounds: {coded}")
    return {
        "check": check,
        "plain": plain,
        "traced": traced_ledger,
        "tracer": tracer,
        "rounds": rounds,
        "coded_bytes_per_round": coded[0],
    }


def call_seconds(out: dict) -> dict:
    """Untraced wall seconds of every call, by class and input (report)."""
    return {f"{cls}/{key}": [round(s, 4) for s in secs]
            for (cls, key), secs in out["plain"].seconds.items()}


def end_to_end(out: dict) -> dict:
    ledger = out["plain"]
    return {
        "encode_serial_mpix_s": ledger.mpix("encode_serial"),
        "encode_lossless_mpix_s": ledger.mpix("encode_lossless"),
        "encode_lossy_mpix_s": ledger.mpix("encode_lossy"),
        "decode_mpix_s": ledger.mpix("decode"),
    }


def per_layer(out: dict) -> dict:
    """Layer figures per traced round (photo) or pass (thumbs)."""
    tracer: Tracer = out["tracer"]
    n = out["rounds"]["traced"]
    totals = {layer: 0.0 for layer in ENCODE_LAYERS + DECODE_LAYERS}
    unattributed = {"encode": 0.0, "decode": 0.0}
    t1_serial = t1_cores = 0.0
    blocks = groups = 0
    for call in tracer.calls:
        for layer, secs in call.layers.items():
            totals[layer] += secs
        blocks += call.batch_blocks
        groups += call.batch_groups
        tier1 = call.layers["tier1_batch.encode"] + call.layers["workpool.encode"]
        if call.label == "encode_serial":
            t1_serial += tier1
        elif call.label == "encode_lossless":
            t1_cores += tier1
        # Residuals are taken over calls that run in this process only: at
        # workers=1 every layer of the call is on the traced path.
        if call.label in ("encode_serial", "encode_lossy_serial"):
            unattributed["encode"] += call.wall - call.attributed()
        elif call.label == "decode":
            unattributed["decode"] += call.wall - call.attributed()
    plain_s = out["plain"].total_seconds() / max(1, out["rounds"]["plain"])
    traced_s = out["traced"].total_seconds() / max(1, n)
    return {
        "dwt_fast.frontend_s": totals["dwt_fast.frontend"] / n,
        "tier1_batch.encode_s": totals["tier1_batch.encode"] / n,
        "tier1_batch.blocks_per_group": share(blocks, groups),
        "tier1.coded_bytes": out["coded_bytes_per_round"],
        "workpool.encode_s": totals["workpool.encode"] / n,
        "workpool.speedup": t1_serial / t1_cores if t1_cores else 0.0,
        "rate.choose_s": totals["rate.choose"] / n,
        "tier2.packets_s": totals["tier2.packets"] / n,
        "codestream.parse_s": totals["codestream.parse"] / n,
        "tier1_dec_vec.decode_s": totals["tier1_dec_vec.decode"] / n,
        "dwt_fast.inverse_s": totals["dwt_fast.inverse"] / n,
        "unattributed_s.encode": unattributed["encode"] / n,
        "unattributed_s.decode": unattributed["decode"] / n,
        "trace.overhead_share": traced_s / plain_s - 1.0,
    }


def pins_for_default_seed(cores: int) -> dict:
    """Codestream SHA-256s at :data:`DEFAULT_SEED` (for ``pins.json``)."""
    out = {}
    image = photo_image(DEFAULT_SEED)
    out["photo-ll"] = sha(encode(image, EncoderParams(workers=cores)).codestream)
    out["photo-lossy"] = sha(encode(image, EncoderParams(
        lossless=False, rate=LOSSY_RATE, workers=cores)).codestream)
    for cls, img in thumbs_images(DEFAULT_SEED):
        out[cls.key] = sha(encode(img, cls.params(1)).codestream)
    return out
