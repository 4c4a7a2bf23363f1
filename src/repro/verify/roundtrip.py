"""Decode-every-encode round-trip verification.

The optimization PRs (native Tier-1, native DWT, pooled block
dispatch, incremental Tier-2) all claim byte-identical codestreams — but
byte identity among encoder variants says nothing unless the bytes also
*decode* back to the image.  This module closes that loop:

* lossless encodes must reconstruct **bit exactly**;
* lossy encodes must reconstruct above a **per-rate PSNR floor** and the
  floors must be **monotone**: spending more bytes may never decode worse.

Three entry points, one check:

* ``EncoderParams(self_check=True)`` — :func:`repro.jpeg2000.encoder.encode`
  calls :func:`verify_encode` on its own output before returning;
* ``python -m repro verify`` — :func:`run_corpus` sweeps the synthetic
  corpus across rates, Tier-1 backends, and worker counts (the CI gate);
* ``POST /encode?verify=1`` — the service verifies the served bytes and
  returns 422 with a structured body on failure.

Failures raise :class:`VerificationError`, which carries a ``details``
dict (kind, measured PSNR, floor, rate, shape) for structured reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.jpeg2000.errors import CodestreamError
from repro.jpeg2000.params import EncoderParams
from repro.verify.corpus import CorpusEntry, base_corpus

#: Minimum acceptable PSNR (dB) per rate for photographic content (the
#: synthetic watch face / gradient corpus).  Values are calibrated ~6 dB
#: under what the current encoder achieves, so they catch real regressions
#: (a broken pass, a mis-signalled step size) without flaking on platform
#: float noise.  Keys must be ascending; lookups take the floor of the
#: largest key <= the requested rate.
PSNR_RATE_FLOORS: tuple[tuple[float, float], ...] = (
    (0.05, 20.0),
    (0.1, 28.0),
    (0.25, 38.0),
    (0.5, 38.0),
    (1.0, 38.0),
)

#: Floor for lossy encodes without rate control (quantization only, at the
#: default ``base_quant_step``).
LOSSY_DEFAULT_FLOOR = 34.0


class VerificationError(Exception):
    """A round-trip check failed; ``details`` is JSON-ready context."""

    def __init__(self, message: str, details: dict | None = None) -> None:
        self.details = dict(details or {})
        super().__init__(message)


@dataclass
class RoundTripReport:
    """Outcome of one verified encode."""

    kind: str                # "lossless" or "lossy"
    exact: bool              # bit-exact reconstruction
    psnr: float              # dB; inf when exact
    floor: float | None      # applied floor (None for lossless)
    rate: float | None
    shape: tuple[int, ...]
    codestream_bytes: int


@dataclass
class CorpusCheck:
    """One named check inside a :class:`CorpusReport`."""

    name: str
    ok: bool
    detail: str


@dataclass
class CorpusReport:
    """Everything ``python -m repro verify`` ran, with per-check outcomes."""

    checks: list[CorpusCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[CorpusCheck]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        n_fail = len(self.failures)
        status = "OK" if n_fail == 0 else f"{n_fail} FAILED"
        return f"{len(self.checks)} round-trip checks: {status}"


def psnr(reference: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; ``inf`` for identical arrays."""
    ref = np.asarray(reference)
    rec = np.asarray(reconstructed)
    if ref.shape != rec.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {rec.shape}")
    peak = 65535.0 if ref.dtype.itemsize > 1 else 255.0
    mse = float(np.mean((ref.astype(np.float64) - rec.astype(np.float64)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def psnr_floor(rate: float | None) -> float:
    """The PSNR floor applied at ``rate`` (None = lossy without rate)."""
    if rate is None:
        return LOSSY_DEFAULT_FLOOR
    floor = PSNR_RATE_FLOORS[0][1]
    for r, f in PSNR_RATE_FLOORS:
        if rate >= r:
            floor = f
    return floor


def _reconcile_shapes(image: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fold a trailing singleton channel so (h, w, 1) compares to (h, w)."""
    if image.ndim == 3 and image.shape[2] == 1 and out.ndim == 2:
        return out[:, :, None]
    return out


def verify_roundtrip(
    image: np.ndarray,
    codestream: bytes,
    params: EncoderParams | None = None,
    floor: float | None = None,
) -> RoundTripReport:
    """Decode ``codestream`` and verify it reconstructs ``image``.

    Lossless parameters demand bit-exact reconstruction; lossy parameters
    demand PSNR at or above ``floor`` (default: :func:`psnr_floor` of the
    rate).  Raises :class:`VerificationError` on any failure, including a
    codestream that does not decode at all.

    Decoding goes through :func:`repro.jpeg2000.decoder.decode` with the
    default ``auto`` backend, so verification rides the block decoder —
    the check costs a fraction of the encode it guards instead of
    dominating it; the block decoder is itself differentially pinned to
    the scalar reference, so this loses no rigor.
    """
    if params is None:
        params = EncoderParams.lossless_default()
    from repro.jpeg2000.decoder import decode

    image = np.asarray(image)
    try:
        out = decode(codestream)
    except CodestreamError as exc:
        raise VerificationError(
            f"encode produced an undecodable codestream: {exc}",
            details={"kind": "undecodable", "error": str(exc)},
        ) from exc
    out = _reconcile_shapes(image, out)
    if out.shape != image.shape:
        raise VerificationError(
            f"decoded shape {out.shape} does not match input {image.shape}",
            details={
                "kind": "shape", "decoded": list(out.shape),
                "expected": list(image.shape),
            },
        )

    if params.lossless:
        exact = bool(np.array_equal(out, image))
        if not exact:
            ndiff = int(np.count_nonzero(out != image))
            raise VerificationError(
                f"lossless round trip is not bit-exact: {ndiff} of "
                f"{image.size} samples differ (PSNR {psnr(image, out):.2f} dB)",
                details={
                    "kind": "lossless", "differing_samples": ndiff,
                    "psnr_db": psnr(image, out),
                },
            )
        return RoundTripReport(
            kind="lossless", exact=True, psnr=math.inf, floor=None,
            rate=None, shape=tuple(image.shape),
            codestream_bytes=len(codestream),
        )

    applied_floor = psnr_floor(params.rate) if floor is None else floor
    measured = psnr(image, out)
    if measured < applied_floor:
        raise VerificationError(
            f"lossy round trip at rate {params.rate} reached only "
            f"{measured:.2f} dB, below the {applied_floor:.2f} dB floor",
            details={
                "kind": "lossy", "psnr_db": measured,
                "floor_db": applied_floor, "rate": params.rate,
            },
        )
    return RoundTripReport(
        kind="lossy", exact=bool(math.isinf(measured)), psnr=measured,
        floor=applied_floor, rate=params.rate, shape=tuple(image.shape),
        codestream_bytes=len(codestream),
    )


def verify_encode(image: np.ndarray, result) -> RoundTripReport:
    """Self-check hook for ``EncoderParams(self_check=True)``.

    ``result`` is the :class:`repro.jpeg2000.encoder.EncodeResult` about to
    be returned; raises :class:`VerificationError` if its codestream does
    not round-trip.
    """
    return verify_roundtrip(image, result.codestream, result.params)


def run_corpus(
    rates: tuple[float, ...] = (0.1, 0.25, 1.0),
    backends: tuple[str, ...] = ("auto", "reference"),
    workers: tuple[int, ...] = (1, 2),
    quick: bool = False,
    progress=None,
) -> CorpusReport:
    """The full round-trip gate ``python -m repro verify`` runs.

    Three sweeps:

    1. every corpus entry encodes and round-trips (bit-exact or floored);
    2. the lossy reference image encodes at each of ``rates``; PSNR must
       clear the per-rate floor and be monotone in rate;
    3. every (backend, workers) combination re-encodes byte-identically,
       which transfers sweep 2's decode verdicts to all of them.

    ``quick`` trims sweep 3 to one non-default combination.  ``progress``
    (when given) is called with one line per finished check.
    """
    from repro.jpeg2000.encoder import encode
    from repro.image.synthetic import watch_face_image

    report = CorpusReport()

    def record(name: str, ok: bool, detail: str) -> None:
        report.checks.append(CorpusCheck(name=name, ok=ok, detail=detail))
        if progress is not None:
            progress(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")

    def run_entry(entry: CorpusEntry) -> None:
        try:
            result = encode(entry.image, entry.params)
            rt = verify_roundtrip(
                entry.image, result.codestream, entry.params,
                floor=entry.psnr_floor,
            )
        except VerificationError as exc:
            record(entry.name, False, str(exc))
            return
        detail = (
            "bit-exact" if rt.exact
            else f"{rt.psnr:.2f} dB (floor {rt.floor:.2f})"
        )
        record(entry.name, True, f"{rt.codestream_bytes} bytes, {detail}")

    for entry in base_corpus():
        run_entry(entry)

    # Sweep 2: per-rate PSNR floors + monotonicity on the reference image.
    ref_image = watch_face_image(96, 96, channels=3)
    base_streams: dict[float, bytes] = {}
    measured: list[tuple[float, float]] = []
    for rate in sorted(rates):
        params = EncoderParams(lossless=False, rate=rate, levels=5)
        name = f"lossy-psnr-floor@rate={rate}"
        try:
            result = encode(ref_image, params)
            rt = verify_roundtrip(ref_image, result.codestream, params)
        except VerificationError as exc:
            record(name, False, str(exc))
            continue
        base_streams[rate] = result.codestream
        measured.append((rate, rt.psnr))
        record(name, True,
               f"{rt.psnr:.2f} dB >= {rt.floor:.2f} dB, "
               f"{rt.codestream_bytes} bytes")
    for (r_lo, p_lo), (r_hi, p_hi) in zip(measured, measured[1:]):
        ok = p_hi >= p_lo - 0.01  # equality allowed: rate cap may not bind
        record(
            f"psnr-monotone@{r_lo}->{r_hi}", ok,
            f"{p_lo:.2f} dB -> {p_hi:.2f} dB",
        )

    # Sweep 3: backend x workers byte-identity (decode verdicts transfer).
    combos = [
        (backend, nworkers)
        for backend in backends for nworkers in workers
        if not (backend == backends[0] and nworkers == workers[0])
    ]
    if quick and combos:
        combos = combos[-1:]
    for backend, nworkers in combos:
        for rate, reference_cs in sorted(base_streams.items()):
            params = EncoderParams(
                lossless=False, rate=rate, levels=5,
                tier1_backend=backend, workers=nworkers,
            )
            name = f"byte-identity@{backend}/workers={nworkers}/rate={rate}"
            cs = encode(ref_image, params).codestream
            if cs == reference_cs:
                record(name, True, f"{len(cs)} bytes identical")
            else:
                record(name, False,
                       f"codestream differs ({len(cs)} vs "
                       f"{len(reference_cs)} bytes)")
    return report
