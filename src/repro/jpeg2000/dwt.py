"""Lifting-based discrete wavelet transform (5/3 reversible, 9/7 irreversible).

Implements the two Part-1 filter banks with whole-sample symmetric extension
exactly as T.800 Annex F specifies, using the *lifting scheme* (Sweldens)
that the paper adopts over convolution (Section 3.2).  The 1-D transforms
work on an extended copy of the signal and perform each lifting step as one
vectorized slice update — the NumPy analogue of the SPE SIMD kernels.

Conventions
-----------
* Signal origin is even, so the low band holds ``ceil(n/2)`` samples.
* 5/3 operates on integers and is exactly invertible.
* 9/7 operates on floats; the final scaling is ``high *= K``,
  ``low *= 1/K`` (unit DC gain on the low band).
* Vertical filtering (axis 0) runs before horizontal (axis 1), matching the
  paper's stage order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# T.800 Table F.4 lifting constants for the 9/7 filter bank.
LIFT_ALPHA = -1.586134342059924
LIFT_BETA = -0.052980118572961
LIFT_GAMMA = 0.882911075530934
LIFT_DELTA = 0.443506852043971
LIFT_K = 1.230174104914001

#: Number of guard samples added on each side before lifting.  Four covers
#: the four 9/7 lifting steps (each step invalidates one half-sample of
#: margin at each end); 5/3 needs only two but shares the same padding.
_PAD = 4


def sym_indices(n: int, pad_left: int, pad_right: int) -> np.ndarray:
    """Whole-sample symmetric (period ``2n-2``) source indices.

    Maps extended positions ``-pad_left .. n-1+pad_right`` onto ``0..n-1``.
    The returned array is cached and read-only — the same ``(n, pad_left,
    pad_right)`` triple recurs twice per level per component, so rebuilding
    it on every 1-D call was pure waste.

    >>> sym_indices(4, 2, 2).tolist()
    [2, 1, 0, 1, 2, 3, 2, 1]
    """
    if n <= 0:
        raise ValueError(f"signal length must be positive, got {n}")
    return _sym_indices_cached(n, pad_left, pad_right)


@lru_cache(maxsize=1024)
def _sym_indices_cached(n: int, pad_left: int, pad_right: int) -> np.ndarray:
    pos = np.arange(-pad_left, n + pad_right)
    if n == 1:
        idx = np.zeros_like(pos)
    else:
        period = 2 * (n - 1)
        pos = np.abs(pos) % period
        idx = np.where(pos < n, pos, period - pos)
    idx.setflags(write=False)
    return idx


def _extended(x: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Symmetric-extended copy along axis 0 with odd extended length.

    Returns ``(E, pad_left)`` where ``E[pad_left + j] == x[j]``.  The extended
    length is forced odd so every odd position has two even neighbours and
    all lifting steps become full-length slice expressions.
    """
    pad_right = _PAD + (1 - (n + 2 * _PAD) % 2)
    idx = sym_indices(n, _PAD, pad_right)
    return x[idx], _PAD


def _split(E: np.ndarray, pad: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Extract the low (even positions) and high (odd) interior coefficients."""
    low = E[pad : pad + n : 2]
    high = E[pad + 1 : pad + n : 2]
    return low.copy(), high.copy()


#: Magnitude below which one 5/3 lifting level is overflow-safe in int32:
#: intermediate sums are bounded by ``4*M + 6``, so ``M < 2**27`` keeps them
#: under ``2**29``.  Samples up to 16 bits through 5 decomposition levels
#: (every paper workload) stay far below this; larger magnitudes fall back
#: to the historical int64 path automatically.
I32_SAFE_MAX = 1 << 27


def _lift_dtype(*arrays: np.ndarray) -> type:
    """int32 when every input provably fits the 5/3 headroom, else int64.

    Dropping the int64 upcast halves the memory traffic of the reversible
    path; the min/max scan that guards it is a single cheap pass.
    """
    for a in arrays:
        if a.size == 0:
            continue
        if a.dtype.kind not in "iu" or a.dtype.itemsize > 4:
            return np.int64
        if max(int(a.max()), -int(a.min())) >= I32_SAFE_MAX:
            return np.int64
    return np.int32


def forward_53_1d(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reversible 5/3 analysis along axis 0.  Returns ``(low, high)``."""
    n = x.shape[0]
    if n == 1:
        return x.astype(np.int32).copy(), x[:0].astype(np.int32).copy()
    dt = _lift_dtype(x)
    E, pad = _extended(x.astype(dt, copy=False), n)
    E[1::2] -= (E[0:-1:2] + E[2::2]) >> 1
    E[2:-1:2] += (E[1:-2:2] + E[3::2] + 2) >> 2
    low, high = _split(E, pad, n)
    return low.astype(np.int32), high.astype(np.int32)


def inverse_53_1d(low: np.ndarray, high: np.ndarray, n: int) -> np.ndarray:
    """Exact inverse of :func:`forward_53_1d`."""
    _check_band_sizes(low, high, n)
    if n == 1:
        return low.astype(np.int32).copy()
    dt = _lift_dtype(low, high)
    E = _interleave_extended(low.astype(dt, copy=False),
                             high.astype(dt, copy=False), n)
    E[2:-1:2] -= (E[1:-2:2] + E[3::2] + 2) >> 2
    E[1::2] += (E[0:-1:2] + E[2::2]) >> 1
    return E[_PAD : _PAD + n].astype(np.int32)


def forward_97_1d(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Irreversible 9/7 analysis along axis 0.  Returns float ``(low, high)``."""
    n = x.shape[0]
    if n == 1:
        return x.astype(np.float64).copy(), x[:0].astype(np.float64).copy()
    E, pad = _extended(x.astype(np.float64), n)
    E[1::2] += LIFT_ALPHA * (E[0:-1:2] + E[2::2])
    E[2:-1:2] += LIFT_BETA * (E[1:-2:2] + E[3::2])
    E[1::2] += LIFT_GAMMA * (E[0:-1:2] + E[2::2])
    E[2:-1:2] += LIFT_DELTA * (E[1:-2:2] + E[3::2])
    low, high = _split(E, pad, n)
    return low * (1.0 / LIFT_K), high * LIFT_K


def inverse_97_1d(low: np.ndarray, high: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`forward_97_1d` (floating point)."""
    _check_band_sizes(low, high, n)
    if n == 1:
        return low.astype(np.float64).copy()
    E = _interleave_extended(low.astype(np.float64) * LIFT_K,
                             high.astype(np.float64) * (1.0 / LIFT_K), n)
    E[2:-1:2] -= LIFT_DELTA * (E[1:-2:2] + E[3::2])
    E[1::2] -= LIFT_GAMMA * (E[0:-1:2] + E[2::2])
    E[2:-1:2] -= LIFT_BETA * (E[1:-2:2] + E[3::2])
    E[1::2] -= LIFT_ALPHA * (E[0:-1:2] + E[2::2])
    return E[_PAD : _PAD + n]


def _interleave_extended(low: np.ndarray, high: np.ndarray, n: int) -> np.ndarray:
    """Rebuild the extended interleaved coefficient signal for synthesis.

    The DWT of a whole-sample symmetric-extended signal is itself symmetric
    in the interleaved domain, so the extension of the coefficient signal is
    obtained by reflecting interleaved positions.
    """
    pad_right = _PAD + (1 - (n + 2 * _PAD) % 2)
    idx = sym_indices(n, _PAD, pad_right)
    interleaved_shape = (n,) + low.shape[1:]
    interleaved = np.empty(interleaved_shape, dtype=low.dtype)
    interleaved[0::2] = low
    interleaved[1::2] = high
    return interleaved[idx].copy()


def _check_band_sizes(low: np.ndarray, high: np.ndarray, n: int) -> None:
    ne, no = (n + 1) // 2, n // 2
    if low.shape[0] != ne or high.shape[0] != no:
        raise ValueError(
            f"band sizes ({low.shape[0]}, {high.shape[0]}) inconsistent with n={n}"
        )


# ---------------------------------------------------------------------------
# 2-D multilevel decomposition
# ---------------------------------------------------------------------------

#: Part-1 subband orientation codes (T.800 Table F.1 ordering within a packet).
BAND_LL = "LL"
BAND_HL = "HL"  # horizontally high-pass, vertically low-pass
BAND_LH = "LH"  # horizontally low-pass, vertically high-pass
BAND_HH = "HH"

#: log2 nominal dynamic-range gain of each orientation for the 5/3 filter
#: (T.800 Table E.1): one extra bit per high-pass direction.
GAIN_LOG2 = {BAND_LL: 0, BAND_HL: 1, BAND_LH: 1, BAND_HH: 2}


@dataclass
class Subband:
    """One subband of a decomposition.

    ``dlevel`` is the decomposition level (1 = finest).  ``data`` is int32
    for the reversible path and float64 for the irreversible path.
    """

    band: str
    dlevel: int
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]


@dataclass
class Decomposition:
    """Full multilevel 2-D DWT of one component plane."""

    shape: tuple[int, int]
    levels: int
    reversible: bool
    ll: np.ndarray
    #: details[i] = (HL, LH, HH) arrays produced at decomposition level i+1.
    details: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=list)

    def subbands(self) -> list[Subband]:
        """All subbands, coarsest first (packet progression order)."""
        out = [Subband(BAND_LL, self.levels, self.ll)]
        for i in range(self.levels - 1, -1, -1):
            hl, lh, hh = self.details[i]
            out.append(Subband(BAND_HL, i + 1, hl))
            out.append(Subband(BAND_LH, i + 1, lh))
            out.append(Subband(BAND_HH, i + 1, hh))
        return out


def _forward_2d_once(plane: np.ndarray, reversible: bool):
    fwd = forward_53_1d if reversible else forward_97_1d
    # Vertical filtering (columns), then horizontal (rows) — paper order.
    lo_v, hi_v = fwd(plane)
    ll, hl = (a.T for a in fwd(lo_v.T))
    lh, hh = (a.T for a in fwd(hi_v.T))
    return ll, hl, lh, hh


def _inverse_2d_once(ll, hl, lh, hh, shape: tuple[int, int], reversible: bool,
                     inv=None):
    if inv is None:
        inv = inverse_53_1d if reversible else inverse_97_1d
    h, w = shape
    lo_v = inv(ll.T, hl.T, w).T
    hi_v = inv(lh.T, hh.T, w).T
    return inv(lo_v, hi_v, h)


def effective_levels(shape: tuple[int, int], levels: int) -> int:
    """Levels :func:`forward_dwt2d` actually performs on ``shape``.

    Mirrors the 1x1 clamp in the decomposition loop so callers (the native
    front end, quantizer derivation) can size outputs without running it.
    """
    if levels < 0:
        raise ValueError(f"levels must be non-negative, got {levels}")
    h, w = shape
    done = 0
    for _ in range(levels):
        if h == 1 and w == 1:
            break
        h, w = (h + 1) // 2, (w + 1) // 2
        done += 1
    return done


def forward_dwt2d(plane: np.ndarray, levels: int, reversible: bool) -> Decomposition:
    """Multilevel 2-D forward DWT of one component plane."""
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise ValueError(f"plane must be 2-D, got shape {plane.shape}")
    if levels < 0:
        raise ValueError(f"levels must be non-negative, got {levels}")
    ll = plane.astype(np.int32) if reversible else plane.astype(np.float64)
    details = []
    for _ in range(levels):
        if ll.shape[0] == 1 and ll.shape[1] == 1:
            break  # nothing left to split; standard allows it but it is inert
        ll, hl, lh, hh = _forward_2d_once(ll, reversible)
        details.append((hl, lh, hh))
    return Decomposition(
        shape=plane.shape, levels=len(details), reversible=reversible,
        ll=ll, details=details,
    )


def inverse_dwt2d(decomp: Decomposition) -> np.ndarray:
    """Reconstruct the component plane from a :class:`Decomposition`."""
    ll = decomp.ll
    shapes = _level_shapes(decomp.shape, decomp.levels)
    for i in range(decomp.levels - 1, -1, -1):
        hl, lh, hh = decomp.details[i]
        ll = _inverse_2d_once(ll, hl, lh, hh, shapes[i], decomp.reversible)
    return ll


def _level_shapes(shape: tuple[int, int], levels: int) -> list[tuple[int, int]]:
    """Shape reconstructed at each decomposition level (index 0 = original)."""
    shapes = [shape]
    h, w = shape
    for _ in range(levels):
        h, w = (h + 1) // 2, (w + 1) // 2
        shapes.append((h, w))
    return shapes[:-1] + ([shapes[-1]] if levels == 0 else [])


def _inverse_53_linear_1d(low: np.ndarray, high: np.ndarray, n: int) -> np.ndarray:
    """Linearized (no rounding) float 5/3 synthesis, for gain analysis only."""
    _check_band_sizes(low, high, n)
    if n == 1:
        return low.astype(np.float64).copy()
    E = _interleave_extended(low.astype(np.float64), high.astype(np.float64), n)
    E[2:-1:2] -= 0.25 * (E[1:-2:2] + E[3::2])
    E[1::2] += 0.5 * (E[0:-1:2] + E[2::2])
    return E[_PAD : _PAD + n]


@lru_cache(maxsize=256)
def synthesis_gain_sq(band: str, dlevel: int, reversible: bool) -> float:
    """Squared L2 norm of the synthesis basis for ``band`` at ``dlevel``.

    Computed empirically by pushing a unit impulse placed at the centre of
    the subband through the (linearized, for 5/3) synthesis filter bank —
    the energy weighting used by PCRD-opt rate control and quantizer step
    allocation.
    """
    if band not in GAIN_LOG2:
        raise ValueError(f"unknown band {band!r}")
    if dlevel < 1:
        raise ValueError(f"dlevel must be >= 1, got {dlevel}")
    size = 1 << (dlevel + 3)  # large enough that boundaries do not matter
    plane = np.zeros((size, size), dtype=np.float64)
    decomp = forward_dwt2d(plane, dlevel, reversible=False)
    if band == BAND_LL:
        target = decomp.ll
    else:
        hl, lh, hh = decomp.details[dlevel - 1]
        target = {BAND_HL: hl, BAND_LH: lh, BAND_HH: hh}[band]
    target[target.shape[0] // 2, target.shape[1] // 2] = 1.0
    inv = _inverse_53_linear_1d if reversible else inverse_97_1d
    ll = decomp.ll
    shapes = _level_shapes(decomp.shape, decomp.levels)
    for i in range(decomp.levels - 1, -1, -1):
        hl, lh, hh = decomp.details[i]
        ll = _inverse_2d_once(ll, hl, lh, hh, shapes[i], decomp.reversible, inv=inv)
    return float(np.sum(ll * ll))
