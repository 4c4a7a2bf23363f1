"""Level shift and multi-component transforms (RCT / ICT).

JPEG2000 Part-1 defines two inter-component transforms for 3-component
images: the reversible color transform (RCT, integer, used with the 5/3
wavelet) and the irreversible color transform (ICT, the floating-point
YCbCr matrix, used with the 9/7 wavelet).  The paper merges the level-shift
and inter-component-transform stages into one kernel to halve their DMA
traffic (Section 3.2); functionally the merged result is identical, which is
what :func:`forward_mct` computes.
"""

from __future__ import annotations

import numpy as np

#: ICT (YCbCr) analysis matrix rows, ITU-R BT.601 luma coefficients.
_ICT_FWD = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.16875, -0.33126, 0.5],
        [0.5, -0.41869, -0.08131],
    ],
    dtype=np.float64,
)
_ICT_INV = np.linalg.inv(_ICT_FWD)


def level_shift(component: np.ndarray, bit_depth: int) -> np.ndarray:
    """DC level shift: subtract ``2**(bit_depth-1)`` yielding signed samples."""
    _check_depth(bit_depth)
    return component.astype(np.int32) - (1 << (bit_depth - 1))


def level_unshift(component: np.ndarray, bit_depth: int) -> np.ndarray:
    """Inverse DC level shift with clamping to the unsigned sample range."""
    _check_depth(bit_depth)
    out = np.asarray(component) + (1 << (bit_depth - 1))
    return np.clip(out, 0, (1 << bit_depth) - 1)


def forward_rct(r: np.ndarray, g: np.ndarray, b: np.ndarray):
    """Reversible color transform (integer, exactly invertible)."""
    r = r.astype(np.int64)
    g = g.astype(np.int64)
    b = b.astype(np.int64)
    y = (r + 2 * g + b) >> 2
    u = b - g
    v = r - g
    return y.astype(np.int32), u.astype(np.int32), v.astype(np.int32)


def inverse_rct(y: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Exact inverse of :func:`forward_rct`."""
    y = y.astype(np.int64)
    u = u.astype(np.int64)
    v = v.astype(np.int64)
    g = y - ((u + v) >> 2)
    r = v + g
    b = u + g
    return r.astype(np.int32), g.astype(np.int32), b.astype(np.int32)


def _matrix_rows(m: np.ndarray, a, b, c):
    """Apply a 3x3 matrix row by row as explicit elementwise expressions.

    Deliberately *not* a BLAS call: elementwise arithmetic is evaluated in a
    fixed order per sample, ``(a*m0 + b*m1) + c*m2``, the order the native
    front end (:mod:`repro.jpeg2000.dwt_fast`) repeats bit for bit.
    (``tensordot`` may reassociate/FMA the 3-term dot depending on shape.)
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    scratch = np.empty(a.shape, np.float64)
    out = []
    for i in range(3):
        acc = np.multiply(a, m[i, 0])
        np.multiply(b, m[i, 1], out=scratch)
        np.add(acc, scratch, out=acc)
        np.multiply(c, m[i, 2], out=scratch)
        np.add(acc, scratch, out=acc)
        out.append(acc)
    return tuple(out)


def forward_ict(r: np.ndarray, g: np.ndarray, b: np.ndarray):
    """Irreversible color transform (floating point YCbCr)."""
    return _matrix_rows(_ICT_FWD, r, g, b)


def inverse_ict(y: np.ndarray, cb: np.ndarray, cr: np.ndarray):
    """Inverse of :func:`forward_ict` (floating point)."""
    return _matrix_rows(_ICT_INV, y, cb, cr)


def forward_mct(components: list[np.ndarray], bit_depth: int, lossless: bool):
    """Merged level shift + inter-component transform (paper Fig. 2 stage).

    For 3-component images applies RCT (lossless) or ICT (lossy) after the
    level shift; single-component images are only level shifted.  Returns a
    list of float64 (lossy) or int32 (lossless) planes.
    """
    shifted = [level_shift(c, bit_depth) for c in components]
    if len(shifted) == 1:
        if lossless:
            return shifted
        return [s.astype(np.float64) for s in shifted]
    if len(shifted) != 3:
        raise ValueError(f"MCT supports 1 or 3 components, got {len(shifted)}")
    if lossless:
        return list(forward_rct(*shifted))
    return list(forward_ict(*shifted))


def inverse_mct(planes: list[np.ndarray], bit_depth: int, lossless: bool):
    """Inverse of :func:`forward_mct`, returning unsigned integer components."""
    if len(planes) == 1:
        restored = planes
    elif len(planes) != 3:
        raise ValueError(f"MCT supports 1 or 3 components, got {len(planes)}")
    elif lossless:
        restored = list(inverse_rct(*planes))
    else:
        restored = list(inverse_ict(*planes))
    out = []
    for plane in restored:
        if not lossless:
            plane = np.rint(plane)
        out.append(level_unshift(plane, bit_depth).astype(np.int32))
    return out


def _check_depth(bit_depth: int) -> None:
    if not (1 <= bit_depth <= 16):
        raise ValueError(f"bit_depth must be in [1, 16], got {bit_depth}")
