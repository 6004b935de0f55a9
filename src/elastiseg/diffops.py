"""Central finite-difference stencils, their adjoints, and total-variation length.

All stencils use replicate (nearest-edge) boundary handling, i.e. zero normal
derivative at the border, and divide by c = 2h (first derivatives) or h^2
(second) with the bits of ``/= c``, multiplying only by an exact reciprocal. The
raw kernels operate on ndarrays and are shared by the energy and gradient code;
the field-level wrappers validate preconditions and carry spacing. The
gradient magnitude is Charbonnier-smoothed by the fixed constant :data:`EPS`.

The replicate-boundary second difference is a symmetric matrix, so :func:`d2`
is its own adjoint and cotangents of second differences return through it;
only :func:`d1` and :func:`dmixed` have adjoint kernels.

Every raw stencil and adjoint is one flat-shift kernel for all axes. In the
flattened C-ordered array a step along ``axis`` is a shift by
``prod(shape[axis+1:])``, so the interior is one contiguous loop whatever the
axis; the two boundary planes, which it leaves with wrapped-around values, are
then written from scratch. An optional ``out=`` must be C-contiguous, of the
result's shape and not overlapping the input (else :class:`FieldError`); it is
written and returned, else a fresh C-ordered array is, so a Fortran-ordered
input yields a C-ordered result with the same values. Either way the bits are
the same: one fixed operation order through views, no temporaries, except the
inner first difference of :func:`dmixed`/:func:`dmixed_adj` (off the solver path).

``planes=(lo, hi)`` makes only planes [lo, hi) along axis 0 of the result, for
the blocks of :mod:`elastiseg.workspace`, into an ``out`` of hi - lo planes,
with the bits of those planes of the whole result. Along axis 0 the kernel
reads the planes on either side of the range through the same flat shift, and
writes a boundary plane only where the range holds one (the first or the last
block). Along any other axis it runs on the input's planes [lo, hi) alone.

The views are :func:`~elastiseg.workspace.shift_views` of the input and the
output. A raw stencil given ``ws=`` takes them from that
:class:`~elastiseg.workspace.Workspace` when both arrays are its own (handed
out, or block views of arrays handed out), so they are built once per array,
axis and plane range; every other call builds them afresh after the checks
above. Both run the same ufuncs on the same operands. Whether a scale
multiplies by an exact reciprocal or divides is decided once per spacing
(:func:`_reciprocal`), not on every call.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .field import FieldError, ScalarField
from .workspace import Planes, Workspace, shift_views

# Charbonnier constant: |g| is replaced by sqrt(g^2 + EPS^2) in the gradient magnitude,
# in the energy and its analytic gradient alike, so the energy is differentiable everywhere.
EPS = 1e-6


def _check_axis(a: np.ndarray, axis: int) -> None:
    if not 0 <= axis < a.ndim:
        raise FieldError(f"axis {axis} out of range for ndim {a.ndim}")
    if a.shape[axis] < 3:
        raise FieldError(f"extent {a.shape[axis]} along axis {axis} is < 3; stencils need interior points")


def _flat(a: np.ndarray, axis: int, out: np.ndarray | None, planes: Planes | None) -> tuple:
    """``out`` (allocated when None) and the :func:`shift_views` of the input and of ``out`` along ``axis``."""
    _check_axis(a, axis)
    shape = a.shape
    if planes is not None:
        lo, hi = planes
        if not 0 <= lo < hi <= a.shape[0]:
            raise FieldError(f"planes [{lo}, {hi}) out of range for extent {a.shape[0]} along axis 0")
        shape = (hi - lo, *a.shape[1:])
    if out is None:
        out = np.empty(shape, a.dtype)
    elif out.shape != shape:
        raise FieldError(f"out has shape {out.shape}, expected {shape}")
    elif not out.flags.c_contiguous:
        raise FieldError("out must be C-contiguous")
    elif np.may_share_memory(a, out):
        raise FieldError("out must not overlap the stencil input")
    a = np.ascontiguousarray(a)
    return out, shift_views(a, axis, planes), shift_views(out, axis, planes if axis == 0 else None, a.shape[0])


def _operands(a: np.ndarray, axis: int, out: np.ndarray | None, ws: Workspace | None,
              planes: Planes | None) -> tuple:
    """As :func:`_flat`, the views kept by ``ws`` when it holds both ``a`` and an ``out`` in other memory."""
    if ws is not None:
        views_a, views_out = ws.views(a, axis, planes), ws.views(out, axis, planes if axis == 0 else None)
        # ws keeps views only of its own arrays and their block views: distinct owners do not overlap
        if views_a is not None and views_out is not None and a.base is not out.base:
            return out, views_a, views_out
    return _flat(a, axis, out, planes)


@functools.lru_cache(maxsize=64)
def _reciprocal(c: float) -> float | None:
    """1/c when multiplying by it has the bits of dividing by ``c``, else None; decided once per spacing.

    x * (1/c) rounds the same real as x / c when 1/c is exact, i.e. c is a
    power of two whose reciprocal does not overflow (a subnormal c = 2**-1040
    has 1/c = inf).
    """
    if math.frexp(c)[0] != 0.5 or not math.isfinite(1.0 / float(c)):
        return None
    return 1.0 / c


def _scale(out: np.ndarray, c: float) -> None:
    """``out /= c``, bit for bit."""
    r = _reciprocal(c)
    if r is None:
        out /= c
    elif r != 1.0:
        out *= r


def d1(a: np.ndarray, axis: int, h: float = 1.0, out: np.ndarray | None = None,
       ws: Workspace | None = None, planes: Planes | None = None) -> np.ndarray:
    """Central first difference (u[i+1] - u[i-1]) / (2h), replicate boundary."""
    out, (prev, _, nxt, a0, a1, a_2, a_1), (_, mid, _, first, _, _, last) = _operands(a, axis, out, ws, planes)
    np.subtract(nxt, prev, out=mid)
    if first is not None:
        np.subtract(a1, a0, out=first)
    if last is not None:
        np.subtract(a_1, a_2, out=last)
    _scale(out, 2.0 * h)
    return out


def d1_adj(w: np.ndarray, axis: int, h: float = 1.0, out: np.ndarray | None = None,
           ws: Workspace | None = None, planes: Planes | None = None) -> np.ndarray:
    """Exact adjoint of :func:`d1`, including the replicate-boundary rows."""
    adj, (prev, _, nxt, w0, w1, w_2, w_1), (_, mid, _, first, _, _, last) = _operands(w, axis, out, ws, planes)
    np.subtract(prev, nxt, out=mid)
    if first is not None:
        np.subtract(0.0, w1, out=first)
        first -= w0
    if last is not None:
        np.add(w_2, w_1, out=last)
    _scale(adj, 2.0 * h)
    return adj


def d2(a: np.ndarray, axis: int, h: float = 1.0, out: np.ndarray | None = None,
       ws: Workspace | None = None, planes: Planes | None = None) -> np.ndarray:
    """Central second difference (u[i+1] - 2u[i] + u[i-1]) / h^2, replicate boundary; self-adjoint."""
    out, (prev, cur, nxt, a0, a1, a_2, a_1), (_, mid, _, first, _, _, last) = _operands(a, axis, out, ws, planes)
    np.multiply(cur, 2.0, out=mid)
    np.subtract(nxt, mid, out=mid)
    mid += prev
    if first is not None:
        np.subtract(a1, a0, out=first)
    if last is not None:
        np.subtract(a_2, a_1, out=last)
    _scale(out, h * h)
    return out


def dmixed(a: np.ndarray, axis_a: int, axis_b: int, h_a: float = 1.0, h_b: float = 1.0,
           out: np.ndarray | None = None) -> np.ndarray:
    """Nested first differences along two distinct axes.

    The inner derivative is always taken along the lower axis index, so the
    result is bit-identical under swapping the axis arguments. The inner
    difference is a temporary even when ``out`` is given.
    """
    if axis_a == axis_b:
        raise FieldError(f"mixed derivative needs two distinct axes, got {axis_a} twice")
    (lo, h_lo), (hi, h_hi) = sorted([(axis_a, h_a), (axis_b, h_b)])
    return d1(d1(a, lo, h_lo), hi, h_hi, out=out)


def dmixed_adj(w: np.ndarray, axis_a: int, axis_b: int, h_a: float = 1.0, h_b: float = 1.0,
               out: np.ndarray | None = None) -> np.ndarray:
    """Exact adjoint of :func:`dmixed` (adjoints composed in reverse order)."""
    if axis_a == axis_b:
        raise FieldError(f"mixed derivative needs two distinct axes, got {axis_a} twice")
    (lo, h_lo), (hi, h_hi) = sorted([(axis_a, h_a), (axis_b, h_b)])
    return d1_adj(d1_adj(w, hi, h_hi), lo, h_lo, out=out)


def grad_mag_raw(derivs: Sequence[np.ndarray], out: np.ndarray | None = None,
                 tmp: np.ndarray | None = None) -> np.ndarray:
    """Charbonnier-smoothed gradient magnitude sqrt(sum_axes d1^2 + EPS^2).

    ``derivs`` are the first differences along every axis; ``tmp`` is scratch
    for their squares.
    """
    mag = np.multiply(derivs[0], derivs[0], out=out)
    mag += EPS * EPS  # g0*g0 + EPS*EPS: the bits of accumulating onto EPS*EPS, as addition commutes
    for g in derivs[1:]:
        mag += np.multiply(g, g, out=tmp)
    return np.sqrt(mag, out=mag)


def _slopes(a: np.ndarray, spacing: tuple[float, ...]) -> list[np.ndarray]:
    return [d1(a, axis, spacing[axis]) for axis in range(a.ndim)]


def deriv1(field: ScalarField, axis: int) -> ScalarField:
    """First derivative along ``axis`` in physical units (divides by 2h)."""
    _check_axis(field.data, axis)
    return field.with_data(d1(field.data, axis, field.spacing[axis]))


def deriv2(field: ScalarField, axis: int) -> ScalarField:
    """Second derivative along ``axis`` in physical units (divides by h^2)."""
    _check_axis(field.data, axis)
    return field.with_data(d2(field.data, axis, field.spacing[axis]))


def deriv_mixed(field: ScalarField, axis_a: int, axis_b: int) -> ScalarField:
    """Mixed second derivative; symmetric in its axis arguments by construction."""
    for ax in (axis_a, axis_b):
        _check_axis(field.data, ax)
    return field.with_data(
        dmixed(field.data, axis_a, axis_b, field.spacing[axis_a], field.spacing[axis_b])
    )


def grad_mag(field: ScalarField) -> ScalarField:
    """Smoothed per-voxel gradient magnitude; strictly positive everywhere."""
    return field.with_data(grad_mag_raw(_slopes(field.data, field.spacing)))


def tv_length(field: ScalarField) -> float:
    """Total-variation length/area: sum of grad_mag times the voxel measure.

    The reduction is a single ``np.sum`` over the magnitude field (pairwise
    summation), so the value is deterministic for a given input.
    """
    return float(np.sum(grad_mag_raw(_slopes(field.data, field.spacing)))) * field.voxel_measure
