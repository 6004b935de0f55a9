"""Central finite-difference stencils, their adjoints, and total-variation length.

All stencils use replicate (nearest-edge) boundary handling, i.e. zero normal
derivative at the border, and divide by the grid spacing (1/(2h) for first
derivatives, 1/h^2 for second). The raw kernels operate on ndarrays and are
shared by the energy and gradient code; the field-level wrappers validate
preconditions and carry spacing.

Every raw stencil and adjoint takes an optional ``out=``: the result is
written into that array (same shape, not overlapping the input) and ``out``
itself is returned; without it a fresh array is returned. Either way the
values are the same bit for bit, because the kernels write through slices of
the output (``np.subtract(..., out=)``, then in-place ``+=``/``-=``/``/=``) in
one fixed operation order and build no shifted-difference temporaries. Only
:func:`dmixed` and :func:`dmixed_adj` still allocate their inner first
difference. They are not on the solver path: the mean curvature modes take
each mixed difference from a first difference they already hold, and
:func:`dmixed` stays as the public stencil behind :func:`deriv_mixed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .field import FieldError, ScalarField


@dataclass(frozen=True)
class NumericConfig:
    """Numerical smoothing settings.

    ``eps`` is the Charbonnier constant: |g| is replaced by sqrt(g^2 + eps^2)
    in the gradient magnitude so the energy is differentiable everywhere. The
    same smoothing is used in the energy and in its analytic gradient.
    """

    eps: float = 1e-6

    def __post_init__(self) -> None:
        if not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


def _sl(ndim: int, axis: int, s: slice) -> tuple:
    idx = [slice(None)] * ndim
    idx[axis] = s
    return tuple(idx)


def _check_axis(a: np.ndarray, axis: int) -> None:
    if not 0 <= axis < a.ndim:
        raise FieldError(f"axis {axis} out of range for ndim {a.ndim}")
    if a.shape[axis] < 3:
        raise FieldError(f"extent {a.shape[axis]} along axis {axis} is < 3; stencils need interior points")


def _out(a: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return np.empty_like(a)
    if out.shape != a.shape:
        raise FieldError(f"out has shape {out.shape}, input {a.shape}")
    if np.may_share_memory(a, out):
        raise FieldError("out must not overlap the stencil input")
    return out


def d1(a: np.ndarray, axis: int, h: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """Central first difference (u[i+1] - u[i-1]) / (2h), replicate boundary."""
    _check_axis(a, axis)
    nd = a.ndim
    out = _out(a, out)
    np.subtract(a[_sl(nd, axis, slice(2, None))], a[_sl(nd, axis, slice(None, -2))],
                out=out[_sl(nd, axis, slice(1, -1))])
    np.subtract(a[_sl(nd, axis, slice(1, 2))], a[_sl(nd, axis, slice(0, 1))], out=out[_sl(nd, axis, slice(0, 1))])
    np.subtract(a[_sl(nd, axis, slice(-1, None))], a[_sl(nd, axis, slice(-2, -1))],
                out=out[_sl(nd, axis, slice(-1, None))])
    out /= 2.0 * h
    return out


def d1_adj(w: np.ndarray, axis: int, h: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """Exact adjoint of :func:`d1`, including the replicate-boundary rows."""
    _check_axis(w, axis)
    nd = w.ndim
    adj = _out(w, out)
    # accumulated onto zeros: 0.0 + w, not w, so that -0.0 reads +0.0
    adj[_sl(nd, axis, slice(0, 1))] = 0.0
    np.add(w[_sl(nd, axis, slice(None, -1))], 0.0, out=adj[_sl(nd, axis, slice(1, None))])
    adj[_sl(nd, axis, slice(None, -1))] -= w[_sl(nd, axis, slice(1, None))]
    adj[_sl(nd, axis, slice(0, 1))] -= w[_sl(nd, axis, slice(0, 1))]
    adj[_sl(nd, axis, slice(-1, None))] += w[_sl(nd, axis, slice(-1, None))]
    adj /= 2.0 * h
    return adj


def d2(a: np.ndarray, axis: int, h: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """Central second difference (u[i+1] - 2u[i] + u[i-1]) / h^2, replicate boundary."""
    _check_axis(a, axis)
    nd = a.ndim
    out = _out(a, out)
    mid = out[_sl(nd, axis, slice(1, -1))]
    np.multiply(a[_sl(nd, axis, slice(1, -1))], 2.0, out=mid)
    np.subtract(a[_sl(nd, axis, slice(2, None))], mid, out=mid)
    mid += a[_sl(nd, axis, slice(None, -2))]
    np.subtract(a[_sl(nd, axis, slice(1, 2))], a[_sl(nd, axis, slice(0, 1))], out=out[_sl(nd, axis, slice(0, 1))])
    np.subtract(a[_sl(nd, axis, slice(-2, -1))], a[_sl(nd, axis, slice(-1, None))],
                out=out[_sl(nd, axis, slice(-1, None))])
    out /= h * h
    return out


def d2_adj(w: np.ndarray, axis: int, h: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """Exact adjoint of :func:`d2` (the replicate-boundary stencil is symmetric)."""
    _check_axis(w, axis)
    nd = w.ndim
    adj = np.multiply(w, -2.0, out=_out(w, out))
    adj[_sl(nd, axis, slice(1, None))] += w[_sl(nd, axis, slice(None, -1))]
    adj[_sl(nd, axis, slice(None, -1))] += w[_sl(nd, axis, slice(1, None))]
    adj[_sl(nd, axis, slice(0, 1))] += w[_sl(nd, axis, slice(0, 1))]
    adj[_sl(nd, axis, slice(-1, None))] += w[_sl(nd, axis, slice(-1, None))]
    adj /= h * h
    return adj


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


def grad_mag_raw(derivs: Sequence[np.ndarray], eps: float, out: np.ndarray | None = None,
                 tmp: np.ndarray | None = None) -> np.ndarray:
    """Charbonnier-smoothed gradient magnitude sqrt(sum_axes d1^2 + eps^2).

    ``derivs`` are the first differences along every axis; ``tmp`` is scratch
    for their squares.
    """
    mag = np.empty_like(derivs[0]) if out is None else out
    mag.fill(eps * eps)
    for g in derivs:
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


def grad_mag(field: ScalarField, cfg: NumericConfig = NumericConfig()) -> ScalarField:
    """Smoothed per-voxel gradient magnitude; strictly positive everywhere."""
    return field.with_data(grad_mag_raw(_slopes(field.data, field.spacing), cfg.eps))


def tv_length(field: ScalarField, cfg: NumericConfig = NumericConfig()) -> float:
    """Total-variation length/area: sum of grad_mag times the voxel measure.

    The reduction is a single ``np.sum`` over the magnitude field (pairwise
    summation), so the value is deterministic for a given input.
    """
    return float(np.sum(grad_mag_raw(_slopes(field.data, field.spacing), cfg.eps))) * field.voxel_measure
