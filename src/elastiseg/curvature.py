"""Curvature estimators for soft masks viewed as graphs z = u(x), with their pullbacks.

Four modes: the 2D graph mean curvature, the 3D hypersurface mean curvature
(numerator chi over sqrt(1+|grad u|^2), implemented verbatim, without the
extra normalization a textbook graph mean curvature would carry), a fast 3D
variant that sums the squared unmixed second derivatives and so needs only
three stencil passes, and a plain second-derivative sum (laplacian_3d) for
comparison; note the fast variant is NOT the Laplacian despite using the same
kernels: it squares each term and is therefore nonnegative.

Each mode is written once, as a forward function that returns K and its
pullback: a map from a cotangent of K to the cotangents of the stencil outputs
the forward read. The estimators below, the energy and its analytic gradient
all evaluate that one definition.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .diffops import d1, d2, dmixed
from .field import FieldError, ScalarField
from .workspace import Workspace


class CurvatureMode(Enum):
    MEAN_2D = "mean2d"
    MEAN_3D = "mean3d"
    FAST_3D = "fast3d"
    LAPLACIAN_3D = "lap3d"

    @property
    def required_ndim(self) -> int:
        return 2 if self is CurvatureMode.MEAN_2D else 3

    @classmethod
    def parse(cls, name: str) -> "CurvatureMode":
        for mode in cls:
            if mode.value == name.lower():
                return mode
        raise ValueError(f"unknown curvature mode {name!r}; choose from {[m.value for m in cls]}")


class Cotangents(NamedTuple):
    """Cotangents of the d1/d2 outputs by axis and of the dmixed outputs by axis pair, keys ascending."""

    d1: dict[int, np.ndarray]
    d2: dict[int, np.ndarray]
    dmixed: dict[tuple[int, int], np.ndarray]


Pullback = Callable[[np.ndarray], Cotangents]
Slopes = Sequence[np.ndarray]


def _slopes(a: np.ndarray, spacing: tuple[float, ...], derivs: Slopes | None) -> Slopes:
    if derivs is not None:
        return derivs
    return [d1(a, ax, spacing[ax]) for ax in range(a.ndim)]


def _mean_2d(a: np.ndarray, spacing: tuple[float, ...], derivs: Slopes | None,
             ws: Workspace) -> tuple[np.ndarray, Pullback]:
    hx, hy = spacing
    ux, uy = _slopes(a, spacing, derivs)
    uxx = d2(a, 0, hx, out=ws.take())
    uyy = d2(a, 1, hy, out=ws.take())
    uxy = dmixed(a, 0, 1, hx, hy, out=ws.take())
    w = 1.0 + ux * ux + uy * uy
    sqrtw = np.sqrt(w)
    den = 2.0 * w * sqrtw
    num = (1.0 + ux * ux) * uyy + (1.0 + uy * uy) * uxx - 2.0 * ux * uy * uxy
    k = num / den

    def pullback(gk: np.ndarray) -> Cotangents:
        gnum = gk / den
        gden = -gk * k / den
        cots = Cotangents(
            {0: gnum * (2.0 * ux * uyy - 2.0 * uy * uxy) + gden * (6.0 * ux * sqrtw),
             1: gnum * (2.0 * uy * uxx - 2.0 * ux * uxy) + gden * (6.0 * uy * sqrtw)},
            {0: gnum * (1.0 + uy * uy), 1: gnum * (1.0 + ux * ux)},
            {(0, 1): gnum * (-2.0 * ux * uy)},
        )
        ws.give(uxx, uyy, uxy)
        return cots

    return k, pullback


def _mean_3d(a: np.ndarray, spacing: tuple[float, ...], derivs: Slopes | None,
             ws: Workspace) -> tuple[np.ndarray, Pullback]:
    hx, hy, hz = spacing
    ux, uy, uz = _slopes(a, spacing, derivs)
    uxx = d2(a, 0, hx, out=ws.take())
    uyy = d2(a, 1, hy, out=ws.take())
    uzz = d2(a, 2, hz, out=ws.take())
    uxy = dmixed(a, 0, 1, hx, hy, out=ws.take())
    uxz = dmixed(a, 0, 2, hx, hz, out=ws.take())
    uyz = dmixed(a, 1, 2, hy, hz, out=ws.take())
    ux2, uy2, uz2 = ux * ux, uy * uy, uz * uz
    s = np.sqrt(1.0 + ux2 + uy2 + uz2)
    chi = (
        uxx * (1.0 + uy2 + uz2)
        + uyy * (1.0 + ux2 + uz2)
        + uzz * (1.0 + ux2 + uy2)
        - 2.0 * (ux * uy * uxy + ux * uz * uxz + uy * uz * uyz)
    )
    k = chi / s

    def pullback(gk: np.ndarray) -> Cotangents:
        gchi = gk / s
        gs = -gk * k / s
        cots = Cotangents(
            {0: gchi * (2.0 * ux * (uyy + uzz) - 2.0 * (uy * uxy + uz * uxz)) + gs * (ux / s),
             1: gchi * (2.0 * uy * (uxx + uzz) - 2.0 * (ux * uxy + uz * uyz)) + gs * (uy / s),
             2: gchi * (2.0 * uz * (uxx + uyy) - 2.0 * (ux * uxz + uy * uyz)) + gs * (uz / s)},
            {0: gchi * (1.0 + uy2 + uz2), 1: gchi * (1.0 + ux2 + uz2), 2: gchi * (1.0 + ux2 + uy2)},
            {(0, 1): -2.0 * gchi * ux * uy, (0, 2): -2.0 * gchi * ux * uz, (1, 2): -2.0 * gchi * uy * uz},
        )
        ws.give(uxx, uyy, uzz, uxy, uxz, uyz)
        return cots

    return k, pullback


def _fast_3d(a: np.ndarray, spacing: tuple[float, ...], derivs: Slopes | None,
             ws: Workspace) -> tuple[np.ndarray, Pullback]:
    seconds = [d2(a, ax, spacing[ax], out=ws.take()) for ax in range(3)]
    # k = s0*s0 + s1*s1 + s2*s2, summed left to right
    k = np.multiply(seconds[0], seconds[0], out=ws.take())
    sq = ws.take()
    for s in seconds[1:]:
        k += np.multiply(s, s, out=sq)
    ws.give(sq)

    def pullback(gk: np.ndarray) -> Cotangents:
        # the cotangent of each second difference, 2*gk*s, overwrites s
        gk *= 2.0
        for s in seconds:
            s *= gk
        return Cotangents({}, dict(enumerate(seconds)), {})

    return k, pullback


def _laplacian_3d(a: np.ndarray, spacing: tuple[float, ...], derivs: Slopes | None,
                  ws: Workspace) -> tuple[np.ndarray, Pullback]:
    k = d2(a, 0, spacing[0], out=ws.take())
    second = ws.take()
    for ax in (1, 2):
        k += d2(a, ax, spacing[ax], out=second)
    ws.give(second)

    def pullback(gk: np.ndarray) -> Cotangents:
        return Cotangents({}, {ax: gk for ax in range(3)}, {})

    return k, pullback


_FORWARD_BY_MODE = {
    CurvatureMode.MEAN_2D: _mean_2d,
    CurvatureMode.MEAN_3D: _mean_3d,
    CurvatureMode.FAST_3D: _fast_3d,
    CurvatureMode.LAPLACIAN_3D: _laplacian_3d,
}


def curvature_forward(a: np.ndarray, spacing: tuple[float, ...], mode: CurvatureMode,
                      derivs: Slopes | None = None, ws: Workspace | None = None) -> tuple[np.ndarray, Pullback]:
    """Per-voxel curvature of ``a`` in ``mode``, and its pullback.

    ``derivs`` are the first differences of ``a`` along each axis, for a
    caller that already holds them; the mean modes read them and compute them
    when they are not given. Stencil outputs and, in the fast and Laplacian
    modes, K and its scratch come from ``ws`` (a throwaway workspace when none
    is given). The pullback may overwrite its argument, and it gives the
    forward's buffers it no longer needs back to ``ws``; the fast mode writes
    its cotangents over its second differences. The caller owns K, the
    cotangents and its ``derivs``.
    """
    if a.ndim != mode.required_ndim:
        raise FieldError(f"mode {mode.value} requires {mode.required_ndim}D input, got {a.ndim}D")
    return _FORWARD_BY_MODE[mode](a, spacing, derivs, Workspace(a.shape) if ws is None else ws)


def curvature(u: ScalarField, mode: CurvatureMode) -> ScalarField:
    """Per-voxel curvature of ``u`` in the estimator selected by ``mode``."""
    return u.with_data(curvature_forward(u.data, u.spacing, mode)[0])


def mean_curvature_2d(u: ScalarField) -> ScalarField:
    """2D graph mean curvature; the denominator is >= 2, so always finite."""
    return curvature(u, CurvatureMode.MEAN_2D)


def mean_curvature_3d(u: ScalarField) -> ScalarField:
    """3D hypersurface curvature chi / sqrt(1 + |grad u|^2); always finite."""
    return curvature(u, CurvatureMode.MEAN_3D)


def fast_curvature_3d(u: ScalarField) -> ScalarField:
    """Sum of squared unmixed second derivatives; nonnegative everywhere."""
    return curvature(u, CurvatureMode.FAST_3D)


def laplacian_3d(u: ScalarField) -> ScalarField:
    """Plain sum of unmixed second derivatives (comparison mode)."""
    return curvature(u, CurvatureMode.LAPLACIAN_3D)
