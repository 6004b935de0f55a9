"""Curvature estimators for soft masks viewed as graphs z = u(x), with their pullbacks.

The two mean modes are one definition in any dimension. With w = 1 + |grad u|^2,

    K = chi / (c * w**p),  chi = sum_i u_ii*(w - u_i^2) - 2*sum_{i<j} u_i*u_j*u_ij,

where mean2d takes (c, p) = (2, 3/2), the textbook graph mean curvature, and
mean3d takes (c, p) = (1, 1/2), the paper's hypersurface curvature
chi / sqrt(w) implemented verbatim, without the extra normalization the
textbook form would carry. Each mixed difference u_ij is the difference along
j of the slope u_i the pass already holds. Two further 3D modes: a fast
variant that sums the squared unmixed second derivatives and so needs only
three stencil passes, and a plain second-derivative sum (laplacian_3d) for
comparison; note the fast variant is NOT the Laplacian despite using the same
kernels: it squares each term and is therefore nonnegative.

Each mode is written once, as a forward function that returns K and its
pullback: a map from a cotangent of K to the cotangents of the first and
second differences the forward read. The estimators below, the energy and its
analytic gradient all evaluate that one definition.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .diffops import _slopes, d1, d1_adj, d2
from .field import ScalarField, check_ndim
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
    """Cotangents of the d1 and d2 outputs of ``a`` by axis, keys ascending."""

    d1: dict[int, np.ndarray]
    d2: dict[int, np.ndarray]


Pullback = Callable[[np.ndarray], Cotangents]
Slopes = Sequence[np.ndarray]


def _sum(terms) -> np.ndarray:
    """Left-to-right sum of arrays, without the copy that ``sum`` makes of the first."""
    return reduce(np.add, terms)


def _mean(c: float, p: float):
    """The mean-curvature forward K = chi / (c * w**p) with one mode's constants."""

    def forward(a: np.ndarray, spacing: tuple[float, ...], derivs: Slopes | None,
                ws: Workspace) -> tuple[np.ndarray, Pullback]:
        n = a.ndim
        slopes = _slopes(a, spacing) if derivs is None else derivs
        seconds = [d2(a, i, spacing[i], out=ws.take()) for i in range(n)]
        # u_ij is the difference along j of the slope along i < j, as in diffops.dmixed
        mixed = {(i, j): d1(slopes[i], j, spacing[j], out=ws.take()) for i, j in combinations(range(n), 2)}
        w = 1.0 + _sum(ui * ui for ui in slopes)
        chi = _sum(uii * (w - ui * ui) for ui, uii in zip(slopes, seconds))
        chi -= 2.0 * _sum(slopes[i] * slopes[j] * uij for (i, j), uij in mixed.items())
        # c * w**p as c * sqrt(w) * w**int(p) for half-integer p: numpy's w**1.5 has no fast path
        den = c * np.sqrt(w)
        for _ in range(int(p)):
            den *= w
        k = chi / den

        def pullback(gk: np.ndarray) -> Cotangents:
            gchi = gk / den
            gw = gchi * _sum(seconds) - p * gk * k / w
            d1_cots = {}
            for i, (ui, uii) in enumerate(zip(slopes, seconds)):
                cross = _sum(slopes[j] * mixed[min(i, j), max(i, j)] for j in range(n) if j != i)
                d1_cots[i] = 2.0 * (ui * (gw - gchi * uii) - gchi * cross)
            del gw  # freed before the u_ii cotangents, which bounds the pass's peak memory
            for ui, uii in zip(slopes, seconds):
                np.multiply(gchi, w - ui * ui, out=uii)  # u_ii's cotangent, over u_ii
            for (i, j), uij in mixed.items():
                # u_ij was read from slope i, so its cotangent fans out into slope i's
                d1_cots[i] += d1_adj(-2.0 * gchi * slopes[i] * slopes[j], j, spacing[j], out=uij)
            ws.give(*mixed.values())
            return Cotangents(d1_cots, dict(enumerate(seconds)))

        return k, pullback

    return forward


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
        return Cotangents({}, dict(enumerate(seconds)))

    return k, pullback


def _laplacian_3d(a: np.ndarray, spacing: tuple[float, ...], derivs: Slopes | None,
                  ws: Workspace) -> tuple[np.ndarray, Pullback]:
    k = d2(a, 0, spacing[0], out=ws.take())
    second = ws.take()
    for ax in (1, 2):
        k += d2(a, ax, spacing[ax], out=second)
    ws.give(second)

    def pullback(gk: np.ndarray) -> Cotangents:
        return Cotangents({}, {ax: gk for ax in range(3)})

    return k, pullback


_FORWARD_BY_MODE = {
    CurvatureMode.MEAN_2D: _mean(2.0, 1.5),
    CurvatureMode.MEAN_3D: _mean(1.0, 0.5),
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
    forward's buffers it no longer needs back to ``ws``; the fast and mean
    modes write the cotangents of their second differences over them. The
    caller owns K, the cotangents and its ``derivs``.
    """
    check_ndim(a.ndim, mode)
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
