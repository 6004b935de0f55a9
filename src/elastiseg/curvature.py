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

This module owns K: each mode is written once, as a forward function that
returns K and its pullback, a map from a cotangent of K to the cotangents of
the first and second differences the forward read. The estimators below, the
energy and its analytic gradient all evaluate that one definition through
:func:`curvature_forward`. The differences are not K's: a mode reads those of
u on one block of a :class:`~elastiseg.workspace.Workspace`'s plan as its
caller made them, :func:`curvature` here and
:func:`~elastiseg.energy.elastica_forward`, which owns the elastica density,
both through one private helper. A mode computes in place in block arrays of
that workspace, one ufunc per operation of its formula and in the formula's
order, so a pass with a reused workspace allocates no array and has the bits
of the formula evaluated as written. Its only stencils, the mixed differences
and their adjoints, run along axes >= 1, inside the block.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .diffops import d1, d1_adj, d2
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
Differences = Sequence[np.ndarray]  # of u along each axis, on one block


def _product(out: np.ndarray, *factors: np.ndarray) -> np.ndarray:
    """Left-to-right product of ``factors``, into ``out``."""
    np.multiply(factors[0], factors[1], out=out)
    for f in factors[2:]:
        out *= f
    return out


def _sum_of_products(out: np.ndarray, tmp: np.ndarray, products) -> np.ndarray:
    """Left-to-right sum of the :func:`_product` of each tuple of factors in ``products``, into ``out``."""
    for n, factors in enumerate(products):
        if n == 0:
            _product(out, *factors)
        else:
            out += _product(tmp, *factors)
    return out


def _mean(c: float, p: float):
    """The mean-curvature forward K = chi / (c * w**p) with one mode's constants.

    Each comment gives the expression that the in-place ufuncs below it
    evaluate, operation for operation and in its order (a product or sum
    commuted at most), so every result has that expression's bits. The
    pullback gives back each buffer as soon as it is dead.
    """

    def forward(slopes: Differences, seconds: Differences, spacing: tuple[float, ...], ws: Workspace,
                b: int) -> tuple[np.ndarray, Pullback]:
        n = len(slopes)
        # u_ij is the difference along j of the slope along i < j, as in diffops.dmixed: within the block, as j >= 1
        mixed = {(i, j): d1(slopes[i], j, spacing[j], out=ws.take(b), ws=ws) for i, j in combinations(range(n), 2)}
        w, k, den, tmp = (ws.take(b) for _ in range(4))
        # w = 1 + sum_i u_i*u_i
        _sum_of_products(w, tmp, ((ui, ui) for ui in slopes))
        w += 1.0
        # chi = sum_i u_ii*(w - u_i*u_i) - 2*sum_{i<j} u_i*u_j*u_ij, into k
        for i, (ui, uii) in enumerate(zip(slopes, seconds)):
            term = _product(tmp if i else k, ui, ui)
            np.subtract(w, term, out=term)
            term *= uii
            if i:
                k += term
        _sum_of_products(tmp, den, ((slopes[i], slopes[j], uij) for (i, j), uij in mixed.items()))  # den: scratch
        tmp *= 2.0
        k -= tmp
        ws.give(tmp)
        # c * w**p as c * sqrt(w) * w**int(p) for half-integer p: numpy's w**1.5 has no fast path
        np.sqrt(w, out=den)
        den *= c
        for _ in range(int(p)):
            den *= w
        k /= den  # K = chi / den

        def pullback(gk: np.ndarray) -> Cotangents:
            gchi = np.divide(gk, den, out=den)  # gk / den, over den
            # gw = gchi*sum_i u_ii - p*gk*K/w; p*gk*K/w is written over gk, which is scratch from here on
            gw = np.add(seconds[0], seconds[1], out=ws.take(b))
            for uii in seconds[2:]:
                gw += uii
            gw *= gchi
            gk *= p
            gk *= k
            gk /= w
            gw -= gk
            ws.give(k)
            tmp = ws.take(b)
            # u_i's cotangent 2*(u_i*(gw - gchi*u_ii) - gchi*sum_{j != i} u_j*u_ij); the last is written over gw
            d1_cots = {}
            for i, (ui, uii) in enumerate(zip(slopes, seconds)):
                cot = gw if i == n - 1 else ws.take(b)
                np.multiply(gchi, uii, out=gk)
                np.subtract(gw, gk, out=cot)
                cot *= ui
                _sum_of_products(gk, tmp, ((slopes[j], mixed[min(i, j), max(i, j)]) for j in range(n) if j != i))
                gk *= gchi
                cot -= gk
                cot *= 2.0
                d1_cots[i] = cot
            for ui, uii in zip(slopes, seconds):
                # u_ii's cotangent gchi*(w - u_i*u_i), over u_ii
                _product(uii, ui, ui)
                np.subtract(w, uii, out=uii)
                uii *= gchi
            ws.give(w)
            gchi *= -2.0
            for (i, j), uij in mixed.items():
                # u_ij was read from slope i, so its cotangent -2*gchi*u_i*u_j fans out into slope i's
                d1_cots[i] += d1_adj(_product(tmp, gchi, slopes[i], slopes[j]), j, spacing[j], out=uij, ws=ws)
                ws.give(uij)
            ws.give(gchi, tmp)
            return Cotangents(d1_cots, dict(enumerate(seconds)))

        return k, pullback

    return forward


def _fast_3d(slopes: Differences, seconds: Differences, spacing: tuple[float, ...], ws: Workspace,
             b: int) -> tuple[np.ndarray, Pullback]:
    k, sq = ws.take(b), ws.take(b)
    _sum_of_products(k, sq, ((s, s) for s in seconds))  # k = s0*s0 + s1*s1 + s2*s2
    ws.give(sq)

    def pullback(gk: np.ndarray) -> Cotangents:
        ws.give(k)
        # the cotangent of each second difference, 2*gk*s, overwrites s
        gk *= 2.0
        for s in seconds:
            s *= gk
        return Cotangents({}, dict(enumerate(seconds)))

    return k, pullback


def _laplacian_3d(slopes: Differences, seconds: Differences, spacing: tuple[float, ...], ws: Workspace,
                  b: int) -> tuple[np.ndarray, Pullback]:
    k = seconds[0]  # s0 + s1 + s2, summed over s0
    for s in seconds[1:]:
        k += s
    ws.give(*seconds[1:])

    def pullback(gk: np.ndarray) -> Cotangents:
        np.copyto(seconds[0], gk)  # gk is the cotangent along every axis: copied over s0 (K), it serves all three
        return Cotangents({}, dict.fromkeys(range(3), seconds[0]))

    return k, pullback


_FORWARD_BY_MODE = {
    CurvatureMode.MEAN_2D: _mean(2.0, 1.5),
    CurvatureMode.MEAN_3D: _mean(1.0, 0.5),
    CurvatureMode.FAST_3D: _fast_3d,
    CurvatureMode.LAPLACIAN_3D: _laplacian_3d,
}


def _differences(stencil: Callable, a: np.ndarray, spacing: tuple[float, ...], ws: Workspace, b: int,
                 axis0: np.ndarray | None = None) -> list[np.ndarray]:
    """``stencil`` (d1 or d2) of ``a`` along each axis on block ``b`` of the plan of ``ws``, each in a block array.

    The one along axis 0 goes into ``axis0`` when given: a block view of a
    full-size array, for a caller that reads it, or its cotangent, across
    blocks.
    """
    planes = ws.blocks[b]
    return [stencil(a, ax, spacing[ax], out=ws.take(b) if ax or axis0 is None else axis0, ws=ws, planes=planes)
            for ax in range(a.ndim)]


def curvature_forward(slopes: Differences | None, seconds: Differences, spacing: tuple[float, ...],
                      mode: CurvatureMode, ws: Workspace, b: int) -> tuple[np.ndarray, Pullback]:
    """Per-voxel curvature in ``mode`` from differences on block ``b`` of the plan of ``ws``, and its pullback.

    ``slopes`` and ``seconds`` are the first and second differences of u
    along each axis on the block, made by the caller; the fast and lap3d
    modes read no slopes. K and every intermediate come from ``ws``. The
    pullback may overwrite its argument, and it gives K and the forward's
    buffers it no longer needs back to ``ws``. It writes the cotangent of each
    second difference over that difference (lap3d returns the one along axis
    0 along all three axes), so a caller that passed a block view of a
    full-size array along axis 0 finds that cotangent there. No cotangent is
    the pullback's argument, so the caller can give that back as soon as the
    pullback returns. The caller owns the differences, the cotangents, and K
    until it calls the pullback.
    """
    check_ndim(len(seconds), mode)
    return _FORWARD_BY_MODE[mode](slopes, seconds, spacing, ws, b)


def curvature(u: ScalarField, mode: CurvatureMode) -> ScalarField:
    """Per-voxel curvature of ``u`` in the estimator selected by ``mode``, block by block."""
    ws = Workspace(u.shape)
    k = ws.take()
    mean = mode in (CurvatureMode.MEAN_2D, CurvatureMode.MEAN_3D)
    for b, part in enumerate(ws.parts(k)):
        with ws.scope():
            slopes = _differences(d1, u.data, u.spacing, ws, b) if mean else None
            seconds = _differences(d2, u.data, u.spacing, ws, b)
            np.copyto(part, curvature_forward(slopes, seconds, u.spacing, mode, ws, b)[0])
    return u.with_data(k)


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
