"""Assembly of the segmentation energy from the stencil and curvature primitives.

The energy of a soft mask u against a reference field r is

    E(u) = sum_p (alpha + beta*K_p^2) * |grad u|_p * measure
         + lambda * |sum_p u_p (c1 - r_p)^2|
         + lambda * |sum_p (1 - u_p) (c2 - r_p)^2|

with K the per-voxel curvature in the selected mode and |grad u| the
Charbonnier-smoothed gradient magnitude. The curvature/length factor couples
pointwise (each voxel's curvature scales that voxel's gradient magnitude).
The same assembly serves supervised evaluation (r = ground-truth mask,
c1=1, c2=0) and unsupervised segmentation (r = image, constants from
:func:`estimate_region_means`). Region sums are plain sums; only the
length term carries the voxel measure. This module owns the elastica
density: :func:`elastica_forward` is the one forward pass of the
length/curvature term, run on each block of a workspace's plan, and it
returns the density's pullback, so the density and its derivative are
written once, here. It makes the differences of u that it and K read, and
takes K and K's pullback from :mod:`elastiseg.curvature`. The scalar energy,
the per-voxel density of the finite-difference oracle and the analytic
gradient (:mod:`elastiseg.gradients`, which schedules the blocks, applies
the adjoint stencils and adds the region term) all read it. Each block's
forward returns the sum of its density, and the scalar energy
(:func:`elastica_energy`) is those block sums combined by
:func:`~elastiseg.workspace.tree_sum`, whose bits :mod:`elastiseg.workspace`
compares with the unblocked pass's.

The region terms read u only through the moments sum u, sum u*r, sum u*r^2
(:func:`region_moments`); those of 1 - u are the totals N, sum r, sum r^2 minus
them. A region sum is |m2 - 2c*m1 + c^2*m0|, a mean m1/m0 clipped into r's
range; :func:`region_terms` and the oracle's density keep the direct form.
Every moment, of the whole field or of one block, is summed block by block
over the workspace's plan and combined by ``tree_sum``, the order of the
solver's update, so :func:`segmentation_energy` and the solver's trace agree
bit for bit on every plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .curvature import Cotangents, CurvatureMode, _differences, curvature_forward
from .diffops import d1, d2, grad_mag_raw
from .field import FieldError, ScalarField, check_ndim, check_same_shape, check_soft_mask
from .workspace import Workspace, block_sum, tree_sum


# |c1|, |c2| bound: with |r| up to float32's maximum (all a VF32 file holds), (c - r)^2 <= ~1e200
MAX_CONSTANT = 1e100


class DegenerateMaskError(FieldError):
    """Mask is entirely foreground or entirely background."""


@dataclass(frozen=True)
class EnergyParams:
    """Weights and constants of the segmentation energy.

    ``alpha`` weighs boundary length, ``beta`` squared curvature, ``lam`` the
    two region terms. ``c1``/``c2`` are the foreground/background reference
    constants (1 and 0 for evaluation against a binary mask), at most
    ``MAX_CONSTANT`` in magnitude. Useful operating ranges are alpha in
    [0.0001, 0.1] and beta in (0, 10]; beta = 0 drops the curvature factor and
    leaves a pure length-plus-region energy.
    """

    alpha: float = 0.001
    beta: float = 0.0
    lam: float = 1.0
    c1: float = 1.0
    c2: float = 0.0
    mode: CurvatureMode = CurvatureMode.MEAN_2D

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not self.lam > 0.0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        _check_constants(self.c1, self.c2)

    def with_constants(self, c1: float, c2: float) -> "EnergyParams":
        """A copy with constants ``c1``, ``c2``, checked as construction checks them.

        The other fields were checked when ``self`` was built, so the copy
        skips ``dataclasses.replace``, which re-runs every check: the solver
        makes one per iteration.
        """
        _check_constants(c1, c2)
        params = object.__new__(type(self))
        params.__dict__.update(self.__dict__, c1=c1, c2=c2)
        return params


def _check_constants(c1: float, c2: float) -> None:
    for name, c in (("c1", c1), ("c2", c2)):
        if not math.isfinite(c):
            raise ValueError(f"{name} must be finite, got {c}")
        if abs(c) > MAX_CONSTANT:
            raise ValueError(f"{name} must lie in [-{MAX_CONSTANT:g}, {MAX_CONSTANT:g}], got {c}")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy components; ``total = elastica + lam*region_in + lam*region_out``."""

    elastica: float
    region_in: float
    region_out: float
    total: float

    @classmethod
    def assemble(cls, elastica: float, region_in: float, region_out: float, lam: float) -> "EnergyBreakdown":
        return cls(elastica, region_in, region_out, elastica + lam * region_in + lam * region_out)


Moments = tuple[float, float, float]  # (sum w, sum w*r, sum w*r^2): the moments of a reference r under a weight w


def region_terms(u: ScalarField, r: ScalarField, c1: float, c2: float) -> tuple[float, float]:
    """Inside and outside region sums (|sum u (c1-r)^2|, |sum (1-u) (c2-r)^2|), in the direct form.

    Both summands are pointwise nonnegative for u in [0,1], so the absolute
    values never change the result; they are kept to match the printed form.
    """
    check_same_shape(u, r)
    check_soft_mask(u)
    return abs(float(np.sum(u.data * (c1 - r.data) ** 2))), abs(float(np.sum((1.0 - u.data) * (c2 - r.data) ** 2)))


def region_moments(w: np.ndarray | float, r: np.ndarray, ws: Workspace, b: int | None = None) -> Moments:
    """The moments of ``r`` under ``w`` (an array, or a scalar such as 1.0), through one block array of ``ws``.

    With ``b``, ``r`` and an array ``w`` are block ``b`` of the plan of
    ``ws``, as :meth:`~elastiseg.workspace.Workspace.take` reads ``b``.
    Without it they are the whole field, whose moments are those of each block
    combined as :func:`mask_moments` combines given block moments: in the
    order the solver's update takes them, on every plan.
    """
    if b is None:
        parts = ws.parts(w) if np.ndim(w) else [w] * len(ws.blocks)
        return _combined([region_moments(wb, rb, ws, i) for i, (wb, rb) in enumerate(zip(parts, ws.parts(r)))])
    wr = np.multiply(w, r, out=ws.take(b))
    m1 = block_sum(wr)
    m2 = block_sum(np.multiply(wr, r, out=wr))
    ws.give(wr)
    return block_sum(w) if np.ndim(w) else w * r.size, m1, m2


def mask_moments(u: np.ndarray, r: np.ndarray, ws: Workspace, totals: Moments | None = None,
                 blocks: list[Moments] | None = None) -> tuple[Moments, Moments]:
    """The moments of ``r`` under u and under 1 - u, the latter as ``totals`` (weight 1) minus the former.

    ``blocks``, the :func:`region_moments` of u on each block of the plan of
    ``ws``, are combined without another pass over u; without them u's
    moments are taken by :func:`region_moments`, which sums and combines the
    same blocks in the same order.
    """
    totals = region_moments(1.0, r, ws) if totals is None else totals
    inside = region_moments(u, r, ws) if blocks is None else _combined(blocks)
    return inside, tuple(t - m for t, m in zip(totals, inside))


def _combined(blocks: list[Moments]) -> Moments:
    """Block moments combined component by component by :func:`~elastiseg.workspace.tree_sum`."""
    return tuple(tree_sum(list(m)) for m in zip(*blocks))


def region_sums(moments: tuple[Moments, Moments], c1: float, c2: float) -> tuple[float, float]:
    """The two region sums of :func:`region_terms` from :func:`mask_moments`, each |m2 - 2c*m1 + c^2*m0|."""
    return tuple(abs(m2 - 2.0 * c * m1 + c * c * m0) for c, (m0, m1, m2) in zip((c1, c2), moments))


def region_means(moments: tuple[Moments, Moments], lo: float, hi: float) -> tuple[float, float]:
    """Means m1/m0 in and out, clipped into r's range [lo, hi] against cancellation; DegenerateMaskError if m0 = 0."""
    for (m0, _, _), side in zip(moments, ("all-background mask: foreground", "all-foreground mask: background")):
        if m0 == 0.0:
            raise DegenerateMaskError(f"{side} mean undefined")
    return tuple(min(max(m1 / m0, lo), hi) for m0, m1, _ in moments)


class ElasticaForward(NamedTuple):
    """The elastica term's forward on one block, with its pullback."""

    mag: np.ndarray                 # Charbonnier-smoothed |grad u|
    weight: np.ndarray | float      # (alpha + beta*K^2) * measure, per voxel
    k: np.ndarray | None            # curvature, computed only when beta != 0
    total: float                    # the block's sum of its density, (alpha + beta*K^2)*|grad u| or |grad u|
    pullback: Callable[[], Cotangents]  # the cotangents of the block's first and second differences of u


def elastica_forward(a: np.ndarray, spacing: tuple[float, ...], params: EnergyParams, ws: Workspace, b: int,
                     keep: tuple[np.ndarray, np.ndarray | None] | None = None) -> ElasticaForward:
    """The forward pass of the elastica term (alpha + beta*K^2) * |grad u| on block ``b`` of the plan of ``ws``.

    A one-block plan's block is the whole field. The first differences of u,
    and with beta != 0 the second ones, are made here and K is computed from
    them by :func:`~elastiseg.curvature.curvature_forward`; with beta = 0 no
    curvature is computed and the weight is the scalar alpha*measure. The
    returned ``total`` is the block's sum of its energy density,
    (alpha + beta*K^2) * |grad u| or |grad u| with beta = 0, for
    :func:`elastica_energy`; with beta != 0 the density is written into the
    scratch array |grad u| was computed with, so the sum holds no array more.
    ``keep`` = (first, second) are full-size arrays into whose block views the
    first and (with beta != 0) second differences along axis 0 go: a gradient
    pass reads their cotangents there, across blocks. The other returned
    arrays are taken from ``ws`` and owned by the caller.

    The returned ``pullback``, which takes no argument, is the derivative of
    the block's term: K's cotangent 2*beta*measure*K*|grad u| goes through
    K's own pullback, and the cotangent of the first difference d_i is
    d_i*(weight/|grad u|), the quotient taken once per voxel, plus K's share.
    It writes each cotangent over its difference, gives every other array
    of the forward back to ``ws``, and returns the cotangents, which the
    caller owns.
    """
    measure = math.prod(spacing)
    derivs = _differences(d1, a, spacing, ws, b, ws.parts(keep[0])[b] if keep else None)
    tmp = ws.take(b)
    mag = grad_mag_raw(derivs, out=ws.take(b), tmp=tmp)
    k = k_pullback = None
    if params.beta == 0.0:
        weight, total = params.alpha * measure, block_sum(mag)
    else:
        seconds = _differences(d2, a, spacing, ws, b, ws.parts(keep[1])[b] if keep else None)
        k, k_pullback = curvature_forward(derivs, seconds, spacing, params.mode, ws, b)
        # weight = alpha + beta*k*k, evaluated as (beta*k)*k + alpha
        weight = np.multiply(k, params.beta, out=ws.take(b))
        weight *= k
        weight += params.alpha
        total = block_sum(np.multiply(weight, mag, out=tmp))
        weight *= measure
    ws.give(tmp)

    def pullback() -> Cotangents:
        cots = Cotangents({}, {})
        if k_pullback is not None:
            gk = np.multiply(k, 2.0 * params.beta * measure, out=ws.take(b))
            gk *= mag  # (2*beta*measure)*k*mag
            cots = k_pullback(gk)  # gives K back
            ws.give(gk)
        q = np.divide(weight, mag, out=mag)  # weight/mag, once per voxel, over the dead mag
        for ax, dax in enumerate(derivs):
            dax *= q  # dax*(weight/mag), written over dax
            if ax in cots.d1:
                dax += cots.d1[ax]
                ws.give(cots.d1[ax])
        ws.give(q, weight)  # with beta = 0 the weight is a number, which give ignores
        return Cotangents(dict(enumerate(derivs)), cots.d2)

    return ElasticaForward(mag, weight, k, total, pullback)


def elastica_energy(total: float, params: EnergyParams, measure: float) -> float:
    """The elastica term from ``total``, the block totals of :func:`elastica_forward` combined by ``tree_sum``.

    That is sum(weight*|grad u|) * measure, or alpha * (sum|grad u| * measure)
    with beta = 0. On a tree plan the combined total has the unblocked sum's
    bits, and the beta = 0 term is exactly alpha times :func:`diffops.tv_length`.
    """
    total *= measure
    return params.alpha * total if params.beta == 0.0 else total


def _elastica_only(a: np.ndarray, spacing: tuple[float, ...], params: EnergyParams, ws: Workspace) -> float:
    """The elastica term of ``a``, block by block; ``ws`` gets every array back."""
    sums = [0.0] * len(ws.blocks)
    for b in range(len(ws.blocks)):
        with ws.scope():  # the curvature pullback's arrays included
            sums[b] = elastica_forward(a, spacing, params, ws, b).total
    return elastica_energy(tree_sum(sums), params, math.prod(spacing))


def elastica_term(u: ScalarField, params: EnergyParams) -> float:
    """Pointwise sum of (alpha + beta*K^2) * |grad u| times the voxel measure."""
    check_soft_mask(u)
    check_ndim(u.ndim, params.mode)
    return _elastica_only(u.data, u.spacing, params, Workspace(u.shape))


def energy_density(u_data: np.ndarray, r_data: np.ndarray, spacing: tuple[float, ...],
                   params: EnergyParams) -> np.ndarray:
    """Per-voxel total energy density; its plain sum is the total energy.

    The elastica density carries the voxel measure, the region densities do
    not, mirroring the scalar assembly. Used by the finite-difference gradient
    oracle, which sums perturbed-minus-unperturbed density fields so that
    unaffected voxels cancel exactly.
    """
    ws = Workspace(u_data.shape)
    elastica = np.empty(u_data.shape)
    for b, part in enumerate(ws.parts(elastica)):
        with ws.scope():
            fwd = elastica_forward(u_data, spacing, params, ws, b)
            np.multiply(fwd.weight, fwd.mag, out=part)  # the weight carries the measure
    region = u_data * (params.c1 - r_data) ** 2 + (1.0 - u_data) * (params.c2 - r_data) ** 2
    return elastica + params.lam * region


def segmentation_energy(u: ScalarField, r: ScalarField, params: EnergyParams, ws: Workspace | None = None,
                        moments: tuple[Moments, Moments] | None = None) -> EnergyBreakdown:
    """Energy of mask u against r by component, the region sums from ``moments`` if given; ``ws`` gets all back."""
    check_same_shape(u, r)
    check_soft_mask(u)
    check_ndim(u.ndim, params.mode)
    ws = Workspace(u.shape) if ws is None else ws
    moments = mask_moments(u.data, r.data, ws) if moments is None else moments
    elastica = _elastica_only(u.data, u.spacing, params, ws)
    return EnergyBreakdown.assemble(elastica, *region_sums(moments, params.c1, params.c2), params.lam)


def estimate_region_means(u: ScalarField, f: ScalarField) -> tuple[float, float]:
    """Soft-weighted foreground/background means of f under mask u, clipped into f's range.

    Raises :class:`DegenerateMaskError` when sum u is 0 or rounds to the voxel
    count (all-background or all-foreground); callers keep their previous constants.
    """
    check_same_shape(u, f)
    check_soft_mask(u)
    return region_means(mask_moments(u.data, f.data, Workspace(u.shape)), float(f.data.min()), float(f.data.max()))
