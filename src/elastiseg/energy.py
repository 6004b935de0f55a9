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
length term carries the voxel measure. :func:`elastica_forward` is the one
forward pass of the length/curvature term: the scalar energy, the per-voxel
density of the finite-difference oracle and the analytic gradient all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .curvature import CurvatureMode, Pullback, curvature_forward
from .diffops import NumericConfig, d1, grad_mag_raw
from .field import FieldError, ScalarField, check_ndim, check_same_shape, check_soft_mask
from .workspace import Workspace


class DegenerateMaskError(FieldError):
    """Mask is entirely foreground or entirely background."""


@dataclass(frozen=True)
class EnergyParams:
    """Weights and constants of the segmentation energy.

    ``alpha`` weighs boundary length, ``beta`` squared curvature, ``lam`` the
    two region terms. ``c1``/``c2`` are the foreground/background reference
    constants (1 and 0 for evaluation against a binary mask). Useful operating
    ranges are alpha in [0.0001, 0.1] and beta in (0, 10]; beta = 0 drops the
    curvature factor and leaves a pure length-plus-region energy.
    """

    alpha: float = 0.001
    beta: float = 0.0
    lam: float = 1.0
    c1: float = 1.0
    c2: float = 0.0
    mode: CurvatureMode = CurvatureMode.MEAN_2D
    cfg: NumericConfig = NumericConfig()

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "lam", "c1", "c2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not self.lam > 0.0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")

    def with_constants(self, c1: float, c2: float) -> "EnergyParams":
        return replace(self, c1=c1, c2=c2)


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


def region_terms(u: ScalarField, r: ScalarField, c1: float, c2: float) -> tuple[float, float]:
    """Inside and outside region sums (|sum u (c1-r)^2|, |sum (1-u) (c2-r)^2|).

    Both summands are pointwise nonnegative for u in [0,1], so the absolute
    values never change the result; they are kept to match the printed form.
    """
    check_same_shape(u, r)
    check_soft_mask(u)
    ws = Workspace(u.shape)
    return region_sums_raw(u.data, *region_costs_raw(r.data, c1, c2, ws), ws)


def region_costs_raw(r: np.ndarray, c1: float, c2: float, ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Per-voxel region costs (c1-r)^2 and (c2-r)^2, in two arrays taken from ``ws``."""
    costs = np.subtract(c1, r, out=ws.take()), np.subtract(c2, r, out=ws.take())
    for c in costs:
        c *= c
    return costs


def region_sums_raw(a: np.ndarray, cost_in: np.ndarray, cost_out: np.ndarray,
                    ws: Workspace) -> tuple[float, float]:
    """The two region sums of :func:`region_terms`, from the costs of :func:`region_costs_raw`."""
    tmp = ws.take()
    region_in = abs(float(np.sum(np.multiply(a, cost_in, out=tmp))))
    outside = np.subtract(1.0, a, out=tmp)
    outside *= cost_out
    region_out = abs(float(np.sum(outside)))
    ws.give(tmp)
    return region_in, region_out


class ElasticaForward(NamedTuple):
    """Forward intermediates of the elastica term, as its gradient reads them."""

    derivs: list[np.ndarray]        # first differences along each axis
    mag: np.ndarray                 # Charbonnier-smoothed |grad u|
    weight: np.ndarray | float      # (alpha + beta*K^2) * measure, per voxel
    measure: float
    energy: float
    k: np.ndarray | None            # curvature, computed only when beta != 0
    pullback: Pullback | None       # pullback of k


def elastica_forward(a: np.ndarray, spacing: tuple[float, ...], params: EnergyParams,
                     ws: Workspace | None = None) -> ElasticaForward:
    """One forward pass of the elastica term sum((alpha + beta*K^2) * |grad u|) * measure.

    With beta = 0 no curvature is computed, the weight is the scalar
    alpha*measure and the energy is alpha * (sum|grad u| * measure), exactly
    alpha times :func:`diffops.tv_length`. The returned arrays are taken from
    ``ws`` (a throwaway workspace when none is given) and owned by the caller.
    """
    ws = Workspace(a.shape) if ws is None else ws
    measure = math.prod(spacing)
    derivs = [d1(a, ax, spacing[ax], out=ws.take()) for ax in range(a.ndim)]
    tmp = ws.take()
    mag = grad_mag_raw(derivs, params.cfg.eps, out=ws.take(), tmp=tmp)
    ws.give(tmp)
    if params.beta == 0.0:
        energy = params.alpha * (float(np.sum(mag)) * measure)
        return ElasticaForward(derivs, mag, params.alpha * measure, measure, energy, None, None)
    k, pullback = curvature_forward(a, spacing, params.mode, derivs, ws)
    # weight = alpha + beta*k*k, evaluated as (beta*k)*k + alpha
    weight = np.multiply(k, params.beta, out=ws.take())
    weight *= k
    weight += params.alpha
    tmp = ws.take()
    energy = float(np.sum(np.multiply(weight, mag, out=tmp))) * measure
    ws.give(tmp)
    weight *= measure
    return ElasticaForward(derivs, mag, weight, measure, energy, k, pullback)


def elastica_term(u: ScalarField, params: EnergyParams) -> float:
    """Pointwise sum of (alpha + beta*K^2) * |grad u| times the voxel measure."""
    check_soft_mask(u)
    check_ndim(u.ndim, params.mode)
    return elastica_forward(u.data, u.spacing, params).energy


def energy_density(u_data: np.ndarray, r_data: np.ndarray, spacing: tuple[float, ...],
                   params: EnergyParams) -> np.ndarray:
    """Per-voxel total energy density; its plain sum is the total energy.

    The elastica density carries the voxel measure, the region densities do
    not, mirroring the scalar assembly. Used by the finite-difference gradient
    oracle, which sums perturbed-minus-unperturbed density fields so that
    unaffected voxels cancel exactly.
    """
    fwd = elastica_forward(u_data, spacing, params)
    reg = params.lam * (u_data * (params.c1 - r_data) ** 2 + (1.0 - u_data) * (params.c2 - r_data) ** 2)
    return fwd.weight * fwd.mag + reg


def segmentation_energy(u: ScalarField, r: ScalarField, params: EnergyParams) -> EnergyBreakdown:
    """Full energy of mask u against reference r, split into its components."""
    check_same_shape(u, r)
    region_in, region_out = region_terms(u, r, params.c1, params.c2)
    elastica = elastica_term(u, params)
    return EnergyBreakdown.assemble(elastica, region_in, region_out, params.lam)


def estimate_region_means(u: ScalarField, f: ScalarField) -> tuple[float, float]:
    """Soft-weighted foreground/background means of f under mask u.

    Raises :class:`DegenerateMaskError` when the mask is all-foreground or
    all-background; callers fall back to their previous constants.
    """
    check_same_shape(u, f)
    check_soft_mask(u)
    return region_means_raw(u.data, f.data)


def region_means_raw(u: np.ndarray, f: np.ndarray, ws: Workspace | None = None) -> tuple[float, float]:
    """:func:`estimate_region_means` on arrays already known to be a same-shape mask and image."""
    ws = Workspace(u.shape) if ws is None else ws
    tmp = ws.take()
    try:
        w_in = float(np.sum(u))
        outside = np.subtract(1.0, u, out=tmp)
        w_out = float(np.sum(outside))
        if w_in == 0.0:
            raise DegenerateMaskError("all-background mask: foreground mean undefined")
        if w_out == 0.0:
            raise DegenerateMaskError("all-foreground mask: background mean undefined")
        outside *= f
        c2 = float(np.sum(outside)) / w_out
        c1 = float(np.sum(np.multiply(u, f, out=tmp))) / w_in
    finally:
        ws.give(tmp)
    return c1, c2
