"""Analytic gradient of the segmentation energy, with a finite-difference oracle.

The elastica gradient is one mode-independent pullback of
:func:`energy.elastica_forward`: the cotangent of |grad u| and of the
curvature (through the active mode's own pullback in :mod:`curvature`) land
on the first and second stencil outputs; ``d1_adj`` carries the first ones
back to u, and ``d2``, which is self-adjoint, the second ones. Every
adjoint can be validated by a dot-product test. The region part is linear in
the mask: its gradient lambda*((c1-r)^2 - (c2-r)^2) is the affine map
lambda*(c1-c2)*(c1+c2-2r) of r, which the fused :func:`energy_and_gradient_raw`
adds in three passes. The pass takes every intermediate from a
:class:`~elastiseg.workspace.Workspace` and writes cotangents over the
forward buffers that have died, so with a workspace reused across calls it
allocates no full-size array in any mode. The finite-difference oracle costs
2*3^d density calls at any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import Cotangents
from .diffops import d1_adj, d2
from .energy import EnergyBreakdown, EnergyParams, Moments, elastica_forward, energy_density, mask_moments, region_sums
from .field import ScalarField, check_same_shape, check_soft_mask
from .workspace import Workspace

FD_STEP = 1e-6  # step h of the finite-difference oracle
FD_STRIDE = 2 * 1 + 1  # a density reads u within Chebyshev distance 1: voxels 3 apart share no footprint


@dataclass(frozen=True)
class GradCheckReport:
    """Worst-case comparison of the analytic gradient against finite differences."""

    max_abs_error: float
    max_rel_error: float
    worst_voxel: tuple[int, ...]
    passed: bool


def _elastica_energy_and_gradient(a: np.ndarray, spacing: tuple[float, ...], params: EnergyParams,
                                  ws: Workspace) -> tuple[float, np.ndarray]:
    """Elastica energy and its gradient from one forward pass and its pullback.

    Every buffer of the pass is given back to ``ws`` except the returned gradient.
    """
    fwd = elastica_forward(a, spacing, params, ws)
    cots = Cotangents({}, {})
    gk = None
    if fwd.pullback is not None:
        gk = np.multiply(fwd.k, 2.0 * params.beta * fwd.measure, out=ws.take())
        gk *= fwd.mag  # (2*beta*measure)*k*mag
        cots = fwd.pullback(gk)  # gives K back

    def adjoints():
        for ax, dax in enumerate(fwd.derivs):
            # weight*dax/mag, written over dax
            dax *= fwd.weight
            dax /= fwd.mag
            if ax in cots.d1:
                dax += cots.d1[ax]
                ws.give(cots.d1[ax])
            adj = d1_adj(dax, ax, spacing[ax], out=ws.take(), ws=ws)
            ws.give(dax)
            yield adj
        for ax, c in cots.d2.items():
            yield d2(c, ax, spacing[ax], out=ws.take(), ws=ws)

    terms = adjoints()
    grad = next(terms)
    for adj in terms:
        grad += adj
        ws.give(adj)
    # a cotangent may be shared between stencils (lap3d), so they go back only now
    ws.give(fwd.mag, fwd.weight, gk, *cots.d2.values())
    return fwd.energy, grad


def energy_and_gradient_raw(a: np.ndarray, r: np.ndarray, spacing: tuple[float, ...], params: EnergyParams,
                            ws: Workspace | None = None,
                            moments: tuple[Moments, Moments] | None = None) -> tuple[EnergyBreakdown, np.ndarray]:
    """Energy breakdown and dE/du at ``a`` from a single forward pass.

    The region sums come from ``moments``, :func:`energy.mask_moments` of
    ``a`` (computed when not given), the elastica term from the magnitude and
    curvature the pullback already holds. Every intermediate is taken from
    ``ws`` and given back to it; the returned gradient is one of its arrays,
    which the caller gives back once it is done with it. Without ``ws`` a
    throwaway workspace is used and the gradient is a fresh array.
    """
    ws = Workspace(a.shape) if ws is None else ws
    moments = mask_moments(a, r, ws) if moments is None else moments
    elastica, g = _elastica_energy_and_gradient(a, spacing, params, ws)
    scale = params.lam * (params.c1 - params.c2)  # region part of dE/du: lam*(c1-c2)*(c1+c2-2r)
    region = np.multiply(r, -2.0 * scale, out=ws.take())
    region += scale * (params.c1 + params.c2)
    g += region
    ws.give(region)
    return EnergyBreakdown.assemble(elastica, *region_sums(moments, params.c1, params.c2), params.lam), g


def energy_gradient(u: ScalarField, r: ScalarField, params: EnergyParams) -> ScalarField:
    """dE/du at every voxel, by reverse accumulation through the operator chain."""
    check_same_shape(u, r)
    check_soft_mask(u)
    return u.with_data(energy_and_gradient_raw(u.data, r.data, u.spacing, params)[1])


def fd_gradient_raw(a: np.ndarray, r: np.ndarray, spacing: tuple[float, ...],
                    params: EnergyParams) -> np.ndarray:
    stride = FD_STRIDE
    reach = (stride - 1) // 2
    g = np.empty_like(a)
    for offset in np.ndindex((stride,) * a.ndim):
        members = tuple(slice(o, None, stride) for o in offset)
        plus, minus = a.copy(), a.copy()
        plus[members] += FD_STEP
        minus[members] -= FD_STEP
        diff = np.pad(energy_density(plus, r, spacing, params) - energy_density(minus, r, spacing, params), reach)
        # sum each member's block, one shift at a time; outside the blocks diff is exactly 0
        g[members] = sum(diff[tuple(slice(o + k, n + k, stride) for o, k, n in zip(offset, shift, a.shape))]
                         for shift in np.ndindex((2 * reach + 1,) * a.ndim)) / (2.0 * FD_STEP)
    return g


def fd_gradient(u: ScalarField, r: ScalarField, params: EnergyParams) -> ScalarField:
    """Central finite difference [E(u+h*e_p) - E(u-h*e_p)]/(2h) per voxel, h = :data:`FD_STEP`.

    Costs 2*3^d density calls (18 in 2D, 54 in 3D) at any size: each moves the voxels whose
    indices agree modulo :data:`FD_STRIDE` on every axis, whose footprints are disjoint, and sums
    the difference over each one's block (column grouping: Curtis, Powell and Reid, 1974).
    """
    check_same_shape(u, r)
    return u.with_data(fd_gradient_raw(u.data, r.data, u.spacing, params))


def gradcheck(shape: tuple[int, ...], trials: int, seed: int, params: EnergyParams,
              tol: float = 1e-5) -> GradCheckReport:
    """Compare analytic vs finite-difference gradients on seeded random pairs.

    Draws ``trials`` (u, r) pairs uniform on [0,1), reports the worst absolute
    and relative disagreement over all voxels, with the relative denominator
    max(|analytic|, |fd|, 1e-8).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0.0 < tol < math.inf:  # also rejects NaN: a gate at inf could not fail
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    rng = np.random.default_rng(seed)
    spacing = (1.0,) * len(shape)
    max_abs = 0.0
    max_rel = 0.0
    worst: tuple[int, ...] = (0,) * len(shape)
    for _ in range(trials):
        u = rng.random(shape)
        r = rng.random(shape)
        ga = energy_and_gradient_raw(u, r, spacing, params)[1]
        gf = fd_gradient_raw(u, r, spacing, params)
        abs_err = np.abs(ga - gf)
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gf)), 1e-8)
        rel = abs_err / denom
        trial_abs = float(abs_err.max())
        if _worse(trial_abs, max_abs):
            max_abs = trial_abs
        trial_rel = float(rel.max())
        if _worse(trial_rel, max_rel):
            max_rel = trial_rel
            worst = tuple(int(i) for i in np.unravel_index(int(rel.argmax()), shape))
    return GradCheckReport(max_abs, max_rel, worst, max_rel < tol)


def _worse(new: float, old: float) -> bool:
    """Whether error ``new`` is worse than ``old``; a NaN error is worse than any number."""
    return not math.isnan(old) and (math.isnan(new) or new > old)
