"""Analytic gradient of the segmentation energy, with a finite-difference oracle.

The elastica part's derivative is not written here: :mod:`energy` owns the
density and returns its pullback with each block's forward
(:func:`energy.elastica_forward`), which pulls K's cotangent back through
the active mode's own pullback in :mod:`curvature` and lands every cotangent
on the first and second stencil outputs. This module schedules the blocks
and applies the adjoint stencils: ``d1_adj`` carries the first ones back to
u, and ``d2``, which is self-adjoint, the second ones. Every adjoint can be
validated by a dot-product test. The region part is linear in the mask: its
gradient lambda*((c1-r)^2 - (c2-r)^2) is the affine map
lambda*(c1-c2)*(c1+c2-2r) of r, which the fused :func:`energy_and_gradient_raw`
adds in three ufunc calls per block. The pass takes every intermediate from a
:class:`~elastiseg.workspace.Workspace` and writes cotangents over the
forward buffers that have died, so with a workspace reused across calls it
allocates no array in any mode. It runs block by block over the workspace's
plan, in two stages a block apart, with no halo and nothing computed twice.
A block's cotangents are held from one stage to the next, K's not among
them: no curvature pullback returns its argument, so that array goes back as
soon as the pullback has read it. A caller can have each block of the
gradient handed to it as soon as the block is complete, while it is in cache:
the solver scales it there and sums its magnitudes. The finite-difference
oracle costs 2*3^d density calls at any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curvature import Cotangents
from .diffops import d1_adj, d2
from .energy import (
    EnergyBreakdown,
    EnergyParams,
    Moments,
    elastica_energy,
    elastica_forward,
    energy_density,
    mask_moments,
    region_sums,
)
from .field import ScalarField, check_same_shape, check_soft_mask
from .workspace import Workspace, tree_sum

# called with (b, block b of the gradient, a scratch array of its shape) once that block is complete
BlockHook = Callable[[int, np.ndarray, np.ndarray], None]

FD_STEP = 1e-6  # step h of the finite-difference oracle
GRADCHECK_TOL = 1e-5  # the max relative error below which gradcheck passes
FD_STRIDE = 2 * 1 + 1  # a density reads u within Chebyshev distance 1: voxels 3 apart share no footprint


@dataclass(frozen=True)
class GradCheckReport:
    """Worst-case comparison of the analytic gradient against finite differences."""

    max_abs_error: float
    max_rel_error: float
    worst_voxel: tuple[int, ...]
    passed: bool


def _adjoints(grad: np.ndarray, spacing: tuple[float, ...], ws: Workspace, keep: tuple, region: tuple,
              on_block: BlockHook | None, b: int, cots: Cotangents) -> None:
    """Block ``b`` of the gradient: the adjoint stencils of its cotangents ``cots``, then the region term.

    The cotangents along axis 0 are read from ``keep``, across blocks; every
    block array of block ``b`` is given back once ``on_block`` has seen the
    completed block.
    """
    planes = ws.blocks[b]
    g = d1_adj(keep[0], 0, spacing[0], out=ws.parts(grad)[b], ws=ws, planes=planes)
    adj = ws.take(b)
    for ax in range(1, len(cots.d1)):
        g += d1_adj(cots.d1[ax], ax, spacing[ax], out=adj, ws=ws)
    for ax, c in cots.d2.items():
        if ax == 0:
            g += d2(keep[1], 0, spacing[0], out=adj, ws=ws, planes=planes)
        else:
            g += d2(c, ax, spacing[ax], out=adj, ws=ws)
    r_parts, slope, offset = region
    np.multiply(r_parts[b], slope, out=adj)
    adj += offset
    g += adj
    if on_block is not None:
        on_block(b, g, adj)
    ws.give(adj, *cots.d1.values(), *cots.d2.values())


def energy_and_gradient_raw(a: np.ndarray, r: np.ndarray, spacing: tuple[float, ...], params: EnergyParams,
                            ws: Workspace | None = None, moments: tuple[Moments, Moments] | None = None,
                            on_block: BlockHook | None = None) -> tuple[EnergyBreakdown, np.ndarray]:
    """Energy breakdown and dE/du at ``a`` from a single forward pass and its pullback, block by block.

    The region sums come from ``moments``, :func:`energy.mask_moments` of
    ``a`` (computed when not given), the elastica term from the density sums
    the block forwards return, combined by
    :func:`~elastiseg.workspace.tree_sum`. Every intermediate is taken from
    ``ws`` and given back to it; the returned gradient is one of its arrays,
    which the caller gives back once it is done with it. Without ``ws`` a
    throwaway workspace is used and the gradient is a fresh array. ``on_block``
    is called with (b, block b of the gradient, a scratch array of that
    block's shape) as each block is complete, in plan order; whatever it
    writes into the gradient's block is what the caller gets back.

    Block b's first stage runs the forward, the pullback and the scaling of
    the cotangents of the first and second differences; its second stage
    applies their adjoint stencils and adds the region term's gradient,
    linear in ``r``. Along axis 0 a stencil reads the neighbouring blocks'
    planes, so the differences along axis 0, and the cotangents written over
    them, live in full-size arrays, and block b's second stage runs after
    block b+1's first. Every other stencil stays inside its block. The terms
    are summed in the order of the unblocked pass, so the gradient has its
    bits.
    """
    ws = Workspace(a.shape) if ws is None else ws
    moments = mask_moments(a, r, ws) if moments is None else moments
    keep = (ws.take(), ws.take() if params.beta != 0.0 else None)
    sums = [0.0] * len(ws.blocks)
    scale = params.lam * (params.c1 - params.c2)  # lam*(c1-c2)*(c1+c2-2r), as r*(-2*scale) + scale*(c1+c2)
    region = ws.parts(r), -2.0 * scale, scale * (params.c1 + params.c2)
    grad = held = None
    for b in range(len(ws.blocks)):
        fwd = elastica_forward(a, spacing, params, ws, b, keep)
        sums[b] = fwd.total
        stage = b, fwd.pullback()
        grad = ws.take() if grad is None else grad  # after block 0's scratch went back, for a one-block field
        if held is not None:
            _adjoints(grad, spacing, ws, keep, region, on_block, *held)
        held = stage
    _adjoints(grad, spacing, ws, keep, region, on_block, *held)
    ws.give(*keep)
    elastica = elastica_energy(tree_sum(sums), params, math.prod(spacing))
    return EnergyBreakdown.assemble(elastica, *region_sums(moments, params.c1, params.c2), params.lam), grad


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


def gradcheck(shape: tuple[int, ...], trials: int, seed: int, params: EnergyParams) -> GradCheckReport:
    """Compare analytic vs finite-difference gradients on seeded random pairs.

    Draws ``trials`` (u, r) pairs uniform on [0,1), reports the worst absolute
    and relative disagreement over all voxels, with the relative denominator
    max(|analytic|, |fd|, 1e-8), and passes when the worst relative one is
    below :data:`GRADCHECK_TOL`. Overflow and invalid operations are not
    warned of: an error they make NaN fails the report.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    spacing = (1.0,) * len(shape)
    max_abs = 0.0
    max_rel = 0.0
    worst: tuple[int, ...] = (0,) * len(shape)
    with np.errstate(over="ignore", invalid="ignore"):
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
    return GradCheckReport(max_abs, max_rel, worst, max_rel < GRADCHECK_TOL)


def _worse(new: float, old: float) -> bool:
    """Whether error ``new`` is worse than ``old``; a NaN error is worse than any number."""
    return not math.isnan(old) and (math.isnan(new) or new > old)
