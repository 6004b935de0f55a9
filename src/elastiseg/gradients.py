"""Analytic gradient of the segmentation energy, with a finite-difference oracle.

The elastica gradient is one mode-independent pullback of
:func:`energy.elastica_forward`: the cotangent of |grad u| and of the
curvature (through the active mode's own pullback in :mod:`curvature`) land
on the first and second stencil outputs, and each stencil's adjoint,
including its replicate-boundary corrections, carries them back to u. Every
adjoint can be validated by a dot-product test. The region part is linear in
the mask: its gradient is lambda*((c1-r)^2 - (c2-r)^2), independent of u.
The pass takes every intermediate from a :class:`~elastiseg.workspace.Workspace`
and writes cotangents over the forward buffers that have died, so with a
workspace reused across calls it allocates no full-size array outside the
mean curvature modes' pointwise formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import Cotangents
from .diffops import d1_adj, d2_adj
from .energy import EnergyBreakdown, EnergyParams, elastica_forward, energy_density, region_costs_raw, region_sums_raw
from .field import ScalarField, check_same_shape, check_soft_mask
from .workspace import Workspace


@dataclass(frozen=True)
class GradCheckReport:
    """Worst-case comparison of the analytic gradient against finite differences."""

    max_abs_error: float
    max_rel_error: float
    worst_voxel: tuple[int, ...]
    passed: bool


def region_gradient_raw(r: np.ndarray, lam: float, c1: float, c2: float,
                        costs: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Region part of dE/du, lam*((c1-r)^2 - (c2-r)^2); independent of the mask.

    ``costs`` are the two region costs of :func:`energy.region_costs_raw` when
    the caller already holds them; the result is then written over the first.
    """
    cost_in, cost_out = region_costs_raw(r, c1, c2, Workspace(r.shape)) if costs is None else costs
    cost_in -= cost_out
    cost_in *= lam
    return cost_in


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
        cots = fwd.pullback(gk)
        ws.give(fwd.k)  # no mode reads K once its pullback has returned

    def adjoints():
        for ax, dax in enumerate(fwd.derivs):
            # weight*dax/mag, written over dax
            dax *= fwd.weight
            dax /= fwd.mag
            if ax in cots.d1:
                dax += cots.d1[ax]
            adj = d1_adj(dax, ax, spacing[ax], out=ws.take())
            ws.give(dax)
            yield adj
        for ax, c in cots.d2.items():
            yield d2_adj(c, ax, spacing[ax], out=ws.take())

    terms = adjoints()
    grad = next(terms)
    for adj in terms:
        grad += adj
        ws.give(adj)
    # a cotangent may be shared between stencils (lap3d), so they go back only now
    ws.give(fwd.mag, fwd.weight, gk, *cots.d2.values())
    return fwd.energy, grad


def elastica_gradient_raw(a: np.ndarray, spacing: tuple[float, ...], params: EnergyParams) -> np.ndarray:
    return _elastica_energy_and_gradient(a, spacing, params, Workspace(a.shape))[1]


def energy_and_gradient_raw(a: np.ndarray, r: np.ndarray, spacing: tuple[float, ...],
                            params: EnergyParams, ws: Workspace | None = None) -> tuple[EnergyBreakdown, np.ndarray]:
    """Energy breakdown and dE/du at ``a`` from a single forward pass.

    The region sums are those of :func:`energy.region_terms`; the elastica
    term is summed from the magnitude and curvature the pullback already
    holds, so no separate energy evaluation is needed. Every intermediate is
    taken from ``ws`` and given back to it; the returned gradient is one of
    its arrays, which the caller gives back once it is done with it. Without
    ``ws`` a throwaway workspace is used and the gradient is a fresh array.
    """
    ws = Workspace(a.shape) if ws is None else ws
    elastica, g = _elastica_energy_and_gradient(a, spacing, params, ws)
    costs = region_costs_raw(r, params.c1, params.c2, ws)
    region_in, region_out = region_sums_raw(a, *costs, ws)
    g += region_gradient_raw(r, params.lam, params.c1, params.c2, costs)
    ws.give(*costs)
    return EnergyBreakdown.assemble(elastica, region_in, region_out, params.lam), g


def energy_gradient_raw(a: np.ndarray, r: np.ndarray, spacing: tuple[float, ...],
                        params: EnergyParams) -> np.ndarray:
    return energy_and_gradient_raw(a, r, spacing, params)[1]


def energy_gradient(u: ScalarField, r: ScalarField, params: EnergyParams) -> ScalarField:
    """dE/du at every voxel, by reverse accumulation through the operator chain."""
    check_same_shape(u, r)
    check_soft_mask(u)
    return u.with_data(energy_gradient_raw(u.data, r.data, u.spacing, params))


def fd_gradient_raw(a: np.ndarray, r: np.ndarray, spacing: tuple[float, ...],
                    params: EnergyParams, h: float = 1e-6) -> np.ndarray:
    if not h > 0.0:
        raise ValueError(f"fd step must be > 0, got {h}")
    g = np.empty_like(a)
    work = a.copy()
    for idx in np.ndindex(a.shape):
        orig = work[idx]
        work[idx] = orig + h
        dens_plus = energy_density(work, r, spacing, params)
        work[idx] = orig - h
        dens_minus = energy_density(work, r, spacing, params)
        work[idx] = orig
        # Densities of voxels outside the perturbed stencil footprint are
        # bitwise identical, so the difference field is exactly zero there and
        # the central difference is free of global-sum cancellation.
        g[idx] = np.sum(dens_plus - dens_minus) / (2.0 * h)
    return g


def fd_gradient(u: ScalarField, r: ScalarField, params: EnergyParams, h: float = 1e-6) -> ScalarField:
    """Central finite difference [E(u+h*e_p) - E(u-h*e_p)]/(2h) per voxel.

    Evaluates the same Charbonnier-smoothed energy as the analytic path. Costs
    two full density evaluations per voxel, so keep fields small (<= 16^2 or
    8^3 in practice).
    """
    check_same_shape(u, r)
    return u.with_data(fd_gradient_raw(u.data, r.data, u.spacing, params, h))


def gradcheck(shape: tuple[int, ...], trials: int, seed: int, params: EnergyParams,
              tol: float = 1e-5, h: float = 1e-6) -> GradCheckReport:
    """Compare analytic vs finite-difference gradients on seeded random pairs.

    Draws ``trials`` (u, r) pairs uniform on [0,1), reports the worst absolute
    and relative disagreement over all voxels, with the relative denominator
    max(|analytic|, |fd|, 1e-8).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    spacing = (1.0,) * len(shape)
    max_abs = 0.0
    max_rel = 0.0
    worst: tuple[int, ...] = (0,) * len(shape)
    for _ in range(trials):
        u = rng.random(shape)
        r = rng.random(shape)
        ga = energy_gradient_raw(u, r, spacing, params)
        gf = fd_gradient_raw(u, r, spacing, params, h)
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
