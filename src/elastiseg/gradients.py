"""Analytic gradient of the segmentation energy, with a finite-difference oracle.

The elastica gradient is one mode-independent pullback of
:func:`energy.elastica_forward`: the cotangent of |grad u| and of the
curvature (through the active mode's own pullback in :mod:`curvature`) land
on the first/second/mixed stencil outputs, and each stencil's adjoint,
including its replicate-boundary corrections, carries them back to u. Every
adjoint can be validated by a dot-product test. The region part is linear in
the mask: its gradient is lambda*((c1-r)^2 - (c2-r)^2), independent of u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import Cotangents
from .diffops import d1_adj, d2_adj, dmixed_adj
from .energy import EnergyBreakdown, EnergyParams, elastica_forward, energy_density
from .field import ScalarField, check_same_shape, check_soft_mask


@dataclass(frozen=True)
class GradCheckReport:
    """Worst-case comparison of the analytic gradient against finite differences."""

    max_abs_error: float
    max_rel_error: float
    worst_voxel: tuple[int, ...]
    passed: bool


def region_gradient_raw(r: np.ndarray, lam: float, c1: float, c2: float) -> np.ndarray:
    return lam * ((c1 - r) ** 2 - (c2 - r) ** 2)


def _elastica_energy_and_gradient(a: np.ndarray, spacing: tuple[float, ...],
                                  params: EnergyParams) -> tuple[float, np.ndarray]:
    """Elastica energy and its gradient from one forward pass and its pullback."""
    fwd = elastica_forward(a, spacing, params)
    cots = Cotangents({}, {}, {})
    if fwd.pullback is not None:
        cots = fwd.pullback((2.0 * params.beta * fwd.measure) * fwd.k * fwd.mag)

    out = np.zeros_like(a)
    for ax, dax in enumerate(fwd.derivs):
        c = fwd.weight * dax / fwd.mag
        if ax in cots.d1:
            c += cots.d1[ax]
        out += d1_adj(c, ax, spacing[ax])
    for ax, c in cots.d2.items():
        out += d2_adj(c, ax, spacing[ax])
    for (i, j), c in cots.dmixed.items():
        out += dmixed_adj(c, i, j, spacing[i], spacing[j])
    return fwd.energy, out


def elastica_gradient_raw(a: np.ndarray, spacing: tuple[float, ...], params: EnergyParams) -> np.ndarray:
    return _elastica_energy_and_gradient(a, spacing, params)[1]


def energy_and_gradient_raw(a: np.ndarray, r: np.ndarray, spacing: tuple[float, ...],
                            params: EnergyParams) -> tuple[EnergyBreakdown, np.ndarray]:
    """Energy breakdown and dE/du at ``a`` from a single forward pass.

    The region sums are the expressions of :func:`energy.region_terms`; the
    elastica term is summed from the magnitude and curvature the pullback
    already holds, so no separate energy evaluation is needed.
    """
    c1, c2, lam = params.c1, params.c2, params.lam
    w_in = (c1 - r) ** 2
    w_out = (c2 - r) ** 2
    region_in = abs(float(np.sum(a * w_in)))
    region_out = abs(float(np.sum((1.0 - a) * w_out)))
    g = lam * (w_in - w_out)
    del w_in, w_out
    elastica, g_el = _elastica_energy_and_gradient(a, spacing, params)
    g = g + g_el
    return EnergyBreakdown.assemble(elastica, region_in, region_out, lam), g


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
        max_abs = max(max_abs, float(abs_err.max()))
        trial_rel = float(rel.max())
        if trial_rel > max_rel:
            max_rel = trial_rel
            worst = tuple(int(i) for i in np.unravel_index(int(rel.argmax()), shape))
    return GradCheckReport(max_abs, max_rel, worst, max_rel < tol)
