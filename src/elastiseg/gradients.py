"""Analytic gradient of the segmentation energy, with a finite-difference oracle.

The gradient is assembled by hand-written reverse accumulation through the
operator chain (first/second/mixed differences, Charbonnier magnitude, the
curvature formula of the active mode, pointwise products). Each stencil's
adjoint is applied explicitly, including the replicate-boundary corrections,
so every step can be validated by a dot-product test. The region part is
linear in the mask: its gradient is lambda*((c1-r)^2 - (c2-r)^2), independent
of u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureMode
from .diffops import d1, d1_adj, d2, d2_adj, dmixed, dmixed_adj
from .energy import EnergyBreakdown, EnergyParams, energy_density
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


def _weighted_length(k: np.ndarray, mag: np.ndarray, alpha: float, beta: float,
                     measure: float) -> tuple[float, np.ndarray]:
    """Elastica energy sum((alpha + beta*K^2) * |grad u|) * measure, and its |grad u| weight."""
    g_mag = alpha + beta * k * k
    energy = float(np.sum(g_mag * mag)) * measure
    g_mag *= measure
    return energy, g_mag


def _elastica_energy_and_gradient(a: np.ndarray, spacing: tuple[float, ...],
                                  params: EnergyParams) -> tuple[float, np.ndarray]:
    """Elastica energy and its gradient from one forward pass and its pullback."""
    nd = a.ndim
    eps = params.cfg.eps
    alpha, beta = params.alpha, params.beta
    measure = 1.0
    for s in spacing:
        measure *= s

    derivs = [d1(a, ax, spacing[ax]) for ax in range(nd)]
    mag2 = np.full_like(a, eps * eps)
    for dax in derivs:
        mag2 += dax * dax
    mag = np.sqrt(mag2)

    cot1 = [None] * nd
    cot2 = [None] * nd
    cotm: dict[tuple[int, int], np.ndarray] = {}

    if beta == 0.0:
        energy = alpha * (float(np.sum(mag)) * measure)
        g_mag = np.full_like(a, alpha * measure)
    elif params.mode is CurvatureMode.MEAN_2D:
        hx, hy = spacing
        ux, uy = derivs
        uxx = d2(a, 0, hx)
        uyy = d2(a, 1, hy)
        uxy = dmixed(a, 0, 1, hx, hy)
        w = 1.0 + ux * ux + uy * uy
        sqrtw = np.sqrt(w)
        den = 2.0 * w * sqrtw
        num = (1.0 + ux * ux) * uyy + (1.0 + uy * uy) * uxx - 2.0 * ux * uy * uxy
        k = num / den
        energy, g_mag = _weighted_length(k, mag, alpha, beta, measure)
        gk = (2.0 * beta * measure) * k * mag
        gnum = gk / den
        gden = -gk * k / den
        cot1[0] = gnum * (2.0 * ux * uyy - 2.0 * uy * uxy) + gden * (6.0 * ux * sqrtw)
        cot1[1] = gnum * (2.0 * uy * uxx - 2.0 * ux * uxy) + gden * (6.0 * uy * sqrtw)
        cot2[0] = gnum * (1.0 + uy * uy)
        cot2[1] = gnum * (1.0 + ux * ux)
        cotm[(0, 1)] = gnum * (-2.0 * ux * uy)
    elif params.mode is CurvatureMode.MEAN_3D:
        hx, hy, hz = spacing
        ux, uy, uz = derivs
        uxx = d2(a, 0, hx)
        uyy = d2(a, 1, hy)
        uzz = d2(a, 2, hz)
        uxy = dmixed(a, 0, 1, hx, hy)
        uxz = dmixed(a, 0, 2, hx, hz)
        uyz = dmixed(a, 1, 2, hy, hz)
        ux2, uy2, uz2 = ux * ux, uy * uy, uz * uz
        s = np.sqrt(1.0 + ux2 + uy2 + uz2)
        chi = (
            uxx * (1.0 + uy2 + uz2)
            + uyy * (1.0 + ux2 + uz2)
            + uzz * (1.0 + ux2 + uy2)
            - 2.0 * (ux * uy * uxy + ux * uz * uxz + uy * uz * uyz)
        )
        k = chi / s
        energy, g_mag = _weighted_length(k, mag, alpha, beta, measure)
        gk = (2.0 * beta * measure) * k * mag
        gchi = gk / s
        gs = -gk * k / s
        cot1[0] = gchi * (2.0 * ux * (uyy + uzz) - 2.0 * (uy * uxy + uz * uxz)) + gs * (ux / s)
        cot1[1] = gchi * (2.0 * uy * (uxx + uzz) - 2.0 * (ux * uxy + uz * uyz)) + gs * (uy / s)
        cot1[2] = gchi * (2.0 * uz * (uxx + uyy) - 2.0 * (ux * uxz + uy * uyz)) + gs * (uz / s)
        cot2[0] = gchi * (1.0 + uy2 + uz2)
        cot2[1] = gchi * (1.0 + ux2 + uz2)
        cot2[2] = gchi * (1.0 + ux2 + uy2)
        cotm[(0, 1)] = -2.0 * gchi * ux * uy
        cotm[(0, 2)] = -2.0 * gchi * ux * uz
        cotm[(1, 2)] = -2.0 * gchi * uy * uz
    elif params.mode is CurvatureMode.FAST_3D:
        seconds = [d2(a, ax, spacing[ax]) for ax in range(3)]
        k = seconds[0] ** 2 + seconds[1] ** 2 + seconds[2] ** 2
        energy, g_mag = _weighted_length(k, mag, alpha, beta, measure)
        gk = (2.0 * beta * measure) * k * mag
        for ax in range(3):
            cot2[ax] = 2.0 * gk * seconds[ax]
    elif params.mode is CurvatureMode.LAPLACIAN_3D:
        seconds = [d2(a, ax, spacing[ax]) for ax in range(3)]
        k = seconds[0] + seconds[1] + seconds[2]
        energy, g_mag = _weighted_length(k, mag, alpha, beta, measure)
        gk = (2.0 * beta * measure) * k * mag
        for ax in range(3):
            cot2[ax] = gk
    else:
        raise ValueError(f"unhandled curvature mode {params.mode}")

    out = np.zeros_like(a)
    for ax in range(nd):
        c = g_mag * derivs[ax] / mag
        if cot1[ax] is not None:
            c = c + cot1[ax]
        out += d1_adj(c, ax, spacing[ax])
    for ax in range(nd):
        if cot2[ax] is not None:
            out += d2_adj(cot2[ax], ax, spacing[ax])
    for (i, j), cm in cotm.items():
        out += dmixed_adj(cm, i, j, spacing[i], spacing[j])
    return energy, out


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
