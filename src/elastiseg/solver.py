"""Segmentation by direct minimization of the energy over a soft mask.

The mask itself is the optimization variable: projected (clipped) or logistic
gradient descent, with the gradient normalized by its mean absolute value so
the step size is independent of grid shape. With region_mode "cv-means" the
foreground/background constants are re-estimated from the current mask after
every update (alternating minimization); the first step uses the constants
from the parameter set, which also breaks the symmetry of a uniform init
(a uniform mask would otherwise yield equal means and zero region force).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (
    DegenerateMaskError,
    EnergyBreakdown,
    EnergyParams,
    check_mode,
    region_means_raw,
    segmentation_energy,
)
from .field import FieldError, ScalarField, check_same_shape, check_soft_mask
from .gradients import energy_and_gradient_raw

OPTIMIZERS = ("gd", "momentum")
PARAMETERIZATIONS = ("clipped", "logistic")
REGION_MODES = ("fixed", "cv-means")


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 500
    step_size: float = 0.1
    optimizer: str = "gd"
    momentum: float = 0.9
    parameterization: str = "clipped"
    region_mode: str = "fixed"
    stop_tol: float = 1e-7
    stop_window: int = 10

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not self.step_size > 0.0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.parameterization not in PARAMETERIZATIONS:
            raise ValueError(f"parameterization must be one of {PARAMETERIZATIONS}, got {self.parameterization!r}")
        if self.region_mode not in REGION_MODES:
            raise ValueError(f"region_mode must be one of {REGION_MODES}, got {self.region_mode!r}")
        if self.stop_window < 1:
            raise ValueError(f"stop_window must be >= 1, got {self.stop_window}")


@dataclass(frozen=True)
class SolverTrace:
    breakdowns: list[EnergyBreakdown]
    iterations_run: int
    converged: bool


class NonFiniteEnergyError(RuntimeError):
    """Energy became NaN/Inf; carries the iteration index and the partial trace."""

    def __init__(self, iteration: int, trace: SolverTrace):
        super().__init__(f"non-finite energy at iteration {iteration}")
        self.iteration = iteration
        self.trace = trace


_LOGIT_CLIP = 1e-6


def _logit(u: np.ndarray) -> np.ndarray:
    p = np.clip(u, _LOGIT_CLIP, 1.0 - _LOGIT_CLIP)
    return np.log(p / (1.0 - p))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def segment(image: ScalarField, init: ScalarField, params: EnergyParams,
            cfg: SolverConfig = SolverConfig()) -> tuple[ScalarField, SolverTrace]:
    """Minimize the energy of a soft mask against ``image``.

    Returns the optimized mask and the per-iteration energy trace; entry i is
    the energy after update i. That is the point where iteration i+1 takes its
    gradient, so the fused energy+gradient pass supplies it, and only a run
    that reaches ``max_iters`` evaluates the energy once more. The run is
    deterministic: identical inputs produce bit-identical outputs. Stops early
    once the energy change over ``stop_window`` iterations is below
    ``stop_tol`` in relative magnitude. The image is expected to be normalized
    to [0,1] by the caller. Raises :class:`NonFiniteEnergyError` if the state
    or energy leaves the finite range (the partial trace rides on the
    exception).
    """
    check_same_shape(image, init)
    check_soft_mask(init, "init")
    check_mode(image, params)

    u = init.data.copy()
    z = _logit(u) if cfg.parameterization == "logistic" else None
    velocity = None
    c1, c2 = params.c1, params.c2
    breakdowns: list[EnergyBreakdown] = []
    converged = False

    for it in range(cfg.max_iters):
        step_params = params.with_constants(c1, c2)
        with np.errstate(over="ignore", invalid="ignore"):
            bd, g = energy_and_gradient_raw(u, image.data, image.spacing, step_params)
            # the pass at (u_it, c_it) also yields the energy after update it-1
            if it > 0 and _record(breakdowns, bd, it - 1, cfg):
                converged = True
                break

            if cfg.parameterization == "logistic":
                g = g * u * (1.0 - u)
            scale = float(np.mean(np.abs(g)))
            g = g / max(scale, 1e-30)

            if cfg.optimizer == "momentum":
                if velocity is None:
                    velocity = np.zeros_like(g)
                velocity = cfg.momentum * velocity - cfg.step_size * g
                delta = velocity
            else:
                delta = -cfg.step_size * g

            if cfg.parameterization == "logistic":
                z = z + delta
                u = _sigmoid(z)
            else:
                u = np.clip(u + delta, 0.0, 1.0)

        if not np.all(np.isfinite(u)):
            raise NonFiniteEnergyError(it, SolverTrace(breakdowns, len(breakdowns), False))
        lo, hi = float(u.min()), float(u.max())
        if lo < 0.0 or hi > 1.0:
            raise FieldError(f"mask values must lie in [0,1], got range [{lo}, {hi}]")

        if cfg.region_mode == "cv-means":
            try:
                c1, c2 = region_means_raw(u, image.data)
            except DegenerateMaskError:
                pass  # keep the previous constants

    if cfg.max_iters > 0 and not converged:
        # no further gradient pass supplies the energy after the last update
        with np.errstate(over="ignore", invalid="ignore"):
            bd = segmentation_energy(image.with_data(u), image, params.with_constants(c1, c2))
        converged = _record(breakdowns, bd, cfg.max_iters - 1, cfg)

    return image.with_data(u), SolverTrace(breakdowns, len(breakdowns), converged)


def _record(breakdowns: list[EnergyBreakdown], bd: EnergyBreakdown, it: int, cfg: SolverConfig) -> bool:
    """Append the energy after update ``it``; True once the stop rule fires."""
    if not np.isfinite(bd.total):
        raise NonFiniteEnergyError(it, SolverTrace(breakdowns, len(breakdowns), False))
    breakdowns.append(bd)
    if len(breakdowns) > cfg.stop_window:
        e_then = breakdowns[-1 - cfg.stop_window].total
        e_now = breakdowns[-1].total
        # magnitude of the relative change: a transient energy increase
        # (cv-means constants still settling) must not read as converged
        return abs(e_then - e_now) < cfg.stop_tol * max(abs(e_then), 1e-30)
    return False


def threshold(mask: ScalarField, t: float = 0.5) -> ScalarField:
    """Binarize a soft mask: 1.0 where value >= t (ties count as foreground)."""
    if not 0.0 < t < 1.0:
        raise FieldError(f"threshold must lie in (0,1), got {t}")
    return mask.with_data((mask.data >= t).astype(np.float64))
