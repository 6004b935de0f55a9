"""Segmentation by direct minimization of the energy over a soft mask.

The mask itself is the optimization variable: projected (clipped) or logistic
gradient descent, with the gradient normalized by its mean absolute value so
the step size is independent of grid shape. With region_mode "cv-means" the
foreground/background constants are re-estimated from the current mask after
every update (alternating minimization); the first step uses the constants
from the parameter set, which also breaks the symmetry of a uniform init
(a uniform mask would otherwise yield equal means and zero region force).

One workspace (:mod:`elastiseg.workspace`) serves every iteration's fused
energy+gradient pass, and the normalisation, momentum and projection of each
update are done in place, in the same operation order as the expressions
they stand for, so results are bit for bit those of fresh arrays. After the
first iteration a solve allocates no full-size array except the mean modes'
pointwise curvature temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    DegenerateMaskError,
    EnergyBreakdown,
    EnergyParams,
    region_means_raw,
    segmentation_energy,
)
from .field import FieldError, ScalarField, check_ndim, check_same_shape, check_soft_mask
from .gradients import energy_and_gradient_raw
from .workspace import Workspace

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


def _sigmoid(z: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Logistic function into ``out``: 1/(1+exp(-z)) where z >= 0, exp(z)/(1+exp(z)) elsewhere."""
    e = np.abs(z, out=tmp)
    np.negative(e, out=e)
    np.exp(e, out=e)  # exp(-|z|): exp(-z) where z >= 0, exp(z) elsewhere
    pos = z >= 0
    np.add(e, 1.0, out=out)
    np.divide(1.0, out, out=out, where=pos)
    np.divide(e, out, out=out, where=~pos)
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

    Memory: besides the mask (and the velocity with momentum, the logit with
    the logistic parameterization) a solve holds one
    :class:`~elastiseg.workspace.Workspace` of N full-size arrays for all of
    its iterations: the fused pass, the update and the region means are
    computed in it, in place. With beta = 0, N = ndim + 2 in every mode; with
    beta > 0, N = 10 in fast3d, 7 in lap3d, 8 in mean2d and 12 in mean3d.
    The mean modes' curvature formulas still allocate their pointwise
    temporaries on every pass. The workspace is released before the exit
    energy of a run that reaches ``max_iters``, so the two do not stack.
    """
    check_same_shape(image, init)
    check_soft_mask(init, "init")
    check_ndim(image.ndim, params.mode)

    u = init.data.copy()
    z = _logit(u) if cfg.parameterization == "logistic" else None
    velocity = np.zeros_like(u) if cfg.optimizer == "momentum" else None
    ws = Workspace(u.shape)
    c1, c2 = params.c1, params.c2
    breakdowns: list[EnergyBreakdown] = []
    converged = False

    for it in range(cfg.max_iters):
        step_params = params.with_constants(c1, c2)
        with np.errstate(over="ignore", invalid="ignore"):
            bd, g = energy_and_gradient_raw(u, image.data, image.spacing, step_params, ws)
            # the pass at (u_it, c_it) also yields the energy after update it-1
            if it > 0 and _record(breakdowns, bd, it - 1, cfg):
                converged = True
                break
            _step(u, z, velocity, g, ws, cfg)
            ws.give(g)

        lo, hi = float(u.min()), float(u.max())  # NaN propagates into both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise NonFiniteEnergyError(it, SolverTrace(breakdowns, len(breakdowns), False))
        if lo < 0.0 or hi > 1.0:
            raise FieldError(f"mask values must lie in [0,1], got range [{lo}, {hi}]")

        if cfg.region_mode == "cv-means":
            try:
                c1, c2 = region_means_raw(u, image.data, ws)
            except DegenerateMaskError:
                pass  # keep the previous constants

    if cfg.max_iters > 0 and not converged:
        # no further gradient pass supplies the energy after the last update;
        # the workspace is released first so that the two do not stack
        del ws, g, velocity
        with np.errstate(over="ignore", invalid="ignore"):
            bd = segmentation_energy(image.with_data(u), image, params.with_constants(c1, c2))
        converged = _record(breakdowns, bd, cfg.max_iters - 1, cfg)

    return image.with_data(u), SolverTrace(breakdowns, len(breakdowns), converged)


def _step(u: np.ndarray, z: np.ndarray | None, velocity: np.ndarray | None, g: np.ndarray,
          ws: Workspace, cfg: SolverConfig) -> None:
    """One descent update of ``u`` (and ``z``, ``velocity``) in place; ``g`` is overwritten."""
    tmp = ws.take()
    if cfg.parameterization == "logistic":
        g *= u
        g *= np.subtract(1.0, u, out=tmp)  # g*u*(1-u)
    scale = float(np.mean(np.abs(g, out=tmp)))
    g /= max(scale, 1e-30)

    if velocity is not None:
        velocity *= cfg.momentum
        g *= cfg.step_size
        velocity -= g  # momentum*velocity - step*g
        delta = velocity
    else:
        g *= -cfg.step_size
        delta = g

    if z is not None:
        z += delta
        _sigmoid(z, out=u, tmp=tmp)
    else:
        u += delta
        np.clip(u, 0.0, 1.0, out=u)
    ws.give(tmp)


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


def check_threshold(t: float) -> None:
    if not 0.0 < t < 1.0:
        raise FieldError(f"threshold must lie in (0,1), got {t}")


def threshold(mask: ScalarField, t: float = 0.5) -> ScalarField:
    """Binarize a soft mask: 1.0 where value >= t (ties count as foreground)."""
    check_threshold(t)
    return mask.with_data((mask.data >= t).astype(np.float64))
