"""Segmentation by direct minimization of the energy over a soft mask.

The mask itself is the optimization variable: projected (clipped) gradient
descent, with the gradient normalized by its mean absolute value so the step
size is independent of grid shape. With region_mode "cv-means" the
foreground/background constants are re-estimated after every update
(alternating minimization), from the moments of the mask that also give the
next pass's region sums, and clipped into the image's range; the first step
uses the constants from the parameter set, which also breaks the symmetry of
a uniform init (a uniform mask would otherwise yield equal means and zero
region force).
The momentum optimizer keeps a fixed fraction :data:`MOMENTUM` = 0.9 of its
velocity, and a solve stops once the relative energy change over a fixed window
of :data:`STOP_WINDOW` = 10 iterations is below :data:`STOP_TOL` = 1e-7.

A solve runs in the arithmetic of :data:`DTYPE`, float32. The image and the
init are cast into it once, which for the float32 values a VF32 file holds is
exact, and the mask, the velocity and every workspace array are of that
dtype. Every sum (the energy density's, mean|g| and the region moments)
accumulates in float64 (:func:`~elastiseg.workspace.block_sum`), so the
energy, the constants and the stop rule are float64 numbers. On blurred random
fields the float32 gradient is within 2e-6*max|g| of the float64 one at the
same mask in every mode (7.4e-7 the worst reading), and the energy within
2e-8 relative. A float32 solve that turns non-finite is run again in
float64, the arithmetic of earlier versions: float32's range ends at 3.4e38,
which a large image, constant or weight, or a fine spacing (1e-5 in fast3d
with beta > 0) can pass where float64 finishes. A float64 :data:`DTYPE`
reproduces earlier versions' solves bit for bit.

One workspace (:mod:`elastiseg.workspace`) serves every iteration's fused
energy+gradient pass, and the normalisation, momentum and projection of each
update are done in place, in the same operation order as the expressions
they stand for, so results are bit for bit those of fresh arrays. Those are
``clip(u + g*(-step/mean|g|), 0, 1)`` with ``gd`` and the velocity
``MOMENTUM*v - g*(step/mean|g|)`` with momentum: g is multiplied once, by the
step over its scale. After the first iteration a solve allocates no
full-size array. The mask is a workspace array, held for the whole solve, so
the stencils of every iteration run on views built in the first one. The
velocity comes from :func:`~elastiseg.workspace.aligned_empty`, like every
workspace array, so all of a solve's full-size arrays start on a cache line.
The loop runs under one ``np.errstate``.

A field larger than four blocks of the workspace's plan (131072 elements, 1
MiB in float64, half a 2 MiB L2; a 64^3 field, not the 96^2 tube or the 256^2
disk) runs its pass and its update block by block, each block's intermediates
staying in cache (see :func:`~elastiseg.gradients.energy_and_gradient_raw`).
Every sum of an iteration is taken block by block while the block is in cache,
and the block sums are combined by :func:`~elastiseg.workspace.tree_sum`:
those of the energy density in the pass, of |g| as each block of the gradient
completes, and the new mask's moments in the update
(:func:`~elastiseg.energy.region_moments` per block).
:mod:`elastiseg.workspace` states on which plans that has the whole-array
sum's bits, and the tolerance on the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .energy import (
    DegenerateMaskError,
    EnergyBreakdown,
    EnergyParams,
    MAX_CONSTANT,
    Moments,
    mask_moments,
    region_means,
    region_moments,
    segmentation_energy_raw,
)
from .field import FieldError, ScalarField, check_ndim, check_same_shape, check_soft_mask
from .gradients import energy_and_gradient_raw
from .workspace import Workspace, aligned_empty, block_sum, tree_sum

OPTIMIZERS = ("gd", "momentum")
REGION_MODES = ("fixed", "cv-means")
DTYPE = np.float32  # the arithmetic of a solve, which segment() runs again in float64 if it turns non-finite
MOMENTUM = 0.9  # velocity decay of the "momentum" optimizer
STOP_WINDOW = 10  # iterations over which the stop rule measures the energy change
STOP_TOL = 1e-7  # the relative energy change over STOP_WINDOW iterations below which a solve stops


@dataclass(frozen=True)
class SolverConfig:
    """Settings of :func:`segment`; each is checked on construction.

    - ``max_iters`` (500): the most updates a solve makes; 0 runs none.
    - ``step_size`` (0.1): the step on the gradient normalized by mean|g|.
    - ``optimizer`` ("gd"): one of :data:`OPTIMIZERS`; "momentum" keeps
      :data:`MOMENTUM` of the velocity.
    - ``region_mode`` ("cv-means"): one of :data:`REGION_MODES`; "cv-means"
      re-estimates c1/c2 after every update, "fixed" keeps the parameter set's.

    ``elastiseg segment`` takes its flags' defaults from these. The stop rule
    has no setting: its window and tolerance are :data:`STOP_WINDOW` and
    :data:`STOP_TOL`.
    """

    max_iters: int = 500
    step_size: float = 0.1
    optimizer: str = "gd"
    region_mode: str = "cv-means"

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not 0.0 < self.step_size < math.inf:  # also rejects NaN
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.region_mode not in REGION_MODES:
            raise ValueError(f"region_mode must be one of {REGION_MODES}, got {self.region_mode!r}")


@dataclass(frozen=True)
class SolverTrace:
    """The energy after each update, with the state it was taken in.

    Entry i of ``breakdowns``, ``c1``, ``c2`` and ``mean_abs_g`` is of update
    i: the energy after it, the region constants that energy was evaluated
    with (the next update's), and the mean|g| that scaled the update.
    """

    breakdowns: list[EnergyBreakdown]
    iterations_run: int
    converged: bool
    c1: list[float]
    c2: list[float]
    mean_abs_g: list[float]


Row = tuple[EnergyBreakdown, float, float, float]  # one update's entries of a SolverTrace, in its field order


def _trace(rows: list[Row], converged: bool) -> SolverTrace:
    columns = [list(column) for column in zip(*rows)] or [[], [], [], []]
    return SolverTrace(columns[0], len(rows), converged, *columns[1:])


class NonFiniteEnergyError(RuntimeError):
    """Energy became NaN/Inf; carries the iteration index, the partial trace and the last finite state.

    ``c1``/``c2`` are the region constants of the failing pass, ``scale`` the
    mean|g| of the last update taken (None before the first), all in the message.
    """

    def __init__(self, iteration: int, trace: SolverTrace, c1: float, c2: float, scale: float | None):
        last = "none" if scale is None else f"{scale:.6g}"
        super().__init__(f"non-finite energy at iteration {iteration} "
                         f"(last finite c1={c1:.6g}, c2={c2:.6g}, mean|g|={last})")
        self.iteration = iteration
        self.trace = trace
        self.c1, self.c2, self.scale = c1, c2, scale


def segment(image: ScalarField, init: ScalarField, params: EnergyParams,
            cfg: SolverConfig = SolverConfig()) -> tuple[ScalarField, SolverTrace]:
    """Minimize the energy of a soft mask against ``image``.

    Returns the optimized mask and the per-iteration energy trace; entry i is
    the energy after update i. That is the point where iteration i+1 takes its
    gradient, so the fused energy+gradient pass supplies it, and only a run
    that reaches ``max_iters`` evaluates the energy once more. The run is
    deterministic: identical inputs produce bit-identical outputs. Stops early
    once the energy change over :data:`STOP_WINDOW` iterations is below
    :data:`STOP_TOL` in relative magnitude. The image is expected to be normalized
    to [0,1] by the caller; cv-means rejects one past ``MAX_CONSTANT`` up front
    and clips each re-estimated mean into the image's range. Raises
    :class:`NonFiniteEnergyError` if the energy or the gradient's scale
    mean|g| is not finite (the partial trace, the constants and the last
    finite mean|g| ride on the exception). A solve runs in :data:`DTYPE`,
    and one that turns non-finite in float32 is run again in float64, which
    raises its own error if it turns non-finite too.

    Memory: besides the velocity with momentum, a solve holds one
    :class:`~elastiseg.workspace.Workspace` for all of its iterations: the
    mask lives in it, and the fused pass, the update and the region moments
    are computed in it, in place. On a one-block field it holds N full-size
    arrays, the mask included: with beta = 0, N = ndim + 3 in every mode; with
    beta > 0, N = 11 in fast3d, 9 in lap3d, 14 in mean2d and 19 in mean3d, the
    mean modes' pointwise curvature expressions included. On a plan of
    several blocks (64^3) it holds 3 full-size arrays with beta = 0 and 4
    with beta > 0 (the mask, the differences along axis 0 and their
    cotangents, the gradient), and M block-sized ones: M = ndim + 2 in 2D
    and ndim + 3 in 3D with beta = 0; with beta > 0, M = 12 in fast3d, 8 in
    lap3d, 13 in mean2d and 20 in mean3d. In float32 each of these arrays is
    half a float64 one, and the solve also holds the image cast to float32.
    The exit energy of a run that reaches ``max_iters`` is evaluated in the
    same workspace and gives back every array it takes.
    """
    check_same_shape(image, init)
    check_soft_mask(init, "init")
    check_ndim(image.ndim, params.mode)
    lo, hi = float(image.data.min()), float(image.data.max())  # the re-estimated c1/c2 are means within this range
    if cfg.region_mode == "cv-means" and max(-lo, hi) > MAX_CONSTANT:
        raise FieldError(f"cv-means needs image values in [-{MAX_CONSTANT:g}, {MAX_CONSTANT:g}]")
    with np.errstate(over="ignore", invalid="ignore"):  # entered once per solve: it costs ~3 us
        try:
            return _solve(image, init, params, cfg, lo, hi, DTYPE)
        except NonFiniteEnergyError:
            if DTYPE == np.float64:
                raise
        # float32's range may end where float64's does not; the failed run's arrays went with its error
        return _solve(image, init, params, cfg, lo, hi, np.float64)


def _solve(image: ScalarField, init: ScalarField, params: EnergyParams, cfg: SolverConfig, lo: float, hi: float,
           dtype: type[np.floating]) -> tuple[ScalarField, SolverTrace]:
    """:func:`segment`'s solve in ``dtype``, of an image in [lo, hi], under its caller's ``np.errstate``."""
    r = image.data.astype(dtype, copy=False)
    ws = Workspace(init.shape, dtype)
    u = ws.take()  # held for the whole solve: ws keeps the views every pass's stencils read of it
    np.copyto(u, init.data)
    velocity = None
    if cfg.optimizer == "momentum":
        velocity = aligned_empty(u.shape, dtype)
        velocity.fill(0.0)
    totals = region_moments(1.0, r, ws)
    moments = mask_moments(u, r, ws, totals)
    c1, c2 = params.c1, params.c2
    rows: list[Row] = []
    converged = False
    scale = None  # mean|g| of the last update taken
    # each iteration's block sums of |g|, taken in the pass, and block moments of u_it+1, taken in the update
    g_sums = [0.0] * len(ws.blocks)
    u_moments: list[Moments] = [(0.0, 0.0, 0.0)] * len(ws.blocks)
    on_block = partial(_gradient_block, g_sums)
    r_parts = ws.parts(r)

    for it in range(cfg.max_iters):
        bd, g = energy_and_gradient_raw(u, r, image.spacing, params.with_constants(c1, c2), ws, moments, on_block)
        # the pass at (u_it, c_it) also yields the energy after update it-1
        if it > 0 and _record(rows, bd, it - 1, (c1, c2, scale)):
            converged = True
            break
        step_scale = _step(u, velocity, g, ws, cfg, r_parts, g_sums, u_moments)
        ws.give(g)
        # a NaN or inf in g makes its scale non-finite; a finite scale keeps the clipped u in [0,1]
        if not math.isfinite(step_scale):
            raise NonFiniteEnergyError(it, _trace(rows, False), c1, c2, scale)
        scale = step_scale

        # of u_it+1: its pass's region sums and constants
        moments = mask_moments(u, r, ws, totals, u_moments)
        if cfg.region_mode == "cv-means":
            try:
                c1, c2 = region_means(moments, lo, hi)
            except DegenerateMaskError:  # a degenerate mask keeps the previous constants
                pass

    del velocity, r, r_parts  # freed first, so that the output field's copy does not raise the peak memory
    if cfg.max_iters > 0 and not converged:
        # no further gradient pass supplies the energy after the last update: it is taken on u, in the
        # arithmetic of every other entry the stop rule compares
        bd = segmentation_energy_raw(u, image.spacing, params.with_constants(c1, c2), ws, moments)
        converged = _record(rows, bd, cfg.max_iters - 1, (c1, c2, scale))

    return image.with_data(u), _trace(rows, converged)


def _gradient_block(sums: list[float], b: int, gb: np.ndarray, tb: np.ndarray) -> None:
    """Block ``b`` of dE/du, just completed by the fused pass and still in cache; ``tb`` is scratch.

    The sum of its |g| goes into ``sums[b]``.
    """
    sums[b] = block_sum(np.abs(gb, out=tb))


def _step(u: np.ndarray, velocity: np.ndarray | None, g: np.ndarray, ws: Workspace, cfg: SolverConfig,
          r_parts: list[np.ndarray], g_sums: list[float], u_moments: list[Moments]) -> float:
    """One descent update of ``u`` (and ``velocity``) in place, block by block; ``g`` is overwritten.

    ``g`` is the gradient :func:`_gradient_block` finished, and ``g_sums``
    holds the sum of its |g| over each block. Returns mean|g|. The update
    is ``clip(u + g*(-step/mean|g|), 0, 1)`` with ``gd`` and
    ``clip(u + (MOMENTUM*v - g*(step/mean|g|)), 0, 1)`` with momentum;
    mean|g| is taken as at least 1e-30 and step/mean|g| as at most the
    largest number of u's dtype. The update writes the
    :func:`~elastiseg.energy.region_moments` of each block of the new u into
    ``u_moments``, ``r_parts`` being the blocks of r.
    """
    scale = tree_sum(g_sums) / g.size  # np.mean's bits on a tree plan, without its wrapper
    # step/mean|g| multiplies g once; capped, so that a zero gradient still takes a zero step (0*inf is NaN)
    factor = min(cfg.step_size / max(scale, 1e-30), float(np.finfo(u.dtype).max))
    if velocity is None:
        factor = -factor
    us, gs = ws.parts(u), ws.parts(g)
    # without momentum the velocity blocks are g's own, so u takes g*(-step/mean|g|)
    vs = gs if velocity is None else ws.parts(velocity)
    for b, (ub, gb, vb, rb) in enumerate(zip(us, gs, vs, r_parts)):
        gb *= factor
        if velocity is not None:
            vb *= MOMENTUM
            vb -= gb  # MOMENTUM*velocity - g*(step/mean|g|)
        ub += vb
        np.clip(ub, 0.0, 1.0, out=ub)
        u_moments[b] = region_moments(ub, rb, ws, b)
    return scale


def _record(rows: list[Row], bd: EnergyBreakdown, it: int, last: tuple[float, float, float]) -> bool:
    """Append the energy after update ``it`` with ``last``; True once the stop rule fires.

    ``last`` holds the (c1, c2, mean|g|) of the trace row, which a
    :class:`NonFiniteEnergyError` carries instead.
    """
    if not math.isfinite(bd.total):
        raise NonFiniteEnergyError(it, _trace(rows, False), *last)
    rows.append((bd, *last))
    if len(rows) > STOP_WINDOW:
        e_then = rows[-1 - STOP_WINDOW][0].total
        e_now = bd.total
        # magnitude of the relative change: a transient energy increase
        # (cv-means constants still settling) must not read as converged
        return abs(e_then - e_now) < STOP_TOL * max(abs(e_then), 1e-30)
    return False


def check_threshold(t: float) -> None:
    if not 0.0 < t < 1.0:
        raise FieldError(f"threshold must lie in (0,1), got {t}")


def threshold(mask: ScalarField, t: float = 0.5) -> ScalarField:
    """Binarize a soft mask: 1.0 where value >= t (ties count as foreground)."""
    check_threshold(t)
    return mask.with_data(mask.data >= t)
