import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from scipy import ndimage

from elastiseg import (
    CurvatureMode,
    EnergyParams,
    ScalarField,
    SolverConfig,
    energy_gradient,
    fd_gradient,
    gradcheck,
    segment,
    segmentation_energy,
)
from elastiseg import diffops, gradients, solver, workspace
from elastiseg.curvature import curvature_forward
from elastiseg.diffops import d1, d1_adj, d2, dmixed, dmixed_adj
from elastiseg.energy import elastica_forward, energy_density, mask_moments, segmentation_energy_raw
from elastiseg.gradients import FD_STEP, energy_and_gradient_raw, fd_gradient_raw
from elastiseg.workspace import Workspace

DOT_SHAPES = [(3, 3), (3, 3, 3), (7, 5), (4, 6, 5), (3, 9), (12, 3, 4)]


def ref_fd_gradient_raw(a, r, spacing, params):
    """Frozen per-voxel oracle: two density calls per voxel, the colour-class oracle's reference."""
    g = np.empty_like(a)
    work = a.copy()
    for idx in np.ndindex(a.shape):
        orig = work[idx]
        work[idx] = orig + FD_STEP
        dens_plus = energy_density(work, r, spacing, params)
        work[idx] = orig - FD_STEP
        dens_minus = energy_density(work, r, spacing, params)
        work[idx] = orig
        # Densities of voxels outside the perturbed stencil footprint are
        # bitwise identical, so the difference field is exactly zero there and
        # the central difference is free of global-sum cancellation.
        g[idx] = np.sum(dens_plus - dens_minus) / (2.0 * FD_STEP)
    return g


def max_rel_error(ga, gf):
    """gradcheck's criterion: worst |ga - gf| / max(|ga|, |gf|, 1e-8)."""
    denom = np.maximum(np.maximum(np.abs(ga), np.abs(gf)), 1e-8)
    return float((np.abs(ga - gf) / denom).max())


def dots(op, adj, shape, rng, h):
    u = rng.standard_normal(shape)
    w = rng.standard_normal(shape)
    lhs = float(np.sum(op(u) * w))
    rhs = float(np.sum(u * adj(w)))
    scale = max(abs(lhs), abs(rhs), 1e-12)
    return abs(lhs - rhs) / scale


@pytest.mark.parametrize("shape", DOT_SHAPES)
def test_d1_adjoint_dot_product(shape):
    rng = np.random.default_rng(20)
    for axis in range(len(shape)):
        h = 0.5 + axis
        for _ in range(10):
            err = dots(lambda a: d1(a, axis, h), lambda w: d1_adj(w, axis, h), shape, rng, h)
            assert err < 1e-12


@pytest.mark.parametrize("shape", DOT_SHAPES)
def test_d2_adjoint_dot_product(shape):
    rng = np.random.default_rng(21)
    for axis in range(len(shape)):
        h = 0.75 * (axis + 1)
        for _ in range(10):
            err = dots(lambda a: d2(a, axis, h), lambda w: d2(w, axis, h), shape, rng, h)
            assert err < 1e-12


@pytest.mark.parametrize("shape", DOT_SHAPES)
def test_dmixed_adjoint_dot_product(shape):
    rng = np.random.default_rng(22)
    nd = len(shape)
    pairs = [(a, b) for a in range(nd) for b in range(a + 1, nd)]
    for a, b in pairs:
        for _ in range(10):
            err = dots(
                lambda arr: dmixed(arr, a, b, 1.0, 2.0),
                lambda w: dmixed_adj(w, a, b, 1.0, 2.0),
                shape, rng, 1.0,
            )
            assert err < 1e-12


def test_region_gradient_closed_form():
    # alpha = beta = 0 leaves only the region part: -1 on foreground, +1 on background
    v = np.zeros((6, 6))
    v[2:4, 2:4] = 1.0
    r = ScalarField(v, 1.0)
    u = ScalarField(np.full((6, 6), 0.5), 1.0)
    p = EnergyParams(alpha=0.0, beta=0.0, lam=1.0, c1=1.0, c2=0.0, mode=CurvatureMode.MEAN_2D)
    g = energy_gradient(u, r, p).data
    np.testing.assert_array_equal(g, np.where(v == 1.0, -1.0, 1.0))


def region_gradient(r, p):
    """Closed-form region part of dE/du, lam*(c1-c2)*(c1+c2-2r), in the pass's operation order."""
    scale = p.lam * (p.c1 - p.c2)
    return r * (-2.0 * scale) + scale * (p.c1 + p.c2)


def test_region_gradient_independent_of_mask():
    rng = np.random.default_rng(23)
    r = rng.random((7, 7))
    p = EnergyParams(alpha=0.0, beta=0.0, lam=1.7, c1=0.9, c2=0.2, mode=CurvatureMode.MEAN_2D)
    g1 = energy_and_gradient_raw(rng.random((7, 7)), r, (1.0, 1.0), p)[1]
    g2 = energy_and_gradient_raw(rng.random((7, 7)), r, (1.0, 1.0), p)[1]
    np.testing.assert_array_equal(g1, g2)
    np.testing.assert_array_equal(g1, region_gradient(r, p))
    # the difference-of-squares form lam*((c1-r)^2 - (c2-r)^2) rounds differently, by a few ulps
    # of the squares it subtracts (at most 2.3 on 2000 random cases)
    squares = p.lam * ((p.c1 - r) ** 2 - (p.c2 - r) ** 2)
    magnitude = p.lam * ((p.c1 - r) ** 2 + (p.c2 - r) ** 2)
    np.testing.assert_allclose(g1, squares, rtol=0.0, atol=4 * np.finfo(float).eps * float(magnitude.max()))


def test_beta_zero_gradient_splits_into_tv_plus_region():
    rng = np.random.default_rng(24)
    u = rng.random((8, 8))
    r = rng.random((8, 8))
    p = EnergyParams(alpha=0.05, beta=0.0, mode=CurvatureMode.MEAN_2D)
    full = energy_and_gradient_raw(u, r, (1.0, 1.0), p)[1]
    # with c2 = c1 the region term's slope and offset are zero: the pass's gradient is the elastica part alone
    elastica = energy_and_gradient_raw(u, r, (1.0, 1.0), p.with_constants(p.c1, p.c1))[1]
    parts = region_gradient(r, p) + elastica
    np.testing.assert_array_equal(full, parts)


def test_gradient_mirror_symmetry():
    rng = np.random.default_rng(25)
    half_u = rng.random((8, 4))
    half_r = rng.random((8, 4))
    u = np.concatenate([half_u, half_u[:, ::-1]], axis=1)
    r = np.concatenate([half_r, half_r[:, ::-1]], axis=1)
    p = EnergyParams(alpha=0.001, beta=2.0, mode=CurvatureMode.MEAN_2D)
    g = energy_gradient(ScalarField(u, 1.0), ScalarField(r, 1.0), p).data
    np.testing.assert_allclose(g, g[:, ::-1], rtol=1e-12, atol=1e-14)


def test_fd_gradient_matches_closed_form_linear_energy():
    # with alpha = beta = 0 the energy is linear in u, so the fd quotient is exact
    rng = np.random.default_rng(26)
    u = ScalarField(rng.random((6, 6)), 1.0)
    r = ScalarField(rng.random((6, 6)), 1.0)
    p = EnergyParams(alpha=0.0, beta=0.0, lam=1.0, c1=1.0, c2=0.0, mode=CurvatureMode.MEAN_2D)
    gf = fd_gradient(u, r, p).data
    np.testing.assert_allclose(gf, region_gradient(r.data, p), rtol=1e-8, atol=1e-9)


def test_gradcheck_2d_mean_curvature():
    p = EnergyParams(alpha=0.001, beta=2.0, mode=CurvatureMode.MEAN_2D)
    rep = gradcheck((12, 12), trials=20, seed=42, params=p)
    assert rep.passed, f"max_rel={rep.max_rel_error} at {rep.worst_voxel}"


@pytest.mark.parametrize("mode", [CurvatureMode.MEAN_3D, CurvatureMode.FAST_3D, CurvatureMode.LAPLACIAN_3D])
def test_gradcheck_3d_modes(mode):
    p = EnergyParams(alpha=0.001, beta=2.0, mode=mode)
    rep = gradcheck((8, 8, 8), trials=10, seed=42, params=p)
    assert rep.passed, f"{mode}: max_rel={rep.max_rel_error} at {rep.worst_voxel}"


@pytest.mark.parametrize("beta", [0.0, 2.0])
@pytest.mark.parametrize("mode", list(CurvatureMode))
def test_colour_class_oracle_matches_the_per_voxel_loop_bit_for_bit(mode, beta):
    rng = np.random.default_rng(29)
    shapes = [(9, 7), (8, 13)] if mode.required_ndim == 2 else [(5, 7, 6), (7, 4, 8)]
    for shape in shapes:
        spacing = tuple(float(s) for s in rng.uniform(0.5, 2.0, len(shape)))
        u, r = rng.random(shape), rng.random(shape)
        p = EnergyParams(alpha=0.01, beta=beta, lam=0.7, c1=0.8, c2=0.1, mode=mode)
        assert fd_gradient_raw(u, r, spacing, p).tobytes() == ref_fd_gradient_raw(u, r, spacing, p).tobytes()


@pytest.mark.parametrize("mode", [CurvatureMode.MEAN_2D, CurvatureMode.FAST_3D])
def test_a_colour_stride_below_the_footprint_gives_a_wrong_gradient(mode, monkeypatch):
    # at stride 2 neighbouring voxels of one class share footprints, and the block is the voxel alone
    rng = np.random.default_rng(30)
    shape = (9, 7) if mode.required_ndim == 2 else (5, 7, 6)
    u, r = rng.random(shape), rng.random(shape)
    p = EnergyParams(alpha=0.01, beta=2.0, mode=mode)
    ref = ref_fd_gradient_raw(u, r, (1.0,) * len(shape), p)
    monkeypatch.setattr(gradients, "FD_STRIDE", 2)
    assert max_rel_error(fd_gradient_raw(u, r, (1.0,) * len(shape), p), ref) > 0.1


@pytest.mark.parametrize("beta", [0.0, 2.0])
@pytest.mark.parametrize("mode", list(CurvatureMode))
def test_directional_derivative_at_realistic_sizes(mode, beta):
    # full-size fields on random anisotropic grids, elementwise against the
    # colour-class oracle and along one random direction of the scalar energy
    rng = np.random.default_rng(28)
    shape = (64, 64) if mode.required_ndim == 2 else (24, 24, 24)
    spacing = tuple(float(s) for s in rng.uniform(0.5, 2.0, len(shape)))
    u = ScalarField(rng.uniform(0.2, 0.8, shape), spacing)
    r = ScalarField(rng.random(shape), spacing)
    v = rng.uniform(-1.0, 1.0, shape)
    p = EnergyParams(alpha=0.1, beta=beta, mode=mode)
    h = 1e-5

    def energy(a):
        return segmentation_energy(u.with_data(a), r, p).total

    ga = energy_gradient(u, r, p).data
    assert max_rel_error(ga, fd_gradient(u, r, p).data) < 1e-5
    fd = (energy(u.data + h * v) - energy(u.data - h * v)) / (2.0 * h)
    analytic = float(np.sum(ga * v))
    assert abs(fd - analytic) < 1e-6 * max(abs(fd), abs(analytic))


# the gradcheck floor misreads the first (seed 28, see the directional test above); the second has general constants;
# the workspace plan splits the third into 8 blocks of 8 planes, where gradcheck's criterion reads fd round-off
TAYLOR_CASES = [
    ((24, 24, 24), EnergyParams(alpha=0.01, beta=2.0, mode=CurvatureMode.MEAN_3D)),
    ((64, 64), EnergyParams(alpha=0.01, beta=2.0, lam=0.7, c1=0.8, c2=0.1, mode=CurvatureMode.MEAN_2D)),
    ((64, 64, 64), EnergyParams(alpha=0.01, beta=2.0, mode=CurvatureMode.MEAN_3D)),
]


def taylor_orders(u, r, v, g, p, steps):
    """Decay orders log2(R(h)/R(h/2)) of the remainder R(h) = |E(u + h*v) - E(u) - h*<g, v>| over halving steps."""
    e0 = segmentation_energy(u, r, p).total
    slope = float(np.sum(g * v))
    rem = np.array([abs(segmentation_energy(u.with_data(u.data + h * v), r, p).total - e0 - h * slope) for h in steps])
    return np.log2(rem[:-1] / rem[1:])


@pytest.mark.parametrize("shape,p", TAYLOR_CASES, ids=["mean3d-24^3", "mean2d-64^2", "mean3d-64^3"])
def test_taylor_remainder_decays_quadratically(shape, p):
    # scale-free beside gradcheck (Farrell et al., SIAM J. Sci. Comput. 2013): with the right gradient
    # the remainder is O(h^2), so each halving of h divides it by 4; a 1e-3 gradient error leaves O(h)
    rng = np.random.default_rng(28)
    spacing = tuple(float(s) for s in rng.uniform(0.5, 2.0, len(shape)))
    u = ScalarField(rng.uniform(0.2, 0.8, shape), spacing)
    r = ScalarField(rng.random(shape), spacing)
    v = rng.uniform(-1.0, 1.0, shape)
    g = energy_gradient(u, r, p).data
    steps = [0.05 * 2.0**-k for k in range(18)]  # u + h*v stays in [0, 1]; the smallest remainders are ~1e-10
    orders = taylor_orders(u, r, v, g, p, steps)
    assert np.all(np.abs(orders - 2.0) < 0.05), orders
    wrong = taylor_orders(u, r, v, g * (1.0 + 1e-3), p, steps)
    assert wrong[-1] < 1.5, wrong


def test_gradcheck_rejects_bad_trials():
    with pytest.raises(ValueError):
        gradcheck((8, 8), trials=0, seed=0, params=EnergyParams())


def test_gradcheck_has_no_tol_argument():
    # the gate is the constant GRADCHECK_TOL
    with pytest.raises(TypeError, match="tol"):
        gradcheck((5, 5), trials=1, seed=0, params=EnergyParams(), tol=1e-5)


def test_gradcheck_reads_its_gate_when_the_check_ends(monkeypatch):
    rep = gradcheck((6, 6), trials=2, seed=3, params=EnergyParams(alpha=0.01, beta=0.5))
    assert rep.passed and 0.0 < rep.max_rel_error < gradients.GRADCHECK_TOL
    # the error must be strictly below the gate
    monkeypatch.setattr(gradients, "GRADCHECK_TOL", rep.max_rel_error)
    at_gate = gradcheck((6, 6), trials=2, seed=3, params=EnergyParams(alpha=0.01, beta=0.5))
    assert at_gate == dataclasses.replace(rep, passed=False)
    monkeypatch.setattr(gradients, "GRADCHECK_TOL", math.nextafter(rep.max_rel_error, math.inf))
    assert gradcheck((6, 6), trials=2, seed=3, params=EnergyParams(alpha=0.01, beta=0.5)) == rep


def test_workspace_ignores_double_and_foreign_gives():
    ws = Workspace((3, 4))
    a, b = ws.take(), ws.take()
    ws.give(a)
    ws.give(a, np.empty((3, 4)), 2.0, a.copy(), a)
    # the pool holds a once and nothing else: the second take allocates
    assert ws.take() is a
    c = ws.take()
    assert c is not b and len(ws) == 3
    ws.give(b)
    assert ws.take() is b


def test_workspace_scope_gives_back_what_the_block_took():
    ws = Workspace((3, 4))
    outer = ws.take()
    with ws.scope():
        kept, inner = ws.take(), ws.take()
        ws.give(kept)
        ws.take()
    with pytest.raises(RuntimeError):
        with ws.scope():
            ws.take()
            raise RuntimeError
    # outer stays handed out; both arrays the blocks took are free again
    assert len(ws) == 3
    assert {id(ws.take()), id(ws.take())} == {id(kept), id(inner)}
    assert ws.take() is not outer and len(ws) == 4


@pytest.mark.parametrize("shape", [(4, 4), (40, 23), (3, 3, 3), (10, 11, 12)])
def test_fd_gradient_costs_two_density_calls_per_colour_class(shape, monkeypatch):
    calls = []
    monkeypatch.setattr(gradients, "energy_density", lambda *args: calls.append(1) or energy_density(*args))
    u = ScalarField(np.full(shape, 0.5), 1.0)
    p = EnergyParams(alpha=0.0, beta=0.0, lam=1.0)
    assert fd_gradient(u, u, p).shape == shape
    assert len(calls) == 2 * 3 ** len(shape)


@pytest.mark.parametrize("mode", list(CurvatureMode))
def test_reused_workspace_matches_fresh_calls_bit_for_bit(mode):
    rng = np.random.default_rng(40)
    shape = (11, 9) if mode.required_ndim == 2 else (7, 6, 8)
    spacing = tuple(rng.uniform(0.5, 2.0, len(shape)))
    ws = Workspace(shape)
    for beta in (0.0, 0.5, 2.0):
        p = EnergyParams(alpha=0.01, beta=beta, lam=0.7, c1=0.8, c2=0.1, mode=mode)
        held = None
        for _ in range(3):
            u, r = rng.random(shape), rng.random(shape)
            bd, g = energy_and_gradient_raw(u, r, spacing, p, ws)
            bd_fresh, g_fresh = energy_and_gradient_raw(u, r, spacing, p)
            assert bd == bd_fresh
            assert g.tobytes() == g_fresh.tobytes()
            ws.give(g)
            # every buffer comes back, so repeated passes allocate nothing new
            held = len(ws) if held is None else held
            assert len(ws) == held


def _solves(image, init, mode):
    """Mask and trace (a row of energy components per entry) of a solve in every optimizer, region mode and beta
    in {0, 0.5}."""
    for opt, region in itertools.product(solver.OPTIMIZERS, solver.REGION_MODES):
        for beta in (0.0, 0.5):
            p = EnergyParams(alpha=0.01, beta=beta, lam=0.7, c1=0.8, c2=0.1, mode=mode)
            cfg = SolverConfig(max_iters=6, optimizer=opt, region_mode=region)
            mask, trace = segment(image, init, p, cfg)
            yield mask.data, np.array([dataclasses.astuple(bd) for bd in trace.breakdowns])


def _as_bytes(solves):
    return [(mask.tobytes(), [row.tobytes() for row in trace]) for mask, trace in solves]


def _solve_outputs(image, init, mode):
    """Mask and trace bytes of each of :func:`_solves`."""
    return _as_bytes(_solves(image, init, mode))


@pytest.mark.parametrize("mode", list(CurvatureMode))
@pytest.mark.usefixtures("float64_solves", "no_early_stop")
def test_kept_stencil_views_match_views_rebuilt_on_every_call_bit_for_bit(mode, monkeypatch):
    rng = np.random.default_rng(42)
    shape = (11, 9) if mode.required_ndim == 2 else (7, 6, 8)
    spacing = tuple(rng.uniform(0.5, 2.0, len(shape)))
    image = ScalarField(rng.random(shape), spacing)
    init = ScalarField(rng.uniform(0.2, 0.8, shape), spacing)
    rebuilt_by = []
    real_flat = diffops._flat
    monkeypatch.setattr(diffops, "_flat", lambda *args: rebuilt_by.append(1) or real_flat(*args))
    kept = list(_solve_outputs(image, init, mode))
    n_kept = len(rebuilt_by)
    monkeypatch.setattr(Workspace, "views", lambda self, a, axis, planes=None: None)  # every stencil call rebuilds its views
    rebuilt = list(_solve_outputs(image, init, mode))
    assert kept == rebuilt
    # every stencil of a solve, the exit energy's included, ran on kept views
    assert n_kept == 0 < len(rebuilt_by)


@pytest.mark.parametrize("mode", list(CurvatureMode))
@pytest.mark.usefixtures("float64_solves", "no_early_stop")
def test_multi_block_solves_match_the_one_block_solve_bit_for_bit(mode, monkeypatch):
    rng = np.random.default_rng(44)
    shape = (13, 9) if mode.required_ndim == 2 else (13, 6, 8)
    spacing = tuple(rng.uniform(0.5, 2.0, len(shape)))
    image = ScalarField(rng.random(shape), spacing)
    init = ScalarField(rng.uniform(0.2, 0.8, shape), spacing)
    assert Workspace(shape).blocks == [None]
    one = list(_solves(image, init, mode))
    plane = math.prod(shape[1:])
    # plans that are not trees (13 one-plane blocks, then a short last block): their block sums combine in
    # another order than the whole-array sum, so a solve repeats its own bytes and stays within 1e-12 of one block
    for planes, n_blocks in ((1, 13), (2, 7), (3, 5)):
        monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", planes * plane)
        assert len(Workspace(shape).blocks) == n_blocks
        blocked = list(_solves(image, init, mode))
        assert _solve_outputs(image, init, mode) == _as_bytes(blocked), planes
        for (mask, trace), (mask1, trace1) in zip(blocked, one):
            assert np.max(np.abs(mask - mask1)) <= 1e-12, planes
            assert trace.shape == trace1.shape and np.max(np.abs(trace - trace1) / np.abs(trace1)) <= 1e-12, planes
    # tree plans, whose sums are taken block by block: 16 and 8 blocks in 2D (of 72 and 144 voxels) and in 3D
    shape = (32, 36) if mode.required_ndim == 2 else (32, 6, 8)
    image = ScalarField(rng.random(shape), spacing)
    init = ScalarField(rng.uniform(0.2, 0.8, shape), spacing)
    monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", 1 << 15)
    assert Workspace(shape).blocks == [None]
    one = _solve_outputs(image, init, mode)
    plane = math.prod(shape[1:])
    for planes, n_blocks in ((2, 16), (4, 8)):
        monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", planes * plane)
        assert len(Workspace(shape).blocks) == n_blocks
        assert _solve_outputs(image, init, mode) == one, planes


# max|g32 - g64| / max|g64| read at most 7.4e-7 (mean3d), 6.3e-7 (lap3d), 1.6e-7 (mean2d) and 1.5e-7 (fast3d)
# over 20 seeds and beta in {0, 0.5, 2} of these fields; the energies at most 3.9e-9 apart, relative
FLOAT32_GRADIENT_TOL = 2e-6
FLOAT32_ENERGY_TOL = 2e-8


@pytest.mark.parametrize("mode", list(CurvatureMode))
@pytest.mark.parametrize("beta", [0.0, 2.0])
@pytest.mark.parametrize("one_plane", [False, True], ids=["one-block", "one-plane-blocks"])
def test_float32_pass_is_the_float64_pass_to_float32_rounding(mode, beta, one_plane, monkeypatch):
    # blurred random fields, in [0, 1] and exactly float32 numbers, so both passes read the same inputs
    rng = np.random.default_rng(47)
    shape = (48, 40) if mode.required_ndim == 2 else (20, 18, 16)
    if one_plane:
        monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", math.prod(shape[1:]))
    u, r = (_blurred(rng, shape).astype(np.float32) for _ in range(2))
    spacing = (1.0,) * len(shape)
    p = EnergyParams(alpha=0.01, beta=beta, lam=0.7, c1=0.8, c2=0.1, mode=mode)
    bd64, g64 = energy_and_gradient_raw(u.astype(np.float64), r.astype(np.float64), spacing, p)
    bd32, g32 = energy_and_gradient_raw(u, r, spacing, p, Workspace(shape, np.float32))
    assert g32.dtype == np.float32 and len(Workspace(shape).blocks) == (shape[0] if one_plane else 1)
    assert np.max(np.abs(g32 - g64)) <= FLOAT32_GRADIENT_TOL * np.max(np.abs(g64))
    # every sum is taken in float64, so the energy holds float32's rounding of the summands only
    assert abs(bd32.total - bd64.total) <= FLOAT32_ENERGY_TOL * bd64.total


def _blurred(rng, shape):
    x = ndimage.gaussian_filter(rng.random(shape), 2.0)
    return (x - x.min()) / (x.max() - x.min())


def ref_gradient(a, r, spacing, p):
    """dE/du as expressions in fresh arrays: each first difference's cotangent is d_i*(weight/mag).

    K and its pullback are the library's own (pinned by ``test_mean_reference``), on a one-block workspace.
    """
    measure = math.prod(spacing)
    derivs = [d1(a, ax, spacing[ax]) for ax in range(a.ndim)]
    mag = diffops.grad_mag_raw(derivs)
    d1_cots, d2_cots = {}, {}
    weight = p.alpha * measure
    if p.beta != 0.0:
        seconds = [d2(a, ax, spacing[ax]) for ax in range(a.ndim)]
        k, pullback = curvature_forward([d.copy() for d in derivs], seconds, spacing, p.mode, Workspace(a.shape), 0)
        weight = ((k * p.beta) * k + p.alpha) * measure
        cots = pullback((k * (2.0 * p.beta * measure)) * mag)
        d1_cots, d2_cots = cots.d1, cots.d2
    cot = [d * (weight / mag) + d1_cots[ax] if ax in d1_cots else d * (weight / mag) for ax, d in enumerate(derivs)]
    g = d1_adj(cot[0], 0, spacing[0])
    for ax in range(1, a.ndim):
        g = g + d1_adj(cot[ax], ax, spacing[ax])
    for ax, c in d2_cots.items():
        g = g + d2(c, ax, spacing[ax])
    return g + region_gradient(r, p)


@pytest.mark.parametrize("mode", list(CurvatureMode))
@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("n_blocks", [1, 8])
def test_gradient_matches_the_expression_form_with_one_quotient_per_voxel(mode, beta, n_blocks, monkeypatch):
    rng = np.random.default_rng(46)
    shape = (32, 36) if mode.required_ndim == 2 else (32, 6, 8)
    spacing = tuple(rng.uniform(0.5, 2.0, len(shape)))
    a, r = rng.random(shape), rng.random(shape)
    p = EnergyParams(alpha=0.01, beta=beta, lam=0.7, c1=0.8, c2=0.1, mode=mode)
    expected = ref_gradient(a, r, spacing, p)
    monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", 32 // n_blocks * math.prod(shape[1:]))
    assert len(Workspace(shape).blocks) == n_blocks
    assert energy_and_gradient_raw(a, r, spacing, p)[1].tobytes() == expected.tobytes()


@pytest.mark.usefixtures("no_early_stop")
def test_kept_stencil_views_are_bounded_and_go_with_the_workspace(monkeypatch):
    made = []

    class Recording(Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(solver, "Workspace", Recording)
    rng = np.random.default_rng(43)
    one_block = workspace.BLOCK_ELEMENTS
    for mode, multi in itertools.product(CurvatureMode, (False, True)):
        shape = (12, 10) if mode.required_ndim == 2 else (8, 9, 7)
        # one plane per block splits the field into shape[0] blocks
        monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", math.prod(shape[1:]) if multi else one_block)
        image = ScalarField(rng.random(shape), 1.0)
        init = ScalarField(np.full(shape, 0.5), 1.0)
        p = EnergyParams(alpha=0.01, beta=0.5, mode=mode)
        counts = []
        for iters in (3, 30):
            segment(image, init, p, SolverConfig(max_iters=iters, optimizer="momentum", region_mode="fixed"))
            ws = made.pop()
            assert len(ws.blocks) == (shape[0] if multi else 1)
            counts.append(len(ws._views))
            assert 0 < len(ws._views) <= len(ws) * len(shape) * len(ws.blocks), mode
        assert counts[0] == counts[1], mode

        # a workspace reused with fresh inputs gains no views after its first call
        ws = Workspace(shape)
        for call in range(3):
            u, r = rng.random(shape), rng.random(shape)
            ws.give(energy_and_gradient_raw(u, r, (1.0,) * len(shape), p, ws)[1])
            segmentation_energy_raw(u, (1.0,) * len(shape), p, ws, mask_moments(u, r, ws))
            mask = ws.take()  # a mask taken from ws, as a solve holds its own
            np.copyto(mask, u)
            ws.give(d1(mask, 0, out=ws.take(), ws=ws), mask)
            if call == 0:
                n = len(ws._views)
            assert len(ws._views) == n <= len(ws) * len(shape) * len(ws.blocks), mode

    # no reference cycle keeps a solve's workspace: it is freed as segment returns
    refs = []

    class Watched(Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(solver, "Workspace", Watched)
    gc.disable()
    try:
        segment(image, init, p, SolverConfig(max_iters=5, optimizer="momentum", region_mode="fixed"))
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


def test_workspace_free_calls_return_unaliased_arrays():
    rng = np.random.default_rng(41)
    u, r = rng.random((6, 7, 5)), rng.random((6, 7, 5))
    p = EnergyParams(alpha=0.01, beta=0.5, mode=CurvatureMode.FAST_3D)
    g1 = energy_and_gradient_raw(u, r, (1.0, 1.0, 1.0), p)[1]
    before = g1.copy()
    g2 = energy_and_gradient_raw(u, r, (1.0, 1.0, 1.0), p)[1]
    assert not np.shares_memory(g1, g2)
    np.testing.assert_array_equal(g1, before)
    fwd1 = elastica_forward(u, (1.0, 1.0, 1.0), p, Workspace(u.shape), 0)
    fwd2 = elastica_forward(u, (1.0, 1.0, 1.0), p, Workspace(u.shape), 0)
    cots1, cots2 = fwd1.pullback(), fwd2.pullback()  # the first and second differences' cotangents, over them
    arrays1 = [fwd1.mag, fwd1.weight, fwd1.k, *cots1.d1.values(), *cots1.d2.values()]
    arrays2 = [fwd2.mag, fwd2.weight, fwd2.k, *cots2.d1.values(), *cots2.d2.values()]
    assert not any(np.shares_memory(x, y) for x in arrays1 for y in arrays2)
    assert len({id(x) for x in arrays1}) == len(arrays1)


def test_gradcheck_fails_on_a_nan_error():
    # alpha*|grad u| overflows to inf, and the fd quotient inf - inf is NaN
    p = EnergyParams(alpha=1e308, beta=2.0, mode=CurvatureMode.MEAN_2D)
    rep = gradcheck((5, 5), trials=2, seed=0, params=p)  # with no warning, which the test run makes an error
    assert np.isnan(rep.max_rel_error)
    assert not rep.passed
