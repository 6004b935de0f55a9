import itertools
import math
import tracemalloc

import numpy as np
import pytest

import elastiseg.energy
import elastiseg.solver
import elastiseg.workspace
from elastiseg import (
    CurvatureMode,
    DegenerateMaskError,
    EnergyBreakdown,
    EnergyParams,
    FieldError,
    NonFiniteEnergyError,
    ScalarField,
    SolverConfig,
    disk_case,
    dice,
    estimate_region_means,
    make_field,
    segment,
    segmentation_energy,
    sphere_case_3d,
    threshold,
)
from elastiseg.energy import MAX_CONSTANT
from elastiseg.solver import OPTIMIZERS, REGION_MODES, STOP_WINDOW
from elastiseg.workspace import Workspace, block_sum


def small_disk(seed=0):
    return disk_case((48, 48), (23.5, 23.5), 11.0, fg=0.8, bg=0.2, noise_sigma=0.1, seed=seed)


def test_zero_iterations_returns_init_unchanged():
    case = small_disk()
    init = make_field(case.image.shape, 1.0, 0.5)
    mask, trace = segment(case.image, init, EnergyParams(), SolverConfig(max_iters=0))
    np.testing.assert_array_equal(mask.data, init.data)
    assert trace.breakdowns == []
    assert trace.iterations_run == 0
    assert not trace.converged


def test_threshold_conventions():
    np.testing.assert_array_equal(threshold(make_field((3, 3), 1.0, 0.7)).data, 1.0)
    np.testing.assert_array_equal(threshold(make_field((3, 3), 1.0, 0.3)).data, 0.0)
    np.testing.assert_array_equal(threshold(make_field((3, 3), 1.0, 0.5), 0.5).data, 1.0)
    with pytest.raises(FieldError):
        threshold(make_field((3, 3), 1.0, 0.5), 0.0)
    with pytest.raises(FieldError):
        threshold(make_field((3, 3), 1.0, 0.5), 1.0)


def test_determinism_bit_identical():
    case = small_disk(3)
    init = make_field(case.image.shape, 1.0, 0.5)
    p = EnergyParams(alpha=0.001, beta=0.5, mode=CurvatureMode.MEAN_2D)
    cfg = SolverConfig(max_iters=40, step_size=0.05, region_mode="cv-means")
    m1, t1 = segment(case.image, init, p, cfg)
    m2, t2 = segment(case.image, init, p, cfg)
    np.testing.assert_array_equal(m1.data, m2.data)
    assert [b.total for b in t1.breakdowns] == [b.total for b in t2.breakdowns]


def test_noisy_disk_reaches_high_dice_with_cv_means():
    case = small_disk(1)
    init = make_field(case.image.shape, 1.0, 0.5)
    p = EnergyParams(alpha=0.001, beta=0.0, mode=CurvatureMode.MEAN_2D)
    mask, trace = segment(case.image, init, p, SolverConfig(max_iters=300, region_mode="cv-means"))
    assert dice(threshold(mask), case.ground_truth) >= 0.95


def test_energy_descends_over_windows():
    case = small_disk(2)
    init = make_field(case.image.shape, 1.0, 0.5)
    p = EnergyParams(alpha=0.001, beta=0.0, mode=CurvatureMode.MEAN_2D)
    _, trace = segment(case.image, init, p, SolverConfig(max_iters=200, region_mode="cv-means"))
    tot = [b.total for b in trace.breakdowns]
    assert all(tot[i + 10] <= tot[i] + 1e-9 for i in range(len(tot) - 10))


def test_fixed_constants_mode():
    case = disk_case((48, 48), (23.5, 23.5), 11.0, fg=1.0, bg=0.0, noise_sigma=0.05, seed=5)
    init = make_field(case.image.shape, 1.0, 0.5)
    p = EnergyParams(alpha=0.001, beta=0.0, c1=1.0, c2=0.0, mode=CurvatureMode.MEAN_2D)
    mask, _ = segment(case.image, init, p, SolverConfig(max_iters=200, region_mode="fixed"))
    assert dice(threshold(mask), case.ground_truth) >= 0.95


def test_clipped_solve_keeps_the_mask_in_the_closed_interval():
    # at step 1.0 the projection clips voxels to both bounds and the mask ends binary, in either optimizer
    case = small_disk(4)
    init = make_field(case.image.shape, 1.0, 0.5)
    p = EnergyParams(alpha=0.001, beta=0.0, mode=CurvatureMode.MEAN_2D)
    for optimizer in OPTIMIZERS:
        cfg = SolverConfig(max_iters=150, step_size=1.0, optimizer=optimizer, region_mode="cv-means")
        mask, trace = segment(case.image, init, p, cfg)
        assert trace.converged, optimizer
        assert mask.data.min() == 0.0 and mask.data.max() == 1.0, optimizer
        assert dice(threshold(mask), case.ground_truth) >= 0.99, optimizer


def test_momentum_optimizer_converges():
    case = small_disk(6)
    init = make_field(case.image.shape, 1.0, 0.5)
    p = EnergyParams(alpha=0.001, beta=0.0, mode=CurvatureMode.MEAN_2D)
    cfg = SolverConfig(max_iters=200, optimizer="momentum", region_mode="cv-means")
    mask, _ = segment(case.image, init, p, cfg)
    assert dice(threshold(mask), case.ground_truth) >= 0.95


def test_cv_means_survives_degenerate_all_foreground_init(monkeypatch):
    raised = []
    real = elastiseg.solver.region_means

    def counting(*args):
        try:
            return real(*args)
        except DegenerateMaskError:
            raised.append(None)
            raise

    monkeypatch.setattr(elastiseg.solver, "region_means", counting)
    # a uniform bright image pushes an all-foreground mask further up: it never gains a background
    image = make_field((16, 16), 1.0, 1.0)
    init = make_field((16, 16), 1.0, 1.0)
    p = EnergyParams(alpha=0.001, beta=0.0, mode=CurvatureMode.MEAN_2D)
    mask, trace = segment(image, init, p, SolverConfig(max_iters=100, region_mode="cv-means"))
    np.testing.assert_array_equal(mask.data, 1.0)
    assert trace.iterations_run > 0
    assert len(raised) == trace.iterations_run  # the fallback ran after every update
    assert np.isfinite([b.total for b in trace.breakdowns]).all()


def test_cv_means_keeps_its_constants_when_the_mask_sum_rounds_to_the_voxel_count():
    # one dark voxel among bright ones: a tiny step moves that voxel alone, to 1 - 1.5e-12
    r = np.ones((256, 256))
    r[100, 37] = 0.0
    image = ScalarField(r, 1.0)
    p = EnergyParams(alpha=0.001, beta=0.0, c1=0.9, c2=0.3, mode=CurvatureMode.MEAN_2D)
    mask, trace = segment(image, make_field(r.shape, 1.0, 1.0), p,
                          SolverConfig(max_iters=1, step_size=1e-12, region_mode="cv-means"))
    u = mask.data
    assert float(np.sum(u)) == u.size and float(np.sum(1.0 - u)) > 0.0
    with pytest.raises(DegenerateMaskError):
        estimate_region_means(mask, image)
    # the exit energy uses the parameter set's constants, not the direct form's defined means
    assert trace.breakdowns == [segmentation_energy(mask, image, p)]
    direct = float(np.sum(u * r)) / float(np.sum(u)), float(np.sum((1.0 - u) * r)) / float(np.sum(1.0 - u))
    assert trace.breakdowns[0] != segmentation_energy(mask, image, p.with_constants(*direct))


@pytest.mark.parametrize("max_iters,stop_tol", [(20, 0.0), (2000, 1e-7)])
def test_one_moments_evaluation_per_iteration(monkeypatch, max_iters, stop_tol):
    weights = []
    real = elastiseg.energy.region_moments

    def counting(w, r, ws, b=None):
        weights.append((np.ndim(w), b is None))
        return real(w, r, ws, b)

    monkeypatch.setattr(elastiseg.energy, "region_moments", counting)
    monkeypatch.setattr(elastiseg.solver, "region_moments", counting)
    fused = _count_calls(monkeypatch, "energy_and_gradient_raw")
    masks = _count_calls(monkeypatch, "mask_moments")
    updates = _count_calls(monkeypatch, "_step")
    case = small_disk(1)
    init = make_field(case.image.shape, 1.0, 0.5)
    cfg = SolverConfig(max_iters=max_iters, region_mode="cv-means", stop_tol=stop_tol)
    one_block = elastiseg.workspace.BLOCK_BYTES
    # one block, eight blocks of 6 planes (a tree plan), and 48 one-plane blocks (not a tree plan)
    for planes, n_blocks in ((None, 1), (6, 8), (1, 48)):
        monkeypatch.setattr(elastiseg.workspace, "BLOCK_BYTES", planes * 8 * 48 if planes else one_block)
        assert len(Workspace(case.image.shape).blocks) == n_blocks
        weights.clear(), fused.clear(), masks.clear(), updates.clear()
        _, trace = segment(case.image, init, EnergyParams(beta=0.5), cfg)
        # the image's totals once; then the moments of each mask u_0 .. u_last once, which give
        # that mask's region sums (fused pass or exit energy) and the cv-means constants
        assert weights.count((0, True)) == 1 and weights.count((0, False)) == n_blocks, planes
        evaluated = len(fused) + (0 if trace.converged else 1)
        assert trace.converged == (stop_tol > 0.0) and len(masks) == evaluated, planes
        # every plan takes the moments of each updated mask in the update, one call per block; only u_0's
        # and the totals are of the whole field, and those too are taken as one call per block
        assert weights.count((2, True)) == 1, planes
        assert weights.count((2, False)) == (len(updates) + 1) * n_blocks, planes
        assert len(weights) == 2 + (len(updates) + 2) * n_blocks, planes


def test_non_finite_energy_reports_iteration_and_partial_trace():
    case = small_disk(8)
    init = case.image  # non-constant, so the length term is O(1) and overflows
    p = EnergyParams(alpha=1e308, beta=0.0, mode=CurvatureMode.MEAN_2D)
    with pytest.raises(NonFiniteEnergyError) as err:
        segment(case.image, init, p, SolverConfig(max_iters=10))
    assert err.value.iteration == 0
    assert err.value.trace.iterations_run == 0
    # the first step's scale is the non-finite one: no update was taken
    assert (err.value.c1, err.value.c2, err.value.scale) == (1.0, 0.0, None)
    assert str(err.value) == "non-finite energy at iteration 0 (last finite c1=1, c2=0, mean|g|=none)"


def test_shape_mismatch_rejected():
    with pytest.raises(FieldError):
        segment(make_field((8, 8), 1.0, 0.5), make_field((9, 8), 1.0, 0.5), EnergyParams(), SolverConfig())


def test_cv_means_rejects_an_image_past_the_constant_bound_before_solving(monkeypatch):
    fg = np.zeros((8, 8))
    fg.flat[::3] = 1.0
    passes = []
    monkeypatch.setattr(elastiseg.solver, "energy_and_gradient_raw", lambda *a: passes.append(a))
    with pytest.raises(FieldError, match="cv-means needs image values"):
        segment(ScalarField(1e120 * fg, 1.0), ScalarField(0.25 + 0.5 * fg, 1.0), EnergyParams(),
                SolverConfig(max_iters=3, region_mode="cv-means"))
    assert passes == []


def test_cv_means_solves_an_image_at_the_constant_bound():
    # the soft-weighted means of this image round to 1e100 * (1 + 2**-52) unless held at the bound
    image = make_field((8, 8), 1.0, MAX_CONSTANT)
    init = ScalarField(np.random.default_rng(3).random((8, 8)), 1.0)
    _, trace = segment(image, init, EnergyParams(), SolverConfig(max_iters=3, region_mode="cv-means"))
    assert trace.iterations_run == 3
    assert all(math.isfinite(bd.total) for bd in trace.breakdowns)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(step_size=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(optimizer="adam")
    with pytest.raises(ValueError):
        SolverConfig(region_mode="other")


@pytest.mark.parametrize("field,value", [("step_size", math.inf), ("step_size", math.nan),
                                         ("stop_tol", math.inf), ("stop_tol", math.nan), ("stop_tol", -1e-9)])
def test_config_rejects_non_finite_or_negative_knobs(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_converged_flag_on_flat_problem():
    # a perfectly explained image: constants match, gradient ~ 0, stop early
    img = make_field((16, 16), 1.0, 0.0)
    init = make_field((16, 16), 1.0, 0.0)
    p = EnergyParams(alpha=0.001, beta=0.0, c1=1.0, c2=0.0, mode=CurvatureMode.MEAN_2D)
    mask, trace = segment(img, init, p, SolverConfig(max_iters=500, region_mode="fixed"))
    assert trace.converged
    assert trace.iterations_run < 500


def test_mode_dimension_mismatch_rejected():
    case = small_disk()
    init = make_field(case.image.shape, 1.0, 0.5)
    with pytest.raises(FieldError):
        segment(case.image, init, EnergyParams(mode=CurvatureMode.FAST_3D), SolverConfig(max_iters=5))


def test_converging_disk_stops_where_it_always_has():
    case = disk_case((48, 48), (23.5, 23.5), 11, 0.8, 0.2, 0.1, 1)
    init = make_field(case.image.shape, 1.0, 0.5)
    p = EnergyParams(alpha=0.001, beta=0.0, mode=CurvatureMode.MEAN_2D)
    _, trace = segment(case.image, init, p, SolverConfig(max_iters=2000, region_mode="cv-means"))
    assert trace.iterations_run == 437
    assert trace.converged


# --- the trace energy of update i comes from the gradient pass of iteration i+1 ---

PARITY_ITERS = 12
PARITY_MODES = [(CurvatureMode.MEAN_2D, 0.0), (CurvatureMode.MEAN_2D, 0.5), (CurvatureMode.MEAN_3D, 0.5),
                (CurvatureMode.FAST_3D, 0.5), (CurvatureMode.LAPLACIAN_3D, 0.5)]


def _parity_case(mode):
    if mode.required_ndim == 2:
        return disk_case((16, 16), (7.5, 7.5), 4.0, fg=0.8, bg=0.2, noise_sigma=0.1, seed=11).image
    return sphere_case_3d((8, 8, 8), (3.5, 3.5, 3.5), 2.5, fg=0.8, bg=0.2, noise_sigma=0.1, seed=11).image


PARITY_CASES = [(m, b, o, r) for (m, b), o, r in itertools.product(PARITY_MODES, OPTIMIZERS, REGION_MODES)]


# each case on its one block, and on one plane per block: 16 blocks of 16 voxels or 8 of 64, not a tree plan;
# at step 0.05 and at step 1.0, where the projection clips most voxels of every update to 0 or 1
@pytest.mark.parametrize("mode,beta,optimizer,region_mode,one_plane,step", [
    pytest.param(*case, one_plane, step, id="-".join(map(str, case)) + ("-one-plane-blocks" if one_plane else "")
                 + ("" if step == 0.05 else f"-step{step}"))
    for step in (0.05, 1.0) for one_plane in (False, True) for case in PARITY_CASES
])
def test_fused_trace_matches_separate_energy(monkeypatch, mode, beta, optimizer, region_mode, one_plane, step):
    image = _parity_case(mode)
    if one_plane:
        monkeypatch.setattr(elastiseg.workspace, "BLOCK_BYTES", 8 * math.prod(image.shape[1:]))
        assert len(Workspace(image.shape).blocks) == image.shape[0]
    init = make_field(image.shape, 1.0, 0.5)
    params = EnergyParams(alpha=0.01, beta=beta, mode=mode)

    def run(iters):
        cfg = SolverConfig(max_iters=iters, step_size=step, optimizer=optimizer, region_mode=region_mode,
                           stop_tol=0.0)
        return segment(image, init, params, cfg)

    _, full = run(PARITY_ITERS)
    assert full.iterations_run == PARITY_ITERS
    for k in range(1, PARITY_ITERS + 1):
        mask, short = run(k)
        assert short.iterations_run == k
        # entries before the last come from the same fused passes in both runs
        assert short.breakdowns[:-1] == full.breakdowns[:k - 1]
        c1, c2 = estimate_region_means(mask, image) if region_mode == "cv-means" else (params.c1, params.c2)
        want = segmentation_energy(mask, image, params.with_constants(c1, c2))
        # the fused pass and the forward-only energy evaluate the same forward code
        assert full.breakdowns[k - 1] == want
        assert short.breakdowns[-1] == want


def test_single_iteration_records_one_breakdown():
    case = small_disk()
    init = make_field(case.image.shape, 1.0, 0.5)
    mask, trace = segment(case.image, init, EnergyParams(beta=0.5), SolverConfig(max_iters=1))
    assert trace.iterations_run == 1
    assert trace.breakdowns == [segmentation_energy(mask, case.image, EnergyParams(beta=0.5))]
    assert not trace.converged


def _count_calls(monkeypatch, name, override=None):
    calls = []
    real = getattr(elastiseg.solver, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return override(len(calls), out) if override else out

    monkeypatch.setattr(elastiseg.solver, name, wrapper)
    return calls


def test_one_fused_pass_per_iteration(monkeypatch):
    fused = _count_calls(monkeypatch, "energy_and_gradient_raw")
    separate = _count_calls(monkeypatch, "segmentation_energy")
    case = small_disk()
    init = make_field(case.image.shape, 1.0, 0.5)
    cfg = SolverConfig(max_iters=20, region_mode="cv-means", stop_tol=0.0)
    _, trace = segment(case.image, init, EnergyParams(beta=0.5), cfg)
    assert trace.iterations_run == 20
    assert len(fused) == 20
    assert len(separate) <= 1


def test_converged_run_needs_no_separate_energy(monkeypatch):
    separate = _count_calls(monkeypatch, "segmentation_energy")
    img = make_field((16, 16), 1.0, 0.0)
    p = EnergyParams(alpha=0.001, beta=0.0, c1=1.0, c2=0.0, mode=CurvatureMode.MEAN_2D)
    _, trace = segment(img, img, p, SolverConfig(max_iters=500, region_mode="fixed"))
    assert trace.converged
    assert separate == []


def _non_finite(bd: EnergyBreakdown) -> EnergyBreakdown:
    return EnergyBreakdown(bd.elastica, bd.region_in, bd.region_out, float("inf"))


def _record_scales(monkeypatch) -> list[float]:
    """The mean|g| each update returns, in order."""
    scales = []
    _count_calls(monkeypatch, "_step", lambda n, out: scales.append(out) or out)
    return scales


def _record_constants(monkeypatch) -> list[tuple[float, float]]:
    """The (c1, c2) each fused pass runs with, in order."""
    constants = []
    real = elastiseg.solver.energy_and_gradient_raw

    def recording(a, r, spacing, params, *rest):
        constants.append((params.c1, params.c2))
        return real(a, r, spacing, params, *rest)

    monkeypatch.setattr(elastiseg.solver, "energy_and_gradient_raw", recording)
    return constants


def test_non_finite_energy_mid_run_reports_the_update_index(monkeypatch):
    # the 4th fused pass (iteration 3) evaluates the state after update 2
    _count_calls(monkeypatch, "energy_and_gradient_raw",
                 lambda n, out: (_non_finite(out[0]), out[1]) if n == 4 else out)
    scales = _record_scales(monkeypatch)
    case = small_disk()
    init = make_field(case.image.shape, 1.0, 0.5)
    with pytest.raises(NonFiniteEnergyError) as err:
        segment(case.image, init, EnergyParams(), SolverConfig(max_iters=10))
    assert err.value.iteration == 2
    assert err.value.trace.iterations_run == 2
    assert all(np.isfinite(b.total) for b in err.value.trace.breakdowns)
    # update 2 was taken, at the scale it returned; the failing pass runs with the fixed constants
    assert len(scales) == 3 and math.isfinite(scales[-1])
    assert (err.value.c1, err.value.c2, err.value.scale) == (1.0, 0.0, scales[-1])
    assert f"mean|g|={scales[-1]:.6g})" in str(err.value)


def _poison(g: np.ndarray, value: float, everywhere: bool = False) -> np.ndarray:
    if everywhere:
        g.fill(value)
    else:
        g.flat[g.size // 2] = value
    return g


def _poison_in_pass(monkeypatch, at_pass: int, value: float, everywhere: bool = False) -> None:
    """Poison dE/du inside fused pass ``at_pass`` (from 1), each block as it completes, before the solver reads it."""
    passes = []
    real = elastiseg.solver._gradient_block

    def poisoning(sums, b, gb, tb):
        if b == 0:
            passes.append(None)
        if len(passes) == at_pass and (everywhere or b == 0):
            _poison(gb, value, everywhere)
        real(sums, b, gb, tb)

    monkeypatch.setattr(elastiseg.solver, "_gradient_block", poisoning)


@pytest.mark.parametrize("optimizer,region_mode", itertools.product(OPTIMIZERS, REGION_MODES))
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("everywhere", [False, True], ids=["one-voxel", "everywhere"])
def test_non_finite_gradient_reports_the_iteration_and_partial_trace(monkeypatch, optimizer, region_mode, value,
                                                                     everywhere):
    # the 3rd fused pass (iteration 2) records the energies after updates 0 and 1, then takes a poisoned step
    _poison_in_pass(monkeypatch, 3, value, everywhere)
    scales = _record_scales(monkeypatch)
    constants = _record_constants(monkeypatch)
    case = small_disk()
    init = make_field(case.image.shape, 1.0, 0.5)
    with pytest.raises(NonFiniteEnergyError) as err:
        segment(case.image, init, EnergyParams(),
                SolverConfig(max_iters=10, optimizer=optimizer, region_mode=region_mode))
    assert err.value.iteration == 2
    assert err.value.trace.iterations_run == 2
    assert len(err.value.trace.breakdowns) == 2
    # the error carries the constants of the poisoned pass and the scale of update 1, the last finite one
    assert len(scales) == 3 and not math.isfinite(scales[2]) and math.isfinite(scales[1])
    assert (err.value.c1, err.value.c2) == constants[2]
    assert err.value.scale == scales[1]
    if region_mode == "cv-means":  # re-estimated after updates 0 and 1
        assert constants[2] != constants[0]


def test_finite_gradient_whose_scale_overflows_is_non_finite(monkeypatch):
    # every |g| is finite but their mean overflows: the step is refused rather than taken as zero
    _poison_in_pass(monkeypatch, 1, 1e308, everywhere=True)
    case = small_disk()
    init = make_field(case.image.shape, 1.0, 0.5)
    with pytest.raises(NonFiniteEnergyError) as err:
        segment(case.image, init, EnergyParams(), SolverConfig(max_iters=10))
    assert err.value.iteration == 0
    assert err.value.trace.iterations_run == 0
    assert (err.value.c1, err.value.c2, err.value.scale) == (1.0, 0.0, None)


def test_non_finite_energy_after_last_update(monkeypatch):
    _count_calls(monkeypatch, "segmentation_energy", lambda n, out: _non_finite(out))
    scales = _record_scales(monkeypatch)
    case = small_disk()
    init = make_field(case.image.shape, 1.0, 0.5)
    with pytest.raises(NonFiniteEnergyError) as err:
        segment(case.image, init, EnergyParams(c1=0.75, c2=0.25), SolverConfig(max_iters=5))
    assert err.value.iteration == 4
    assert err.value.trace.iterations_run == 4
    assert len(scales) == 5
    assert (err.value.c1, err.value.c2, err.value.scale) == (0.75, 0.25, scales[-1])


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_step_multiplies_g_once_by_the_step_over_its_scale(optimizer):
    rng = np.random.default_rng(48)
    shape = (32, 36)
    ws = Workspace(shape)
    u, g = ws.take(), ws.take()
    u[...] = rng.uniform(0.0, 1.0, shape)
    g[...] = rng.standard_normal(shape)
    r = rng.random(shape)
    velocity = 0.01 * rng.standard_normal(shape) if optimizer == "momentum" else None
    u0, g0, v0 = u.copy(), g.copy(), None if velocity is None else velocity.copy()
    step = 0.07
    cfg = SolverConfig(step_size=step, optimizer=optimizer)
    g_sums = [block_sum(np.abs(gb)) for gb in ws.parts(g)]
    scale = elastiseg.solver._step(u, velocity, g, ws, cfg, ws.parts(r), g_sums, [None] * len(ws.blocks))
    assert scale == np.mean(np.abs(g0))
    if velocity is None:
        expected = np.clip(u0 + g0 * (-step / scale), 0, 1)
    else:
        v = 0.9 * v0 - g0 * (step / scale)
        assert velocity.tobytes() == v.tobytes()
        expected = np.clip(u0 + v, 0, 1)
    assert u.tobytes() == expected.tobytes()
    assert 0 < np.count_nonzero((expected == 0.0) | (expected == 1.0)) < u.size  # the projection bites on some voxels


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("step", [1.0, 1e300])
def test_a_zero_gradient_takes_a_zero_step_at_any_step_size(optimizer, step):
    # c1 = c2 zeroes the region force and a uniform mask has no length force, so g = 0; step/mean|g| overflows,
    # and the capped factor keeps 0*factor at 0 rather than NaN
    case = small_disk()
    init = make_field(case.image.shape, 1.0, 0.5)
    cfg = SolverConfig(max_iters=20, step_size=step, optimizer=optimizer)
    mask, trace = segment(case.image, init, EnergyParams(beta=0.0, c1=0.5, c2=0.5), cfg)
    assert trace.converged and trace.iterations_run == STOP_WINDOW + 1
    assert mask.data.tobytes() == init.data.tobytes()


def _traced_peak_in_arrays(image, init, params, cfg):
    tracemalloc.start()
    try:
        segment(image, init, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / image.data.nbytes


def _sphere(shape):
    return sphere_case_3d(shape, tuple((n - 1) / 2 for n in shape), shape[1] * 7 / 24, noise_sigma=0.1, seed=0)


# 24^3 is one block, 64^3 eight blocks of 8 planes (a tree plan), 65x64x64 nine, the last of one plane
BUDGET_SHAPES = [(24, 24, 24), (64, 64, 64), (65, 64, 64)]


@pytest.mark.parametrize("shape, budget", zip(BUDGET_SHAPES, (12.5, 6.725, 6.725)),
                         ids=["24-12.5", "64-6.725", "65x64x64-6.725"])
def test_fast3d_solve_memory_budget_does_not_grow_per_iteration(shape, budget):
    # numpy reports its buffers to tracemalloc, so the traced peak counts every
    # full-size array alive at once: the mask, the velocity, the workspace and
    # any temporary (at 24^3 the ufunc buffers alone add about 1.8 arrays).
    # 24^3 is one block (12.41 arrays measured); with several blocks the
    # workspace holds 4 full-size arrays and 12 block-sized ones (6.66 at
    # 64^3, 6.64 at 65x64x64)
    case = _sphere(shape)
    assert len(Workspace(case.image.shape).blocks) == {24: 1, 64: 8, 65: 9}[shape[0]]
    init = make_field(case.image.shape, 1.0, 0.5)
    params = EnergyParams(alpha=0.001, beta=0.1, mode=CurvatureMode.FAST_3D)
    peaks = [_traced_peak_in_arrays(case.image, init, params,
                                    SolverConfig(max_iters=k, optimizer="momentum", region_mode="cv-means",
                                                 stop_tol=0.0))
             for k in (3, 15)]
    assert peaks[0] <= budget, peaks
    assert abs(peaks[1] - peaks[0]) < 0.1, peaks


@pytest.mark.parametrize("shape, budget", zip(BUDGET_SHAPES, (20.75, 7.725, 7.725)),
                         ids=["24-20.75", "64-7.725", "65x64x64-7.725"])
def test_mean3d_solve_memory_budget_does_not_grow_per_iteration(shape, budget):
    # the mean modes compute every stencil output and pointwise expression in
    # the workspace: 18 arrays at beta > 0 on one block (24^3: 20.46 arrays
    # measured with the mask, the velocity, the fields and the ufunc buffers),
    # and 4 full-size arrays and 20 block-sized ones with several blocks
    # (7.67 at 64^3, 7.64 at 65x64x64)
    case = _sphere(shape)
    init = make_field(case.image.shape, 1.0, 0.5)
    params = EnergyParams(alpha=0.001, beta=0.1, mode=CurvatureMode.MEAN_3D)
    peaks = [_traced_peak_in_arrays(case.image, init, params,
                                    SolverConfig(max_iters=k, optimizer="momentum", region_mode="cv-means",
                                                 stop_tol=0.0))
             for k in (3, 15)]
    assert peaks[0] <= budget, peaks
    assert abs(peaks[1] - peaks[0]) < 0.1, peaks


# bytes of interpreter objects (views, dict entries) by which two traced peaks of one solve may differ: 304 B
# was the worst reading of 40 repeats at 24^3, a full-size temporary there is 110592 B
INTERPRETER_BYTES = 2048


def test_momentum_velocity_does_not_raise_the_peak_memory():
    # the velocity is freed before the output field's copy, so a momentum solve peaks no higher than a gd solve
    case = _sphere((24, 24, 24))
    init = make_field(case.image.shape, 1.0, 0.5)
    params = EnergyParams(alpha=0.001, beta=0.1, mode=CurvatureMode.FAST_3D)
    gd, momentum = (_traced_peak_in_arrays(case.image, init, params,
                                           SolverConfig(max_iters=3, optimizer=opt, region_mode="cv-means",
                                                        stop_tol=0.0))
                    for opt in ("gd", "momentum"))
    assert (momentum - gd) * case.image.data.nbytes <= INTERPRETER_BYTES, (gd, momentum)


def test_workspace_holds_a_fixed_number_of_arrays_per_mode(monkeypatch):
    rng = np.random.default_rng(8)
    expected = {  # beta = 0: the mask, the first differences, |grad u| and one scratch array
        (CurvatureMode.MEAN_2D, 0.0): 5, (CurvatureMode.MEAN_2D, 0.5): 14,
        (CurvatureMode.MEAN_3D, 0.0): 6, (CurvatureMode.MEAN_3D, 0.5): 19,
        (CurvatureMode.FAST_3D, 0.0): 6, (CurvatureMode.FAST_3D, 0.5): 11,
        (CurvatureMode.LAPLACIAN_3D, 0.0): 6, (CurvatureMode.LAPLACIAN_3D, 0.5): 9,
    }
    # several blocks: the mask, the first and second differences along axis 0 and the gradient are full-size
    # (3 arrays at beta = 0, 4 at beta > 0), the rest block-sized, each block's density among them, and a
    # block's cotangents (not K's, which goes back after the pullback) kept until the next block's first
    # stage is done
    expected_blocks = {
        (CurvatureMode.MEAN_2D, 0.0): 4, (CurvatureMode.MEAN_2D, 0.5): 13,
        (CurvatureMode.MEAN_3D, 0.0): 6, (CurvatureMode.MEAN_3D, 0.5): 20,
        (CurvatureMode.FAST_3D, 0.0): 6, (CurvatureMode.FAST_3D, 0.5): 12,
        (CurvatureMode.LAPLACIAN_3D, 0.0): 6, (CurvatureMode.LAPLACIAN_3D, 0.5): 8,
    }
    made = []

    class Recording(elastiseg.solver.Workspace):
        def __init__(self, shape):
            super().__init__(shape)
            made.append(self)

    monkeypatch.setattr(elastiseg.solver, "Workspace", Recording)
    one_block = elastiseg.workspace.BLOCK_BYTES
    for (mode, beta), n in expected.items():
        # one block; one-plane blocks of under 72 voxels (not a tree plan); eight blocks of 72 (a tree plan)
        for plan in ("one", "one-plane", "tree"):
            if plan == "tree":
                shape, planes = ((16, 36), 2) if mode.required_ndim == 2 else ((8, 9, 8), 1)
            else:
                shape, planes = ((12, 12) if mode.required_ndim == 2 else (8, 9, 7)), 1
            monkeypatch.setattr(elastiseg.workspace, "BLOCK_BYTES",
                                one_block if plan == "one" else planes * 8 * math.prod(shape[1:]))
            image = ScalarField(rng.random(shape), 1.0)
            init = make_field(shape, 1.0, 0.5)
            for opt in OPTIMIZERS:
                cfg = SolverConfig(max_iters=4, optimizer=opt, region_mode="cv-means")
                segment(image, init, EnergyParams(alpha=0.01, beta=beta, mode=mode), cfg)
                ws = made[-1]
                if plan == "one":
                    assert len(ws) == n, (mode, beta, opt)
                else:
                    full = 3 if beta == 0.0 else 4
                    assert len(ws.blocks) == (8 if plan == "tree" else shape[0]), plan
                    assert len(ws._full.arrays) == full, (mode, beta, opt, plan)
                    assert len(ws) == full + expected_blocks[mode, beta], (mode, beta, opt, plan)


@pytest.mark.parametrize("mode, beta", [(CurvatureMode.MEAN_2D, 0.0), (CurvatureMode.MEAN_2D, 0.5),
                                        (CurvatureMode.MEAN_3D, 0.5), (CurvatureMode.FAST_3D, 0.5),
                                        (CurvatureMode.LAPLACIAN_3D, 0.5)])
def test_max_iters_solve_evaluates_its_exit_energy_in_its_one_workspace(monkeypatch, mode, beta):
    made = []
    real_init = Workspace.__init__

    def recording_init(self, shape):
        real_init(self, shape)
        made.append(self)

    monkeypatch.setattr(Workspace, "__init__", recording_init)
    shape = (12, 12) if mode.required_ndim == 2 else (8, 9, 7)
    image = ScalarField(np.random.default_rng(9).random(shape), 1.0)
    cfg = SolverConfig(max_iters=3, region_mode="cv-means", stop_tol=0.0)
    mask, trace = segment(image, make_field(shape, 1.0, 0.5), EnergyParams(alpha=0.01, beta=beta, mode=mode), cfg)
    assert trace.iterations_run == 3 and not trace.converged
    assert len(made) == 1
    # the exit energy gave every array but the mask back: taking all the others allocates none
    ws = made[0]
    n = len(ws)
    arrays = [ws.take() for _ in range(n - 1)]
    assert len(ws) == n and len({id(a) for a in arrays}) == n - 1
    # the one array still held is the mask's, which no take hands out: the next one allocates
    held = [a for a in ws._full.arrays if all(a is not t for t in arrays)]
    assert len(held) == 1 and np.array_equal(held[0], mask.data)
    assert ws.take() is not held[0] and len(ws) == n + 1
