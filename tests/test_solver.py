import itertools
import tracemalloc

import numpy as np
import pytest

import elastiseg.solver
from elastiseg import (
    CurvatureMode,
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
from elastiseg.solver import OPTIMIZERS, PARAMETERIZATIONS


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


def test_logistic_parameterization_stays_open_interval():
    case = small_disk(4)
    init = make_field(case.image.shape, 1.0, 0.5)
    p = EnergyParams(alpha=0.001, beta=0.0, mode=CurvatureMode.MEAN_2D)
    cfg = SolverConfig(max_iters=150, parameterization="logistic", region_mode="cv-means")
    mask, _ = segment(case.image, init, p, cfg)
    assert mask.data.min() > 0.0
    assert mask.data.max() < 1.0
    assert dice(threshold(mask), case.ground_truth) >= 0.9


def test_momentum_optimizer_converges():
    case = small_disk(6)
    init = make_field(case.image.shape, 1.0, 0.5)
    p = EnergyParams(alpha=0.001, beta=0.0, mode=CurvatureMode.MEAN_2D)
    cfg = SolverConfig(max_iters=200, optimizer="momentum", region_mode="cv-means")
    mask, _ = segment(case.image, init, p, cfg)
    assert dice(threshold(mask), case.ground_truth) >= 0.95


def test_cv_means_survives_degenerate_all_foreground_init():
    case = small_disk(7)
    init = make_field(case.image.shape, 1.0, 1.0)  # no background: first estimate degenerate
    p = EnergyParams(alpha=0.001, beta=0.0, mode=CurvatureMode.MEAN_2D)
    mask, trace = segment(case.image, init, p, SolverConfig(max_iters=100, region_mode="cv-means"))
    assert trace.iterations_run > 0
    assert np.isfinite([b.total for b in trace.breakdowns]).all()


def test_non_finite_energy_reports_iteration_and_partial_trace():
    case = small_disk(8)
    init = case.image  # non-constant, so the length term is O(1) and overflows
    p = EnergyParams(alpha=1e308, beta=0.0, mode=CurvatureMode.MEAN_2D)
    with pytest.raises(NonFiniteEnergyError) as err:
        segment(case.image, init, p, SolverConfig(max_iters=10))
    assert err.value.iteration == 0
    assert err.value.trace.iterations_run == 0


def test_shape_mismatch_rejected():
    with pytest.raises(FieldError):
        segment(make_field((8, 8), 1.0, 0.5), make_field((9, 8), 1.0, 0.5), EnergyParams(), SolverConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(step_size=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(optimizer="adam")
    with pytest.raises(ValueError):
        SolverConfig(parameterization="raw")
    with pytest.raises(ValueError):
        SolverConfig(region_mode="other")


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


@pytest.mark.parametrize("mode,beta,optimizer,param,region_mode", [
    (m, b, o, p, r) for (m, b), o, p, r in itertools.product(
        PARITY_MODES, ("gd", "momentum"), ("clipped", "logistic"), ("fixed", "cv-means"))
])
def test_fused_trace_matches_separate_energy(mode, beta, optimizer, param, region_mode):
    image = _parity_case(mode)
    init = make_field(image.shape, 1.0, 0.5)
    params = EnergyParams(alpha=0.01, beta=beta, mode=mode)

    def run(iters):
        cfg = SolverConfig(max_iters=iters, step_size=0.05, optimizer=optimizer, parameterization=param,
                           region_mode=region_mode, stop_tol=0.0)
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


def test_non_finite_energy_mid_run_reports_the_update_index(monkeypatch):
    # the 4th fused pass (iteration 3) evaluates the state after update 2
    _count_calls(monkeypatch, "energy_and_gradient_raw",
                 lambda n, out: (_non_finite(out[0]), out[1]) if n == 4 else out)
    case = small_disk()
    init = make_field(case.image.shape, 1.0, 0.5)
    with pytest.raises(NonFiniteEnergyError) as err:
        segment(case.image, init, EnergyParams(), SolverConfig(max_iters=10))
    assert err.value.iteration == 2
    assert err.value.trace.iterations_run == 2
    assert all(np.isfinite(b.total) for b in err.value.trace.breakdowns)


def test_non_finite_energy_after_last_update(monkeypatch):
    _count_calls(monkeypatch, "segmentation_energy", lambda n, out: _non_finite(out))
    case = small_disk()
    init = make_field(case.image.shape, 1.0, 0.5)
    with pytest.raises(NonFiniteEnergyError) as err:
        segment(case.image, init, EnergyParams(), SolverConfig(max_iters=5))
    assert err.value.iteration == 4
    assert err.value.trace.iterations_run == 4


def _traced_peak_in_arrays(image, init, params, cfg):
    tracemalloc.start()
    try:
        segment(image, init, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / image.data.nbytes


def test_fast3d_solve_memory_budget_does_not_grow_per_iteration():
    # numpy reports its buffers to tracemalloc, so the traced peak counts every
    # full-size array alive at once: the mask, the velocity, the workspace and
    # any temporary (at 24^3 the ufunc buffers alone add about 1.8 arrays)
    case = sphere_case_3d((24, 24, 24), (11.5, 11.5, 11.5), 7.0, noise_sigma=0.1, seed=0)
    init = make_field(case.image.shape, 1.0, 0.5)
    params = EnergyParams(alpha=0.001, beta=0.1, mode=CurvatureMode.FAST_3D)
    peaks = [_traced_peak_in_arrays(case.image, init, params,
                                    SolverConfig(max_iters=n, optimizer="momentum", region_mode="cv-means",
                                                 stop_tol=0.0))
             for n in (3, 15)]
    assert peaks[0] <= 16.0, peaks
    assert abs(peaks[1] - peaks[0]) < 0.1, peaks


def test_mean3d_solve_memory_budget_does_not_grow_per_iteration():
    # the mean modes take their stencil outputs from the workspace and
    # allocate only their pointwise temporaries
    case = sphere_case_3d((24, 24, 24), (11.5, 11.5, 11.5), 7.0, noise_sigma=0.1, seed=0)
    init = make_field(case.image.shape, 1.0, 0.5)
    params = EnergyParams(alpha=0.001, beta=0.1, mode=CurvatureMode.MEAN_3D)
    peaks = [_traced_peak_in_arrays(case.image, init, params,
                                    SolverConfig(max_iters=n, optimizer="momentum", region_mode="cv-means",
                                                 stop_tol=0.0))
             for n in (3, 15)]
    assert peaks[0] <= 28.0, peaks
    assert abs(peaks[1] - peaks[0]) < 0.1, peaks


def test_workspace_holds_a_fixed_number_of_arrays_per_mode(monkeypatch):
    rng = np.random.default_rng(8)
    expected = {  # beta = 0: the first differences, |grad u| and one scratch array
        (CurvatureMode.MEAN_2D, 0.0): 4, (CurvatureMode.MEAN_2D, 0.5): 8,
        (CurvatureMode.MEAN_3D, 0.0): 5, (CurvatureMode.MEAN_3D, 0.5): 12,
        (CurvatureMode.FAST_3D, 0.0): 5, (CurvatureMode.FAST_3D, 0.5): 10,
        (CurvatureMode.LAPLACIAN_3D, 0.0): 5, (CurvatureMode.LAPLACIAN_3D, 0.5): 7,
    }
    made = []

    class Recording(elastiseg.solver.Workspace):
        def __init__(self, shape):
            super().__init__(shape)
            made.append(self)

    monkeypatch.setattr(elastiseg.solver, "Workspace", Recording)
    for (mode, beta), n in expected.items():
        shape = (12, 12) if mode.required_ndim == 2 else (8, 9, 7)
        image = ScalarField(rng.random(shape), 1.0)
        init = make_field(shape, 1.0, 0.5)
        for opt, par in itertools.product(OPTIMIZERS, PARAMETERIZATIONS):
            cfg = SolverConfig(max_iters=4, optimizer=opt, parameterization=par, region_mode="cv-means")
            segment(image, init, EnergyParams(alpha=0.01, beta=beta, mode=mode), cfg)
            assert len(made[-1]) == n, (mode, beta, opt, par)
