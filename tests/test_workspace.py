import itertools

import numpy as np
import pytest

import elastiseg.solver
from elastiseg import CurvatureMode, EnergyParams, ScalarField, SolverConfig, make_field, segment
from elastiseg.solver import OPTIMIZERS, PARAMETERIZATIONS
from elastiseg.workspace import ALIGNMENT, Workspace, aligned_empty

ODD_SHAPES = [(1, 1), (3, 5), (7, 13), (96, 96), (1, 1, 1), (3, 5, 7), (9, 11, 13), (5, 1, 3)]


def assert_solver_array(arr, shape):
    assert arr.ctypes.data % ALIGNMENT == 0
    assert arr.flags.c_contiguous and arr.flags.writeable
    assert arr.dtype == np.float64
    assert arr.shape == shape


@pytest.mark.parametrize("shape", ODD_SHAPES)
def test_aligned_empty_starts_on_a_cache_line(shape):
    # successive allocations land at different offsets from numpy's own 16-byte alignment
    for _ in range(8):
        assert_solver_array(aligned_empty(shape), shape)


@pytest.mark.parametrize("shape", ODD_SHAPES)
def test_take_hands_out_aligned_arrays_through_give_take_cycles(shape):
    ws = Workspace(shape)
    held = [ws.take() for _ in range(5)]
    seen = list(held)
    for cycle in range(4):
        given, held = held[cycle % 2::2], held[1 - cycle % 2::2]
        ws.give(*given)
        held += [ws.take() for _ in range(3)]
        seen += held
    for arr in seen:
        assert_solver_array(arr, shape)
    # foreign arrays, scalars and double gives are still ignored
    ws.give(held[0], held[0], np.empty(shape), aligned_empty(shape), 1.0)
    assert ws.take() is held[0]
    n = len(ws)
    fresh = ws.take()
    assert len(ws) == n + 1 and not any(fresh is a for a in seen)
    assert_solver_array(fresh, shape)


@pytest.mark.parametrize("opt, par", list(itertools.product(OPTIMIZERS, PARAMETERIZATIONS)))
@pytest.mark.parametrize("shape, mode", [((13, 11), CurvatureMode.MEAN_2D), ((7, 9, 5), CurvatureMode.MEAN_3D),
                                         ((7, 9, 5), CurvatureMode.FAST_3D)])
def test_solver_mask_velocity_and_logit_are_aligned(monkeypatch, opt, par, shape, mode):
    seen = []
    real_step = elastiseg.solver._step

    def recording_step(u, z, velocity, g, ws, cfg):
        seen.append((u, z, velocity, g))
        return real_step(u, z, velocity, g, ws, cfg)

    monkeypatch.setattr(elastiseg.solver, "_step", recording_step)
    image = ScalarField(np.random.default_rng(2).random(shape), 1.0)
    cfg = SolverConfig(max_iters=3, optimizer=opt, parameterization=par, stop_tol=0.0)
    segment(image, make_field(shape, 1.0, 0.5), EnergyParams(alpha=0.01, beta=0.5, mode=mode), cfg)
    assert len(seen) == 3
    for u, z, velocity, g in seen:
        assert (z is not None) == (par == "logistic")
        assert (velocity is not None) == (opt == "momentum")
        for arr in (u, z, velocity, g):
            if arr is not None:
                assert_solver_array(arr, shape)
