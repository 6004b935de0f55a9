import re
import tracemalloc

import numpy as np
import pytest

from elastiseg import CurvatureMode, FieldError, ScalarField, clamp01, curvature, is_binary, make_field
from elastiseg.energy import EnergyParams, elastica_term
from elastiseg.solver import SolverConfig, segment, threshold


def test_make_field_constant_2d():
    f = make_field((4, 4), 1.0, 0.0)
    assert f.shape == (4, 4)
    assert f.ndim == 2
    assert np.all(f.data == 0.0)
    assert f.data.size == 16


def test_make_field_layout_3d():
    f = make_field((2, 3, 4), 1.0, 1.0)
    assert np.all(f.data == 1.0)
    assert f.data.size == 24
    # row-major: (k, j, i) -> k*12 + j*4 + i
    marked = f.data.copy()
    marked[1, 2, 3] = 7.0
    assert marked.ravel(order="C")[1 * 12 + 2 * 4 + 3] == 7.0


def test_index_map_is_bijection():
    f = make_field((3, 4, 5), 1.0, 0.0)
    offsets = {np.ravel_multi_index(idx, f.shape) for idx in np.ndindex(f.shape)}
    assert offsets == set(range(f.data.size))
    for idx in np.ndindex(f.shape):
        off = np.ravel_multi_index(idx, f.shape)
        assert np.unravel_index(off, f.shape) == idx


def test_make_field_rejects_nan_fill():
    with pytest.raises(FieldError):
        make_field((3, 3), 1.0, float("nan"))


def test_construction_rejects_nonfinite_data():
    data = np.zeros((3, 3))
    data[1, 1] = np.inf
    with pytest.raises(FieldError):
        ScalarField(data, 1.0)


def test_construction_rejects_bad_spacing_and_shape():
    with pytest.raises(FieldError):
        ScalarField(np.zeros((3, 3)), (1.0, 0.0))
    with pytest.raises(FieldError):
        ScalarField(np.zeros((3, 3)), (1.0, -2.0))
    with pytest.raises(FieldError):
        ScalarField(np.zeros(4), 1.0)  # 1D
    with pytest.raises(FieldError):
        ScalarField(np.zeros((2, 2, 2, 2)), 1.0)  # 4D
    with pytest.raises(FieldError):
        make_field((0, 4), 1.0, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_construction_rejects_non_finite_spacing(bad):
    with pytest.raises(FieldError):
        ScalarField(np.zeros((3, 3)), (bad, 1.0))
    with pytest.raises(FieldError):
        ScalarField(np.zeros((3, 3, 3)), bad)
    with pytest.raises(FieldError):
        make_field((3, 3), bad, 0.0)


def test_make_field_spacing_per_axis_and_length_mismatch():
    assert make_field((3, 4, 5), (1.0, 2.0, 0.5), 0.0).spacing == (1.0, 2.0, 0.5)
    with pytest.raises(FieldError):
        make_field((3, 4), (1.0, 2.0, 0.5), 0.0)


def test_data_is_read_only_and_copied():
    src = np.zeros((3, 3))
    f = ScalarField(src, 1.0)
    src[0, 0] = 5.0  # the field must have taken a copy
    assert f.data[0, 0] == 0.0
    with pytest.raises(ValueError):
        f.data[0, 0] = 1.0


@pytest.mark.parametrize("make", [lambda soft: make_field(soft.shape, 1.0, 0.5), lambda soft: threshold(soft)],
                         ids=["make_field", "threshold"])
def test_fill_and_threshold_allocate_one_field(make):
    soft = ScalarField(np.random.default_rng(43).random((256, 256)), 1.0)
    tracemalloc.start()
    try:
        field = make(soft)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a second float64 array would double the peak; bool temporaries add an eighth each
    assert peak < 1.5 * field.data.nbytes, peak


def test_spacing_broadcast_and_measure():
    f = make_field((4, 5), 0.5, 0.0)
    assert f.spacing == (0.5, 0.5)
    assert f.voxel_measure == 0.25
    g = ScalarField(np.zeros((4, 5, 6)), (1.0, 2.0, 3.0))
    assert g.voxel_measure == 6.0


def test_clamp01():
    f = ScalarField(np.array([[-0.2, 0.5, 1.3], [0.0, 0.7, 1.0]]), 1.0)
    c = clamp01(f)
    np.testing.assert_array_equal(c.data, [[0.0, 0.5, 1.0], [0.0, 0.7, 1.0]])
    z = make_field((3, 3), 1.0, 0.0)
    np.testing.assert_array_equal(clamp01(z).data, z.data)
    u = make_field((3, 3), 1.0, 0.7)
    np.testing.assert_array_equal(clamp01(u).data, u.data)


def test_is_binary():
    assert is_binary(make_field((3, 3), 1.0, 1.0))
    assert is_binary(make_field((3, 3), 1.0, 0.0))
    assert not is_binary(make_field((3, 3), 1.0, 0.5))


@pytest.mark.parametrize("mode", list(CurvatureMode))
def test_one_mode_dimension_rule_at_every_entry_point(mode):
    wrong = make_field((4, 4, 4) if mode.required_ndim == 2 else (6, 6), 1.0, 0.5)
    expected = f"curvature mode {mode.value} requires {mode.required_ndim}D data, got {wrong.ndim}D"
    params = EnergyParams(mode=mode)  # beta = 0 reads no curvature, and still checks the mode
    for call in (lambda: curvature(wrong, mode), lambda: elastica_term(wrong, params),
                 lambda: segment(wrong, wrong, params, SolverConfig(max_iters=1))):
        with pytest.raises(FieldError, match=re.escape(expected)):
            call()
