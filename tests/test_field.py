import numpy as np
import pytest

from elastiseg import FieldError, ScalarField, clamp01, is_binary, make_field


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
