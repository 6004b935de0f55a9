import numpy as np
import pytest

from elastiseg import (
    FieldError,
    broken_tube_case,
    count_components,
    disk_case,
    hemisphere_field,
    is_binary,
    mean_curvature_2d,
    sphere_case_3d,
    threshold,
)


def test_disk_noise_free_is_two_valued():
    case = disk_case((64, 64), (31.5, 31.5), 12.0, fg=0.8, bg=0.2, noise_sigma=0.0, seed=0)
    assert set(np.unique(case.image.data)) == {0.2, 0.8}
    assert is_binary(case.ground_truth)


def test_disk_area_near_pi_r_squared():
    for r in (15.0, 20.0, 27.0):
        case = disk_case((80, 80), (39.5, 39.5), r, noise_sigma=0.0, seed=0)
        area = case.ground_truth.data.sum()
        assert abs(area - np.pi * r * r) <= 0.05 * np.pi * r * r


def test_disk_determinism_and_seed_sensitivity():
    a = disk_case((32, 32), (15.5, 15.5), 8.0, seed=7)
    b = disk_case((32, 32), (15.5, 15.5), 8.0, seed=7)
    c = disk_case((32, 32), (15.5, 15.5), 8.0, seed=8)
    np.testing.assert_array_equal(a.image.data, b.image.data)
    assert not np.array_equal(a.image.data, c.image.data)


def test_disk_geometry_errors():
    with pytest.raises(FieldError):
        disk_case((64, 64), (31.5, 31.5), 1000.0)
    with pytest.raises(FieldError):
        disk_case((64, 64), (31.5, 31.5), 1.0)
    with pytest.raises(FieldError):
        disk_case((64, 64), (31.5, 31.5), 10.0, fg=0.5, bg=0.5)


@pytest.mark.parametrize("center,radius", [((float("nan"), 31.5), 10.0), ((31.5, 31.5), float("nan")),
                                           ((float("inf"), 31.5), 10.0), ((31.5, 31.5), float("inf"))])
def test_disk_rejects_non_finite_geometry(center, radius):
    with pytest.raises(FieldError, match="finite"):
        disk_case((64, 64), center, radius)
    with pytest.raises(FieldError, match="finite"):
        sphere_case_3d((16, 16, 16), (*center, 7.5), radius)


def test_image_stays_in_unit_range():
    case = disk_case((48, 48), (23.5, 23.5), 10.0, noise_sigma=0.5, seed=3)
    assert case.image.data.min() >= 0.0
    assert case.image.data.max() <= 1.0


def test_sphere_case():
    case = sphere_case_3d((32, 32, 32), (15.5, 15.5, 15.5), 11.0, noise_sigma=0.0, seed=0)
    vol = case.ground_truth.data.sum()
    expect = 4.0 / 3.0 * np.pi * 11.0**3
    assert abs(vol - expect) <= 0.05 * expect
    again = sphere_case_3d((32, 32, 32), (15.5, 15.5, 15.5), 11.0, noise_sigma=0.0, seed=0)
    np.testing.assert_array_equal(case.image.data, again.image.data)


def test_broken_tube_components():
    case = broken_tube_case((96, 96), width=5, gap_count=2, gap_len=3, noise_sigma=0.0, seed=0)
    assert count_components(case.ground_truth) == 1
    pre_noise = threshold(case.image)
    assert count_components(pre_noise) == 3
    solid = broken_tube_case((96, 96), width=5, gap_count=0, gap_len=3, noise_sigma=0.0, seed=0)
    np.testing.assert_array_equal(threshold(solid.image).data, solid.ground_truth.data)


def test_broken_tube_gap_pixels_are_background():
    case = broken_tube_case((64, 64), width=4, gap_count=2, gap_len=2, noise_sigma=0.0, seed=0)
    diff = case.ground_truth.data - threshold(case.image).data
    assert diff.min() >= 0.0
    assert diff.sum() == 2 * 2 * 4  # gap_count * gap_len * width erased voxels


def test_broken_tube_infeasible():
    with pytest.raises(FieldError):
        broken_tube_case((20, 20), width=5, gap_count=4, gap_len=5)
    with pytest.raises(FieldError):
        broken_tube_case((6, 96), width=6)


def test_hemisphere_center_value_and_symmetry():
    f = hemisphere_field((81, 81), 30.0)
    assert f.data[40, 40] == 30.0
    np.testing.assert_array_equal(f.data, np.rot90(f.data))
    np.testing.assert_allclose(f.data, f.data.T, rtol=0, atol=0)


def test_hemisphere_curvature_matches_sphere():
    f = hemisphere_field((256, 256), 40.0)
    k = mean_curvature_2d(f).data
    c = 127.5
    yy, xx = np.meshgrid(np.arange(256.0) - c, np.arange(256.0) - c, indexing="ij")
    inner = xx**2 + yy**2 <= 24.0**2
    rel = np.abs(np.abs(k[inner]) - 1.0 / 40.0) * 40.0
    assert rel.mean() <= 0.03


def test_hemisphere_degenerate():
    with pytest.raises(FieldError):
        hemisphere_field((64, 64), 4.0)
    with pytest.raises(FieldError):
        hemisphere_field((32, 32), 60.0)
