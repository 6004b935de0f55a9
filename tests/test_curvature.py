import math

import numpy as np
import pytest

from elastiseg import (
    CurvatureMode,
    FieldError,
    ScalarField,
    curvature,
    fast_curvature_3d,
    hemisphere_field,
    laplacian_3d,
    make_field,
    mean_curvature_2d,
    mean_curvature_3d,
)
from elastiseg import workspace
from elastiseg.curvature import curvature_forward
from elastiseg.diffops import d1, d2, dmixed
from elastiseg.energy import EnergyParams, elastica_forward
from elastiseg.workspace import Workspace


def centered_field(shape, fn):
    grids = np.meshgrid(*[np.arange(n, dtype=float) - n // 2 for n in shape], indexing="ij")
    return ScalarField(fn(*grids), 1.0)


def interior(a):
    return a[tuple(slice(1, -1) for _ in range(a.ndim))]


def test_mode_parse_and_dimensionality():
    assert CurvatureMode.parse("MEAN2D") is CurvatureMode.MEAN_2D
    assert CurvatureMode.MEAN_2D.required_ndim == 2
    assert CurvatureMode.FAST_3D.required_ndim == 3
    with pytest.raises(ValueError):
        CurvatureMode.parse("nope")
    with pytest.raises(FieldError):
        mean_curvature_2d(make_field((4, 4, 4), 1.0, 0.0))
    with pytest.raises(FieldError):
        mean_curvature_3d(make_field((4, 4), 1.0, 0.0))


def test_mean2d_flat_and_paraboloid():
    np.testing.assert_array_equal(mean_curvature_2d(make_field((6, 6), 1.0, 1.0)).data, 0.0)
    f = centered_field((7, 7), lambda x, y: 0.5 * x**2 + 0.5 * y**2)
    k = mean_curvature_2d(f).data
    assert k[3, 3] == 1.0  # (2a + 2b)/2 with zero slope at the center


def test_mean2d_hemisphere_accuracy():
    r = 40.0
    f = hemisphere_field((256, 256), r)
    k = mean_curvature_2d(f).data
    c = (256 - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(256.0) - c, np.arange(256.0) - c, indexing="ij")
    inner = xx**2 + yy**2 <= (0.6 * r) ** 2
    rel = np.abs(np.abs(k[inner]) - 1.0 / r) * r
    assert rel.max() <= 0.03


def test_mean3d_probe_and_ramp():
    np.testing.assert_array_equal(mean_curvature_3d(make_field((5, 5, 5), 1.0, 0.0)).data, 0.0)
    f = centered_field((9, 9, 9), lambda x, y, z: 0.5 * (x**2 + y**2 + z**2))
    k = mean_curvature_3d(f).data
    assert abs(k[4, 4, 4] - 3.0) < 1e-12  # chi = 3, unit denominator at the origin
    ramp = centered_field((7, 7, 7), lambda x, y, z: x)
    np.testing.assert_allclose(interior(mean_curvature_3d(ramp).data), 0.0, atol=1e-14)


def test_fast3d_probes():
    np.testing.assert_array_equal(fast_curvature_3d(make_field((5, 5, 5), 1.0, 2.0)).data, 0.0)
    fx = centered_field((9, 7, 7), lambda x, y, z: 0.5 * x**2)
    np.testing.assert_allclose(interior(fast_curvature_3d(fx).data), 1.0, atol=1e-12)
    fs = centered_field((9, 9, 9), lambda x, y, z: 0.5 * (x**2 + y**2 + z**2))
    np.testing.assert_allclose(interior(fast_curvature_3d(fs).data), 3.0, atol=1e-12)


def test_laplacian3d_probes():
    np.testing.assert_array_equal(laplacian_3d(make_field((5, 5, 5), 1.0, 1.0)).data, 0.0)
    fs = centered_field((9, 9, 9), lambda x, y, z: 0.5 * (x**2 + y**2 + z**2))
    np.testing.assert_allclose(interior(laplacian_3d(fs).data), 3.0, atol=1e-12)
    xy = centered_field((7, 7, 7), lambda x, y, z: x * y)
    np.testing.assert_allclose(interior(laplacian_3d(xy).data), 0.0, atol=1e-14)


def test_mean2d_sign_antisymmetry_exact():
    rng = np.random.default_rng(5)
    u = rng.random((10, 10))
    kp = mean_curvature_2d(ScalarField(u, 1.0)).data
    kn = mean_curvature_2d(ScalarField(-u, 1.0)).data
    np.testing.assert_array_equal(kn, -kp)


def test_fast3d_nonnegative_and_even():
    rng = np.random.default_rng(6)
    u = rng.random((6, 6, 6))
    kp = fast_curvature_3d(ScalarField(u, 1.0)).data
    kn = fast_curvature_3d(ScalarField(-u, 1.0)).data
    assert np.all(kp >= 0.0)
    np.testing.assert_array_equal(kp, kn)


def test_mean2d_small_amplitude_linearization():
    # K(c*u)/c approaches the half-Laplacian linearization at O(c^2)
    rng = np.random.default_rng(7)
    u = rng.random((12, 12))
    f = ScalarField(u, 1.0)
    from elastiseg import deriv2

    lin = 0.5 * (deriv2(f, 0).data + deriv2(f, 1).data)
    errs = []
    for c in (1e-2, 5e-3, 2.5e-3):
        k = mean_curvature_2d(ScalarField(c * u, 1.0)).data
        errs.append(np.abs(k / c - lin).max())
    assert errs[1] <= 0.30 * errs[0]
    assert errs[2] <= 0.30 * errs[1]


def test_mean3d_axis_permutation_equivariance():
    rng = np.random.default_rng(8)
    u = rng.random((6, 7, 8))
    k = mean_curvature_3d(ScalarField(u, 1.0)).data
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        kp = mean_curvature_3d(ScalarField(np.transpose(u, perm), 1.0)).data
        np.testing.assert_allclose(kp, np.transpose(k, perm), rtol=1e-12, atol=1e-13)


def test_dispatch_matches_direct_calls():
    rng = np.random.default_rng(9)
    f2 = ScalarField(rng.random((6, 6)), 1.0)
    f3 = ScalarField(rng.random((5, 5, 5)), 1.0)
    np.testing.assert_array_equal(curvature(f2, CurvatureMode.MEAN_2D).data, mean_curvature_2d(f2).data)
    np.testing.assert_array_equal(curvature(f3, CurvatureMode.MEAN_3D).data, mean_curvature_3d(f3).data)
    np.testing.assert_array_equal(curvature(f3, CurvatureMode.FAST_3D).data, fast_curvature_3d(f3).data)
    np.testing.assert_array_equal(curvature(f3, CurvatureMode.LAPLACIAN_3D).data, laplacian_3d(f3).data)
    with pytest.raises(FieldError):
        curvature(f2, CurvatureMode.FAST_3D)


@pytest.mark.parametrize("mode", list(CurvatureMode))
def test_curvature_is_the_k_the_energy_weighs(mode, monkeypatch):
    # the two make their differences separately: on one block, then on every block of a tree plan (8 blocks) and
    # of a plan that is not a tree (5 blocks, the last one short)
    rng = np.random.default_rng(10)
    shape = (13, 11) if mode.required_ndim == 2 else (7, 6, 5)
    for _ in range(5):
        spacing = tuple(float(s) for s in rng.uniform(0.5, 2.0, len(shape)))
        f = ScalarField(rng.random(shape), spacing)
        fwd = elastica_forward(f.data, f.spacing, EnergyParams(beta=2.0, mode=mode), Workspace(shape), 0)
        np.testing.assert_array_equal(curvature(f, mode).data, fwd.k)
    shape = (24, 9) if mode.required_ndim == 2 else (24, 7, 6)
    plane = math.prod(shape[1:])
    for planes, n_blocks, last in ((3, 8, (21, 24)), (5, 5, (20, 24))):
        monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", planes * plane)
        ws = Workspace(shape)
        assert len(ws.blocks) == n_blocks and ws.blocks[-1] == last
        spacing = tuple(float(s) for s in rng.uniform(0.5, 2.0, len(shape)))
        f = ScalarField(rng.random(shape), spacing)
        k = curvature(f, mode).data
        for b, (lo, hi) in enumerate(ws.blocks):
            with ws.scope():
                fwd = elastica_forward(f.data, f.spacing, EnergyParams(beta=2.0, mode=mode), ws, b)
                np.testing.assert_array_equal(k[lo:hi], fwd.k, err_msg=f"{planes} planes, block {b}")


@pytest.mark.parametrize("mode", list(CurvatureMode))
def test_every_mode_writes_its_axis0_cotangent_over_the_given_second_difference(mode):
    # a caller that reads the cotangent along axis 0 across blocks finds it in the seconds[0] it passed
    rng = np.random.default_rng(14)
    shape = (9, 8) if mode.required_ndim == 2 else (7, 6, 5)
    spacing = tuple(float(s) for s in rng.uniform(0.5, 2.0, len(shape)))
    u, gk = rng.random(shape), rng.random(shape)
    ws = Workspace(shape)
    slopes = [d1(u, ax, spacing[ax], out=ws.take(), ws=ws) for ax in range(len(shape))]
    seconds = [d2(u, ax, spacing[ax], out=ws.take(), ws=ws) for ax in range(len(shape))]
    second0 = seconds[0]
    arg = gk.copy()
    cots = curvature_forward(slopes, seconds, spacing, mode, ws, 0)[1](arg)
    assert cots.d2[0] is second0
    # no cotangent is the pullback's argument, which the gradient pass gives back as soon as the pullback returns
    assert not any(np.shares_memory(c, arg) for c in (*cots.d1.values(), *cots.d2.values()))
    # second0 was not given back: no take hands it out
    assert all(ws.take() is not second0 for _ in range(len(ws)))
    # and the cotangents pull gk back: <gk, dK(u)[v]> = sum of <cotangent, difference of v>, checked against
    # a central difference of <gk, K>
    v, h = rng.random(shape), 1e-6
    pulled = sum(np.vdot(c, d1(v, ax, spacing[ax])) for ax, c in cots.d1.items())
    pulled += sum(np.vdot(c, d2(v, ax, spacing[ax])) for ax, c in cots.d2.items())
    k_plus, k_minus = (curvature(ScalarField(u + s * h * v, spacing), mode).data for s in (1.0, -1.0))
    assert pulled == pytest.approx(np.vdot(gk, k_plus - k_minus) / (2.0 * h), rel=1e-6)


def test_mean_modes_match_their_closed_forms():
    # the textbook 2D graph mean curvature and the paper's 3D chi/sqrt(w),
    # written out with nested mixed differences
    rng = np.random.default_rng(11)
    for shape in [(13, 11), (17, 9, 12)] * 4:
        spacing = tuple(float(s) for s in rng.uniform(0.5, 2.0, len(shape)))
        u = rng.random(shape)
        g = [d1(u, i, spacing[i]) for i in range(u.ndim)]
        w = 1.0 + sum(gi * gi for gi in g)

        def second(i, j):
            return d2(u, i, spacing[i]) if i == j else dmixed(u, i, j, spacing[i], spacing[j])

        if u.ndim == 2:
            (ux, uy), uxy = g, second(0, 1)
            num = (1.0 + ux * ux) * second(1, 1) + (1.0 + uy * uy) * second(0, 0) - 2.0 * ux * uy * uxy
            expected, mode = num / (2.0 * w ** 1.5), CurvatureMode.MEAN_2D
        else:
            chi = sum(second(i, i) * (w - g[i] ** 2) for i in range(3))
            chi -= 2.0 * sum(g[i] * g[j] * second(i, j) for i, j in [(0, 1), (0, 2), (1, 2)])
            expected, mode = chi / np.sqrt(w), CurvatureMode.MEAN_3D
        k = curvature(ScalarField(u, spacing), mode).data
        assert np.abs(k - expected).max() <= 1e-14 * np.abs(expected).max()
