import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastiseg import (
    CurvatureMode,
    DegenerateMaskError,
    EnergyParams,
    FieldError,
    ScalarField,
    clamp01,
    curvature,
    elastica_term,
    estimate_region_means,
    make_field,
    region_terms,
    segmentation_energy,
    tv_length,
)
from elastiseg import workspace
from elastiseg.diffops import d1, d2, grad_mag_raw
from elastiseg.energy import elastica_forward, mask_moments, region_means, region_moments, region_sums
from elastiseg.workspace import Workspace, tree_sum


def scalar_energy_2d(u, r, alpha, beta, lam, c1, c2, eps):
    """Pixel-by-pixel pure-Python oracle for the full 2D energy, spacing 1."""
    n0, n1 = u.shape

    def at(i, j):
        return u[min(max(i, 0), n0 - 1), min(max(j, 0), n1 - 1)]

    def dx(i, j):
        return (at(i + 1, j) - at(i - 1, j)) / 2.0

    elastica = 0.0
    for i in range(n0):
        for j in range(n1):
            ux = dx(i, j)
            uy = (at(i, j + 1) - at(i, j - 1)) / 2.0
            uxx = at(i + 1, j) - 2.0 * at(i, j) + at(i - 1, j)
            uyy = at(i, j + 1) - 2.0 * at(i, j) + at(i, j - 1)
            # nested first differences; the outer one clamps on the inner field
            jm, jp = max(j - 1, 0), min(j + 1, n1 - 1)
            uxy = (dx(i, jp) - dx(i, jm)) / 2.0
            num = (1.0 + ux * ux) * uyy + (1.0 + uy * uy) * uxx - 2.0 * ux * uy * uxy
            den = 2.0 * (1.0 + ux * ux + uy * uy) ** 1.5
            k = num / den
            mag = math.sqrt(ux * ux + uy * uy + eps * eps)
            elastica += (alpha + beta * k * k) * mag
    region_in = abs(sum(u[i, j] * (c1 - r[i, j]) ** 2 for i in range(n0) for j in range(n1)))
    region_out = abs(sum((1.0 - u[i, j]) * (c2 - r[i, j]) ** 2 for i in range(n0) for j in range(n1)))
    return elastica, region_in, region_out, elastica + lam * region_in + lam * region_out


def test_region_terms_examples():
    v = np.zeros((4, 4))
    v[1:3, 1:3] = 1.0
    gt = ScalarField(v, 1.0)
    assert region_terms(gt, gt, 1.0, 0.0) == (0.0, 0.0)

    ones = make_field((4, 4), 1.0, 1.0)
    n0 = int((v == 0).sum())
    assert region_terms(ones, gt, 1.0, 0.0) == (float(n0), 0.0)

    half = make_field((4, 4), 1.0, 0.5)
    n1 = int((v == 1).sum())
    ri, ro = region_terms(half, gt, 1.0, 0.0)
    assert ri == pytest.approx(0.5 * n0, rel=1e-14)
    assert ro == pytest.approx(0.5 * n1, rel=1e-14)


# |c - r| <= 2e150 keeps each squared cost, and a sum of up to 6^3 of them, below the float64 maximum
_FINITE = st.floats(-1e150, 1e150)


@settings(max_examples=80, deadline=None)
@given(shape=st.lists(st.integers(1, 6), min_size=2, max_size=3), c1=_FINITE, c2=_FINITE, data=st.data())
def test_region_terms_are_never_negative_and_their_abs_is_a_no_op(shape, c1, c2, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    spacing = tuple(data.draw(st.floats(0.25, 4.0), label="spacing") for _ in shape)
    u = rng.random(shape)
    u[rng.random(shape) < 0.3] = data.draw(st.sampled_from([0.0, 1.0]), label="hard value")
    r = rng.uniform(-1.0, 1.0, shape) * data.draw(_FINITE, label="reference scale")
    region_in, region_out = region_terms(ScalarField(u, spacing), ScalarField(r, spacing), c1, c2)
    assert region_in >= 0.0 and region_out >= 0.0
    # each summand is nonnegative, so the plain sums are the region terms bit for bit
    assert (region_in, region_out) == (float(np.sum(u * (c1 - r) ** 2)), float(np.sum((1.0 - u) * (c2 - r) ** 2)))


_EPS = np.finfo(float).eps


def _region_magnitude(w, r, c):
    """c^2*sum w + 2|c|*sum|w*r| + sum w*r^2: the magnitudes the moment form adds and cancels."""
    return c * c * float(np.sum(w)) + 2.0 * abs(c) * float(np.sum(np.abs(w * r))) + float(np.sum(w * r * r))


@settings(max_examples=200, deadline=None)
@given(shape=st.lists(st.integers(1, 12), min_size=2, max_size=3),
       case=st.sampled_from(["soft", "binary", "converged"]), data=st.data())
def test_moment_region_sums_match_the_direct_form_within_a_few_ulps(shape, case, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if case == "soft":
        r = rng.uniform(-1.0, 1.0, shape) * data.draw(st.floats(1e-3, 1e3), label="reference scale")
        u = rng.random(shape)
        u[rng.random(shape) < 0.3] = data.draw(st.sampled_from([0.0, 1.0]), label="hard value")
        c1, c2 = (data.draw(st.floats(-1e3, 1e3), label=name) for name in ("c1", "c2"))
    else:  # the supervised case: a binary reference, c1 = 1 and c2 = 0, and a mask at or near it
        r = (rng.random(shape) < 0.5).astype(float)
        offset = 0.0 if case == "binary" else data.draw(st.floats(1e-15, 1e-3), label="distance from r")
        u = np.clip(r + offset * rng.uniform(-1.0, 1.0, shape), 0.0, 1.0)
        c1, c2 = 1.0, 0.0
    region_in, region_out = region_sums(mask_moments(u, r, Workspace(u.shape)), c1, c2)
    if case == "binary":
        assert (region_in, region_out) == (0.0, 0.0)
    # inside: a few ulps of the magnitudes under u; outside: under the weight 1, whose
    # moments the outside ones are formed from (a sweep of 20000 random cases read at most 3.3)
    assert abs(region_in - float(np.sum(u * (c1 - r) ** 2))) <= 8 * _EPS * _region_magnitude(u, r, c1)
    outside = float(np.sum((1.0 - u) * (c2 - r) ** 2))
    assert abs(region_out - outside) <= 8 * _EPS * _region_magnitude(np.ones_like(r), r, c2)


@pytest.mark.parametrize("deficit", [1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
def test_region_means_stay_in_the_reference_range_on_an_almost_all_foreground_mask(deficit):
    r = np.random.default_rng(4).random((256, 256))
    r[100, 37] = 1.0
    u = np.ones((256, 256))
    u[100, 37] = 1.0 - deficit
    moments = mask_moments(u, r, Workspace(u.shape))
    w_out, s_out, _ = moments[1]
    if deficit == 1e-8:
        # cancellation in the outside moments puts their plain quotient past max r
        assert s_out / w_out > r.max()
    try:
        c1, c2 = region_means(moments, float(r.min()), float(r.max()))
    except DegenerateMaskError:
        assert deficit == 1e-12 and float(np.sum(u)) == u.size  # sum u rounds to N
        return
    assert r.min() <= c1 <= r.max() and r.min() <= c2 <= r.max()
    assert (c1, c2) == estimate_region_means(ScalarField(u, 1.0), ScalarField(r, 1.0))


def test_a_mask_whose_sum_rounds_to_the_voxel_count_is_degenerate():
    r = np.random.default_rng(4).random((256, 256))
    u = np.ones((256, 256))
    u[100, 37] = 1.0 - 1e-12
    # the direct outside weight sum(1 - u) is positive, but sum u rounds to N
    assert float(np.sum(1.0 - u)) > 0.0 and float(np.sum(u)) == u.size
    with pytest.raises(DegenerateMaskError, match="all-foreground"):
        estimate_region_means(ScalarField(u, 1.0), ScalarField(r, 1.0))


def test_region_terms_shape_mismatch():
    with pytest.raises(FieldError):
        region_terms(make_field((4, 4), 1.0, 0.5), make_field((5, 4), 1.0, 0.0), 1.0, 0.0)


def test_elastica_beta_zero_reduces_to_tv():
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = ScalarField(rng.random((9, 8)), 1.0)
        p = EnergyParams(alpha=0.37, beta=0.0, mode=CurvatureMode.MEAN_2D)
        assert elastica_term(u, p) == 0.37 * tv_length(u)


@pytest.mark.parametrize("planes_per_block", [None, 1, 2])
def test_elastica_term_is_the_tree_sum_of_its_block_sums_on_every_block_plan(monkeypatch, planes_per_block):
    # the expression form of the fast3d elastica density, summed block by block and combined by tree_sum:
    # one block, then 11 and 6 blocks, which are not tree plans
    rng = np.random.default_rng(12)
    shape, spacing = (11, 6, 7), (0.7, 1.0, 1.3)
    u = ScalarField(rng.random(shape), spacing)
    p = EnergyParams(alpha=0.01, beta=0.5, mode=CurvatureMode.FAST_3D)
    if planes_per_block:
        monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", planes_per_block * 6 * 7)
    blocks = Workspace(shape).blocks
    assert len(blocks) == {None: 1, 1: 11, 2: 6}[planes_per_block]

    def summed(density):
        return tree_sum([float(np.sum(density if planes is None else density[planes[0]:planes[1]]))
                         for planes in blocks]) * math.prod(spacing)

    mag = grad_mag_raw([d1(u.data, ax, spacing[ax]) for ax in range(3)])
    k = sum(d2(u.data, ax, spacing[ax]) ** 2 for ax in range(3))
    assert elastica_term(u, p) == summed((0.5 * k * k + 0.01) * mag)
    flat = EnergyParams(alpha=0.01, beta=0.0, mode=CurvatureMode.FAST_3D)
    assert elastica_term(u, flat) == 0.01 * summed(mag)
    if planes_per_block is None:
        assert elastica_term(u, flat) == 0.01 * tv_length(u)


@pytest.mark.parametrize("planes_per_block", [2, 4])
def test_elastica_term_summed_by_blocks_of_a_tree_plan_has_the_whole_array_bits(monkeypatch, planes_per_block):
    # 16 and 8 blocks of 96 and 192 voxels: each block's density is summed as it is written
    rng = np.random.default_rng(13)
    shape, spacing = (32, 6, 8), (0.7, 1.0, 1.3)
    u = ScalarField(rng.random(shape), spacing)
    monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", planes_per_block * 6 * 8)
    ws = Workspace(shape)
    assert len(ws.blocks) == 32 // planes_per_block
    mag = grad_mag_raw([d1(u.data, ax, spacing[ax]) for ax in range(3)])
    k = sum(d2(u.data, ax, spacing[ax]) ** 2 for ax in range(3))
    p = EnergyParams(alpha=0.01, beta=0.5, mode=CurvatureMode.FAST_3D)
    assert elastica_term(u, p) == float(np.sum((0.5 * k * k + 0.01) * mag)) * math.prod(spacing)
    flat = EnergyParams(alpha=0.01, beta=0.0, mode=CurvatureMode.FAST_3D)
    assert elastica_term(u, flat) == 0.01 * tv_length(u)


# arrays one forward of block 0 holds at beta = 0.5, on any plan (beta = 0 holds ndim + 2)
FORWARD_ARRAYS = {CurvatureMode.MEAN_2D: 11, CurvatureMode.MEAN_3D: 15, CurvatureMode.FAST_3D: 10,
                  CurvatureMode.LAPLACIAN_3D: 8}


@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("mode", list(CurvatureMode))
@pytest.mark.parametrize("plan", ["one block", "tree", "not a tree"])
def test_each_block_forward_returns_the_sum_of_its_expression_form_density(monkeypatch, plan, mode, beta):
    # 8 blocks of 96 voxels are a tree plan; 11 and 6 blocks, the last one short, are not
    shape = (32, 24) if mode.required_ndim == 2 else (16, 6, 8)
    planes = {"one block": None, "tree": 4 if len(shape) == 2 else 2, "not a tree": 3}[plan]
    if planes:
        monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", planes * math.prod(shape[1:]))
    blocks = Workspace(shape).blocks
    assert len(blocks) == {"one block": 1, "tree": 8, "not a tree": 11 if len(shape) == 2 else 6}[plan]
    rng = np.random.default_rng(15)
    spacing = tuple(float(s) for s in rng.uniform(0.5, 2.0, len(shape)))
    u = rng.random(shape)
    p = EnergyParams(alpha=0.01, beta=beta, mode=mode)
    mag = grad_mag_raw([d1(u, ax, spacing[ax]) for ax in range(len(shape))])
    k = curvature(ScalarField(u, spacing), mode).data
    density = (beta * k * k + 0.01) * mag if beta else mag
    for b, lo_hi in enumerate(blocks):
        ws = Workspace(shape)
        fwd = elastica_forward(u, spacing, p, ws, b)
        part = density if lo_hi is None else density[lo_hi[0]:lo_hi[1]]
        assert fwd.total == float(np.add.reduce(part, axis=None)), b
        # the density is summed in an array the forward already holds: no array more than with a given one
        assert len(ws) == (FORWARD_ARRAYS[mode] if beta else len(shape) + 2)


@pytest.mark.parametrize("planes_per_block", [None, 4, 2])
def test_block_moments_combined_by_mask_moments_have_the_whole_field_bits_on_tree_plans(monkeypatch,
                                                                                        planes_per_block):
    # one block, then 8 and 16 blocks of 192 and 96 voxels
    shape = (32, 6, 8)
    if planes_per_block:
        monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", planes_per_block * 48)
    rng = np.random.default_rng(16)
    for _ in range(20):
        u, r = rng.random(shape), rng.random(shape)
        ws = Workspace(shape)
        assert len(ws.blocks) == {None: 1, 4: 8, 2: 16}[planes_per_block]
        blocks = [region_moments(ub, rb, ws, b) for b, (ub, rb) in enumerate(zip(ws.parts(u), ws.parts(r)))]
        assert mask_moments(u, r, ws, blocks=blocks) == mask_moments(u, r, ws)
        # region_moments of the whole field combines the same blocks, so the oracle is numpy's own whole-array sum
        whole = tuple(float(np.add.reduce(x, axis=None)) for x in (u, u * r, u * r * r))
        assert mask_moments(u, r, ws, blocks=blocks)[0] == whole


def test_elastica_constant_field():
    p = EnergyParams(alpha=0.01, beta=5.0, mode=CurvatureMode.MEAN_2D)
    const = make_field((6, 7), 1.0, 0.25)
    assert elastica_term(const, p) == pytest.approx(0.01 * 42 * 1e-6, rel=1e-12)


def test_elastica_matches_scalar_oracle_bilinear():
    ii, jj = np.meshgrid(np.arange(5.0), np.arange(5.0), indexing="ij")
    u = clamp01(ScalarField(0.1 * ii * jj, 1.0))
    p = EnergyParams(alpha=0.001, beta=2.0, mode=CurvatureMode.MEAN_2D)
    got = elastica_term(u, p)
    want = scalar_energy_2d(u.data, np.zeros((5, 5)), 0.001, 2.0, 1.0, 1.0, 0.0, 1e-6)[0]
    assert got == pytest.approx(want, rel=1e-12)


def test_energy_matches_scalar_oracle_random():
    rng = np.random.default_rng(12)
    u = ScalarField(rng.random((8, 8)), 1.0)
    r = ScalarField(rng.random((8, 8)), 1.0)
    p = EnergyParams(alpha=0.001, beta=2.0, lam=1.0, c1=1.0, c2=0.0, mode=CurvatureMode.MEAN_2D)
    bd = segmentation_energy(u, r, p)
    el, ri, ro, tot = scalar_energy_2d(u.data, r.data, 0.001, 2.0, 1.0, 1.0, 0.0, 1e-6)
    assert bd.elastica == pytest.approx(el, rel=1e-12)
    assert bd.region_in == pytest.approx(ri, rel=1e-12)
    assert bd.region_out == pytest.approx(ro, rel=1e-12)
    assert bd.total == pytest.approx(tot, rel=1e-12)


def test_breakdown_decomposition_and_nonnegativity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        u = ScalarField(rng.random((7, 6)), 1.0)
        r = ScalarField(rng.random((7, 6)), 1.0)
        lam = float(rng.uniform(0.1, 3.0))
        p = EnergyParams(alpha=0.01, beta=1.5, lam=lam, mode=CurvatureMode.MEAN_2D)
        bd = segmentation_energy(u, r, p)
        assert bd.total == bd.elastica + lam * bd.region_in + lam * bd.region_out
        assert bd.elastica >= 0.0 and bd.region_in >= 0.0 and bd.region_out >= 0.0


def test_binary_square_beta_zero_total():
    v = np.zeros((12, 12))
    v[3:9, 3:9] = 1.0
    gt = ScalarField(v, 1.0)
    p = EnergyParams(alpha=0.002, beta=0.0, mode=CurvatureMode.MEAN_2D)
    bd = segmentation_energy(gt, gt, p)
    assert bd.region_in == 0.0 and bd.region_out == 0.0
    assert bd.total == 0.002 * tv_length(gt)


def test_zero_mask_zero_reference_total():
    z = make_field((5, 5), 1.0, 0.0)
    p = EnergyParams(alpha=0.1, beta=0.0, mode=CurvatureMode.MEAN_2D)
    bd = segmentation_energy(z, z, p)
    assert bd.total == pytest.approx(0.1 * 25 * 1e-6, rel=1e-12)


def test_region_zero_iff_exact_binary_match():
    rng = np.random.default_rng(14)
    v = (rng.random((6, 6)) < 0.4).astype(float)
    gt = ScalarField(v, 1.0)
    ri, ro = region_terms(gt, gt, 1.0, 0.0)
    assert (ri, ro) == (0.0, 0.0)
    # any constant mask has strictly positive region energy unless it matches v
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        u = make_field((6, 6), 1.0, t)
        ri, ro = region_terms(u, gt, 1.0, 0.0)
        assert ri + ro >= 0.0
        if not np.array_equal(u.data, v):
            assert ri + ro > 0.0


def test_mode_dimension_mismatch():
    u3 = make_field((4, 4, 4), 1.0, 0.5)
    p = EnergyParams(alpha=0.001, beta=2.0, mode=CurvatureMode.MEAN_2D)
    with pytest.raises(FieldError):
        elastica_term(u3, p)
    with pytest.raises(FieldError):
        segmentation_energy(u3, u3, p)


@pytest.mark.parametrize("keyword", ["ws", "moments"])
def test_segmentation_energy_takes_no_workspace_or_moments(keyword):
    # it makes its own workspace and moments; the solver calls segmentation_energy_raw
    u = make_field((4, 4), 1.0, 0.5)
    with pytest.raises(TypeError, match=keyword):
        segmentation_energy(u, u, EnergyParams(), **{keyword: None})


def test_soft_mask_precondition():
    bad = ScalarField(np.full((4, 4), 1.5), 1.0)
    with pytest.raises(FieldError):
        region_terms(bad, make_field((4, 4), 1.0, 0.0), 1.0, 0.0)


def test_estimate_region_means():
    u = ScalarField(np.array([[1.0, 1.0], [0.0, 0.0]]), 1.0)
    f = ScalarField(np.array([[2.0, 4.0], [1.0, 3.0]]), 1.0)
    assert estimate_region_means(u, f) == (3.0, 2.0)

    rng = np.random.default_rng(15)
    mask = (rng.random((5, 5)) < 0.5).astype(float)
    vals = rng.random((5, 5)) * 7.0
    c1, c2 = estimate_region_means(ScalarField(mask, 1.0), ScalarField(vals, 1.0))
    assert c1 == pytest.approx(vals[mask == 1.0].mean(), rel=1e-13)
    assert c2 == pytest.approx(vals[mask == 0.0].mean(), rel=1e-13)

    with pytest.raises(DegenerateMaskError):
        estimate_region_means(make_field((3, 3), 1.0, 1.0), ScalarField(vals[:3, :3], 1.0))
    with pytest.raises(DegenerateMaskError):
        estimate_region_means(make_field((3, 3), 1.0, 0.0), ScalarField(vals[:3, :3], 1.0))


def test_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(alpha=-0.1)
    with pytest.raises(ValueError):
        EnergyParams(beta=-1.0)
    with pytest.raises(ValueError):
        EnergyParams(lam=0.0)


@pytest.mark.parametrize("name", ["alpha", "beta", "lam", "c1", "c2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_weights(name, value):
    with pytest.raises(ValueError, match=name):
        EnergyParams(**{name: value})


_F32_MAX = float(np.finfo(np.float32).max)  # the largest |r| a VF32 file can hold


@settings(max_examples=120, deadline=None)
@given(shape=st.lists(st.integers(3, 6), min_size=2, max_size=3), c1=st.floats(), c2=st.floats(), data=st.data())
def test_params_reject_region_constants_or_give_a_finite_energy(shape, c1, c2, data):
    mode = CurvatureMode.MEAN_2D if len(shape) == 2 else CurvatureMode.FAST_3D
    try:
        params = EnergyParams(c1=c1, c2=c2, mode=mode)
    except ValueError:
        assert not (abs(c1) <= 1e100 and abs(c2) <= 1e100)
        return
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    u = rng.random(shape)
    u[rng.random(shape) < 0.3] = data.draw(st.sampled_from([0.0, 1.0]), label="hard value")
    r = rng.uniform(-1.0, 1.0, shape) * data.draw(st.floats(0.0, _F32_MAX), label="reference scale")
    r[rng.random(shape) < 0.2] = data.draw(st.sampled_from([-_F32_MAX, _F32_MAX]), label="extreme reference")
    bd = segmentation_energy(ScalarField(u, 1.0), ScalarField(r, 1.0), params)
    assert all(math.isfinite(v) for v in (bd.elastica, bd.region_in, bd.region_out, bd.total))


@pytest.mark.parametrize("name", ["c1", "c2"])
def test_params_region_constant_bound_is_tight(name):
    for sign in (1.0, -1.0):
        with pytest.raises(ValueError, match=name):
            EnergyParams(**{name: sign * math.nextafter(1e100, math.inf)})
        params = EnergyParams(c1=sign * 1e100, c2=-sign * 1e100)
        # every voxel at the far end of the float32 range, in a 6^3 grid, half in and half out
        r = ScalarField(np.full((6, 6, 6), -sign * _F32_MAX), 1.0)
        bd = segmentation_energy(make_field((6, 6, 6), 1.0, 0.5), r, replace(params, mode=CurvatureMode.FAST_3D))
        assert math.isfinite(bd.total) and bd.region_in > 1e200
