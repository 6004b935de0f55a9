import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial import cKDTree

from elastiseg import (MetricsError, MetricsReport, ScalarField, count_components, dice, evaluate_pair, hd95,
                       make_field, metrics)
from elastiseg.metrics import boundary_voxels


def frozen_boundary_voxels(mask: np.ndarray) -> np.ndarray:
    """The ``ones_like`` formulation ``boundary_voxels`` replaced, frozen as the oracles' boundary."""
    fg = mask.astype(bool)
    edge = np.zeros_like(fg)
    nd = fg.ndim
    for axis in range(nd):
        lo = [slice(None)] * nd
        hi = [slice(None)] * nd
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        # neighbor toward +axis is background; the last slab borders out-of-bounds
        nb = np.ones_like(fg)
        nb[tuple(lo)] = ~fg[tuple(hi)]
        edge |= nb
        # neighbor toward -axis
        nb = np.ones_like(fg)
        nb[tuple(hi)] = ~fg[tuple(lo)]
        edge |= nb
    return edge & fg


def oracle_hd95(a: np.ndarray, b: np.ndarray, spacing) -> float:
    """All-pairs O(n^2) reference, independent of the KD-tree path and of the package's boundary."""
    sp = np.asarray(spacing, dtype=np.float64)
    pa = np.argwhere(frozen_boundary_voxels(a)) * sp
    pb = np.argwhere(frozen_boundary_voxels(b)) * sp
    d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1))
    pooled = np.concatenate([d.min(axis=1), d.min(axis=0)])
    return float(np.percentile(pooled, 95.0))


def binfield(a, spacing=1.0):
    return ScalarField(np.asarray(a, dtype=np.float64), spacing)


def test_dice_examples():
    m = np.zeros((4, 4))
    m[1:3, 1:3] = 1.0
    f = binfield(m)
    assert dice(f, f) == 1.0
    other = np.zeros((4, 4))
    other[0, 0] = 1.0
    assert dice(f, binfield(other)) == 0.0
    a = binfield(np.array([[1.0, 1.0], [0.0, 0.0]]))
    b = binfield(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert dice(a, b) == 0.5


def test_dice_empty_convention_and_validation():
    empty = make_field((3, 3), 1.0, 0.0)
    assert dice(empty, empty) == 1.0
    with pytest.raises(MetricsError):
        dice(make_field((3, 3), 1.0, 0.5), empty)


def test_hd95_identical_masks_is_zero():
    m = np.zeros((6, 6))
    m[2:5, 1:4] = 1.0
    f = binfield(m)
    assert hd95(f, f) == 0.0


def test_hd95_single_pixel_offset():
    a = np.zeros((8, 8))
    a[0, 0] = 1.0
    b = np.zeros((8, 8))
    b[3, 4] = 1.0
    assert hd95(binfield(a), binfield(b)) == 5.0


def test_hd95_empty_mask_raises():
    m = np.zeros((4, 4))
    m[1, 1] = 1.0
    with pytest.raises(MetricsError):
        hd95(binfield(m), make_field((4, 4), 1.0, 0.0))
    with pytest.raises(MetricsError):
        hd95(make_field((4, 4), 1.0, 0.0), binfield(m))


def test_hd95_matches_bruteforce_oracle_exactly():
    rng = np.random.default_rng(30)
    checked = 0
    while checked < 200:
        if checked % 3 == 2:
            shape = tuple(rng.integers(3, 11, size=3))
        else:
            shape = tuple(rng.integers(3, 33, size=2))
        a = (rng.random(shape) < rng.uniform(0.1, 0.6)).astype(float)
        b = (rng.random(shape) < rng.uniform(0.1, 0.6)).astype(float)
        if not a.any() or not b.any():
            continue
        spacing = tuple(float(s) for s in rng.choice([0.5, 1.0, 2.0, 3.0], size=len(shape)))
        got = hd95(binfield(a, spacing), binfield(b, spacing))
        assert got == oracle_hd95(a != 0, b != 0, spacing)
        checked += 1


def test_hd95_symmetry_and_bounds():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = (rng.random((12, 12)) < 0.3).astype(float)
        b = (rng.random((12, 12)) < 0.3).astype(float)
        if not a.any() or not b.any():
            continue
        fa, fb = binfield(a), binfield(b)
        assert hd95(fa, fb) == hd95(fb, fa)
        assert hd95(fa, fb) >= 0.0


def test_translation_invariance():
    a = np.zeros((16, 16))
    a[4:7, 5:9] = 1.0
    b = np.zeros((16, 16))
    b[5:9, 4:7] = 1.0
    shift = (3, 2)
    a2 = np.roll(a, shift, axis=(0, 1))
    b2 = np.roll(b, shift, axis=(0, 1))
    assert dice(binfield(a), binfield(b)) == dice(binfield(a2), binfield(b2))
    assert hd95(binfield(a), binfield(b)) == hd95(binfield(a2), binfield(b2))


def test_boundary_uses_face_adjacency_and_grid_border():
    m = np.ones((4, 4))
    # every voxel of a full mask touches out-of-bounds except the 2x2 interior
    edge = boundary_voxels(m != 0)
    assert edge.sum() == 12
    assert not edge[1:3, 1:3].any()
    hollow = np.zeros((5, 5))
    hollow[1:4, 1:4] = 1.0
    hollow[2, 2] = 0.0
    edge = boundary_voxels(hollow != 0)
    assert edge.sum() == 8  # the ring: all foreground voxels touch the hole or outside


@st.composite
def _random_masks(draw, max_extent: int) -> np.ndarray:
    """Random 2D/3D bool masks with extents 1..max_extent, from empty to full."""
    shape = tuple(draw(st.integers(1, max_extent)) for _ in range(draw(st.sampled_from([2, 3]))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < draw(st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(mask=_random_masks(6))
def test_boundary_voxels_equals_the_frozen_formulation(mask):
    edge = boundary_voxels(mask)
    assert edge.dtype == bool and edge.shape == mask.shape
    np.testing.assert_array_equal(edge, frozen_boundary_voxels(mask))


@settings(max_examples=200, deadline=None)
@given(mask=_random_masks(12))
def test_count_components_raw_equals_ndimage_label_on_the_bool_mask(mask):
    expected = ndimage.label(mask, structure=ndimage.generate_binary_structure(mask.ndim, 1))[1]
    assert metrics.count_components_raw(mask) == expected


def test_count_components():
    assert count_components(make_field((5, 5), 1.0, 0.0)) == 0
    assert count_components(make_field((5, 5), 1.0, 1.0)) == 1
    m = np.zeros((7, 7))
    m[0, 0] = 1.0
    m[3, 3] = 1.0
    m[6, 6] = 1.0
    assert count_components(binfield(m)) == 3
    diag = np.eye(5)
    assert count_components(binfield(diag)) == 5


def test_count_components_3d_face():
    m = np.zeros((4, 4, 4))
    m[0, 0, 0] = 1.0
    m[0, 1, 1] = 1.0  # diagonal in-plane: separate under 6-connectivity
    assert count_components(binfield(m)) == 2


def test_evaluate_pair():
    gt = np.zeros((8, 8))
    gt[2:6, 2:6] = 1.0
    pred = gt.copy()
    pred[7, 7] = 1.0
    rep = evaluate_pair(binfield(pred), binfield(gt))
    assert 0.9 < rep.dice < 1.0
    assert rep.components_pred == 2
    assert rep.components_gt == 1
    assert rep.hd95 >= 0.0


@settings(max_examples=150, deadline=None)
@given(ndim=st.sampled_from([2, 3]), flip=st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]), data=st.data())
def test_hd95_equals_the_all_pairs_oracle_bit_for_bit(ndim, flip, data):
    shape = tuple(data.draw(st.integers(1, 14 if ndim == 2 else 7), label="extent") for _ in range(ndim))
    spacing = tuple(data.draw(st.floats(0.1, 10.0), label="spacing") for _ in range(ndim))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a = rng.random(shape) < data.draw(st.floats(0.05, 0.95), label="density")
    # b flips a fraction of a's voxels, from none (every boundary voxel shared) to all
    b = a ^ (rng.random(shape) < flip)
    assume(a.any() and b.any())
    assert hd95(binfield(a, spacing), binfield(b, spacing)) == oracle_hd95(a, b, spacing)


def _square(shape, lo, hi):
    m = np.zeros(shape, dtype=bool)
    m[lo[0]:hi[0], lo[1]:hi[1]] = True
    return m


def _single(shape, index):
    m = np.zeros(shape, dtype=bool)
    m[index] = True
    return m


@pytest.mark.parametrize("a,b,trees", [
    (_square((16, 16), (2, 3), (9, 12)), _square((16, 16), (2, 3), (9, 12)), 0),     # identical: all shared
    (_square((16, 16), (0, 0), (5, 5)), _square((16, 16), (9, 10), (16, 16)), 2),    # boundaries apart
    (_square((16, 16), (2, 2), (14, 14)), _square((16, 16), (5, 6), (9, 10)), 2),    # strictly inside
    (_square((16, 16), (2, 2), (14, 14)), _square((16, 16), (2, 2), (6, 14)), 2),    # inside, one side shared
    (_single((9, 9), (4, 4)), _single((9, 9), (4, 4)), 0),                           # one voxel, shared
    (_single((9, 9), (2, 3)), _square((9, 9), (2, 3), (7, 8)), 1),                   # one voxel on b's corner
    (_single((9, 9), (0, 8)), _square((9, 9), (3, 0), (9, 4)), 2),                   # one voxel apart
])
def test_hd95_skips_shared_boundary_voxels_and_stays_exact(a, b, trees, monkeypatch):
    built = []

    def counting_tree(points, **kwargs):
        built.append(len(points))
        return cKDTree(points, **kwargs)

    monkeypatch.setattr(metrics, "cKDTree", counting_tree)
    for spacing in ((1.0, 1.0), (0.7, 2.5)):
        built.clear()
        assert hd95(binfield(a, spacing), binfield(b, spacing)) == oracle_hd95(a, b, spacing)
        assert len(built) == trees
    if trees == 0:
        assert hd95(binfield(a), binfield(b)) == 0.0


def _hd95_by_argwhere(a, b, spacing):
    """The grid-walking ``np.argwhere`` formulation ``hd95_raw`` replaced, kept as its reference."""
    edge_a, edge_b = frozen_boundary_voxels(a), frozen_boundary_voxels(b)
    ia, ib = np.argwhere(edge_a), np.argwhere(edge_b)
    a_only, b_only = ~edge_b[tuple(ia.T)], ~edge_a[tuple(ib.T)]
    sp = np.asarray(spacing, dtype=np.float64)
    pa, pb = ia * sp, ib * sp
    pooled = [np.zeros(2 * (len(ia) - np.count_nonzero(a_only)))]
    if a_only.any():
        pooled.append(cKDTree(pb).query(pa[a_only])[0])
    if b_only.any():
        pooled.append(cKDTree(pa).query(pb[b_only])[0])
    return float(np.percentile(np.concatenate(pooled), 95.0))


def _noisy_ball(shape, radius, flip, seed):
    """A centred ball with a fraction ``flip`` of its voxels flipped: many components across the grid."""
    rng = np.random.default_rng(seed)
    grids = np.ogrid[tuple(slice(0, n) for n in shape)]
    ball = sum((g - (n - 1) / 2.0) ** 2 for g, n in zip(grids, shape)) <= radius * radius
    return ball ^ (rng.random(shape) < flip)


@pytest.mark.parametrize("shape, radius, spacing", [((96, 80), 27.0, (0.7, 2.5)),
                                                    ((24, 20, 28), 8.0, (1.5, 0.6, 3.0))])
def test_hd95_equals_the_argwhere_formulation_bit_for_bit(shape, radius, spacing):
    gt = _noisy_ball(shape, radius, 0.0, 0)
    for flip, seed in ((0.0, 1), (0.01, 2), (0.08, 3), (0.3, 4)):
        pred = _noisy_ball(shape, radius - 1.0, flip, seed)
        for a, b in ((pred, gt), (gt, pred)):
            assert metrics.hd95_raw(a, b, spacing).hex() == _hd95_by_argwhere(a, b, spacing).hex()


def test_evaluate_pair_checks_each_field_once(monkeypatch):
    checked = []
    real = metrics.is_binary

    def counting(field):
        checked.append(field)
        return real(field)

    monkeypatch.setattr(metrics, "is_binary", counting)
    pred, gt = binfield(_square((12, 12), (1, 1), (6, 7))), binfield(_square((12, 12), (2, 2), (8, 8)))
    rep = evaluate_pair(pred, gt)
    assert [id(f) for f in checked] == [id(pred), id(gt)]
    assert rep == MetricsReport(dice(pred, gt), hd95(pred, gt), count_components(pred), count_components(gt))
