import math

import numpy as np
import pytest

import elastiseg.solver
from elastiseg import CurvatureMode, EnergyParams, ScalarField, SolverConfig, make_field, segment
from elastiseg.solver import OPTIMIZERS
from elastiseg import workspace
from elastiseg.workspace import ALIGNMENT, BLOCK_ELEMENTS, Workspace, aligned_empty, block_sum, plan_blocks, tree_sum

ODD_SHAPES = [(1, 1), (3, 5), (7, 13), (96, 96), (1, 1, 1), (3, 5, 7), (9, 11, 13), (5, 1, 3)]


def assert_solver_array(arr, shape, dtype=np.float64):
    assert arr.ctypes.data % ALIGNMENT == 0
    assert arr.flags.c_contiguous and arr.flags.writeable
    assert arr.dtype == dtype
    assert arr.shape == shape


DTYPES = pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])


@DTYPES
@pytest.mark.parametrize("shape", ODD_SHAPES)
def test_aligned_empty_starts_on_a_cache_line(shape, dtype):
    # successive allocations land at different offsets from numpy's own 16-byte alignment (4-byte at least
    # for float32, so its padding is counted in 4-byte elements)
    for _ in range(8):
        assert_solver_array(aligned_empty(shape, dtype), shape, dtype)


def test_a_float32_workspace_hands_out_aligned_float32_arrays_on_the_float64_plan(monkeypatch):
    # the plan counts elements: a float32 workspace splits a field where a float64 one does
    shape = (64, 64, 64)
    ws = Workspace(shape, np.float32)
    assert ws.blocks == Workspace(shape).blocks == [(lo, lo + 8) for lo in range(0, 64, 8)]
    assert_solver_array(ws.take(), shape, np.float32)
    assert_solver_array(ws.take(3), (8, 64, 64), np.float32)
    monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", 2 * 6 * 8)
    short = Workspace((9, 6, 8), np.float32)
    assert_solver_array(short.take(4), (1, 6, 8), np.float32)


@pytest.mark.parametrize("shape", [(7,), (1000,), (96, 96), (8, 64, 64), (3, 5, 7)])
def test_block_sum_is_float64_whatever_the_block_dtype(shape):
    rng = np.random.default_rng(19)
    a = rng.random(shape) - 0.3
    # a float64 block's sum is np.add.reduce's, bit for bit, so the tree rule below holds for block_sum
    assert block_sum(a) == float(np.add.reduce(a, axis=None))
    b = a.astype(np.float32)
    exact = math.fsum(b.ravel().astype(np.float64))
    # a float32 block's is float64's: within a few float64 ulps of the exact sum of its values, far below float32's
    assert abs(block_sum(b) - exact) <= 1e-14 * math.fsum(np.abs(b.ravel().astype(np.float64)))
    assert isinstance(block_sum(b), float)


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


@pytest.mark.parametrize("opt", OPTIMIZERS)
@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("shape, mode", [((13, 11), CurvatureMode.MEAN_2D), ((7, 9, 5), CurvatureMode.MEAN_3D),
                                         ((7, 9, 5), CurvatureMode.FAST_3D)])
@DTYPES
@pytest.mark.usefixtures("no_early_stop")
def test_solver_mask_and_velocity_are_aligned(monkeypatch, opt, beta, shape, mode, dtype):
    # the workspace holds fewer arrays at beta = 0 than at beta > 0
    seen = []
    real_step = elastiseg.solver._step

    def recording_step(u, velocity, g, *rest):
        seen.append((u, velocity, g))
        return real_step(u, velocity, g, *rest)

    monkeypatch.setattr(elastiseg.solver, "_step", recording_step)
    monkeypatch.setattr(elastiseg.solver, "DTYPE", dtype)
    image = ScalarField(np.random.default_rng(2).random(shape), 1.0)
    cfg = SolverConfig(max_iters=3, optimizer=opt, region_mode="fixed")
    segment(image, make_field(shape, 1.0, 0.5), EnergyParams(alpha=0.01, beta=beta, mode=mode), cfg)
    assert len(seen) == 3
    for u, velocity, g in seen:
        assert (velocity is not None) == (opt == "momentum")
        for arr in (u, velocity, g):
            if arr is not None:  # each array of the solve's dtype
                assert_solver_array(arr, shape, dtype)


def test_block_plan_follows_the_array_size_alone():
    # up to four blocks' elements (1 MiB in float64, half a 2 MiB L2) a field is one block: the 96^2 tube and the 256^2 disk
    for shape in [(96, 96), (256, 256), (16, 16, 16), (32, 64, 64)]:
        assert np.prod(shape) <= 4 * BLOCK_ELEMENTS and plan_blocks(shape) == [None], shape
    assert plan_blocks((64, 64, 64)) == [(lo, lo + 8) for lo in range(0, 64, 8)]  # 256 KiB per block array
    assert plan_blocks((513, 512)) == [(lo, min(lo + 64, 513)) for lo in range(0, 513, 64)]  # a short last block
    assert plan_blocks((5, 1000, 1000)) == [(i, i + 1) for i in range(5)]  # a plane past the block size


def is_tree(shape, blocks):
    """Whether ``blocks``, a plan of a field of ``shape``, are nodes of numpy's pairwise summation tree.

    numpy sums n contiguous float64 elements pairwise (``pairwise_sum`` in
    ``numpy/_core/src/umath/loops_utils.h.src``): it splits them at n/2
    rounded down to a multiple of 8, down to leaves of at most 128 elements
    summed with eight accumulators, and adds each split's two halves. So
    2^k equal blocks of m elements, m a multiple of 8 and over 64, are nodes
    of that tree (at each level n/2 is a whole number of blocks, and a pair
    of blocks is over 128 elements, so it is split), and so is one block.
    """
    if len(blocks) == 1:
        return True
    sizes = {hi - lo for lo, hi in blocks}
    m = sizes.pop() * math.prod(shape[1:])
    return not sizes and len(blocks) & (len(blocks) - 1) == 0 and m % 8 == 0 and m > 64


@pytest.mark.parametrize("shape, planes, tree", [
    ((8, 16, 16), 1, True), ((8, 128), 1, True),  # eight one-plane blocks of 256 and of 128 voxels
    ((64, 64, 64), None, True), ((96, 96, 96), None, True),  # 8 blocks of 8 planes, 32 blocks of 3 planes
    ((513, 512), None, False),  # a short last block
    ((13, 6, 8), 1, False), ((8, 9, 7), 1, False), ((8, 8, 8), 1, False),  # 13 blocks; blocks of 63 and of 64
])
def test_tree_plans_are_the_plans_whose_combined_block_sums_have_the_whole_array_bits(monkeypatch, shape, planes, tree):
    # numpy's pairwise summation decides which block sums combine to np.add.reduce's bits: a numpy
    # that changes its rule fails here, before the solver's block sums drift from its whole-array ones
    if planes:
        monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", planes * math.prod(shape[1:]))
    blocks = plan_blocks(shape)
    assert len(blocks) > 1 and is_tree(shape, blocks) == tree
    rng = np.random.default_rng(17)
    matches = []
    for _ in range(20 if tree else 50):
        a = rng.random(shape) - 0.3
        sums = [block_sum(a[lo:hi]) for lo, hi in blocks]
        matches.append(tree_sum(sums) == float(np.add.reduce(a, axis=None)))
    assert all(matches) == tree, matches.count(False)


@pytest.mark.parametrize("n, combine", [
    (3, lambda s: (s[0] + s[1]) + s[2]),
    (5, lambda s: ((s[0] + s[1]) + (s[2] + s[3])) + s[4]),
    (6, lambda s: ((s[0] + s[1]) + (s[2] + s[3])) + (s[4] + s[5])),
    (7, lambda s: ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + s[6])),
    (9, lambda s: (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))) + s[8]),
], ids=["3", "5", "6", "7", "9"])
def test_tree_sum_of_a_block_count_that_is_not_a_power_of_two_carries_the_odd_block_up(n, combine):
    # on a plan that is not a tree this order is the solve's sum, so it is pinned term by term
    rng = np.random.default_rng(n)
    other_order = 0
    for _ in range(200):
        sums = [float(x) for x in (rng.random(n) - 0.5) * 10.0 ** rng.integers(-6, 7, n)]
        assert tree_sum(list(sums)) == combine(sums), sums
        other_order += math.fsum(sums) != combine(sums) or sum(sums) != combine(sums)
    assert other_order > 0  # the draws tell the pinned order from the others


def test_block_takes_views_and_gives(monkeypatch):
    monkeypatch.setattr(workspace, "BLOCK_ELEMENTS", 2 * 6 * 8)  # two planes of (9, 6, 8)
    shape = (9, 6, 8)
    ws = Workspace(shape)
    assert ws.blocks == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 9)]
    full = ws.take()
    assert_solver_array(full, shape)
    blocks = [ws.take(b) for b in range(5)]
    for (lo, hi), arr in zip(ws.blocks, blocks):
        assert arr.shape == (hi - lo, 6, 8) and arr.flags.c_contiguous and arr.ctypes.data % ALIGNMENT == 0
    assert len(ws) == 6
    # the short last block's view gives back the block array under it, which block 0 gets next
    ws.give(blocks[4])
    under = ws.take(0)
    assert under.shape == (2, 6, 8) and np.shares_memory(under, blocks[4]) and len(ws) == 6
    ws.give(under)
    assert ws.take(4) is blocks[4] and len(ws) == 6
    # block views of a held array are kept and ignored by give; those of a foreign one are fresh
    parts = ws.parts(full)
    assert ws.parts(full) is parts and [p.shape[0] for p in parts] == [2, 2, 2, 2, 1]
    assert all(np.shares_memory(p, full) for p in parts)
    ws.give(*parts)
    assert ws.take() is not full
    foreign = np.zeros(shape)
    assert ws.parts(foreign) is not ws.parts(foreign)
    # nor are any views of it: a stencil reading it goes through the checks
    assert ws.views(foreign, 1) is None and ws.views(ws.parts(foreign)[0], 1) is None
    # an array held as long as a solve holds its mask has its views and block views kept
    mask = ws.take()
    parts = ws.parts(mask)
    assert ws.views(mask, 1, (0, 2)) is ws.views(mask, 1, (0, 2)) is not None
    assert ws.views(parts[0], 1) is ws.views(parts[0], 1) is not None
    # a one-block field's block arrays are its full-size arrays, and its one block sum is the whole sum
    one = Workspace((4, 5, 6))
    assert one.blocks == [None] and one.parts(full) == [full] and tree_sum([2.5]) == 2.5
    arr = one.take(0)
    one.give(arr)
    assert one.take() is arr and len(one) == 1
