"""Overlap and boundary-distance metrics for binary masks.

HD95 follows the pooled convention: the directed boundary distances of both
masks are pooled into one set and the 95th percentile is taken with linear
interpolation between order statistics. Boundaries are foreground voxels with
at least one face-adjacent background (or out-of-bounds) neighbor; distances
are Euclidean between voxel centers, scaled per axis by the grid spacing and
computed exactly (no chamfer approximation). A voxel on both boundaries is at
distance exactly 0 in both directions, so it enters the pool as two zeros
without a query, and a mask's KD-tree is built only when the other mask has
boundary voxels off its boundary. Trees use sliding-midpoint splits without
node compaction, which build faster; a query returns the least computed
distance over all points whatever the tree's shape, so the pool keeps its
bits. The boundary is the foreground minus its interior, built in place from
one copy of the mask; components are labelled on the mask's uint8 view. The
public functions check each field once and then run the ``*_raw`` functions
on bool arrays, which ``evaluate_pair`` and the CLI share, so each mask is
checked once per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .field import FieldError, ScalarField, check_same_shape, is_binary


_FACES = {nd: ndimage.generate_binary_structure(nd, 1) for nd in (2, 3)}  # face adjacency, by ndim


class MetricsError(ValueError):
    """Metric preconditions violated (non-binary or empty input)."""


@dataclass(frozen=True)
class MetricsReport:
    dice: float
    hd95: float
    components_pred: int
    components_gt: int


def _binary_data(field: ScalarField, name: str) -> np.ndarray:
    if not is_binary(field):
        raise MetricsError(f"{name} must be binary (values exactly 0 or 1)")
    return field.data != 0.0


def dice(a: ScalarField, b: ScalarField) -> float:
    """2|A & B| / (|A| + |B|); defined as 1.0 when both masks are empty."""
    check_same_shape(a, b)
    return dice_raw(_binary_data(a, "prediction"), _binary_data(b, "reference"))


def dice_raw(a: np.ndarray, b: np.ndarray) -> float:
    """:func:`dice` on two same-shape bool arrays."""
    total = np.count_nonzero(a) + np.count_nonzero(b)
    if total == 0:
        return 1.0
    return 2.0 * np.count_nonzero(a & b) / total


def boundary_voxels(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with a face-adjacent background or out-of-bounds neighbor."""
    fg = np.asarray(mask, dtype=bool)
    inner = fg.copy()  # foreground whose every face neighbor is foreground, built in place
    nd = fg.ndim
    for axis in range(nd):
        lo, hi = [slice(None)] * nd, [slice(None)] * nd
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        inner[tuple(lo)] &= fg[tuple(hi)]  # neighbor toward +axis
        inner[tuple(hi)] &= fg[tuple(lo)]  # neighbor toward -axis
        lo[axis], hi[axis] = 0, -1  # the first and last slabs border out-of-bounds
        inner[tuple(lo)] = inner[tuple(hi)] = False
    return fg & ~inner


def hd95(a: ScalarField, b: ScalarField) -> float:
    """95th percentile of the pooled directed boundary-to-boundary distances, in ``a``'s spacing.

    Raises :class:`MetricsError` if either mask is empty (the quantity is
    undefined; no sentinel is returned).
    """
    check_same_shape(a, b)
    return hd95_raw(_binary_data(a, "prediction"), _binary_data(b, "reference"), a.spacing)


def hd95_raw(a: np.ndarray, b: np.ndarray, spacing: tuple[float, ...]) -> float:
    """:func:`hd95` on two same-shape bool arrays at ``spacing``."""
    if not a.any() or not b.any():
        raise MetricsError("hd95 requires both masks to be nonempty")
    edge_a, edge_b = boundary_voxels(a).ravel(), boundary_voxels(b).ravel()
    fa, fb = np.flatnonzero(edge_a), np.flatnonzero(edge_b)
    a_only, b_only = ~edge_b[fa], ~edge_a[fb]
    sp = np.asarray(spacing, dtype=np.float64)
    pa, pb = (np.column_stack(np.unravel_index(f, a.shape)) * sp for f in (fa, fb))
    # a shared voxel is at 0.0 both ways: the pool stays the all-pairs multiset, and the percentile its bits
    pooled = [np.zeros(2 * (len(fa) - np.count_nonzero(a_only)))]
    for only, points, other in ((a_only, pa, pb), (b_only, pb, pa)):
        if only.any():
            pooled.append(cKDTree(other, balanced_tree=False, compact_nodes=False).query(points[only])[0])
    return float(np.percentile(np.concatenate(pooled), 95.0))


def count_components(mask: ScalarField) -> int:
    """Number of face-connected foreground components (4-adjacency in 2D, 6 in 3D)."""
    return count_components_raw(_binary_data(mask, "mask"))


def count_components_raw(mask: np.ndarray) -> int:
    """:func:`count_components` on a bool array."""
    _, count = ndimage.label(mask.view(np.uint8), structure=_FACES[mask.ndim])
    return int(count)


def evaluate_pair(pred: ScalarField, gt: ScalarField) -> MetricsReport:
    """Bundle dice, hd95 and component counts for one prediction/reference pair."""
    check_same_shape(pred, gt)
    a, b = _binary_data(pred, "prediction"), _binary_data(gt, "reference")
    return MetricsReport(dice=dice_raw(a, b), hd95=hd95_raw(a, b, pred.spacing),
                         components_pred=count_components_raw(a), components_gt=count_components_raw(b))
