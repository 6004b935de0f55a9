"""Overlap and boundary-distance metrics for binary masks.

HD95 follows the pooled convention: the directed boundary distances of both
masks are pooled into one set and the 95th percentile is taken with linear
interpolation between order statistics. Boundaries are foreground voxels with
at least one face-adjacent background (or out-of-bounds) neighbor; distances
are Euclidean between voxel centers, scaled per axis by the grid spacing and
computed exactly (no chamfer approximation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .field import FieldError, ScalarField, check_same_shape, is_binary


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
    da = _binary_data(a, "prediction")
    db = _binary_data(b, "reference")
    na = int(da.sum())
    nb = int(db.sum())
    if na + nb == 0:
        return 1.0
    inter = int(np.logical_and(da, db).sum())
    return 2.0 * inter / (na + nb)


def boundary_voxels(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with a face-adjacent background or out-of-bounds neighbor."""
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


def hd95(a: ScalarField, b: ScalarField) -> float:
    """95th percentile of the pooled directed boundary-to-boundary distances, in ``a``'s spacing.

    Raises :class:`MetricsError` if either mask is empty (the quantity is
    undefined; no sentinel is returned).
    """
    check_same_shape(a, b)
    da = _binary_data(a, "prediction")
    db = _binary_data(b, "reference")
    if not da.any() or not db.any():
        raise MetricsError("hd95 requires both masks to be nonempty")
    sp = np.asarray(a.spacing, dtype=np.float64)
    pa = np.argwhere(boundary_voxels(da)) * sp
    pb = np.argwhere(boundary_voxels(db)) * sp
    d_ab = cKDTree(pb).query(pa)[0]
    d_ba = cKDTree(pa).query(pb)[0]
    pooled = np.concatenate([d_ab, d_ba])
    return float(np.percentile(pooled, 95.0))


def count_components(mask: ScalarField) -> int:
    """Number of face-connected foreground components (4-adjacency in 2D, 6 in 3D)."""
    data = _binary_data(mask, "mask")
    _, count = ndimage.label(data, structure=ndimage.generate_binary_structure(data.ndim, 1))
    return int(count)


def evaluate_pair(pred: ScalarField, gt: ScalarField) -> MetricsReport:
    """Bundle dice, hd95 and component counts for one prediction/reference pair."""
    return MetricsReport(
        dice=dice(pred, gt),
        hd95=hd95(pred, gt),
        components_pred=count_components(pred),
        components_gt=count_components(gt),
    )
