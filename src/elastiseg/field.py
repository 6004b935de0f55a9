"""Grid container and boundary conventions shared by all numerical modules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .curvature import CurvatureMode


class FieldError(ValueError):
    """A field violated its construction or usage contract."""


@dataclass(frozen=True)
class ScalarField:
    """A 2D or 3D real-valued grid with per-axis physical spacing.

    ``data`` is float64 and C-ordered (last axis fastest varying); it is made
    read-only on construction, so every operation returns a new field. Field
    operations compute in double precision even when files store float32; a
    solve computes in the solver's dtype (:data:`elastiseg.solver.DTYPE`).
    """

    data: np.ndarray
    spacing: tuple[float, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64, order="C", copy=True)
        if arr.ndim not in (2, 3):
            raise FieldError(f"field must be 2D or 3D, got ndim={arr.ndim}")
        if any(n < 1 for n in arr.shape):
            raise FieldError(f"all extents must be >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise FieldError("field values must be finite (no NaN/Inf)")
        sp = tuple(float(s) for s in np.atleast_1d(self.spacing))
        if len(sp) == 1:
            sp = sp * arr.ndim
        if len(sp) != arr.ndim:
            raise FieldError(f"spacing has {len(sp)} entries for a {arr.ndim}D field")
        if not all(0.0 < s < np.inf for s in sp):  # also rejects NaN
            raise FieldError(f"spacing must be finite and strictly positive, got {sp}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", sp)

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def voxel_measure(self) -> float:
        """Product of spacings: the area (2D) or volume (3D) of one cell."""
        return math.prod(self.spacing)

    def with_data(self, data: np.ndarray) -> "ScalarField":
        """New field with the same spacing and the given values."""
        return ScalarField(data, self.spacing)


def make_field(shape: tuple[int, ...], spacing=1.0, fill: float = 0.0) -> ScalarField:
    """Constant field of the given shape.

    ``spacing`` may be a scalar (applied to every axis) or a per-axis sequence.
    """
    fill = float(fill)
    if not np.isfinite(fill):
        raise FieldError(f"fill value must be finite, got {fill}")
    return ScalarField(np.broadcast_to(fill, shape), spacing)


def clamp01(field: ScalarField) -> ScalarField:
    """Clip every value to [0, 1], producing a valid soft mask."""
    return field.with_data(np.clip(field.data, 0.0, 1.0))


def check_soft_mask(field: ScalarField, name: str = "mask") -> None:
    """Require values in [0, 1]; energies and the solver assume this."""
    lo = float(field.data.min())
    hi = float(field.data.max())
    if lo < 0.0 or hi > 1.0:
        raise FieldError(f"{name} values must lie in [0,1], got range [{lo}, {hi}]")


def check_same_shape(a: ScalarField | np.ndarray, b: ScalarField | np.ndarray) -> None:
    if a.shape != b.shape:
        raise FieldError(f"shape mismatch: {a.shape} vs {b.shape}")


def check_ndim(ndim: int, mode: CurvatureMode) -> None:
    """Require ``ndim``-D data to be the dimension curvature ``mode`` is defined on."""
    if ndim != mode.required_ndim:
        raise FieldError(f"curvature mode {mode.value} requires {mode.required_ndim}D data, got {ndim}D")


def is_binary(field: ScalarField) -> bool:
    """True when every value is exactly 0.0 or 1.0."""
    d = field.data
    return bool(np.all((d == 0.0) | (d == 1.0)))
