"""Deterministic synthetic shapes and images for benchmarks and solver tests.

All generators are pure functions of their arguments including the seed. Noise
is i.i.d. Gaussian drawn from numpy's counter-based Philox (4x64, 10 rounds)
bit generator through ``Generator.standard_normal``, so identical seeds give
identical images on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldError, ScalarField


@dataclass(frozen=True)
class SynthCase:
    image: ScalarField
    ground_truth: ScalarField
    descriptor: str


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _noisy_image(base: np.ndarray, noise_sigma: float, seed: int) -> np.ndarray:
    if noise_sigma < 0:
        raise FieldError(f"noise_sigma must be >= 0, got {noise_sigma}")
    noisy = base + noise_sigma * _rng(seed).standard_normal(base.shape)
    return np.clip(noisy, 0.0, 1.0)


def _radius_squared(shape: tuple[int, ...], center: tuple[float, ...]) -> np.ndarray:
    grids = np.ogrid[tuple(slice(0, n) for n in shape)]
    rho2 = np.zeros(shape, dtype=np.float64)
    for g, c in zip(grids, center):
        rho2 = rho2 + (g - float(c)) ** 2
    return rho2


def _ball_case(shape, center, radius, fg, bg, noise_sigma, seed, name) -> SynthCase:
    center = tuple(float(c) for c in center)
    if len(center) != len(shape):
        raise FieldError(f"center has {len(center)} coordinates for shape {shape}")
    if not np.all(np.isfinite((*center, radius))):
        raise FieldError(f"center and radius must be finite, got center {center}, radius {radius}")
    if radius <= 2.0:
        raise FieldError(f"radius must exceed 2 voxels, got {radius}")
    if fg == bg:
        raise FieldError("fg and bg must differ")
    for c, n in zip(center, shape):
        if c - radius < 0.0 or c + radius > n - 1:
            raise FieldError(f"{name} (center {center}, radius {radius}) does not fit inside shape {shape}")
    gt = (_radius_squared(shape, center) <= radius * radius).astype(np.float64)
    base = np.where(gt > 0.0, float(fg), float(bg))
    image = _noisy_image(base, noise_sigma, seed)
    desc = f"{name}(shape={shape}, center={center}, radius={radius}, fg={fg}, bg={bg}, noise={noise_sigma}, seed={seed})"
    return SynthCase(ScalarField(image, 1.0), ScalarField(gt, 1.0), desc)


def disk_case(shape: tuple[int, int], center: tuple[float, float], radius: float,
              fg: float = 0.8, bg: float = 0.2, noise_sigma: float = 0.1, seed: int = 0) -> SynthCase:
    """Binary disk ground truth; image is fg inside / bg outside plus clamped noise."""
    if len(shape) != 2:
        raise FieldError(f"disk_case is 2D, got shape {shape}")
    return _ball_case(shape, center, radius, fg, bg, noise_sigma, seed, "disk")


def sphere_case_3d(shape: tuple[int, int, int], center: tuple[float, float, float], radius: float,
                   fg: float = 0.8, bg: float = 0.2, noise_sigma: float = 0.1, seed: int = 0) -> SynthCase:
    """3D analogue of :func:`disk_case`."""
    if len(shape) != 3:
        raise FieldError(f"sphere_case_3d is 3D, got shape {shape}")
    return _ball_case(shape, center, radius, fg, bg, noise_sigma, seed, "sphere")


TUBE_FG = 0.9
TUBE_BG = 0.1


def broken_tube_case(shape: tuple[int, int], width: int = 5, gap_count: int = 2,
                     gap_len: int = 3, noise_sigma: float = 0.1, seed: int = 0) -> SynthCase:
    """Horizontal bar with erased segments; the ground truth is the unbroken bar.

    The tube is an axis-aligned rectangle of the given width, centered
    vertically, spanning all but a margin of the columns. ``gap_count`` evenly
    spaced segments of ``gap_len`` columns are erased from the *image* only,
    so reconnecting them is rewarded by the metrics. Rendered at intensities
    0.9 (tube) / 0.1 (background) before noise.
    """
    if len(shape) != 2:
        raise FieldError(f"broken_tube_case is 2D, got shape {shape}")
    n0, n1 = shape
    if width < 1:
        raise FieldError(f"width must be >= 1, got {width}")
    if gap_count < 0 or gap_len < 1:
        raise FieldError(f"need gap_count >= 0 and gap_len >= 1, got {gap_count}, {gap_len}")
    r0 = n0 // 2 - width // 2
    if r0 < 1 or r0 + width > n0 - 1:
        raise FieldError(f"tube of width {width} does not fit in {n0} rows")
    margin = max(3, n1 // 10)
    c_start, c_end = margin, n1 - margin
    span = c_end - c_start
    if span < (gap_len + 2) * max(gap_count, 1):
        raise FieldError(f"{gap_count} gaps of {gap_len} columns do not fit in a span of {span}")

    gt = np.zeros(shape, dtype=np.float64)
    gt[r0:r0 + width, c_start:c_end] = 1.0

    broken = gt.copy()
    gap_cols = []
    for k in range(1, gap_count + 1):
        center_col = c_start + round(k * span / (gap_count + 1))
        g0 = center_col - gap_len // 2
        g1 = g0 + gap_len
        if g0 <= c_start or g1 >= c_end:
            raise FieldError("gap falls outside the tube span")
        gap_cols.append((g0, g1))
        broken[r0:r0 + width, g0:g1] = 0.0
    for (a0, a1), (b0, b1) in zip(gap_cols, gap_cols[1:]):
        if b0 <= a1:
            raise FieldError("gaps overlap; reduce gap_len or gap_count")

    base = np.where(broken > 0.0, TUBE_FG, TUBE_BG)
    image = _noisy_image(base, noise_sigma, seed)
    desc = (f"tube(shape={shape}, width={width}, gaps={gap_count}, gap_len={gap_len}, "
            f"noise={noise_sigma}, seed={seed})")
    return SynthCase(ScalarField(image, 1.0), ScalarField(gt, 1.0), desc)


HEMISPHERE_CAP_FRACTION = 0.85


def hemisphere_field(shape: tuple[int, int], radius: float) -> ScalarField:
    """Height field of a sphere cap, extended tangentially outside the cap.

    u = sqrt(r^2 - rho^2) for rho <= 0.85 r around the grid center; beyond the
    rim the field continues along the rim's tangent plane, which keeps values
    and stencils finite everywhere. The inner region (rho <= 0.6 r) is the
    usual scoring window for curvature benchmarks.
    """
    if len(shape) != 2:
        raise FieldError(f"hemisphere_field is 2D, got shape {shape}")
    if radius < 8.0:
        raise FieldError(f"radius {radius} is degenerate; need >= 8 grid steps")
    half = (min(shape) - 1) / 2.0
    if 0.6 * radius > half:
        raise FieldError(f"inner cap of radius {0.6 * radius:.1f} exceeds grid half-extent {half:.1f}")
    center = tuple((n - 1) / 2.0 for n in shape)
    rho = np.sqrt(_radius_squared(shape, center))
    rho_c = HEMISPHERE_CAP_FRACTION * radius
    z_c = np.sqrt(radius * radius - rho_c * rho_c)
    cap = np.sqrt(np.maximum(radius * radius - rho * rho, 0.0))
    tangent = z_c - (rho - rho_c) * (rho_c / z_c)
    return ScalarField(np.where(rho <= rho_c, cap, tangent), 1.0)
