"""Bit-exact file formats: VF32 volumes, P5 PGM masks, metrics CSV.

VF32 is a single ASCII header line ``VF32 <ndim> <extents...> <spacings...>``
followed by raw little-endian IEEE-754 float32 in row-major order (last axis
fastest). PGM is binary 8-bit P5 with foreground 255 / background 0; on read,
any value >= 128 counts as foreground. Integral spacings are serialized as
integers, everything else with the shortest round-trip decimal, so headers
round-trip exactly. A read casts once, in :class:`ScalarField`'s own copy of
the float32 payload or the foreground bool mask.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .field import FieldError, ScalarField, is_binary


class VolumeFormatError(ValueError):
    """Malformed or inconsistent volume/mask file."""


def _fmt_spacing(s: float) -> str:
    if s == int(s):
        return str(int(s))
    return repr(float(s))


def write_volume(field: ScalarField, path: str | os.PathLike) -> None:
    header = " ".join(
        ["VF32", str(field.ndim)]
        + [str(n) for n in field.shape]
        + [_fmt_spacing(s) for s in field.spacing]
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(field.data, dtype="<f4").tobytes())


def read_volume(path: str | os.PathLike) -> ScalarField:
    with open(path, "rb") as fh:
        header = fh.readline(257)
        if not header.endswith(b"\n"):
            raise VolumeFormatError("header line too long" if len(header) > 256 else "unexpected end of file in header")
        tokens = header.decode("ascii", errors="replace").split()
        if not tokens or tokens[0] != "VF32":
            raise VolumeFormatError(f"bad magic: expected 'VF32', got {tokens[:1]}")
        try:
            ndim = int(tokens[1])
        except (IndexError, ValueError) as exc:
            raise VolumeFormatError("missing or invalid ndim") from exc
        if ndim not in (2, 3):
            raise VolumeFormatError(f"ndim must be 2 or 3, got {ndim}")
        if len(tokens) != 2 + 2 * ndim:
            raise VolumeFormatError(f"expected {2 + 2 * ndim} header tokens, got {len(tokens)}")
        try:
            shape = tuple(int(t) for t in tokens[2:2 + ndim])
            spacing = tuple(float(t) for t in tokens[2 + ndim:])
        except ValueError as exc:
            raise VolumeFormatError("invalid extent or spacing token") from exc
        if any(n < 1 for n in shape):
            raise VolumeFormatError(f"extents must be >= 1, got {shape}")
        count = math.prod(shape)
        # compare sizes before reading, so a forged header cannot demand a huge buffer
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available < 4 * count:
            raise VolumeFormatError(f"truncated payload: expected {4 * count} bytes, got {available}")
        if available > 4 * count:
            raise VolumeFormatError("trailing bytes after payload")
        data = np.frombuffer(fh.read(4 * count), dtype="<f4").reshape(shape)
    try:
        with np.errstate(invalid="ignore"):  # a signalling NaN warns in the cast; ScalarField rejects it
            return ScalarField(data, spacing)
    except FieldError as exc:
        raise VolumeFormatError(str(exc)) from exc


def write_pgm(mask: ScalarField, path: str | os.PathLike) -> None:
    if mask.ndim != 2:
        raise VolumeFormatError(f"PGM is 2D only, got {mask.ndim}D")
    if not is_binary(mask):
        raise VolumeFormatError("PGM export expects a binary mask")
    rows, cols = mask.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write((mask.data * 255).astype(np.uint8).tobytes())


def read_pgm(path: str | os.PathLike) -> ScalarField:
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise VolumeFormatError("truncated PGM header")
        tokens.append(blob[start:pos])
    if tokens[0] != b"P5":
        raise VolumeFormatError(f"unsupported PGM variant {tokens[0]!r}; only binary P5 is accepted")
    try:
        cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise VolumeFormatError("invalid PGM header token") from exc
    if rows < 1 or cols < 1:
        raise VolumeFormatError(f"PGM extents must be >= 1, got {cols}x{rows}")
    if maxval != 255:
        raise VolumeFormatError(f"maxval must be 255, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    payload = memoryview(blob)[pos:]
    if len(payload) != rows * cols:
        raise VolumeFormatError(f"payload size {len(payload)} does not match {rows}x{cols}")
    return ScalarField(np.frombuffer(payload, dtype=np.uint8).reshape(rows, cols) >= 128, 1.0)


METRICS_CSV_HEADER = "case,dice,hd95,components_pred,components_gt"


def format_metrics_row(name: str, dice_value: float, hd95_value, components_pred: int,
                       components_gt: int) -> str:
    """CSV row with six-decimal floats; ``hd95_value`` may be an error token string."""
    hd = f"{hd95_value:.6f}" if isinstance(hd95_value, float) else str(hd95_value)
    return f"{name},{dice_value:.6f},{hd},{components_pred},{components_gt}"

