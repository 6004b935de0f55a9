"""A pool of full-size scratch arrays shared by a chain of raw numerical functions.

Every solver iteration evaluates the same stencils and pointwise products on
arrays of one shape. Instead of allocating each intermediate afresh, the raw
functions :meth:`Workspace.take` arrays from one workspace and
:meth:`Workspace.give` them back once they are dead, so a buffer is reused by
whatever is computed next. After the first pass no full-size array is
allocated, and the number of arrays the workspace holds is the largest number
that were alive at once. A caller that passes no workspace gets a throwaway
one: the code path is the same and every array it returns is fresh.

Every array comes from :func:`aligned_empty`, whose data starts on an
:data:`ALIGNMENT`-byte boundary. ``np.empty`` only guarantees 16 bytes, and an
array whose start sits mid cache line makes every vector store of a ufunc
straddle two lines: an out-of-place ``np.multiply`` held in cache takes 4.1
against 6.4-7.4 us at 96^2, and 21 against 43-53 us at 256^2, with all three
arrays aligned or all at one offset of 16, 32 or 48 bytes (best of 7x200 calls,
2-vCPU Xeon VM with AVX-512).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

ALIGNMENT = 64  # bytes: one cache line, and one AVX-512 register


def aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """Uninitialised C-contiguous float64 array of ``shape`` whose data starts on an ALIGNMENT-byte boundary."""
    n = math.prod(shape)
    pad = ALIGNMENT // 8
    raw = np.empty(n + pad)  # float64 data is 8-byte aligned, so a boundary lies within the first pad elements
    start = (-raw.ctypes.data % ALIGNMENT) // 8
    return raw[start:start + n].reshape(shape)


class Workspace:
    """Uninitialised float64 arrays of one shape, handed out and taken back."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(shape)
        self._owned: dict[int, np.ndarray] = {}  # by id(), unique while the array is held here
        self._free: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        """Number of full-size arrays allocated so far."""
        return len(self._owned)

    def take(self) -> np.ndarray:
        """A free array (contents undefined), allocating one when none is free."""
        if self._free:
            return self._free.popitem()[1]
        arr = aligned_empty(self.shape)
        self._owned[id(arr)] = arr
        return arr

    def give(self, *arrays) -> None:
        """Return arrays to the pool once nothing reads them any more.

        Anything this workspace did not hand out (a freshly allocated array,
        a scalar) and arrays already returned are ignored, so a caller can
        give back everything it holds without tracking which is which.
        """
        for arr in arrays:
            if id(arr) in self._owned:
                self._free[id(arr)] = arr

    @contextmanager
    def scope(self):
        """Give back, on leaving the block, every array taken in it and not yet returned."""
        held = self._owned.keys() - self._free.keys()
        try:
            yield
        finally:
            self.give(*(arr for key, arr in self._owned.items() if key not in held))
