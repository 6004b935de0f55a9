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

A workspace also keeps the views the stencils of :mod:`elastiseg.diffops`
read and write (:func:`shift_views`), built on first use for each array and
axis, for the arrays it hands out and for one array registered with it
through :meth:`Workspace.register` (the solver's mask). A stencil between two
such arrays skips rebuilding them and re-checking its operands, which took
8.7 of a first difference's 20.9 us at 96^2 (best of 7x2000 calls, same VM).
:meth:`Workspace.take` hands out the free array allocated first, so every
solver iteration gives each role the array the first one gave it, and the
views stop growing after one iteration: at most (arrays + 1) * ndim of them,
about 1 KB each. They hold no data and go with the workspace.
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


def shift_views(a: np.ndarray, axis: int) -> tuple[np.ndarray, ...]:
    """The views of C-contiguous ``a`` that a stencil along ``axis`` reads or writes.

    In order: the flat array one step before, at and after its interior along
    ``axis`` (a step is a shift by ``prod(shape[axis+1:])``), then its planes
    0, 1, n-2 and n-1 along ``axis``.
    """
    s = math.prod(a.shape[axis + 1:])
    flat, planes = a.reshape(-1), a.swapaxes(0, axis)
    return flat[:-2 * s], flat[s:-s], flat[2 * s:], planes[0, ...], planes[1, ...], planes[-2, ...], planes[-1, ...]


class Workspace:
    """Uninitialised float64 arrays of one shape, handed out and taken back."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(shape)
        self._arrays: list[np.ndarray] = []  # in allocation order
        self._index: dict[int, int] = {}  # allocation index by id(), unique while the array is held here
        self._free: list[bool] = []  # by allocation index
        self._registered: np.ndarray | None = None
        self._views: dict[tuple[int, int], tuple] = {}  # shift_views by (id(array), axis)

    def __len__(self) -> int:
        """Number of full-size arrays allocated so far."""
        return len(self._arrays)

    def take(self) -> np.ndarray:
        """The free array allocated first (contents undefined), allocating one when none is free.

        So a pass that repeats the takes and gives of the one before it hands
        every role the same array as that one did, and uses no new views.
        """
        try:
            i = self._free.index(True)
        except ValueError:
            arr = aligned_empty(self.shape)
            self._index[id(arr)] = len(self._arrays)
            self._arrays.append(arr)
            self._free.append(False)
            return arr
        self._free[i] = False
        return self._arrays[i]

    def give(self, *arrays) -> None:
        """Return arrays to the pool once nothing reads them any more.

        Anything this workspace did not hand out (a freshly allocated array,
        a scalar) and arrays already returned are ignored, so a caller can
        give back everything it holds without tracking which is which.
        """
        for arr in arrays:
            i = self._index.get(id(arr))
            if i is not None:
                self._free[i] = True

    def register(self, a: np.ndarray) -> None:
        """Let :meth:`views` serve ``a``, a C-contiguous array of the pool's shape, until another is registered."""
        if a.shape != self.shape or not a.flags.c_contiguous:
            raise ValueError(f"a registered array must be C-contiguous of shape {self.shape}")
        if self._registered is not None:
            for axis in range(len(self.shape)):
                self._views.pop((id(self._registered), axis), None)
        self._registered = a

    def views(self, a: np.ndarray, axis: int) -> tuple[np.ndarray, ...] | None:
        """The :func:`shift_views` of ``a`` along ``axis``, built on first use and kept.

        None unless ``a`` was handed out or registered here and has the three
        planes a stencil needs along ``axis``: the caller then builds and checks
        its own. An id found here is that array's, as the workspace holds it.
        """
        v = self._views.get((id(a), axis))
        if v is None and self._holds(a) and 0 <= axis < len(self.shape) and self.shape[axis] >= 3:
            v = self._views[id(a), axis] = shift_views(a, axis)
        return v

    def _holds(self, a) -> bool:
        return id(a) in self._index or (a is not None and a is self._registered)

    @contextmanager
    def scope(self):
        """Give back, on leaving the block, every array taken in it and not yet returned."""
        held = {i for i, free in enumerate(self._free) if not free}
        try:
            yield
        finally:
            for i in range(len(self._free)):
                if i not in held:
                    self._free[i] = True
