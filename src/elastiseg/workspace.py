"""A pool of full-size scratch arrays shared by a chain of raw numerical functions.

Every solver iteration evaluates the same stencils and pointwise products on
arrays of one shape. Instead of allocating each intermediate afresh, the raw
functions :meth:`Workspace.take` arrays from one workspace and
:meth:`Workspace.give` them back once they are dead, so a buffer is reused by
whatever is computed next. After the first pass no full-size array is
allocated, and the number of arrays the workspace holds is the largest number
that were alive at once. A caller that passes no workspace gets a throwaway
one: the code path is the same and every array it returns is fresh.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


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
        arr = np.empty(self.shape)
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
