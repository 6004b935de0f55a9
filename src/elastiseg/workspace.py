"""A pool of scratch arrays shared by a chain of raw numerical functions, with its block plan.

Every solver iteration evaluates the same stencils and pointwise products on
arrays of one shape. Instead of allocating each intermediate afresh, the raw
functions :meth:`Workspace.take` arrays from one workspace and
:meth:`Workspace.give` them back once they are dead, so a buffer is reused by
whatever is computed next. After the first pass no array is allocated, and the
number of arrays the workspace holds is the largest number that were alive at
once. A caller that passes no workspace gets a throwaway one: the code path is
the same and every array it returns is fresh.

The block plan (:func:`plan_blocks`) splits a field into blocks of whole
planes along axis 0, about :data:`BLOCK_ELEMENTS` per array, so that the
intermediates of one block stay in a core's L2 cache from one ufunc to the
next: at 64^3 a full-size float64 array is 2 MiB, the size of the L2 of the
2-vCPU Xeon VM timed below, and there an out-of-place multiply of such arrays
streams from L3 in 289 us, where sixteen on L2-resident pieces of 16384
elements take 16 x 5.7 us (best of 300 calls). A field whose one array is at
most four blocks' elements is a single block, and its block arrays are the
full-size arrays themselves. The plan counts elements, not bytes, so a
float32 workspace has the float64 one's blocks at half their bytes: at 64^3
a plan by bytes would make the float32 field one block, and a 20-iteration
fast3d momentum solve took 8.8 ms per iteration on one block against 7.0 on
blocks of 8 planes, 7.8 on 4 and 8.8 on 16 (best of 5, same VM). ``take(b)`` hands out
an array of block ``b``'s shape, ``take()`` a full-size one, and
:meth:`Workspace.parts` the views of a full-size array on each block. The
plan depends on the shape alone.

Every array comes from :func:`aligned_empty`, whose data starts on an
:data:`ALIGNMENT`-byte boundary. ``np.empty`` only guarantees 16 bytes, and an
array whose start sits mid cache line makes every vector store of a ufunc
straddle two lines: an out-of-place ``np.multiply`` held in cache takes 4.1
against 6.4-7.4 us at 96^2, and 21 against 43-53 us at 256^2, with all three
arrays aligned or all at one offset of 16, 32 or 48 bytes (best of 7x200 calls,
2-vCPU Xeon VM with AVX-512). A block starts on a whole plane, so at 64^3 every
block view is aligned as well.

A workspace also keeps the views the stencils of :mod:`elastiseg.diffops`
read and write (:func:`shift_views`), built on first use for each array, axis
and plane range, for the arrays it hands out and their block views. A stencil
between two such arrays skips rebuilding them and re-checking its operands,
which took 8.7 of a first difference's 20.9 us at 96^2 (best of 7x2000 calls,
same VM). :meth:`Workspace.take` hands out the free array allocated first, so
every solver iteration gives each role the array the first one gave it, and
the views stop growing after one iteration: at most arrays * ndim * blocks of
them, about 1 KB each. They hold no data and go with the workspace.

A sum over a field is taken block by block (:func:`block_sum`), while each
block is in cache, and the block sums, float64 whatever the workspace's dtype,
are combined by :func:`tree_sum`. On a float64 tree plan that is one
whole-array ``np.add.reduce`` bit for bit: numpy sums n contiguous float64
elements pairwise (``pairwise_sum`` in
``numpy/_core/src/umath/loops_utils.h.src``), splitting them at n/2 rounded
down to a multiple of 8, down to leaves of at most 128 elements, so 2^k equal
blocks of m elements, m a multiple of 8 and over 64, are nodes of that tree,
and so is one block. 64^3 at 8 planes, 96^3 at 3 planes and every one-block
plan are tree plans. On any other plan (a short last block, a block count
that is not a power of two, or blocks that are not a multiple of 8 elements
over 64) the combined sum is still one fixed order for each shape, so a
solve is deterministic, but its last bits may differ from the whole-array
sum's. That is the tolerance: small solves on such plans stay within 1e-12
of the one-block solve (3e-14 measured), and a 20-iteration fast3d momentum
solve of a 65x64x64 sphere writes a float32 mask that differs from the
whole-array sums' by at most 2.9e-6, with the same thresholded mask. A
float32 block is summed in float64, pairwise within each of the buffered
chunks numpy casts it in, so its sums are deterministic and hold float64's
error, but no tree rule applies to them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

ALIGNMENT = 64  # bytes: one cache line, and one AVX-512 register
BLOCK_ELEMENTS = 1 << 15  # elements per array of one block: 8 planes at 64^3

Planes = tuple[int, int]  # [lo, hi) along axis 0


def aligned_empty(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """Uninitialised C-contiguous array of ``shape`` and ``dtype`` whose data starts on an ALIGNMENT-byte boundary."""
    n = math.prod(shape)
    size = np.dtype(dtype).itemsize
    pad = ALIGNMENT // size
    raw = np.empty(n + pad, dtype)  # data is itemsize-aligned, so a boundary lies within the first pad elements
    start = (-raw.ctypes.data % ALIGNMENT) // size
    return raw[start:start + n].reshape(shape)


def plan_blocks(shape: tuple[int, ...]) -> list[Planes | None]:
    """The plane ranges along axis 0 of a field of ``shape``; ``[None]`` (the whole field) up to 4 blocks' elements.

    Larger fields get blocks of ``BLOCK_ELEMENTS // plane elements`` planes
    (at least one), the last one shorter when the planes do not divide evenly.
    """
    if not shape or math.prod(shape) <= 4 * BLOCK_ELEMENTS:
        return [None]
    n = shape[0]
    t = max(1, BLOCK_ELEMENTS // math.prod(shape[1:]))
    return [(lo, min(lo + t, n)) for lo in range(0, n, t)] if t < n else [None]


def block_sum(x: np.ndarray) -> float:
    """The sum of one block in float64, as ``np.add.reduce``: np.sum's reduction without its wrapper's few us.

    For a float64 block that is numpy's pairwise sum over the block, the order
    whose nodes :func:`tree_sum` combines; a float32 block is cast to float64
    as it is summed, so its sum carries float64's error, not float32's.
    """
    return float(np.add.reduce(x, axis=None, dtype=np.float64))


def tree_sum(sums: list[float]) -> float:
    """The block sums combined pairwise, ((s0 + s1) + (s2 + s3)) + ..., as numpy's pairwise sum combines its nodes.

    On a tree plan of float64 blocks, each summed by :func:`block_sum`, this
    is the whole-array ``np.add.reduce`` bit for bit. An odd block out at a level is
    carried to the next one unchanged: five blocks give ((s0 + s1) + (s2 + s3)) + s4.
    """
    while len(sums) > 1:
        pairs = [a + b for a, b in zip(sums[::2], sums[1::2])]
        sums = pairs + sums[2 * len(pairs):]
    return sums[0]


def shift_views(a: np.ndarray, axis: int, planes: Planes | None = None, n: int | None = None) -> tuple:
    """The views of C-contiguous ``a`` that a stencil along ``axis`` reads or writes.

    In order: the flat array one step before, at and after its interior along
    ``axis`` (a step is a shift by ``prod(shape[axis+1:])``), then its planes
    0, 1, n-2 and n-1 along ``axis``.

    With ``planes`` = (lo, hi) the stencil makes only planes [lo, hi) along
    axis 0 of a result of ``n`` planes (default ``a.shape[0]``). Along an
    axis >= 1 the views are those of ``a[lo:hi]``. Along axis 0 they cover the
    interior planes in [lo, hi) and the boundary planes 0, 1 (when lo = 0) and
    n-2, n-1 (when hi = n), the others being None: of the whole input when
    ``a`` holds n planes, else of an output that holds just planes [lo, hi),
    whose flat step before and after are None as well.
    """
    if planes is not None and axis:
        a = a[planes[0]:planes[1]]
    if planes is None or axis:
        s = math.prod(a.shape[axis + 1:])
        flat, sides = a.reshape(-1), a.swapaxes(0, axis)
        return flat[:-2 * s], flat[s:-s], flat[2 * s:], sides[0, ...], sides[1, ...], sides[-2, ...], sides[-1, ...]
    lo, hi = planes
    n = a.shape[0] if n is None else n
    s = math.prod(a.shape[1:])
    flat = a.reshape(-1)
    ilo, ihi = max(lo, 1), min(hi, n - 1)  # the interior planes in [lo, hi)
    if a.shape[0] != n:  # an output holding planes [lo, hi)
        return (None, flat[(ilo - lo) * s:(ihi - lo) * s], None, a[0] if lo == 0 else None, None, None,
                a[-1] if hi == n else None)
    return (flat[(ilo - 1) * s:(ihi - 1) * s], flat[ilo * s:ihi * s], flat[(ilo + 1) * s:(ihi + 1) * s],
            *((a[0], a[1]) if lo == 0 else (None, None)), *((a[n - 2], a[n - 1]) if hi == n else (None, None)))


class _Pool:
    """Arrays of one shape and dtype in allocation order, with a free flag each."""

    def __init__(self, shape: tuple[int, ...], dtype):
        self.shape, self.dtype = shape, dtype
        self.arrays: list[np.ndarray] = []
        self.free: list[bool] = []


class Workspace:
    """Uninitialised arrays of one dtype, of one shape and of its blocks' shape, handed out and taken back."""

    def __init__(self, shape: tuple[int, ...], dtype=np.float64):
        self.shape = tuple(shape)
        self.blocks = plan_blocks(self.shape)
        self._single = self.blocks[0] is None
        self._full = _Pool(self.shape, dtype)
        # block arrays of a one-block field are the full-size arrays
        self._block = self._full if self._single else _Pool((self.blocks[0][1],) + self.shape[1:], dtype)
        last = self.blocks[-1]
        self._short_block = len(self.blocks) - 1 if last and last[1] - last[0] != self._block.shape[0] else -1
        self._short: dict[int, np.ndarray] = {}  # the short last block's view by allocation index of its array
        # (free flags, allocation index) by id() of an array handed out, None for a view that is not given
        # back; an id is unique while the object it names is held here
        self._index: dict[int, tuple[list[bool], int] | None] = {}
        self._parts: dict[int, list[np.ndarray]] = {}  # block views by id() of a held full-size array
        self._views: dict[tuple, tuple] = {}  # shift_views by (id(array), axis, planes)

    def __len__(self) -> int:
        """Number of arrays allocated so far, full-size and block-sized."""
        return len(self._full.arrays) + (0 if self._single else len(self._block.arrays))

    def take(self, b: int | None = None) -> np.ndarray:
        """The free array allocated first (contents undefined) of the full shape, or of block ``b``'s.

        One is allocated when none is free. So a pass that repeats the takes
        and gives of the one before it hands every role the same array as that
        one did, and uses no new views.
        """
        pool = self._full if b is None else self._block
        free = pool.free
        try:
            i = free.index(True)
        except ValueError:
            i = self._allocate(pool)
        free[i] = False
        return self._short[i] if b == self._short_block else pool.arrays[i]

    def _allocate(self, pool: _Pool) -> int:
        i = len(pool.arrays)
        arr = aligned_empty(pool.shape, pool.dtype)
        self._index[id(arr)] = pool.free, i
        pool.arrays.append(arr)
        pool.free.append(True)
        if pool is self._block and self._short_block >= 0:
            lo, hi = self.blocks[-1]
            view = self._short[i] = arr[:hi - lo]
            self._index[id(view)] = pool.free, i
        return i

    def give(self, *arrays) -> None:
        """Return arrays to the pool once nothing reads them any more.

        Anything this workspace did not hand out (a freshly allocated array,
        a scalar, a block view from :meth:`parts`) and arrays already returned
        are ignored, so a caller can give back everything it holds without
        tracking which is which.
        """
        for arr in arrays:
            slot = self._index.get(id(arr))
            if slot is not None:
                slot[0][slot[1]] = True

    def parts(self, a: np.ndarray) -> list[np.ndarray]:
        """The views of full-size ``a`` on each block, in plan order; ``[a]`` for a one-block field.

        Kept for an array handed out here, so that stencils writing into them
        reuse their views; built afresh for any other. So every array a kept
        view reads or writes is its own or shares its owner with it, which is
        how the stencils rule out overlap.
        """
        if self._single:
            return [a]
        views = self._parts.get(id(a))
        if views is None:
            views = [a[lo:hi] for lo, hi in self.blocks]
            if self._index.get(id(a)) is not None:
                self._parts[id(a)] = views
                self._index.update((id(v), None) for v in views)
        return views

    def views(self, a: np.ndarray, axis: int, planes: Planes | None = None) -> tuple | None:
        """The :func:`shift_views` of ``a`` along ``axis`` for ``planes``, built on first use and kept.

        None unless ``a`` was handed out here (or is a block view of an array
        handed out) and the field has the three planes a stencil needs along
        ``axis``: the caller then builds and checks its own. An id found
        here is that array's, as the workspace holds it.
        """
        key = (id(a), axis, planes)
        v = self._views.get(key)
        if v is None and id(a) in self._index and 0 <= axis < len(self.shape) and self.shape[axis] >= 3:
            v = self._views[key] = shift_views(a, axis, planes, self.shape[0])
        return v

    @contextmanager
    def scope(self):
        """Give back, on leaving the block, every array taken in it and not yet returned."""
        pools = [self._full] if self._single else [self._full, self._block]
        held = [{i for i, free in enumerate(p.free) if not free} for p in pools]
        try:
            yield
        finally:
            for pool, kept in zip(pools, held):
                for i in range(len(pool.free)):
                    if i not in kept:
                        pool.free[i] = True
