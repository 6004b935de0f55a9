import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastiseg import FieldError, ScalarField, deriv1, deriv2, deriv_mixed, grad_mag, make_field, tv_length
from elastiseg.diffops import d1, d1_adj, d2, dmixed, dmixed_adj, grad_mag_raw


def coord_field(shape, fn, spacing=1.0):
    grids = np.meshgrid(*[np.arange(n, dtype=float) for n in shape], indexing="ij")
    return ScalarField(fn(*grids), spacing)


def test_deriv1_constant_is_zero():
    f = make_field((6, 6), 1.0, 3.7)
    np.testing.assert_array_equal(deriv1(f, 0).data, 0.0)
    np.testing.assert_array_equal(deriv1(f, 1).data, 0.0)


def test_deriv1_linear_ramp_with_replicate_boundary():
    f = coord_field((7, 5), lambda x, y: x)
    d = deriv1(f, 0).data
    np.testing.assert_array_equal(d[1:-1, :], 1.0)
    # replicate padding halves the one-sided difference at the ends
    np.testing.assert_array_equal(d[0, :], 0.5)
    np.testing.assert_array_equal(d[-1, :], 0.5)


def test_deriv1_exact_on_quadratic():
    f = coord_field((8, 4), lambda x, y: x**2)
    d = deriv1(f, 0).data
    assert d[3, 0] == (16.0 - 4.0) / 2.0  # == 6 at x=3
    x = np.arange(8.0)
    np.testing.assert_array_equal(d[1:-1, :], np.broadcast_to(2.0 * x[1:-1, None], (6, 4)))


def test_deriv2_examples():
    ramp = coord_field((7, 5), lambda x, y: x)
    np.testing.assert_array_equal(deriv2(ramp, 0).data[1:-1], 0.0)
    quad = coord_field((7, 5), lambda x, y: x**2)
    np.testing.assert_array_equal(deriv2(quad, 0).data[1:-1], 2.0)
    const = make_field((5, 5), 1.0, 2.0)
    np.testing.assert_array_equal(deriv2(const, 0).data, 0.0)


def test_spacing_scales_derivatives():
    f = coord_field((7, 5), lambda x, y: x, spacing=(0.5, 1.0))
    # values u = index, physical step 0.5, so du/dx = 2
    np.testing.assert_array_equal(deriv1(f, 0).data[1:-1], 2.0)
    q = coord_field((7, 5), lambda x, y: x**2, spacing=(0.5, 1.0))
    np.testing.assert_array_equal(deriv2(q, 0).data[1:-1], 2.0 / 0.25)


def test_deriv_mixed_separable_and_bilinear():
    sep = coord_field((6, 6), lambda x, y: np.sin(x) + np.cos(y))
    np.testing.assert_allclose(deriv_mixed(sep, 0, 1).data[1:-1, 1:-1], 0.0, atol=1e-14)
    bil = coord_field((6, 6), lambda x, y: x * y)
    np.testing.assert_array_equal(deriv_mixed(bil, 0, 1).data[1:-1, 1:-1], 1.0)
    cub = coord_field((8, 8), lambda x, y: x**2 * y)
    assert cub.data[2, 3] == 4.0 * 3.0
    np.testing.assert_array_equal(deriv_mixed(cub, 0, 1).data[2, 1:-1], 4.0)  # 2x at x=2


def test_deriv_mixed_symmetry_bit_exact():
    rng = np.random.default_rng(0)
    f = ScalarField(rng.random((9, 7)), (0.7, 1.3))
    np.testing.assert_array_equal(deriv_mixed(f, 0, 1).data, deriv_mixed(f, 1, 0).data)
    g = ScalarField(rng.random((5, 6, 7)), 1.0)
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        np.testing.assert_array_equal(deriv_mixed(g, a, b).data, deriv_mixed(g, b, a).data)


def test_deriv_errors():
    f = make_field((5, 5), 1.0, 0.0)
    with pytest.raises(FieldError):
        deriv1(f, 2)
    with pytest.raises(FieldError):
        deriv_mixed(f, 0, 0)
    thin = make_field((2, 5), 1.0, 0.0)
    with pytest.raises(FieldError):
        deriv1(thin, 0)


def test_linearity():
    rng = np.random.default_rng(1)
    u = rng.random((8, 8))
    w = rng.random((8, 8))
    fu, fw = ScalarField(u, 1.0), ScalarField(w, 1.0)
    for op in (lambda f: deriv1(f, 0), lambda f: deriv2(f, 1), lambda f: deriv_mixed(f, 0, 1)):
        combo = op(ScalarField(3.0 * u - 1.5 * w, 1.0)).data
        parts = 3.0 * op(fu).data - 1.5 * op(fw).data
        np.testing.assert_allclose(combo, parts, rtol=0, atol=1e-13)
        # scaling by a power of two commutes bit-exactly
        np.testing.assert_array_equal(op(ScalarField(2.0 * u, 1.0)).data, 2.0 * op(fu).data)


def test_translation_equivariance_interior():
    rng = np.random.default_rng(2)
    base = rng.random((12, 12))
    shifted = np.roll(base, 3, axis=0)
    d0 = deriv1(ScalarField(base, 1.0), 0).data
    d1s = deriv1(ScalarField(shifted, 1.0), 0).data
    # away from both boundaries and the wrap seam, outputs shift with the input
    np.testing.assert_array_equal(d1s[5:10], d0[2:7])


def test_grad_mag_examples():
    const = make_field((6, 6), 1.0, 0.4)
    np.testing.assert_array_equal(grad_mag(const).data, 1e-6)
    plane = coord_field((8, 8), lambda x, y: 3.0 * x + 4.0 * y)
    m = grad_mag(plane).data
    np.testing.assert_allclose(m[1:-1, 1:-1], np.sqrt(25.0 + 1e-12), rtol=1e-15)
    ramp = coord_field((8, 8), lambda x, y: x)
    np.testing.assert_allclose(grad_mag(ramp).data[1:-1, 1:-1], np.sqrt(1.0 + 1e-12), rtol=1e-15)
    assert np.all(grad_mag(ramp).data > 0.0)


def test_tv_length_constant_and_lower_bound():
    const = make_field((10, 10), 1.0, 0.3)
    assert tv_length(const) == pytest.approx(100 * 1e-6, rel=1e-13)
    rng = np.random.default_rng(3)
    f = ScalarField(rng.random((9, 11)), (0.5, 2.0))
    assert tv_length(f) >= 1e-6 * f.data.size * f.voxel_measure


def test_tv_length_matches_smooth_disk_perimeter():
    # u = 0.5*(1 - tanh((rho - r)/w)): the coarea value is the integral of
    # |u'(rho)| * 2*pi*rho, evaluated here by fine radial quadrature
    r0, w = 20.0, 1.0
    n = 128
    c = (n - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float), indexing="ij")
    rho = np.sqrt((xx - c) ** 2 + (yy - c) ** 2)
    u = 0.5 * (1.0 - np.tanh((rho - r0) / w))
    tv = tv_length(ScalarField(u, 1.0))

    rr = np.linspace(0.0, c, 400_000)
    integrand = 0.5 / (w * np.cosh((rr - r0) / w) ** 2) * 2.0 * np.pi * rr
    oracle = np.trapezoid(integrand, rr)
    assert abs(tv - oracle) <= 0.02 * oracle
    assert abs(tv - 2.0 * np.pi * r0) <= 0.10 * (2.0 * np.pi * r0)


def _stencils(ndim):
    """(name, f(a, h, out)) for every stencil and adjoint along every axis or axis pair."""
    ops = []
    for ax in range(ndim):
        for fn in (d1, d1_adj, d2):
            ops.append((f"{fn.__name__}[{ax}]", lambda a, h, out, fn=fn, ax=ax: fn(a, ax, h[ax], out=out)))
    for i, j in itertools.combinations(range(ndim), 2):
        for fn in (dmixed, dmixed_adj):
            ops.append((f"{fn.__name__}[{i},{j}]",
                        lambda a, h, out, fn=fn, i=i, j=j: fn(a, i, j, h[i], h[j], out=out)))
    return ops


@pytest.mark.parametrize("shape", [(3, 3), (9, 7), (5, 8), (3, 3, 3), (6, 5, 7), (3, 4, 8)])
def test_out_equals_fresh_result_bit_for_bit(shape):
    rng = np.random.default_rng(30)
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.2] = 0.0
    h = tuple(rng.uniform(0.5, 2.0, len(shape)))
    for name, op in _stencils(len(shape)):
        fresh = op(a, h, None)
        buf = np.full(shape, np.nan)  # stale contents must not leak into the result
        got = op(a, h, buf)
        assert got is buf, name
        assert got.tobytes() == fresh.tobytes(), name


def test_out_must_not_overlap_the_input():
    a = np.random.default_rng(31).random((5, 6))
    for fn in (d1, d1_adj, d2):
        with pytest.raises(FieldError):
            fn(a, 1, 1.0, out=a)
    with pytest.raises(FieldError):
        d1(a, 0, 1.0, out=np.empty((5, 5)))


def test_out_must_be_c_contiguous():
    a = np.random.default_rng(34).random((5, 6))
    for out in (np.empty((5, 6), order="F"), np.empty((10, 6))[::2], np.empty((6, 5)).T):
        for fn in (d1, d1_adj, d2):
            with pytest.raises(FieldError, match="C-contiguous"):
                fn(a, 0, 1.0, out=out)


# The slice-per-axis kernels the flat-shift kernels replaced, kept as the
# reference: d1, d2 and dmixed must match them bit for bit, and the adjoints in
# every bit but the sign of a zero result (see _signless_zeros).
def _sl(ndim, axis, s):
    idx = [slice(None)] * ndim
    idx[axis] = s
    return tuple(idx)


def ref_d1(a, axis, h):
    nd, out = a.ndim, np.empty_like(a)
    np.subtract(a[_sl(nd, axis, slice(2, None))], a[_sl(nd, axis, slice(None, -2))],
                out=out[_sl(nd, axis, slice(1, -1))])
    np.subtract(a[_sl(nd, axis, slice(1, 2))], a[_sl(nd, axis, slice(0, 1))], out=out[_sl(nd, axis, slice(0, 1))])
    np.subtract(a[_sl(nd, axis, slice(-1, None))], a[_sl(nd, axis, slice(-2, -1))],
                out=out[_sl(nd, axis, slice(-1, None))])
    out /= 2.0 * h
    return out


def ref_d1_adj(w, axis, h):
    nd, adj = w.ndim, np.empty_like(w)
    adj[_sl(nd, axis, slice(0, 1))] = 0.0
    np.add(w[_sl(nd, axis, slice(None, -1))], 0.0, out=adj[_sl(nd, axis, slice(1, None))])
    adj[_sl(nd, axis, slice(None, -1))] -= w[_sl(nd, axis, slice(1, None))]
    adj[_sl(nd, axis, slice(0, 1))] -= w[_sl(nd, axis, slice(0, 1))]
    adj[_sl(nd, axis, slice(-1, None))] += w[_sl(nd, axis, slice(-1, None))]
    adj /= 2.0 * h
    return adj


def ref_d2(a, axis, h):
    nd, out = a.ndim, np.empty_like(a)
    mid = out[_sl(nd, axis, slice(1, -1))]
    np.multiply(a[_sl(nd, axis, slice(1, -1))], 2.0, out=mid)
    np.subtract(a[_sl(nd, axis, slice(2, None))], mid, out=mid)
    mid += a[_sl(nd, axis, slice(None, -2))]
    np.subtract(a[_sl(nd, axis, slice(1, 2))], a[_sl(nd, axis, slice(0, 1))], out=out[_sl(nd, axis, slice(0, 1))])
    np.subtract(a[_sl(nd, axis, slice(-2, -1))], a[_sl(nd, axis, slice(-1, None))],
                out=out[_sl(nd, axis, slice(-1, None))])
    out /= h * h
    return out


def _layouts(a):
    """The array itself, Fortran-ordered, a strided view and a transpose, each with its name."""
    views = [("C", a), ("F", np.asfortranarray(a)), ("T", a.T)]
    if a.shape[0] >= 6:
        views.append(("::2", a[::2]))
    return views


# Spacings whose scale c = 2h or h^2 is a power of two, so the kernels multiply by
# 1/c or, at c = 1, skip the pass; (2**-520)**2 is subnormal with 1/c = inf, so d2
# must divide there, as at 0 and inf.
DYADIC_SPACINGS = (0.25, 0.5, 1.0, 2.0, 4.0, 2.0**500, 2.0**-500, 2.0**-520, 0.0, math.inf)


def _signless_zeros(x):
    """The bytes of ``x`` with every zero read as +0.0, and every other bit, NaN payloads too, kept.

    The reference d1_adj adds 0.0 so that -0.0 reads +0.0, as when accumulating onto
    zeros; d1_adj does not, so its zero results may carry either sign.
    """
    return np.where(x == 0.0, 0.0, x).tobytes()


def _match_the_reference(a, h, tag):
    exact = np.ndarray.tobytes
    pairs = [(d1, ref_d1, exact), (d1_adj, ref_d1_adj, _signless_zeros), (d2, ref_d2, exact)]
    for ax in range(a.ndim):
        if a.shape[ax] < 3:
            continue
        for fn, ref, bits in pairs:
            expected = bits(ref(a, ax, h[ax]))
            got = fn(a, ax, h[ax])
            assert got.flags.c_contiguous
            assert bits(got) == expected, (tag, fn.__name__, ax)
            assert bits(fn(a, ax, h[ax], out=np.full(a.shape, np.nan))) == expected, (tag, fn.__name__, ax)
    for i, j in itertools.combinations(range(a.ndim), 2):
        if min(a.shape[i], a.shape[j]) < 3:
            continue
        assert (dmixed(a, i, j, h[i], h[j]).tobytes()
                == ref_d1(ref_d1(a, i, h[i]), j, h[j]).tobytes()), (tag, i, j)
        assert (_signless_zeros(dmixed_adj(a, i, j, h[i], h[j]))
                == _signless_zeros(ref_d1_adj(ref_d1_adj(a, j, h[j]), i, h[i]))), (tag, i, j)


# A last axis of extent 8 puts the boundary planes' elements 8 float64s apart, the
# stride at which numpy 2.4.6's AVX-512 in-place unary ufuncs (np.negative) go wrong.
@pytest.mark.parametrize("shape", [(3,), (8,), (3, 3), (6, 3), (9, 7), (5, 8), (3, 3, 3), (6, 5, 7), (7, 3, 4),
                                   (3, 4, 8), (3, 4, 3, 5), (6, 3, 3, 4)])
def test_flat_kernels_match_the_slice_reference_bit_for_bit(shape):
    rng = np.random.default_rng(35)
    base = rng.standard_normal(shape)
    base[rng.random(shape) < 0.2] = 0.0
    base[rng.random(shape) < 0.2] = -0.0
    for layout, a in _layouts(base):
        _match_the_reference(a, tuple(rng.uniform(0.3, 3.0, a.ndim)), layout)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # the extreme spacings
            for h in DYADIC_SPACINGS:
                _match_the_reference(a, (h,) * a.ndim, (layout, h))


def _check_adjoint_identities(shape, axis, h, seed):
    rng = np.random.default_rng(seed)
    fwd, back = np.empty(shape), np.empty(shape)
    for op, adj in ((d1, d1_adj), (d2, d2)):
        for _ in range(2):  # the second round writes over the first round's buffers
            u, w = rng.standard_normal(shape), rng.standard_normal(shape)
            lhs_terms = op(u, axis, h, out=fwd) * w
            rhs_terms = u * adj(w, axis, h, out=back)
            # the dot product can cancel far below its terms, so bound the rounding by their magnitude
            scale = max(float(np.sum(np.abs(lhs_terms))), float(np.sum(np.abs(rhs_terms))))
            assert abs(float(np.sum(lhs_terms)) - float(np.sum(rhs_terms))) <= 1e-12 * scale, op.__name__


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(3, 7), min_size=1, max_size=4), data=st.data())
def test_adjoint_identities_hold_for_random_shapes_axes_and_spacings(shape, data):
    axis = data.draw(st.integers(0, len(shape) - 1), label="axis")
    h = data.draw(st.floats(0.25, 4.0), label="h")
    _check_adjoint_identities(tuple(shape), axis, h, data.draw(st.integers(0, 2**32 - 1), label="seed"))


def test_adjoint_identity_bound_holds_on_a_cancelled_dot_product():
    # d1's second round here sums terms of total magnitude ~110 to 5.2e-4; the rounding
    # error, 2.7e-15, is 2.4e-17 of the terms but 5e-12 of the cancelled sum
    _check_adjoint_identities((3, 4, 4, 5), 0, 1.0, 1397)


def test_adjoint_identities_through_reused_out_buffers():
    rng = np.random.default_rng(32)
    for shape in [(3, 4), (5, 3, 4)]:
        h = tuple(rng.uniform(0.5, 2.0, len(shape)))
        fwd, back = np.empty(shape), np.empty(shape)
        ops = dict(_stencils(len(shape)))
        for name, op in ops.items():
            if "_adj" in name:
                continue
            adj = ops.get(name.replace("[", "_adj["), op)  # d2 is its own adjoint
            for _ in range(3):
                u, w = rng.standard_normal(shape), rng.standard_normal(shape)
                lhs = float(np.sum(op(u, h, fwd) * w))
                rhs = float(np.sum(u * adj(w, h, back)))
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-12), name


def test_grad_mag_raw_out_matches_fresh():
    rng = np.random.default_rng(33)
    a = rng.random((6, 5, 4))
    derivs = [d1(a, ax, 0.5 + ax) for ax in range(3)]
    fresh = grad_mag_raw(derivs)
    out, tmp = np.full(a.shape, np.nan), np.empty(a.shape)
    assert grad_mag_raw(derivs, out=out, tmp=tmp) is out
    assert out.tobytes() == fresh.tobytes()


def _partitions(n):
    """Plane ranges along axis 0: one-plane blocks, two-plane blocks with a short last one, and a single block."""
    return {"one-plane": [(i, i + 1) for i in range(n)],
            "short-last": [(lo, min(lo + 2, n)) for lo in range(0, n, 2)],
            "single": [(0, n)]}


@pytest.mark.parametrize("shape", [(7, 5), (5, 6, 4), (3, 4, 5), (9, 3, 3, 4)])
@pytest.mark.parametrize("h", [1.0, 0.7, 2.0**-3])
def test_plane_range_stencils_match_the_whole_array_kernel_bit_for_bit(shape, h):
    rng = np.random.default_rng(36)
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.2] = 0.0
    for ax in range(len(shape)):
        for fn in (d1, d1_adj, d2):
            whole = fn(a, ax, h).tobytes()
            for name, blocks in _partitions(shape[0]).items():
                parts = [fn(a, ax, h, out=np.full((hi - lo, *shape[1:]), np.nan), planes=(lo, hi))
                         for lo, hi in blocks]
                assert np.concatenate(parts).tobytes() == whole, (fn.__name__, ax, name)


@pytest.mark.parametrize("shape", [(7, 5), (5, 6, 4), (3, 4, 5)])
@pytest.mark.parametrize("h", [1.0, 0.7, 2.0**-3])
def test_adjoint_identities_hold_blockwise(shape, h):
    rng = np.random.default_rng(37)
    for ax in range(len(shape)):
        for name, blocks in _partitions(shape[0]).items():
            for op, adj in ((d1, d1_adj), (d2, d2)):
                u, w = rng.standard_normal(shape), rng.standard_normal(shape)
                lhs_terms = np.concatenate([op(u, ax, h, planes=p) for p in blocks]) * w
                rhs_terms = u * np.concatenate([adj(w, ax, h, planes=p) for p in blocks])
                scale = max(float(np.sum(np.abs(lhs_terms))), float(np.sum(np.abs(rhs_terms))))
                assert abs(float(np.sum(lhs_terms)) - float(np.sum(rhs_terms))) <= 1e-12 * scale, (ax, name)


def test_plane_ranges_are_checked():
    a = np.random.default_rng(38).random((5, 6))
    for fn in (d1, d1_adj, d2):
        for planes in ((0, 0), (3, 2), (-1, 2), (4, 6)):
            with pytest.raises(FieldError, match="planes"):
                fn(a, 0, 1.0, planes=planes)
        with pytest.raises(FieldError, match="expected"):
            fn(a, 1, 1.0, out=np.empty((5, 6)), planes=(1, 3))
        assert fn(a, 1, 1.0, planes=(1, 3)).shape == (2, 6)
