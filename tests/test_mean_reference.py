"""The in-place mean-curvature pass against its frozen expression form, bit for bit.

``ref_mean`` is the mean modes' forward and pullback as they were written
before they moved into workspace buffers: every pointwise expression a fresh
array. The in-place pass must reproduce K, its cotangents, the energy and
dE/du exactly, because the solver turns a one-ulp change of dE/du into a
different mask on long momentum runs.
"""

import dataclasses
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from elastiseg import CurvatureMode, EnergyParams, ScalarField, curvature
from elastiseg.curvature import _FORWARD_BY_MODE, Cotangents, _differences, curvature_forward
from elastiseg.diffops import _slopes, d1, d1_adj, d2
from elastiseg.gradients import energy_and_gradient_raw
from elastiseg.workspace import Workspace

MEAN_CONSTANTS = {CurvatureMode.MEAN_2D: (2.0, 1.5), CurvatureMode.MEAN_3D: (1.0, 0.5)}
SHAPES = {CurvatureMode.MEAN_2D: (23, 17), CurvatureMode.MEAN_3D: (9, 11, 8)}


def _sum(terms):
    return reduce(np.add, terms)


def ref_mean(c, p):
    """Frozen expression-form forward and pullback of K = chi / (c * w**p)."""

    def forward(slopes, seconds, spacing, ws, b):
        n = len(slopes)
        mixed = {(i, j): d1(slopes[i], j, spacing[j], out=ws.take()) for i, j in combinations(range(n), 2)}
        w = 1.0 + _sum(ui * ui for ui in slopes)
        chi = _sum(uii * (w - ui * ui) for ui, uii in zip(slopes, seconds))
        chi -= 2.0 * _sum(slopes[i] * slopes[j] * uij for (i, j), uij in mixed.items())
        den = c * np.sqrt(w)
        for _ in range(int(p)):
            den *= w
        k = chi / den

        def pullback(gk):
            gchi = gk / den
            gw = gchi * _sum(seconds) - p * gk * k / w
            d1_cots = {}
            for i, (ui, uii) in enumerate(zip(slopes, seconds)):
                cross = _sum(slopes[j] * mixed[min(i, j), max(i, j)] for j in range(n) if j != i)
                d1_cots[i] = 2.0 * (ui * (gw - gchi * uii) - gchi * cross)
            for ui, uii in zip(slopes, seconds):
                np.multiply(gchi, w - ui * ui, out=uii)
            for (i, j), uij in mixed.items():
                d1_cots[i] += d1_adj(-2.0 * gchi * slopes[i] * slopes[j], j, spacing[j], out=uij)
            ws.give(*mixed.values())
            return Cotangents(d1_cots, dict(enumerate(seconds)))

        return k, pullback

    return forward


def _case(mode, spacing_kind, seed):
    rng = np.random.default_rng(seed)
    shape = SHAPES[mode]
    spacing = (1.0,) * len(shape) if spacing_kind == "unit" else tuple(rng.uniform(0.3, 2.5, len(shape)))
    return rng.random(shape), rng.random(shape), spacing, rng.standard_normal(shape)


def _bits(breakdown):
    return np.array(dataclasses.astuple(breakdown)).tobytes()


def _bytes(cots):
    return ({ax: c.tobytes() for ax, c in cots.d1.items()}, {ax: c.tobytes() for ax, c in cots.d2.items()})


@pytest.mark.parametrize("mode", list(MEAN_CONSTANTS))
@pytest.mark.parametrize("spacing_kind", ["unit", "anisotropic"])
@pytest.mark.parametrize("given_slopes", [False, True])
def test_curvature_and_cotangents_match_the_expression_form(monkeypatch, mode, spacing_kind, given_slopes):
    a, _, spacing, gk = _case(mode, spacing_kind, 5)
    results = []
    for forward in (ref_mean(*MEAN_CONSTANTS[mode]), _FORWARD_BY_MODE[mode]):
        # the caller's own fresh slopes, or workspace arrays made as curvature() makes them
        ws = Workspace(a.shape)
        slopes = _slopes(a, spacing) if given_slopes else _differences(d1, a, spacing, ws, 0)
        monkeypatch.setitem(_FORWARD_BY_MODE, mode, forward)
        k, pullback = curvature_forward(slopes, _differences(d2, a, spacing, ws, 0), spacing, mode, ws, 0)
        k_bytes = k.tobytes()  # read before the pullback, which gives K back
        results.append((k_bytes, _bytes(pullback(gk.copy()))))
    assert results[0] == results[1]


@pytest.mark.parametrize("mode", list(MEAN_CONSTANTS))
@pytest.mark.parametrize("beta", [0.5, 2.0])
@pytest.mark.parametrize("spacing_kind", ["unit", "anisotropic"])
def test_energy_and_gradient_match_the_expression_form(monkeypatch, mode, beta, spacing_kind):
    a, r, spacing, _ = _case(mode, spacing_kind, 6)
    params = EnergyParams(alpha=0.01, beta=beta, lam=0.7, c1=0.8, c2=0.1, mode=mode)
    ws = Workspace(a.shape)
    passes = []
    for _ in range(3):  # a fresh workspace, then the same one reused with stale contents
        bd, g = energy_and_gradient_raw(a, r, spacing, params, ws)
        passes.append((bd, g.tobytes()))
        ws.give(g)
    k = curvature(ScalarField(a, spacing), mode).data.tobytes()
    monkeypatch.setitem(_FORWARD_BY_MODE, mode, ref_mean(*MEAN_CONSTANTS[mode]))
    assert k == curvature(ScalarField(a, spacing), mode).data.tobytes()
    ref_bd, ref_g = energy_and_gradient_raw(a, r, spacing, params, Workspace(a.shape))
    for bd, g in passes:
        assert _bits(bd) == _bits(ref_bd)
        assert g == ref_g.tobytes()
