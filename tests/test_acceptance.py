"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import time

import numpy as np
import pytest

from elastiseg import (
    CurvatureMode,
    EnergyParams,
    ScalarField,
    SolverConfig,
    broken_tube_case,
    count_components,
    dice,
    disk_case,
    elastica_term,
    fast_curvature_3d,
    gradcheck,
    hd95,
    hemisphere_field,
    laplacian_3d,
    make_field,
    mean_curvature_2d,
    mean_curvature_3d,
    read_pgm,
    read_volume,
    region_terms,
    segment,
    threshold,
    tv_length,
    write_pgm,
    write_volume,
)
from elastiseg.cli import median_eval_time
from elastiseg.diffops import d1, d1_adj, d2, dmixed, dmixed_adj

ALPHAS = (0.0, 0.001, 0.1)
BETAS = (0.0, 2.0, 10.0)


def report(num, ok, text):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [
        (CurvatureMode.MEAN_2D, (12, 12)),
        (CurvatureMode.MEAN_3D, (8, 8, 8)),
        (CurvatureMode.FAST_3D, (8, 8, 8)),
        (CurvatureMode.LAPLACIAN_3D, (8, 8, 8)),
    ]
    for mode, shape in cases:
        trials = 0
        for alpha in ALPHAS:
            for beta in BETAS:
                p = EnergyParams(alpha=alpha, beta=beta, mode=mode)
                rep = gradcheck(shape, trials=3, seed=42, params=p, tol=1e-5)
                worst = max(worst, rep.max_rel_error)
                trials += 3
                assert rep.passed, f"{mode.value} alpha={alpha} beta={beta}: {rep.max_rel_error}"
        assert trials >= 20
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 60.0
    report(1, ok, f"gradcheck all modes/params, max_rel={worst:.3e}, {elapsed:.1f}s (< 60s)")


def test_criterion_2_adjoint_dot_products():
    rng = np.random.default_rng(7)
    shapes = [(3, 3), (3, 3, 3), (16, 12), (7, 9, 8)]
    worst = 0.0
    for shape in shapes:
        nd = len(shape)
        spacing = [0.5 + 0.5 * ax for ax in range(nd)]
        ops = []
        for ax in range(nd):
            h = spacing[ax]
            ops.append((lambda a, ax=ax, h=h: d1(a, ax, h), lambda w, ax=ax, h=h: d1_adj(w, ax, h)))
            ops.append((lambda a, ax=ax, h=h: d2(a, ax, h), lambda w, ax=ax, h=h: d2(w, ax, h)))
        for a_ax in range(nd):
            for b_ax in range(a_ax + 1, nd):
                ha, hb = spacing[a_ax], spacing[b_ax]
                ops.append((
                    lambda a, a_ax=a_ax, b_ax=b_ax, ha=ha, hb=hb: dmixed(a, a_ax, b_ax, ha, hb),
                    lambda w, a_ax=a_ax, b_ax=b_ax, ha=ha, hb=hb: dmixed_adj(w, a_ax, b_ax, ha, hb),
                ))
        for op, adj in ops:
            for _ in range(50):
                u = rng.standard_normal(shape)
                w = rng.standard_normal(shape)
                lhs = float(np.sum(op(u) * w))
                rhs = float(np.sum(u * adj(w)))
                rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
                worst = max(worst, rel)
    ok = worst < 1e-12
    report(2, ok, f"adjoint dot-product tests incl. 3x3 and 3x3x3, worst rel={worst:.3e}")


def test_criterion_3_curvature_accuracy():
    r = 40.0
    hemi = hemisphere_field((256, 256), r)
    k = mean_curvature_2d(hemi).data
    c = (256 - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(256.0) - c, np.arange(256.0) - c, indexing="ij")
    inner = xx**2 + yy**2 <= (0.6 * r) ** 2
    mean_rel = float((np.abs(np.abs(k[inner]) - 1.0 / r) * r).mean())

    grids = np.ogrid[0:9, 0:9, 0:9]
    coords = [g - 4.0 for g in grids]
    quad = ScalarField(sum(0.5 * cax**2 for cax in coords) + np.zeros((9, 9, 9)), 1.0)
    probe_m3 = abs(float(mean_curvature_3d(quad).data[4, 4, 4]) - 3.0)

    inner_sl = (slice(1, -1),) * 3
    probe_f_const = float(np.abs(fast_curvature_3d(make_field((9, 9, 9), 1.0, 0.7)).data[inner_sl]).max())
    fx = ScalarField(0.5 * coords[0] ** 2 + np.zeros((9, 9, 9)), 1.0)
    probe_f_one = float(np.abs(fast_curvature_3d(fx).data[inner_sl] - 1.0).max())
    probe_f_three = float(np.abs(fast_curvature_3d(quad).data[inner_sl] - 3.0).max())

    probes = max(probe_m3, probe_f_const, probe_f_one, probe_f_three)
    ok = mean_rel <= 0.03 and probes <= 1e-10
    report(3, ok, f"hemisphere mean rel err={mean_rel:.4f} (<= 3%), exact probes err={probes:.2e} (<= 1e-10)")


def test_criterion_4_fast_vs_full_timing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    vol = ScalarField(rng.random((64, 64, 64)), 1.0)
    t_fast = median_eval_time(fast_curvature_3d, vol, repeats=5)
    t_full = median_eval_time(mean_curvature_3d, vol, repeats=5)
    elapsed = time.perf_counter() - t0
    ok = t_fast <= 0.7 * t_full and elapsed < 30.0
    report(4, ok, f"fast3d median {t_fast*1e3:.2f}ms vs mean3d {t_full*1e3:.2f}ms "
                  f"(ratio {t_fast/t_full:.2f} <= 0.7), {elapsed:.1f}s (< 30s)")


def test_criterion_5_energy_reductions():
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(100):
        shape = (int(rng.integers(5, 16)), int(rng.integers(5, 16)))
        u = ScalarField(rng.random(shape), 1.0)
        alpha = float(rng.uniform(1e-4, 0.5))
        p = EnergyParams(alpha=alpha, beta=0.0, mode=CurvatureMode.MEAN_2D)
        a = elastica_term(u, p)
        b = alpha * tv_length(u)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    v = (rng.random((10, 10)) < 0.5).astype(float)
    gt = ScalarField(v, 1.0)
    regions = region_terms(gt, gt, 1.0, 0.0)
    ok = worst <= 1e-12 and regions == (0.0, 0.0)
    report(5, ok, f"beta=0 elastica == alpha*tv_length (worst rel {worst:.2e}), region terms {regions} for u=v")


def oracle_boundary(mask):
    """Foreground voxels with a face-adjacent background or out-of-bounds neighbor (frozen reference)."""
    fg = mask.astype(bool)
    edge = np.zeros_like(fg)
    nd = fg.ndim
    for axis in range(nd):
        lo = [slice(None)] * nd
        hi = [slice(None)] * nd
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        nb = np.ones_like(fg)  # neighbor toward +axis is background; the last slab borders out-of-bounds
        nb[tuple(lo)] = ~fg[tuple(hi)]
        edge |= nb
        nb = np.ones_like(fg)  # neighbor toward -axis
        nb[tuple(hi)] = ~fg[tuple(lo)]
        edge |= nb
    return edge & fg


def oracle_hd95(a, b, spacing):
    sp = np.asarray(spacing, dtype=np.float64)
    pa = np.argwhere(oracle_boundary(a)) * sp
    pb = np.argwhere(oracle_boundary(b)) * sp
    d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1))
    return float(np.percentile(np.concatenate([d.min(axis=1), d.min(axis=0)]), 95.0))


def oracle_dice(a, b):
    na, nb = int(a.sum()), int(b.sum())
    if na + nb == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / (na + nb)


def test_criterion_6_metric_oracle_equivalence():
    rng = np.random.default_rng(13)
    checked = 0
    exact = True
    while checked < 200:
        shape = tuple(rng.integers(3, 33, size=2))
        a = (rng.random(shape) < rng.uniform(0.1, 0.7)).astype(float)
        b = (rng.random(shape) < rng.uniform(0.1, 0.7)).astype(float)
        if not a.any() or not b.any():
            continue
        fa, fb = ScalarField(a, 1.0), ScalarField(b, 1.0)
        exact &= dice(fa, fb) == oracle_dice(a != 0, b != 0)
        exact &= hd95(fa, fb) == oracle_hd95(a != 0, b != 0, (1.0, 1.0))
        checked += 1
    pa = np.zeros((8, 8))
    pa[0, 0] = 1.0
    pb = np.zeros((8, 8))
    pb[3, 4] = 1.0
    single = hd95(ScalarField(pa, 1.0), ScalarField(pb, 1.0))
    ok = exact and single == 5.0
    report(6, ok, f"dice/hd95 exact vs brute force on 200 pairs; single-pixel case = {single}")


def _disk_dice(alpha, seed):
    case = disk_case((128, 128), (63.5, 63.5), 30.0, fg=0.8, bg=0.2, noise_sigma=0.1, seed=seed)
    init = make_field(case.image.shape, 1.0, 0.5)
    p = EnergyParams(alpha=alpha, beta=0.0, mode=CurvatureMode.MEAN_2D)
    mask, _ = segment(case.image, init, p, SolverConfig(max_iters=500, region_mode="cv-means"))
    return dice(threshold(mask), case.ground_truth)


_DISK_CACHE: dict = {}


def disk_dice(alpha, seed):
    key = (alpha, seed)
    if key not in _DISK_CACHE:
        _DISK_CACHE[key] = _disk_dice(alpha, seed)
    return _DISK_CACHE[key]


def test_criterion_7_solver_quality():
    t0 = time.perf_counter()
    scores = [disk_dice(0.001, seed) for seed in range(5)]
    elapsed = time.perf_counter() - t0
    ok = min(scores) >= 0.95 and elapsed < 120.0
    report(7, ok, f"noisy-disk dice over 5 seeds min={min(scores):.4f} (>= 0.95), {elapsed:.1f}s (< 2min)")


def test_criterion_8_connectedness():
    wins = 0
    details = []
    for seed in range(5):
        case = broken_tube_case((96, 96), width=5, gap_count=2, gap_len=2, noise_sigma=0.1, seed=seed)
        init = make_field(case.image.shape, 1.0, 0.5)
        res = {}
        for beta in (0.0, 2.0):
            p = EnergyParams(alpha=0.001, beta=beta, lam=0.1, mode=CurvatureMode.MEAN_2D)
            cfg = SolverConfig(max_iters=2000, step_size=0.005, optimizer="momentum", region_mode="cv-means")
            mask, _ = segment(case.image, init, p, cfg)
            b = threshold(mask)
            res[beta] = (count_components(b), hd95(b, case.ground_truth) if b.data.any() else np.inf)
        good = res[2.0][0] <= res[0.0][0] and res[2.0][1] <= res[0.0][1]
        wins += good
        details.append(f"seed{seed}: comps {res[0.0][0]}->{res[2.0][0]}, hd95 {res[0.0][1]:.2f}->{res[2.0][1]:.2f}")
    ok = wins >= 4
    report(8, ok, f"broken tube beta=2 vs beta=0 wins {wins}/5 [{'; '.join(details)}]")


def test_criterion_9_ablation_trend():
    ok = True
    pairs = []
    for seed in range(5):
        lo = disk_dice(0.001, seed)
        hi = disk_dice(10.0, seed)
        pairs.append((lo, hi))
        ok &= hi < lo
    ok = bool(ok)
    report(9, ok, "dice(alpha=10) < dice(alpha=0.001) per seed: "
                  + ", ".join(f"{hi:.3f}<{lo:.3f}" for lo, hi in pairs))


def test_criterion_10_io_roundtrips(tmp_path):
    rng = np.random.default_rng(14)
    ok = True
    for i in range(100):
        if i % 2 == 0:
            shape = tuple(rng.integers(1, 24, size=2))
        else:
            shape = tuple(rng.integers(1, 10, size=3))
        spacing = tuple(float(s) for s in rng.choice([0.5, 1.0, 2.5], size=len(shape)))
        f = ScalarField(rng.standard_normal(shape) * 5.0, spacing)
        path = tmp_path / "v.vf32"
        write_volume(f, path)
        back = read_volume(path)
        ok &= back.shape == f.shape and back.spacing == f.spacing
        ok &= bool(np.array_equal(back.data, f.data.astype("<f4").astype(np.float64)))
    for i in range(100):
        shape = tuple(rng.integers(1, 24, size=2))
        m = ScalarField((rng.random(shape) < 0.5).astype(np.float64), 1.0)
        path = tmp_path / "m.pgm"
        write_pgm(m, path)
        ok &= bool(np.array_equal(read_pgm(path).data, m.data))
    report(10, ok, "VF32 and PGM round-trips bit-exact on 100 random fields/masks each")
