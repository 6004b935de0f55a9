"""Command-line interface: synthetic cases, benchmarks, segmentation, validation.

Exit codes: 0 on success, 1 for validation or check failures (bad geometry,
failed gradcheck, unmatched files, empty-mask HD95, non-finite energy),
2 for usage errors. Every subcommand that takes a seed is bit-reproducible;
runs that produce files also write a plain key=value manifest recording the
resolved flags and per-stage wall time.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

import numpy as np

from .curvature import CurvatureMode, curvature
from .energy import EnergyParams, segmentation_energy
from .field import FieldError, ScalarField, check_ndim, make_field
from .gradients import gradcheck
from .metrics import MetricsError, count_components, dice, evaluate_pair, hd95
from .solver import NonFiniteEnergyError, SolverConfig, SolverTrace, check_threshold, segment, threshold
from .synth import broken_tube_case, disk_case, hemisphere_field, sphere_case_3d
from .volio import (
    METRICS_CSV_HEADER,
    VolumeFormatError,
    format_metrics_row,
    read_pgm,
    read_volume,
    write_metrics_csv,
    write_pgm,
    write_volume,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"shape must be comma-separated integers, got {text!r}")
    if len(shape) not in (2, 3) or any(n < 1 for n in shape):
        raise argparse.ArgumentTypeError(f"shape must be 2 or 3 positive extents, got {text!r}")
    return shape


def _parse_center(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"center must be comma-separated numbers, got {text!r}")


def write_manifest(path, entries: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def _load_mask_or_volume(path: str) -> ScalarField:
    if path.endswith(".pgm"):
        return read_pgm(path)
    return read_volume(path)


def _resolve_mode(name: str, ndim: int) -> CurvatureMode:
    if name == "auto":
        return CurvatureMode.MEAN_2D if ndim == 2 else CurvatureMode.FAST_3D
    mode = CurvatureMode.parse(name)
    check_ndim(ndim, mode)
    return mode


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    shape = args.shape
    if args.case == "disk":
        if len(shape) != 2:
            raise FieldError("disk case needs a 2D shape")
        center = args.center or tuple((n - 1) / 2.0 for n in shape)
        radius = args.radius if args.radius is not None else min(shape) / 4.0
        case = disk_case(shape, center, radius, args.fg, args.bg, args.noise, args.seed)
    elif args.case == "sphere":
        if len(shape) != 3:
            raise FieldError("sphere case needs a 3D shape")
        center = args.center or tuple((n - 1) / 2.0 for n in shape)
        radius = args.radius if args.radius is not None else min(shape) / 4.0
        case = sphere_case_3d(shape, center, radius, args.fg, args.bg, args.noise, args.seed)
    else:
        case = broken_tube_case(shape, args.width, args.gaps, args.gap_len, args.noise, args.seed)
    gen_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    write_volume(case.image, os.path.join(args.out, "image.vf32"))
    write_volume(case.ground_truth, os.path.join(args.out, "gt.vf32"))
    if case.ground_truth.ndim == 2:
        write_pgm(case.ground_truth, os.path.join(args.out, "gt.pgm"))
    write_s = time.perf_counter() - t1

    write_manifest(os.path.join(args.out, "manifest.txt"), {
        "subcommand": "synth",
        "case": args.case,
        "shape": ",".join(str(n) for n in shape),
        "descriptor": case.descriptor,
        "seed": args.seed,
        "noise": args.noise,
        "stage_generate_s": f"{gen_s:.6f}",
        "stage_write_s": f"{write_s:.6f}",
    })
    print(f"wrote {case.descriptor} to {args.out}")
    return EXIT_OK


def _probe_field(shape: tuple[int, ...], kind: str) -> ScalarField:
    grids = np.ogrid[tuple(slice(0, n) for n in shape)]
    coords = [g - (n // 2) for g, n in zip(grids, shape)]
    if kind == "half_sq_sum":
        data = sum(0.5 * c.astype(np.float64) ** 2 for c in coords) + np.zeros(shape)
    elif kind == "half_x_sq":
        data = 0.5 * coords[0].astype(np.float64) ** 2 + np.zeros(shape)
    elif kind == "xy":
        data = coords[0].astype(np.float64) * coords[1].astype(np.float64) + np.zeros(shape)
    elif kind == "const":
        data = np.zeros(shape)
    else:
        raise ValueError(kind)
    return ScalarField(data, 1.0)


def _interior(arr: np.ndarray) -> np.ndarray:
    return arr[tuple(slice(1, -1) for _ in range(arr.ndim))]


def median_eval_time(fn, field: ScalarField, repeats: int) -> float:
    """Median wall time of one evaluation over ``repeats`` runs (plus a warmup)."""
    fn(field)
    times = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn(field)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cmd_curvbench(args) -> int:
    mode = CurvatureMode.parse(args.mode)
    shape = args.shape
    check_ndim(len(shape), mode)

    if mode is CurvatureMode.MEAN_2D:
        field = hemisphere_field(shape, args.radius)
        k = curvature(field, mode).data
        center = tuple((n - 1) / 2.0 for n in shape)
        grids = np.ogrid[tuple(slice(0, n) for n in shape)]
        rho2 = sum((g - c) ** 2 for g, c in zip(grids, center)) + np.zeros(shape)
        inner = rho2 <= (0.6 * args.radius) ** 2
        rel = np.abs(np.abs(k[inner]) - 1.0 / args.radius) * args.radius
        mean_err, max_err = float(rel.mean()), float(rel.max())
        radius_col = f"{args.radius:g}"
        timing_field = field
    else:
        probes: list[tuple[str, float]] = []
        if mode is CurvatureMode.FAST_3D:
            probes = [("const", 0.0), ("half_x_sq", 1.0), ("half_sq_sum", 3.0)]
        elif mode is CurvatureMode.LAPLACIAN_3D:
            probes = [("half_sq_sum", 3.0), ("xy", 0.0)]
        else:
            probes = [("const", 0.0), ("half_sq_sum", 3.0)]
        errs = []
        for kind, target in probes:
            field = _probe_field(shape, kind)
            k = curvature(field, mode).data
            if mode is CurvatureMode.MEAN_3D and kind == "half_sq_sum":
                # the exact value holds only where the gradient vanishes
                errs.append(abs(float(k[tuple(n // 2 for n in shape)]) - target))
            else:
                errs.append(float(np.abs(_interior(k) - target).max()))
        mean_err, max_err = float(np.mean(errs)), float(np.max(errs))
        radius_col = ""
        timing_field = _probe_field(shape, "half_sq_sum")

    t_median = median_eval_time(lambda f: curvature(f, mode), timing_field, args.repeat)

    header = "mode,shape,radius,mean_error,max_error,median_time_s"
    row = (f"{mode.value},{'x'.join(str(n) for n in shape)},{radius_col},"
           f"{mean_err:.6e},{max_err:.6e},{t_median:.6e}")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(header + "\n" + row + "\n")
        write_manifest(args.out + ".manifest.txt", {
            "subcommand": "curvbench", "mode": mode.value,
            "shape": ",".join(str(n) for n in shape),
            "radius": radius_col, "repeat": args.repeat,
        })
    print(header)
    print(row)
    return EXIT_OK


def cmd_segment(args) -> int:
    t0 = time.perf_counter()
    image = read_volume(args.image)
    if args.init == "uniform":
        init = make_field(image.shape, image.spacing, 0.5)
    else:
        init = _load_mask_or_volume(args.init)
    load_s = time.perf_counter() - t0

    mode = _resolve_mode(args.mode, image.ndim)
    params = EnergyParams(alpha=args.alpha, beta=args.beta, lam=args.lam,
                          c1=args.c1, c2=args.c2, mode=mode)
    cfg = SolverConfig(max_iters=args.iters, step_size=args.step, optimizer=args.optimizer,
                       parameterization=args.param, region_mode=args.region_mode)
    check_threshold(args.threshold)

    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.csv")

    t1 = time.perf_counter()
    status = EXIT_OK
    try:
        mask, trace = segment(image, init, params, cfg)
    except NonFiniteEnergyError as exc:
        _write_trace(trace_path, exc.trace)
        print(f"error: {exc}; partial trace written to {trace_path}", file=sys.stderr)
        return EXIT_FAIL
    solve_s = time.perf_counter() - t1

    _write_trace(trace_path, trace)
    write_volume(mask, os.path.join(args.out, "mask.vf32"))
    binary = threshold(mask, args.threshold)
    write_volume(binary, os.path.join(args.out, "mask_bin.vf32"))
    if binary.ndim == 2:
        write_pgm(binary, os.path.join(args.out, "mask_bin.pgm"))

    entries = {
        "subcommand": "segment",
        "image": args.image, "init": args.init,
        "alpha": args.alpha, "beta": args.beta, "lambda": args.lam,
        "c1": args.c1, "c2": args.c2, "mode": mode.value,
        "iters": args.iters, "step": args.step, "optimizer": args.optimizer,
        "param": args.param, "region_mode": args.region_mode,
        "threshold": args.threshold,
        "iterations_run": trace.iterations_run, "converged": trace.converged,
        "stage_load_s": f"{load_s:.6f}", "stage_solve_s": f"{solve_s:.6f}",
    }

    if args.gt:
        gt = _load_mask_or_volume(args.gt)
        try:
            report = evaluate_pair(binary, gt)
            write_metrics_csv([("segment", report)], os.path.join(args.out, "metrics.csv"))
            print(format_metrics_row("segment", report.dice, report.hd95,
                                     report.components_pred, report.components_gt))
        except MetricsError as exc:
            print(f"error: metrics failed: {exc}", file=sys.stderr)
            status = EXIT_FAIL

    write_manifest(os.path.join(args.out, "manifest.txt"), entries)
    final = trace.breakdowns[-1].total if trace.breakdowns else segmentation_energy(mask, image, params).total
    print(f"ran {trace.iterations_run} iterations (converged={trace.converged}), final energy {final:.6g}")
    return status


def _write_trace(path: str, trace: SolverTrace) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("iter,elastica,region_in,region_out,total\n")
        for i, bd in enumerate(trace.breakdowns):
            fh.write(f"{i},{bd.elastica:.12g},{bd.region_in:.12g},{bd.region_out:.12g},{bd.total:.12g}\n")


def cmd_gradcheck(args) -> int:
    mode = CurvatureMode.parse(args.mode)
    check_ndim(len(args.shape), mode)
    params = EnergyParams(alpha=args.alpha, beta=args.beta, mode=mode)
    report = gradcheck(args.shape, args.trials, args.seed, params, tol=args.tol)
    print(f"gradcheck mode={mode.value} shape={'x'.join(str(n) for n in args.shape)} "
          f"trials={args.trials} alpha={args.alpha} beta={args.beta}")
    print(f"max_abs_error={report.max_abs_error:.3e} max_rel_error={report.max_rel_error:.3e} "
          f"worst_voxel={report.worst_voxel} passed={report.passed}")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_metrics(args) -> int:
    pairs, orphans = _pair_files(args.pred, args.gt)
    if orphans:
        for side, name in orphans:
            print(f"error: {name} present only under --{side}", file=sys.stderr)
        return EXIT_FAIL
    rows = []
    status = EXIT_OK
    for name, pred_path, gt_path in pairs:
        pred = threshold(_load_mask_or_volume(pred_path), args.threshold)
        gt = _load_mask_or_volume(gt_path)
        d = dice(pred, gt)
        cp = count_components(pred)
        cg = count_components(gt)
        try:
            h = hd95(pred, gt)
            rows.append(format_metrics_row(name, d, h, cp, cg))
        except MetricsError:
            rows.append(format_metrics_row(name, d, "error", cp, cg))
            status = EXIT_FAIL
    with open(args.out, "w", newline="\n") as fh:
        fh.write(METRICS_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    write_manifest(args.out + ".manifest.txt", {
        "subcommand": "metrics", "pred": args.pred, "gt": args.gt,
        "threshold": args.threshold, "cases": len(rows),
    })
    for row in rows:
        print(row)
    return status


def _pair_files(pred: str, gt: str):
    if os.path.isdir(pred) != os.path.isdir(gt):
        raise FieldError("--pred and --gt must both be files or both be directories")
    if not os.path.isdir(pred):
        name = os.path.splitext(os.path.basename(pred))[0]
        return [(name, pred, gt)], []
    pred_files = {f: os.path.join(pred, f) for f in sorted(os.listdir(pred))
                  if f.endswith((".vf32", ".pgm"))}
    gt_files = {f: os.path.join(gt, f) for f in sorted(os.listdir(gt))
                if f.endswith((".vf32", ".pgm"))}
    orphans = [("pred", f) for f in pred_files if f not in gt_files]
    orphans += [("gt", f) for f in gt_files if f not in pred_files]
    pairs = [(os.path.splitext(f)[0], pred_files[f], gt_files[f])
             for f in pred_files if f in gt_files]
    return pairs, orphans


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elastiseg",
                                     description="Elastica-regularized variational segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark case")
    p.add_argument("--case", choices=["disk", "tube", "sphere"], required=True)
    p.add_argument("--shape", type=_parse_shape, required=True, metavar="H,W[,D]")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--center", type=_parse_center, default=None)
    p.add_argument("--fg", type=float, default=0.8)
    p.add_argument("--bg", type=float, default=0.2)
    p.add_argument("--width", type=int, default=5, help="tube width in voxels")
    p.add_argument("--gaps", type=int, default=2, help="number of erased tube segments")
    p.add_argument("--gap-len", type=int, default=3, dest="gap_len")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("curvbench", help="curvature accuracy and timing benchmark")
    p.add_argument("--mode", choices=[m.value for m in CurvatureMode], required=True)
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument("--radius", type=float, default=40.0)
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_curvbench)

    p = sub.add_parser("segment", help="segment an image by energy minimization")
    p.add_argument("--image", required=True)
    p.add_argument("--init", default="uniform", help="'uniform' or a mask file")
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--lambda", type=float, default=1.0, dest="lam")
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=0.0)
    p.add_argument("--mode", default="auto",
                   choices=["auto"] + [m.value for m in CurvatureMode])
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--optimizer", choices=["gd", "momentum"], default="gd")
    p.add_argument("--param", choices=["clipped", "logistic"], default="clipped")
    p.add_argument("--region-mode", choices=["fixed", "cv-means"], default="cv-means",
                   dest="region_mode")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.add_argument("--gt", default=None)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("gradcheck", help="validate the analytic gradient against finite differences")
    p.add_argument("--shape", type=_parse_shape, default=(12, 12))
    p.add_argument("--mode", default="mean2d", choices=[m.value for m in CurvatureMode])
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--beta", type=float, default=2.0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("metrics", help="evaluate predictions against references")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gradcheck" and args.trials < 1:
        parser.error("--trials must be >= 1")
    try:
        return args.func(args)
    except (FieldError, VolumeFormatError, MetricsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
