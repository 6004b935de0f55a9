import argparse
import math
import os
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import ndimage

import elastiseg
import elastiseg.gradients
import elastiseg.solver
from elastiseg import (ScalarField, cli, evaluate_pair, is_binary, make_field, metrics, read_pgm, read_volume,
                       threshold, write_pgm, write_volume)
from elastiseg.cli import build_parser, main
from elastiseg.volio import METRICS_CSV_HEADER, format_metrics_row


def run(argv):
    return main(argv)


def read_manifest(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def disk(tmp_path, shape="32,32", radius="8"):
    case_dir = tmp_path / "case"
    assert run(["synth", "--case", "disk", "--shape", shape, "--radius", radius, "--out", str(case_dir)]) == 0
    return case_dir


def test_synth_tube_writes_volumes_and_manifest(tmp_path):
    out = tmp_path / "tube"
    assert run(["synth", "--case", "tube", "--shape", "96,96", "--gaps", "2", "--out", str(out)]) == 0
    assert (out / "image.vf32").exists()
    assert (out / "gt.vf32").exists()
    assert (out / "gt.pgm").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "subcommand=synth" in manifest
    assert "seed=0" in manifest
    assert "stage_generate_s=" in manifest


def test_synth_repeat_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["synth", "--case", "disk", "--shape", "64,64", "--seed", "5", "--noise", "0.2"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert (a / "image.vf32").read_bytes() == (b / "image.vf32").read_bytes()
    assert (a / "gt.vf32").read_bytes() == (b / "gt.vf32").read_bytes()


def test_synth_infeasible_geometry_fails(tmp_path, capsys):
    rc = run(["synth", "--case", "disk", "--radius", "1000", "--shape", "64,64", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--radius", "nan"), ("--center", "nan,nan"), ("--noise", "inf"),
                                        ("--noise", "nan"), ("--fg", "inf"), ("--fg", "nan"), ("--bg", "inf")])
def test_synth_rejects_non_finite_geometry(flag, value, tmp_path, capsys):
    for case in ("disk", "tube") if flag == "--noise" else ("disk",):
        out = tmp_path / case
        assert run(["synth", "--case", case, "--shape", "32,32", flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "finite" in err and "field values" not in err  # named by synth, not ScalarField's generic check
        assert not (out / "gt.vf32").exists()


@pytest.mark.parametrize("argv,flag", [
    (["synth", "--case", "tube", "--shape", "32,32", "--fg", "0.3"], "--fg"),
    (["synth", "--case", "tube", "--shape", "32,32", "--bg", "0.7"], "--bg"),
    (["synth", "--case", "tube", "--shape", "32,32", "--radius", "3"], "--radius"),
    (["synth", "--case", "tube", "--shape", "32,32", "--center", "5,5"], "--center"),
    (["synth", "--case", "disk", "--shape", "32,32", "--width", "3"], "--width"),
    (["synth", "--case", "disk", "--shape", "32,32", "--gaps", "1"], "--gaps"),
    (["synth", "--case", "sphere", "--shape", "8,8,8", "--gap-len", "2"], "--gap-len"),
    (["curvbench", "--mode", "fast3d", "--shape", "8,8,8", "--radius", "3"], "--radius"),
])
def test_flags_the_case_ignores_are_rejected(argv, flag, tmp_path, capsys):
    out = tmp_path / "x"
    assert run(argv + ["--out", str(out)]) == 1
    assert f"{flag} does not apply" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--case", "nope", "--shape", "8,8", "--out", "x"])
    assert exc.value.code == 2


def test_case_dimension_mismatch_fails(tmp_path, capsys):
    rc = run(["synth", "--case", "disk", "--shape", "16,16,16", "--out", str(tmp_path / "d")])
    assert rc == 1
    assert "2D" in capsys.readouterr().err
    rc = run(["curvbench", "--mode", "mean3d", "--shape", "32,32"])
    assert rc == 1


def test_curvbench_mean2d_and_lap3d(tmp_path, capsys):
    assert run(["curvbench", "--mode", "mean2d", "--shape", "256,256", "--radius", "40", "--repeat", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    row = out[-1].split(",")
    assert row[0] == "mean2d"
    assert float(row[3]) <= 0.03  # mean relative error on the hemisphere

    csv_path = tmp_path / "bench.csv"
    assert run(["curvbench", "--mode", "lap3d", "--shape", "17,17,17", "--repeat", "2", "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("mode,")
    vals = lines[1].split(",")
    assert vals[0] == "lap3d"
    assert float(vals[4]) < 1e-10  # exact probe: value 3 everywhere interior


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_curvbench_rejects_a_repeat_below_one(repeat, tmp_path, capsys):
    out = tmp_path / "k.csv"
    with pytest.raises(SystemExit) as exc:
        run(["curvbench", "--mode", "fast3d", "--shape", "8,8,8", "--repeat", repeat, "--out", str(out)])
    assert exc.value.code == 2
    assert "--repeat" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "k.csv.manifest.txt").exists()


@pytest.mark.parametrize("repeats", [0, -1])
def test_median_eval_time_rejects_fewer_than_one_repeat(repeats):
    calls = []
    with pytest.raises(ValueError, match="repeats"):
        cli.median_eval_time(calls.append, make_field((4, 4), 1.0, 0.0), repeats)
    assert calls == []


def test_median_eval_time_runs_a_warmup_then_each_repeat():
    calls = []
    cli.median_eval_time(calls.append, make_field((4, 4), 1.0, 0.0), 3)
    assert len(calls) == 4


def test_gradcheck_cli_pass_and_fail(capsys, monkeypatch):
    assert run(["gradcheck", "--shape", "10,10", "--mode", "mean2d", "--trials", "3", "--seed", "1"]) == 0
    assert "passed=True" in capsys.readouterr().out
    # tolerance below the fd truncation floor must fail
    monkeypatch.setattr(elastiseg.gradients, "GRADCHECK_TOL", 1e-15)
    assert run(["gradcheck", "--shape", "10,10", "--mode", "mean2d", "--trials", "3", "--seed", "1"]) == 1
    assert "passed=False" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", "--trials", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("trials", ["0", "-1", "abc"])
def test_gradcheck_rejects_trials_that_are_not_a_positive_integer(trials, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", "--shape", "5,5", "--trials", trials])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_gradcheck_cli_passes_a_3d_field(capsys):
    assert run(["gradcheck", "--shape", "16,16,16", "--mode", "mean3d", "--trials", "2"]) == 0
    assert "passed=True" in capsys.readouterr().out


def test_segment_end_to_end_with_metrics(tmp_path):
    case_dir = tmp_path / "case"
    assert run(["synth", "--case", "disk", "--shape", "64,64", "--radius", "14",
                "--noise", "0.1", "--seed", "2", "--out", str(case_dir)]) == 0
    out = tmp_path / "seg"
    rc = run(["segment", "--image", str(case_dir / "image.vf32"), "--alpha", "0.001",
              "--beta", "0", "--iters", "300", "--out", str(out), "--gt", str(case_dir / "gt.vf32")])
    assert rc == 0
    trace = (out / "trace.csv").read_text().splitlines()
    # the columns after total are appended: a reader of the first five keeps working
    assert trace[0] == "iter,elastica,region_in,region_out,total,c1,c2,mean_abs_g"
    assert len(trace) > 10
    rows = [[float(x) for x in line.split(",")] for line in trace[1:]]
    assert all(len(row) == 8 and 0.0 <= row[6] < row[5] <= 1.0 and row[7] > 0.0 for row in rows)
    metrics = (out / "metrics.csv").read_text().splitlines()
    dice_value = float(metrics[1].split(",")[1])
    assert dice_value >= 0.95
    assert (out / "mask.vf32").exists()
    assert (out / "mask_bin.pgm").exists()
    assert "converged=" in (out / "manifest.txt").read_text()


def test_segment_zero_iters_returns_init(tmp_path):
    case_dir = tmp_path / "case"
    run(["synth", "--case", "disk", "--shape", "32,32", "--radius", "7", "--out", str(case_dir)])
    out = tmp_path / "seg0"
    assert run(["segment", "--image", str(case_dir / "image.vf32"), "--iters", "0", "--out", str(out)]) == 0
    mask = read_volume(out / "mask.vf32")
    np.testing.assert_array_equal(mask.data, 0.5)


def test_segment_rejects_a_bad_threshold_before_the_solve(tmp_path, capsys):
    case_dir = tmp_path / "case"
    run(["synth", "--case", "disk", "--shape", "32,32", "--radius", "7", "--out", str(case_dir)])
    out = tmp_path / "seg"
    assert run(["segment", "--image", str(case_dir / "image.vf32"), "--iters", "5",
                "--threshold", "1.5", "--out", str(out)]) == 1
    assert "threshold" in capsys.readouterr().err
    assert not (out / "mask.vf32").exists()
    assert not (out / "trace.csv").exists()


def test_metrics_directory_pairing(tmp_path):
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    m = np.zeros((16, 16))
    m[4:9, 4:9] = 1.0
    mask = ScalarField(m, 1.0)
    for d in (pred_dir, gt_dir):
        write_volume(mask, d / "c1.vf32")
        write_pgm(mask, d / "c2.pgm")
    out = tmp_path / "m.csv"
    assert run(["metrics", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "case,dice,hd95,components_pred,components_gt"
    assert sorted(line.split(",")[0] for line in lines[1:]) == ["c1", "c2"]
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[1] == "1.000000"
        assert parts[2] == "0.000000"


def test_metrics_single_file_pair(tmp_path):
    m = np.zeros((12, 12))
    m[3:8, 3:8] = 1.0
    write_volume(ScalarField(m, 1.0), tmp_path / "pred.vf32")
    write_pgm(ScalarField(m, 1.0), tmp_path / "truth.pgm")
    out = tmp_path / "single.csv"
    assert run(["metrics", "--pred", str(tmp_path / "pred.vf32"),
                "--gt", str(tmp_path / "truth.pgm"), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "pred,1.000000,0.000000,1,1"


def test_metrics_orphan_detection(tmp_path, capsys):
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    m = make_field((8, 8), 1.0, 1.0)
    write_volume(m, pred_dir / "a.vf32")
    write_volume(m, gt_dir / "a.vf32")
    write_volume(m, gt_dir / "orphan.vf32")
    rc = run(["metrics", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    assert "orphan" in capsys.readouterr().err


def test_metrics_empty_prediction_error_token(tmp_path):
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    gt = np.zeros((8, 8))
    gt[2:5, 2:5] = 1.0
    write_volume(make_field((8, 8), 1.0, 0.0), pred_dir / "c.vf32")
    write_volume(ScalarField(gt, 1.0), gt_dir / "c.vf32")
    out = tmp_path / "m.csv"
    rc = run(["metrics", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(out)])
    assert rc == 1
    row = out.read_text().splitlines()[1].split(",")
    assert row[1] == "0.000000"
    assert row[2] == "error"
    assert row[3] == "0"
    assert row[4] == "1"


def test_metrics_skips_a_bad_pair_and_writes_the_good_rows(tmp_path, capsys):
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    m = np.zeros((16, 16))
    m[4:9, 4:9] = 1.0
    for d in (pred_dir, gt_dir):
        write_volume(ScalarField(m, 1.0), d / "a.vf32")
    write_volume(ScalarField(m, 1.0), pred_dir / "b.vf32")
    write_volume(ScalarField(0.7 * m, 1.0), gt_dir / "b.vf32")  # not binary
    out = tmp_path / "m.csv"
    rc = run(["metrics", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(out)])
    assert rc == 1
    assert out.read_text().splitlines() == ["case,dice,hd95,components_pred,components_gt",
                                            "a,1.000000,0.000000,1,1"]
    err = capsys.readouterr().err
    assert "case b" in err and str(pred_dir / "b.vf32") in err and str(gt_dir / "b.vf32") in err
    assert "reference must be binary" in err and "b must be binary" not in err
    assert "case a" not in err


def test_segment_deterministic_outputs(tmp_path):
    case_dir = tmp_path / "case"
    run(["synth", "--case", "disk", "--shape", "48,48", "--radius", "10", "--seed", "9", "--out", str(case_dir)])
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert run(["segment", "--image", str(case_dir / "image.vf32"), "--iters", "50",
                    "--beta", "0.5", "--out", str(out)]) == 0
        outs.append((out / "mask.vf32").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flag,value", [("--beta", "nan"), ("--alpha", "nan"), ("--beta", "inf")])
def test_gradcheck_rejects_non_finite_weights(flag, value, capsys):
    assert run(["gradcheck", "--shape", "5,5", "--trials", "1", flag, value]) == 1
    captured = capsys.readouterr()
    assert "passed=True" not in captured.out
    assert "must be finite" in captured.err


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_gradcheck_reports_an_overflowing_weight_as_a_failed_check_without_numpy_warnings(flag, capsys):
    # a weight of 1e308 overflows the energy, and the finite differences of infinities are NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["gradcheck", "--shape", "5,5", "--trials", "1", flag, "1e308"]) == 1
    captured = capsys.readouterr()
    assert "max_rel_error=nan" in captured.out and "passed=False" in captured.out
    assert "Warning" not in captured.err


def test_gradcheck_has_no_tol_flag(capsys):
    # the gate is gradients.GRADCHECK_TOL: --tol is a usage error
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", "--shape", "5,5", "--trials", "1", "--tol", "1e-5"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def readme_commands():
    """Each ``elastiseg`` command of README's bash blocks, continuation lines joined, as an argument list."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```bash\n(.*?)^```$", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("elastiseg ")]


def test_every_readme_command_parses():
    commands = readme_commands()
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert {argv[0] for argv in commands} == set(subcommands)
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: elastiseg {shlex.join(argv)}")


@pytest.mark.parametrize("step", ["inf", "nan"])
def test_segment_rejects_a_non_finite_step_before_the_solve(step, tmp_path, capsys):
    case_dir = tmp_path / "case"
    run(["synth", "--case", "disk", "--shape", "32,32", "--radius", "7", "--out", str(case_dir)])
    out = tmp_path / "seg"
    assert run(["segment", "--image", str(case_dir / "image.vf32"), "--iters", "5", "--step", step,
                "--out", str(out)]) == 1
    assert "step_size must be finite" in capsys.readouterr().err
    assert not (out / "mask.vf32").exists()


def test_segment_has_no_param_flag(tmp_path, capsys):
    # the mask is the variable of a projected descent, with no logistic parameterization: --param is a usage error
    case_dir = disk(tmp_path)
    out = tmp_path / "seg"
    with pytest.raises(SystemExit) as exc:
        run(["segment", "--image", str(case_dir / "image.vf32"), "--iters", "5", "--param", "logistic",
             "--out", str(out)])
    assert exc.value.code == 2
    assert "--param" in capsys.readouterr().err
    assert not out.exists()


def test_segment_defaults_are_the_librarys(tmp_path):
    energy, solver = elastiseg.EnergyParams(), elastiseg.SolverConfig()
    args = build_parser().parse_args(["segment", "--image", "image.vf32", "--out", "seg"])
    assert (args.alpha, args.beta, getattr(args, "lambda"), args.c1, args.c2) == (
        energy.alpha, energy.beta, energy.lam, energy.c1, energy.c2)
    assert (args.iters, args.step, args.optimizer, args.region_mode) == (
        solver.max_iters, solver.step_size, solver.optimizer, solver.region_mode)
    case_dir = disk(tmp_path)
    assert run(["segment", "--image", str(case_dir / "image.vf32"), "--iters", "3", "--out", str(tmp_path / "seg")]) == 0
    assert read_manifest(tmp_path / "seg" / "manifest.txt")["region_mode"] == "cv-means"


def test_segment_writes_the_librarys_solve_in_its_dtype(tmp_path, monkeypatch):
    case_dir = disk(tmp_path)
    image = read_volume(case_dir / "image.vf32")
    init = make_field(image.shape, image.spacing, 0.5)
    masks = []
    for dtype in (np.float32, np.float64):  # the solver's own, then the arithmetic of earlier versions
        monkeypatch.setattr(elastiseg.solver, "DTYPE", dtype)
        out = tmp_path / dtype.__name__
        assert run(["segment", "--image", str(case_dir / "image.vf32"), "--iters", "20", "--out", str(out)]) == 0
        # the library's solve at the CLI's defaults gives the same mask
        mask, _ = elastiseg.segment(image, init, elastiseg.EnergyParams(),
                                    elastiseg.SolverConfig(max_iters=20, region_mode="cv-means"))
        masks.append(read_volume(out / "mask.vf32").data)
        assert masks[-1].tobytes() == mask.data.astype(np.float32).astype(np.float64).tobytes()
    assert masks[0].tobytes() != masks[1].tobytes()


def test_segment_checks_the_reference_shape_before_the_solve(tmp_path, capsys):
    run(["synth", "--case", "disk", "--shape", "16,16", "--radius", "5", "--out", str(tmp_path / "img")])
    run(["synth", "--case", "sphere", "--shape", "8,8,8", "--radius", "3", "--out", str(tmp_path / "ref")])
    out = tmp_path / "seg"
    assert run(["segment", "--image", str(tmp_path / "img" / "image.vf32"), "--iters", "5",
                "--gt", str(tmp_path / "ref" / "gt.vf32"), "--out", str(out)]) == 1
    assert "shape mismatch" in capsys.readouterr().err
    assert not (out / "mask.vf32").exists()
    assert not (out / "trace.csv").exists()


def test_segment_checks_the_reference_is_binary_before_the_solve(tmp_path, capsys):
    run(["synth", "--case", "disk", "--shape", "16,16", "--radius", "5", "--out", str(tmp_path / "img")])
    out = tmp_path / "seg"
    assert run(["segment", "--image", str(tmp_path / "img" / "image.vf32"), "--iters", "5",
                "--gt", str(tmp_path / "img" / "image.vf32"), "--out", str(out)]) == 1
    assert "--gt must be binary" in capsys.readouterr().err
    assert not out.exists()


def test_every_run_records_every_resolved_flag_under_its_name(tmp_path):
    case_dir = tmp_path / "disk"
    runs = [  # (argv, manifest path, flags the run does not resolve)
        (["synth", "--case", "disk", "--shape", "32,32", "--out", str(case_dir)],
         case_dir / "manifest.txt", {"width", "gaps", "gap_len"}),
        (["synth", "--case", "tube", "--shape", "32,32", "--gap-len", "2", "--out", str(tmp_path / "tube")],
         tmp_path / "tube" / "manifest.txt", {"radius", "center", "fg", "bg"}),
        (["curvbench", "--mode", "mean2d", "--shape", "64,64", "--repeat", "1", "--out", str(tmp_path / "k.csv")],
         tmp_path / "k.csv.manifest.txt", set()),
        (["curvbench", "--mode", "fast3d", "--shape", "8,8,8", "--repeat", "1", "--out", str(tmp_path / "k3.csv")],
         tmp_path / "k3.csv.manifest.txt", {"radius"}),
        (["segment", "--image", str(case_dir / "image.vf32"), "--gt", str(case_dir / "gt.vf32"),
          "--lambda", "0.5", "--region-mode", "fixed", "--iters", "5", "--out", str(tmp_path / "seg")],
         tmp_path / "seg" / "manifest.txt", set()),
        (["metrics", "--pred", str(case_dir / "gt.vf32"), "--gt", str(case_dir / "gt.pgm"),
          "--out", str(tmp_path / "m.csv")],
         tmp_path / "m.csv.manifest.txt", set()),
    ]
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert {argv[0] for argv, _, _ in runs} == set(subcommands) - {"gradcheck"}  # gradcheck writes no files
    manifests = []
    for argv, path, absent in runs:
        assert run(argv) == 0
        entries = read_manifest(path)
        flags = [a.dest for a in subcommands[argv[0]]._actions if a.dest != "help"]
        resolved = [f for f in flags if f not in absent]
        keys = list(entries)
        assert keys[0] == "subcommand" and entries["subcommand"] == argv[0]
        assert keys[1:1 + len(resolved)] == resolved  # every resolved flag, in parser order, before the results
        assert not set(keys[1 + len(resolved):]) & set(flags)
        manifests.append(entries)

    synth, tube, bench, _, seg, batch = manifests
    assert (synth["shape"], synth["radius"], synth["center"], synth["fg"]) == ("32,32", "8.0", "15.5,15.5", "0.8")
    assert tube["gap_len"] == "2"
    assert bench["radius"] == "40.0"
    assert (seg["mode"], seg["lambda"], seg["region_mode"]) == ("mean2d", "0.5", "fixed")
    assert (seg["gt"], seg["out"], seg["iterations_run"]) == (str(case_dir / "gt.vf32"), str(tmp_path / "seg"), "5")
    assert "stage_solve_s" in seg and seg["converged"] == "False"
    assert batch["cases"] == "1"


def test_segment_non_finite_run_writes_its_manifest(tmp_path, capsys):
    case_dir = disk(tmp_path)
    out = tmp_path / "seg"
    assert run(["segment", "--image", str(case_dir / "image.vf32"), "--init", str(case_dir / "image.vf32"),
                "--alpha", "1e308", "--iters", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: non-finite energy at iteration 0 (last finite c1=1, c2=0, mean|g|=none); "
                   f"partial trace written to {out / 'trace.csv'}\n")
    assert (out / "trace.csv").read_text() == "iter,elastica,region_in,region_out,total,c1,c2,mean_abs_g\n"
    manifest = read_manifest(out / "manifest.txt")
    assert (manifest["iterations_run"], manifest["converged"], manifest["alpha"]) == ("0", "False", "1e+308")
    assert not (out / "mask.vf32").exists()


@pytest.mark.usefixtures("float64_solves")  # a fault injected once would meet only the float32 run, not the rerun
def test_segment_error_line_prints_the_last_finite_constants_and_scale(tmp_path, capsys, monkeypatch):
    # dE/du turns NaN in the 3rd pass: the 2nd update was the last one taken, under cv-means constants
    passes = []
    real = elastiseg.solver._gradient_block

    def poisoning(sums, b, gb, tb):
        passes.append(b)
        if passes.count(0) == 3:
            gb.fill(np.nan)
        real(sums, b, gb, tb)

    monkeypatch.setattr(elastiseg.solver, "_gradient_block", poisoning)
    case_dir = disk(tmp_path)
    out = tmp_path / "seg"
    assert run(["segment", "--image", str(case_dir / "image.vf32"), "--iters", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    match = re.fullmatch(r"error: non-finite energy at iteration 2 \(last finite c1=(\S+), c2=(\S+), mean\|g\|=(\S+)\); "
                         r"partial trace written to (\S+)\n", err)
    assert match and match[4] == str(out / "trace.csv")
    c1, c2, scale = (float(v) for v in match.groups()[:3])
    assert c1 > c2 and (c1, c2) != (1.0, 0.0)  # re-estimated from the disk
    assert 0.0 < scale < math.inf
    assert read_manifest(out / "manifest.txt")["stop_reason"] == "non_finite"


def test_segment_with_a_huge_step_and_no_force_leaves_the_mask_unchanged(tmp_path):
    case_dir = disk(tmp_path)
    out = tmp_path / "seg"
    assert run(["segment", "--image", str(case_dir / "image.vf32"), "--beta", "0", "--region-mode", "fixed",
                "--c1", "0.5", "--c2", "0.5", "--step", "1e300", "--iters", "20", "--out", str(out)]) == 0
    assert read_manifest(out / "manifest.txt")["stop_reason"] == "converged"
    np.testing.assert_array_equal(read_volume(out / "mask.vf32").data, 0.5)


@pytest.mark.parametrize("extra, rc, reason", [
    (["--init", "{gt}", "--image", "{gt}", "--iters", "100"], 0, "converged"),  # the solution: stops in 11
    (["--image", "{image}", "--iters", "3"], 0, "max_iters"),
    (["--image", "{image}", "--iters", "0"], 0, "max_iters"),
    (["--image", "{image}", "--init", "{image}", "--alpha", "1e308", "--iters", "10"], 1, "non_finite"),
])
def test_segment_manifest_records_why_the_solve_stopped(extra, rc, reason, tmp_path, capsys):
    case_dir = disk(tmp_path)
    paths = {"gt": str(case_dir / "gt.vf32"), "image": str(case_dir / "image.vf32")}
    out = tmp_path / "seg"
    assert run(["segment", *(arg.format(**paths) for arg in extra), "--out", str(out)]) == rc
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["stop_reason"] == reason
    assert manifest["converged"] == str(reason == "converged")
    keys = list(manifest)
    assert keys.index("stop_reason") == keys.index("converged") + 1


def test_segment_empty_prediction_writes_the_hd95_error_token(tmp_path):
    case_dir = disk(tmp_path)
    write_volume(make_field((32, 32), 1.0, 0.0), tmp_path / "empty.vf32")
    out = tmp_path / "seg"
    assert run(["segment", "--image", str(case_dir / "image.vf32"), "--init", str(tmp_path / "empty.vf32"),
                "--iters", "0", "--gt", str(case_dir / "gt.vf32"), "--out", str(out)]) == 1
    assert (out / "metrics.csv").read_text().splitlines() == ["case,dice,hd95,components_pred,components_gt",
                                                              "segment,0.000000,error,0,1"]
    assert read_manifest(out / "manifest.txt")["iterations_run"] == "0"


def test_segment_reads_a_pgm_init_and_an_explicit_mode(tmp_path):
    case_dir = disk(tmp_path)
    out = tmp_path / "seg"
    assert run(["segment", "--image", str(case_dir / "image.vf32"), "--init", str(case_dir / "gt.pgm"),
                "--mode", "mean2d", "--beta", "0.5", "--iters", "0", "--out", str(out)]) == 0
    np.testing.assert_array_equal(read_volume(out / "mask.vf32").data, read_volume(case_dir / "gt.vf32").data)
    manifest = read_manifest(out / "manifest.txt")
    assert (manifest["init"], manifest["mode"]) == (str(case_dir / "gt.pgm"), "mean2d")


@pytest.mark.parametrize("flags,message", [
    (["--mode", "fast3d"], "curvature mode fast3d requires 3D data, got 2D"),
    (["--mode", "mean3d"], "curvature mode mean3d requires 3D data, got 2D"),
    (["--init", "{other}"], "shape mismatch: (32, 32) vs (16, 16)"),
    (["--init", "{bright}"], "init values must lie in [0,1], got range [2.0, 2.0]"),
])
def test_segment_rejects_a_mode_or_init_that_does_not_fit_before_any_output(flags, message, tmp_path, capsys):
    case_dir = disk(tmp_path)
    other = disk(tmp_path / "other", shape="16,16", radius="4")
    out = tmp_path / "seg"
    write_volume(make_field((32, 32), 1.0, 2.0), tmp_path / "bright.vf32")
    flags = [f.format(other=other / "gt.vf32", bright=tmp_path / "bright.vf32") for f in flags]
    assert run(["segment", "--image", str(case_dir / "image.vf32"), "--iters", "5", *flags, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_metrics_rejects_a_file_paired_with_a_directory(tmp_path, capsys):
    case_dir = disk(tmp_path)
    out = tmp_path / "m.csv"
    assert run(["metrics", "--pred", str(case_dir / "gt.vf32"), "--gt", str(case_dir), "--out", str(out)]) == 1
    assert "--pred and --gt must both be files or both be directories" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "m.csv.manifest.txt").exists()


@pytest.mark.parametrize("flag,value", [("--c1", "1e200"), ("--c2", "-1e200")])
def test_segment_rejects_region_constants_that_overflow_before_any_output(flag, value, tmp_path, capsys):
    case_dir = disk(tmp_path)
    out = tmp_path / "seg"
    assert run(["segment", "--image", str(case_dir / "image.vf32"), "--iters", "5", f"{flag}={value}",
                "--out", str(out)]) == 1
    assert f"{flag[2:]} must lie in [-1e+100, 1e+100], got {float(value)}" in capsys.readouterr().err
    assert not out.exists()


def _metrics_pairs(tmp_path, kind):
    """Three soft-prediction/binary-reference pairs of one kind, under pred/ and gt/."""
    rng = np.random.default_rng(40)
    shape, spacing = ((14, 12, 10), (1.5, 1.0, 0.5)) if kind == "vf32-3d" else ((40, 36), (0.5, 2.0))
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    for i in range(3):
        gt = ndimage.uniform_filter(rng.random(shape), 5) > 0.5
        soft = np.clip(gt + rng.normal(0.0, 0.35, shape), 0.0, 1.0)
        if kind == "pgm-2d":
            write_pgm(ScalarField(soft >= 0.5, 1.0), pred_dir / f"c{i}.pgm")
            write_pgm(ScalarField(gt, 1.0), gt_dir / f"c{i}.pgm")
        else:
            write_volume(ScalarField(soft, spacing), pred_dir / f"c{i}.vf32")
            write_volume(ScalarField(gt, spacing), gt_dir / f"c{i}.vf32")
    return pred_dir, gt_dir


@pytest.mark.parametrize("kind", ["vf32-2d", "pgm-2d", "vf32-3d"])
def test_metrics_rows_are_the_library_rows(kind, tmp_path):
    pred_dir, gt_dir = _metrics_pairs(tmp_path, kind)
    out = tmp_path / "m.csv"
    assert run(["metrics", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(out),
                "--threshold", "0.3"]) == 0
    load = read_pgm if kind == "pgm-2d" else read_volume
    expect = [METRICS_CSV_HEADER]
    for pred_path in sorted(pred_dir.iterdir()):
        rep = evaluate_pair(threshold(load(pred_path), 0.3), load(gt_dir / pred_path.name))
        expect.append(format_metrics_row(pred_path.stem, rep.dice, rep.hd95, rep.components_pred, rep.components_gt))
    assert out.read_text().splitlines() == expect


def test_metrics_checks_each_field_at_most_once_per_pair(tmp_path, monkeypatch):
    pred_dir, gt_dir = _metrics_pairs(tmp_path, "vf32-2d")
    checked = []

    def counting(field):
        checked.append(field)
        return is_binary(field)

    for module in (cli, metrics):
        monkeypatch.setattr(module, "is_binary", counting, raising=False)
    assert run(["metrics", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(tmp_path / "m.csv")]) == 0
    assert len(checked) <= 2 * 3


def test_every_manifest_ends_with_the_versions_that_produced_it(tmp_path, monkeypatch):
    shown = []
    real_show = np.show_config
    monkeypatch.setattr(np, "show_config", lambda *a, **k: shown.append(1) or real_show(*a, **k))
    cli.versions.cache_clear()
    case_dir = disk(tmp_path)
    seg = tmp_path / "seg"
    runs = [  # every subcommand that writes files, a failed solve included
        (["curvbench", "--mode", "fast3d", "--shape", "8,8,8", "--repeat", "1", "--out", str(tmp_path / "k.csv")],
         tmp_path / "k.csv.manifest.txt"),
        (["segment", "--image", str(case_dir / "image.vf32"), "--gt", str(case_dir / "gt.vf32"), "--iters", "3",
          "--out", str(seg)], seg / "manifest.txt"),
        (["segment", "--image", str(case_dir / "image.vf32"), "--init", str(case_dir / "image.vf32"),
          "--alpha", "1e308", "--iters", "3", "--out", str(tmp_path / "failed")], tmp_path / "failed" / "manifest.txt"),
        (["metrics", "--pred", str(case_dir / "gt.vf32"), "--gt", str(case_dir / "gt.pgm"),
          "--out", str(tmp_path / "m.csv")], tmp_path / "m.csv.manifest.txt"),
    ]
    manifests = [read_manifest(case_dir / "manifest.txt")]  # synth's
    for argv, path in runs:
        run(argv)
        manifests.append(read_manifest(path))
    assert len(shown) == 1  # gathered once per process
    for entries in manifests:
        tail = dict(list(entries.items())[-6:])
        assert list(tail) == ["elastiseg", "python", "numpy", "scipy", "blas", "cpu_count"]
        assert (tail["elastiseg"], tail["numpy"], tail["scipy"]) == (elastiseg.__version__, np.__version__,
                                                                      scipy.__version__)
        assert tail["cpu_count"] == str(os.cpu_count()) and tail["python"].count(".") == 2 and tail["blas"]


@pytest.mark.parametrize("argv", [
    ["synth", "--case", "disk", "--shape", "1000000,1000000"],
    ["synth", "--case", "sphere", "--shape", "1000000,1000000,1000000"],
    ["curvbench", "--mode", "mean2d", "--shape", "1000000,1000000"],
    ["curvbench", "--mode", "fast3d", "--shape", "1000000,1000000,1000000"],
    ["gradcheck", "--shape", "1000000,1000000"],
])
def test_a_shape_past_physical_memory_is_rejected_before_anything_is_allocated(argv, tmp_path, monkeypatch, capsys):
    def allocates(*args, **kwargs):
        raise AssertionError("the shape was not rejected before allocating")

    for name in ("disk_case", "sphere_case_3d", "broken_tube_case", "hemisphere_field", "_probe_field", "gradcheck"):
        monkeypatch.setattr(cli, name, allocates)
    out = tmp_path / "out"
    assert run(argv + ([] if argv[0] == "gradcheck" else ["--out", str(out)])) == 1
    err = capsys.readouterr().err
    assert "needs 8000000000000" in err and "bytes of physical memory" in err
    assert not out.exists()
