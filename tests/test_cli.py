import numpy as np
import pytest

from elastiseg import ScalarField, make_field, read_volume, write_pgm, write_volume
from elastiseg.cli import main


def run(argv):
    return main(argv)


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


@pytest.mark.parametrize("flag,value", [("--radius", "nan"), ("--center", "nan,nan")])
def test_synth_rejects_non_finite_geometry(flag, value, tmp_path, capsys):
    out = tmp_path / "x"
    assert run(["synth", "--case", "disk", "--shape", "32,32", flag, value, "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (out / "gt.vf32").exists()


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


def test_gradcheck_cli_pass_and_fail(capsys):
    assert run(["gradcheck", "--shape", "10,10", "--mode", "mean2d", "--trials", "3", "--seed", "1"]) == 0
    assert "passed=True" in capsys.readouterr().out
    # tolerance below the fd truncation floor must fail
    assert run(["gradcheck", "--shape", "10,10", "--mode", "mean2d", "--trials", "3",
                "--seed", "1", "--tol", "1e-15"]) == 1
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", "--trials", "0"])
    assert exc.value.code == 2


def test_segment_end_to_end_with_metrics(tmp_path):
    case_dir = tmp_path / "case"
    assert run(["synth", "--case", "disk", "--shape", "64,64", "--radius", "14",
                "--noise", "0.1", "--seed", "2", "--out", str(case_dir)]) == 0
    out = tmp_path / "seg"
    rc = run(["segment", "--image", str(case_dir / "image.vf32"), "--alpha", "0.001",
              "--beta", "0", "--iters", "300", "--out", str(out), "--gt", str(case_dir / "gt.vf32")])
    assert rc == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,elastica,region_in,region_out,total"
    assert len(trace) > 10
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
