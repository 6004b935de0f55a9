"""Benchmark of the elastiseg command-line tool, driven in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload first writes its inputs with ``elastiseg synth`` (set-up), then
repeats its measured ``elastiseg segment`` / ``elastiseg metrics`` calls for
about ``--seconds`` seconds as a closed loop: one caller, each call starts
after the previous one returns, no threads. Every call goes through
``elastiseg.cli.main`` exactly as the console script does, and every output
is checked. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
machine and each case's quality figures.

``--trace 0`` reports the end-to-end metrics, untraced. The speed of the
shared host this runs on drifts by tens of percent within a minute, and the
program's run time drifts with it, so every end-to-end time is reported in
reference-speed seconds: each set-up and each measured call is bracketed by
runs of a fixed kernel owned by this file that does the workload's kind of
numpy or scipy work (``Speed``), and its measured seconds are multiplied by the
kernel's reference time over the mean of the two bracketing kernel times. The
raw seconds and kernel times are printed on the ``speed`` line. ``--trace 1``
alternates untraced and traced repetitions of set-up plus calls and reports
per-layer self times and call counts from the traced ones (see ``spans.py``),
plus the tracing overhead. The package is imported from ``src/`` of the
checkout this file lives in, so the benchmark fails when that is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

# str hashes are randomised per process, and with them the layout of the
# interpreter's dicts: that moved the tube2d-elastica times by about 5% from
# one process to the next. Run under one fixed hash seed instead.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

import numpy as np
import scipy
from scipy import ndimage
from scipy.spatial import cKDTree

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(CHECKOUT / "src"))

# Package functions are called through their modules, so that calls made
# while the tracer is installed are traced like the CLI's own.
import elastiseg  # noqa: E402
from elastiseg import cli, metrics, solver, volio  # noqa: E402

# ``elastiseg.curvature`` is the re-exported curvature() function; fetch the module itself
curvature = importlib.import_module("elastiseg.curvature")
if Path(elastiseg.__file__).resolve().parent.parent != CHECKOUT / "src":
    raise ImportError(f"elastiseg was imported from {elastiseg.__file__}, not from {CHECKOUT / 'src'}")

from spans import LAYERS, ROOT, Tracer  # noqa: E402

WORKLOADS = ("disk2d-length", "tube2d-elastica", "sphere3d-fast", "evalbatch")
WORK_DIR = CHECKOUT / ".perfbench_work"

# Inputs per workload. "tiny" keeps every code path of "full" at small shapes
# for the smoke test; only "full" is measured.
SIZES = {
    "full": {
        # Disk and sphere calls last a second or less, so that a run holds many
        # calls, each closely bracketed by speed-kernel runs.
        "disk": ("256,256", "60", "100"),         # shape, radius, iters
        # 400 iterations, below the earliest stop-rule exit seen (435), keep the
        # work equal across seeds: some tube seeds only stop after 850-1070.
        # No tube reconnects within 250 iterations, so calls cannot be shorter.
        "tube": ("96,96", 4, "400"),              # shape, cases, iters
        "sphere": ("64,64,64", "16", "20"),       # shape, radius, iters
        "eval": ("256,256", 48, "64,64,64", 8),   # disk shape, disks per format, sphere shape, spheres
    },
    "tiny": {
        "disk": ("32,32", "8", "200"),
        "tube": ("24,40", 2, "300"),
        "sphere": ("16,16,16", "4", "5"),
        "eval": ("32,32", 2, "16,16,16", 1),
    },
}
# Speed kernel per workload: kind, array shape (the workload's own), steps, and
# its reference time in seconds (its median on a 2-vCPU Intel Xeon VM). The
# kernel takes about a tenth of a second, so that it brackets each call closely.
SPEED = {
    "full": {
        "disk2d-length": ("flow", (256, 256), 150, 0.15),
        "tube2d-elastica": ("flow", (96, 96), 1000, 0.13),
        "sphere3d-fast": ("flow", (64, 64, 64), 15, 0.14),
        "evalbatch": ("metrics", (256, 256), 40, 0.15),
    },
    "tiny": {
        "disk2d-length": ("flow", (32, 32), 20, 0.001),
        "tube2d-elastica": ("flow", (24, 40), 20, 0.001),
        "sphere3d-fast": ("flow", (16, 16, 16), 10, 0.001),
        "evalbatch": ("metrics", (32, 32), 5, 0.001),
    },
}
SPEED_WARMUP = 3     # kernel runs before the first measurement
SETUP_REPS = 5       # set-up runs per --trace 0 run, at least; setup_s is their median
SETUP_SECONDS = 0.5  # ... and more runs until this much set-up time has passed
SETUP_GROUP_S = 0.2  # set-ups between two kernel runs last at least this long
MIN_REPS = 3         # measured repetitions per --trace 0 run, whatever --seconds says
MIN_TRACE_PAIRS = 2  # untraced/traced repetition pairs per --trace 1 run
PROBE_REPEATS = 5    # median_eval_time repeats for curvature.fast3d_over_mean3d
CHECK_EVERY = 8      # evalbatch: recompute every 8th CSV row with the library

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "solve_s": "s", "s_per_iter": "s", "iters": "count",
    "dice": "frac", "pairs_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))},
    f"{ROOT}.self_s": "s", f"{ROOT}.wall_s": "s",
    "diffops.calls_per_iter": "count/iter", "energy.calls_per_iter": "count/iter",
    "volio.bytes": "bytes", "trace_overhead_frac": "frac",
    "curvature.fast3d_over_mean3d": "ratio",
}


@dataclass
class Call:
    """One measured CLI call and where its outputs land."""

    argv: list
    output: Path             # segment: output directory; metrics: CSV path
    gate: str = ""           # "dice>=0.95" or "components==1" for segment calls
    pairs: list = field(default_factory=list)  # metrics: (name, pred path, gt path)


def flow_kernel(x: np.ndarray, steps: int) -> np.ndarray:
    """A few explicit total-variation flow steps: the solver's kind of numpy work,
    independent of the package, so its time tracks only the host's speed."""
    for _ in range(steps):
        g = [np.diff(x, axis=a, append=np.take(x, [-1], axis=a)) for a in range(x.ndim)]
        norm = np.sqrt(sum(gi * gi for gi in g) + 1e-8)
        x = np.clip(x - 0.01 * sum(gi / norm for gi in g), 0.0, 1.0)
    return x


def metrics_kernel(x: np.ndarray, steps: int) -> np.ndarray:
    """Labelling and boundary nearest-neighbour queries of a blob mask: the
    evaluation's kind of scipy work, independent of the package."""
    for _ in range(steps):
        mask = x > 0.5
        ndimage.label(mask)
        points = np.argwhere(mask & ~ndimage.binary_erosion(mask)).astype(float)
        dist = cKDTree(points).query(points[::7] + 0.5)[0]
    return dist


KERNELS = {"flow": flow_kernel, "metrics": metrics_kernel}


class Speed:
    """Converts measured seconds to reference-speed seconds.

    Call :meth:`factor` right after each piece of measured work: it runs the
    kernel once more and returns the reference time over the mean of this run
    and the one before the work.
    """

    def __init__(self, kind: str, shape: tuple, steps: int, ref_s: float) -> None:
        x = ndimage.gaussian_filter(np.random.default_rng(0).random(shape), 4)  # blobs for "metrics"
        self.x = (x - x.min()) / (x.max() - x.min())
        self.kernel, self.steps, self.ref_s = KERNELS[kind], steps, ref_s
        for _ in range(SPEED_WARMUP):
            self.last = self.sample()
        self.samples = [self.last]

    def sample(self) -> float:
        t0 = time.perf_counter()
        self.kernel(self.x, self.steps)
        return time.perf_counter() - t0

    def restart(self) -> None:
        """A fresh 'before' run, after unmeasured work such as output checks."""
        self.last = self.sample()
        self.samples.append(self.last)

    def factor(self) -> float:
        before, self.last = self.last, self.sample()
        self.samples.append(self.last)
        return self.ref_s / (0.5 * (before + self.last))


@dataclass
class Ledger:
    """Operations attempted and failed; a call fails on a bad exit code or a failed check."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.reasons.append(why)


def run_cli(argv: list, ledger: Ledger) -> tuple[int, float]:
    """Call ``elastiseg.cli.main`` with captured output; return (exit code, seconds)."""
    ledger.attempted += 1
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash of the program is a failed operation, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        rc = -1
    return rc, time.perf_counter() - t0


def synth(ledger: Ledger, out: Path, case: str, shape: str, seed: int, *extra: str) -> None:
    rc, _ = run_cli(["synth", "--case", case, "--shape", shape, "--seed", str(seed),
                     "--out", str(out), *extra], ledger)
    if rc != 0:  # without its inputs the workload cannot run at all
        raise RuntimeError(f"synth {case} seed {seed} exited {rc}")


def segment_call(case_dir: Path, gate: str, *extra: str) -> Call:
    out = case_dir / "seg"
    return Call(["segment", "--image", str(case_dir / "image.vf32"), "--gt", str(case_dir / "gt.vf32"),
                 "--out", str(out), *extra], out, gate)


def setup(workload: str, seed: int, size: str, d: Path, ledger: Ledger) -> list:
    """Write the workload's inputs under ``d``; return its measured calls."""
    z = SIZES[size]
    d.mkdir(parents=True)
    if workload == "disk2d-length":
        shape, radius, iters = z["disk"]
        synth(ledger, d / "disk", "disk", shape, seed, "--radius", radius, "--noise", "0.1")
        return [segment_call(d / "disk", "dice>=0.95", "--beta", "0", "--iters", iters)]
    if workload == "tube2d-elastica":
        shape, cases, iters = z["tube"]
        calls = []
        for k in range(cases):
            synth(ledger, d / f"tube{k}", "tube", shape, seed + k,
                  "--width", "5", "--gaps", "2", "--gap-len", "2")
            calls.append(segment_call(d / f"tube{k}", "components==1", "--beta", "2", "--lambda", "0.1",
                                      "--optimizer", "momentum", "--step", "0.005", "--iters", iters))
        return calls
    if workload == "sphere3d-fast":
        shape, radius, iters = z["sphere"]
        synth(ledger, d / "sphere", "sphere", shape, seed, "--radius", radius, "--noise", "0.1")
        return [segment_call(d / "sphere", "", "--beta", "0.1", "--optimizer", "momentum", "--iters", iters)]
    if workload == "evalbatch":
        return [setup_evalbatch(seed, z["eval"], d, ledger)]
    raise ValueError(f"unknown workload {workload!r}")


def setup_evalbatch(seed: int, sizes: tuple, d: Path, ledger: Ledger) -> Call:
    """Prediction/reference pairs: noisy disks thresholded by the CLI (VF32) or
    pre-thresholded (PGM), and noisy spheres (VF32). Radius and noise vary by pair."""
    disk_shape, disks, sphere_shape, spheres = sizes
    pred, gt = d / "pred", d / "gt"
    pred.mkdir()
    gt.mkdir()
    extent = min(int(n) for n in disk_shape.split(","))
    for i in range(2 * disks):
        src = d / f"src{i}"
        radius = extent * (0.15 + 0.05 * (i % 5))
        synth(ledger, src, "disk", disk_shape, seed + i, "--radius", f"{radius:g}",
              "--noise", f"{0.1 + 0.02 * (i % 3):g}")
        if i < disks:
            os.replace(src / "image.vf32", pred / f"disk{i:03d}.vf32")
            os.replace(src / "gt.vf32", gt / f"disk{i:03d}.vf32")
        else:
            volio.write_pgm(solver.threshold(volio.read_volume(src / "image.vf32")), pred / f"disk{i:03d}.pgm")
            os.replace(src / "gt.pgm", gt / f"disk{i:03d}.pgm")
        shutil.rmtree(src)
    extent = min(int(n) for n in sphere_shape.split(","))
    for j in range(spheres):
        src = d / f"srcs{j}"
        synth(ledger, src, "sphere", sphere_shape, seed + 2 * disks + j,
              "--radius", f"{extent * (0.15 + 0.05 * (j % 4)):g}", "--noise", "0.1")
        os.replace(src / "image.vf32", pred / f"sphere{j:03d}.vf32")
        os.replace(src / "gt.vf32", gt / f"sphere{j:03d}.vf32")
        shutil.rmtree(src)
    names = sorted(os.listdir(pred))
    out = d / "metrics.csv"
    return Call(["metrics", "--pred", str(pred), "--gt", str(gt), "--out", str(out)], out,
                pairs=[(os.path.splitext(n)[0], pred / n, gt / n) for n in names])


def read_vf32_raw(path: Path) -> np.ndarray:
    """Payload of a VF32 file, parsed without the package's reader."""
    blob = path.read_bytes()
    return np.frombuffer(blob[blob.index(b"\n") + 1:], dtype="<f4")


def load(path: Path):
    return volio.read_pgm(path) if path.suffix == ".pgm" else volio.read_volume(path)


@dataclass
class CallResult:
    wall_s: float
    solve_s: float
    iters: int
    rows: list  # (name, dice, hd95, components_pred, components_gt)


def parse_rows(csv_text: str) -> list:
    rows = []
    for line in csv_text.splitlines()[1:]:
        name, d, h, cp, cg = line.split(",")
        rows.append((name, float(d), float(h), int(cp), int(cg)))
    return rows


def execute(calls: list, ledger: Ledger) -> list:
    """One repetition of the measured calls: (call, exit code, seconds) each."""
    return [(call, *run_cli(call.argv, ledger)) for call in calls]


def check(outcomes: list, ledger: Ledger, reference: dict, first: bool):
    """Check one repetition's outputs; None if any call failed."""
    results = []
    for call, rc, wall in outcomes:
        if rc != 0:
            ledger.fail(f"{call.argv[0]} {call.output} exited {rc}")
            results.append(None)
        elif call.argv[0] == "metrics":
            results.append(check_metrics(call, wall, ledger, reference, first))
        else:
            results.append(check_segment(call, wall, ledger, reference))
    return None if any(r is None for r in results) else results


def check_segment(call: Call, wall: float, ledger: Ledger, reference: dict):
    mask_bytes = (call.output / "mask.vf32").read_bytes()
    mask = read_vf32_raw(call.output / "mask.vf32")
    manifest = dict(line.rstrip("\n").split("=", 1) for line in open(call.output / "manifest.txt"))
    row = parse_rows((call.output / "metrics.csv").read_text())[0]
    _, dice, _, comp_pred, _ = row
    problem = ""
    if not (np.all(np.isfinite(mask)) and mask.min() >= 0.0 and mask.max() <= 1.0):
        problem = "soft mask not finite or outside [0,1]"
    elif reference.setdefault(call.output, mask_bytes) != mask_bytes:
        problem = "mask.vf32 differs from the first repetition"
    elif call.gate == "dice>=0.95" and dice < 0.95:
        problem = f"Dice {dice} < 0.95"
    elif call.gate == "components==1" and comp_pred != 1:
        problem = f"{comp_pred} predicted components, tube not reconnected"
    if problem:
        ledger.fail(f"{call.output}: {problem}")
        return None
    return CallResult(wall, float(manifest["stage_solve_s"]), int(manifest["iterations_run"]), [row])


def check_metrics(call: Call, wall: float, ledger: Ledger, reference: dict, first: bool):
    text = call.output.read_text()
    rows = parse_rows(text)
    problem = ""
    if [r[0] for r in rows] != [p[0] for p in call.pairs]:
        problem = "CSV rows do not match the generated pairs"
    elif reference.setdefault(call.output, text) != text:
        problem = "CSV differs from the first repetition"
    elif first:
        lines = text.splitlines()[1:]
        for i in range(0, len(call.pairs), CHECK_EVERY):
            name, pred_path, gt_path = call.pairs[i]
            rep = metrics.evaluate_pair(solver.threshold(load(pred_path)), load(gt_path))
            expect = volio.format_metrics_row(name, rep.dice, rep.hd95, rep.components_pred, rep.components_gt)
            if lines[i] != expect:
                problem = f"row {lines[i]!r} != library recomputation {expect!r}"
                break
    if problem:
        ledger.fail(f"{call.output}: {problem}")
        return None
    return CallResult(wall, wall, len(rows), rows)


def fresh_dir(base: Path, tag: str) -> Path:
    d = base / tag
    if d.exists():
        shutil.rmtree(d)
    return d


def end_to_end(workload: str, seed: int, seconds: float, size: str, base: Path, ledger: Ledger):
    start = time.perf_counter()
    speed = Speed(*SPEED[size][workload])
    raw_setup, setup_times, calls = [], [], []
    while len(setup_times) < SETUP_REPS or sum(raw_setup) < SETUP_SECONDS:
        # short set-ups share one pair of kernel runs, so the kernel does not dominate the run
        speed.restart()
        group = []
        while not group or sum(group) < SETUP_GROUP_S:
            d = fresh_dir(base, "setup")
            t0 = time.perf_counter()
            calls = setup(workload, seed, size, d, ledger)
            group.append(time.perf_counter() - t0)
        f = speed.factor()
        raw_setup += group
        setup_times += [t * f for t in group]

    reference, reps, raw = {}, [], []
    while True:
        t0 = time.perf_counter()
        speed.restart()
        outcomes, factors = [], []
        for call in calls:
            outcomes.append((call, *run_cli(call.argv, ledger)))
            factors.append(speed.factor())
        last = time.perf_counter() - t0
        results = check(outcomes, ledger, reference, first=not reps)
        if results is not None:
            raw.append([c.wall_s for c in results])
            results = [replace(c, wall_s=c.wall_s * f, solve_s=c.solve_s * f) for c, f in zip(results, factors)]
        reps.append(results)
        if len(reps) >= MIN_REPS and time.perf_counter() - start + last > seconds:
            break
    good = [r for r in reps if r is not None]
    if not good:
        return {}, []
    print("speed " + json.dumps({
        "kernel_s": [round(t, 6) for t in speed.samples], "ref_s": speed.ref_s,
        "raw_setup_s": [round(t, 6) for t in raw_setup], "raw_wall_s": [[round(t, 6) for t in r] for r in raw],
        "wall_s": [[round(c.wall_s, 6) for c in r] for r in good]}))
    # per-call medians over the repetitions, summed over the workload's calls
    wall = sum(statistics.median(r[i].wall_s for r in good) for i in range(len(calls)))
    solve = sum(statistics.median(r[i].solve_s for r in good) for i in range(len(calls)))
    iters = sum(c.iters for c in good[0])
    rows = [row for c in good[0] for row in c.rows]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "solve_s": solve,
        "s_per_iter": solve / iters,
        "iters": iters,
        "dice": statistics.fmean(r[1] for r in rows),
        "pairs_per_s": len(rows) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, rows


def fast3d_over_mean3d(seed: int, size: str, base: Path, ledger: Ledger) -> float:
    """Time ratio of fast3d to mean3d curvature on the sphere3d-fast input."""
    shape, radius, _ = SIZES[size]["sphere"]
    d = fresh_dir(base, "probe")
    synth(ledger, d, "sphere", shape, seed, "--radius", radius, "--noise", "0.1")
    image = volio.read_volume(d / "image.vf32")
    modes = curvature.CurvatureMode
    fast = cli.median_eval_time(lambda f: curvature.curvature(f, modes.FAST_3D), image, PROBE_REPEATS)
    full = cli.median_eval_time(lambda f: curvature.curvature(f, modes.MEAN_3D), image, PROBE_REPEATS)
    return fast / full


def per_layer(workload: str, seed: int, seconds: float, size: str, base: Path, ledger: Ledger):
    untraced, summaries, iters, io_bytes = [], [], [], []
    reference, tracer = {}, None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        d = fresh_dir(base, "rep")
        t1 = time.perf_counter()
        outcomes = execute(setup(workload, seed, size, d, ledger), ledger)
        untraced.append(time.perf_counter() - t1)
        reps = [check(outcomes, ledger, reference, first=not summaries)]

        d = fresh_dir(base, "rep")
        tracer = Tracer()
        with tracer.installed(), tracer.root():
            outcomes = execute(setup(workload, seed, size, d, ledger), ledger)
        reps.append(check(outcomes, ledger, reference, first=False))
        summaries.append(tracer.summary())
        io_bytes.append(tracer.io_bytes)
        if all(r is not None for r in reps):
            iters.append(sum(c.iters for c in reps[1]))
        last = time.perf_counter() - t0
        if len(summaries) >= MIN_TRACE_PAIRS and time.perf_counter() - start + last > seconds:
            break
    WORK_DIR.mkdir(exist_ok=True)
    tracer.write_csv(WORK_DIR / f"spans-{workload}.csv")
    if not iters:
        return {}

    def mean(key, layer):
        return statistics.fmean(s[key][layer] for s in summaries)

    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = mean("self_s", layer)
        values[f"{layer}.calls"] = mean("calls", layer)
    wall = statistics.fmean(s["wall_s"] for s in summaries)
    values[f"{ROOT}.self_s"] = mean("self_s", ROOT)
    values[f"{ROOT}.wall_s"] = wall
    total = sum(values[f"{name}.self_s"] for name in (*LAYERS, ROOT))
    if abs(total - wall) > 1e-9 * wall + 1e-12:
        raise RuntimeError(f"layer self times sum to {total}, root span lasted {wall}")
    values["diffops.calls_per_iter"] = values["diffops.calls"] / statistics.fmean(iters)
    values["energy.calls_per_iter"] = values["energy.calls"] / statistics.fmean(iters)
    values["volio.bytes"] = statistics.fmean(io_bytes)
    # each traced repetition against the untraced one just before it
    values["trace_overhead_frac"] = statistics.median(
        s["wall_s"] / u for s, u in zip(summaries, untraced)) - 1.0
    values["curvature.fast3d_over_mean3d"] = fast3d_over_mean3d(seed, size, base, ledger)
    return values


def machine() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "elastiseg": elastiseg.__version__,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload and return the result object printed as the last line."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    seed %= 2 ** 31  # the CLI's Philox seeding needs a non-negative seed
    ledger = Ledger()
    base = WORK_DIR / f"{workload}-{os.getpid()}"
    try:
        if trace:
            values, units, rows = per_layer(workload, seed, seconds, size, base, ledger), PER_LAYER_UNITS, []
        else:
            (values, rows), units = end_to_end(workload, seed, seconds, size, base, ledger), END_TO_END_UNITS
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("machine " + json.dumps(machine(), sort_keys=True))
    for row in rows:
        print("case " + json.dumps(dict(zip(("name", "dice", "hd95", "components_pred", "components_gt"), row))))
    for why in ledger.reasons:
        print("failed " + why)
    return {
        "correct": ledger.failed == 0 and bool(values),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
