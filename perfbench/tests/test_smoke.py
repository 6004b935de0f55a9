"""Tiny-shape runs of every workload, traced and untraced.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
from spans import LAYERS, ROOT  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_present_with_its_unit(workload, trace):
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    result = json.loads(json.dumps(run.run(workload, 7, 0.01, trace, size="tiny")))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    self_total = sum(values[f"{name}.self_s"] for name in (*LAYERS, ROOT))
    assert self_total == pytest.approx(values[f"{ROOT}.wall_s"], rel=1e-9)
    if workload in ("disk2d-length", "evalbatch"):
        assert values["curvature.calls"] == 0
    else:
        assert values["curvature.calls"] > 0
    assert values["cli.calls"] > 0 and values["volio.bytes"] > 0
