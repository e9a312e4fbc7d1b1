"""Tests of the benchmark itself, on reduced sizes.

Run with ``python3 -m pytest -q perfbench/tests`` from the checkout root.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from anisofield import parse_config  # noqa: E402

SMALL = {"subdivisions": 16, "steps": 3}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_reports_every_metric(name):
    report = run.measure(name, seed=1, seconds=0, trace=1, shrink=SMALL)
    assert report["correct"], report["problems"]
    assert report["failed"] == 0
    assert report["attempted"] == 2 * SMALL["steps"]
    line = run.result_line(report)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in line["metrics"].items()} == run.LAYER_UNITS
    untraced = dict(report, trace=False)
    assert {k: m["unit"] for k, m in run.result_line(untraced)["metrics"].items()} \
        == run.END_TO_END
    assert all(v > 0 for v in report["end_to_end"].values())
    assert "fail_frac" in run.format_report(report)

    layers = report["layers"]
    parts = [layers[f"{layer}.self_s"] for layer in
             ("mesh", "anisotropy", "fem", "obstacle", "diagnostics",
              "output", "bench")]
    parts += [layers["schemes.step_self_s"], layers["trace.unattributed_s"]]
    assert math.isclose(sum(parts), layers["trace.run_s"], rel_tol=1e-9)
    assert layers["schemes.step_s"] > 0
    assert layers["diagnostics.energy_calls"] == SMALL["steps"] + 1
    assert layers["fem.assemble_aniso_calls"] == SMALL["steps"]
    assert report["missing_wrap_points"] == []
    with open(report["spans_path"], encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    assert {s[4] for s in spans} >= set(range(SMALL["steps"] + 1))


def test_forced_nonconvergence_is_counted():
    shrink = dict(SMALL, tol=1e-30)
    report = run.measure("ac2d_fig1", seed=0, seconds=0, trace=0, shrink=shrink)
    assert report["attempted"] == SMALL["steps"]
    assert report["failed"] == SMALL["steps"]  # one failed, two never run
    assert report["fail_frac"] == 1.0
    assert not report["correct"]
    assert "not converged" in report["problems"][0]
    line = run.result_line(report)
    assert line["failed"] == SMALL["steps"] and not line["correct"]


def test_tail_percentile():
    value, percentile, count = run.tail(list(range(100, 0, -1)))
    assert (percentile, count) == (90.0, 100)
    assert 89.0 < value < 92.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.quantile([0.5] * 7, 0.5) == pytest.approx(0.5)
    # Moving one sample across a gap between clusters moves the estimate
    # by a fraction of the gap, not the whole gap.
    low = [1.0] * 90 + [2.0] * 10
    high = [1.0] * 89 + [2.0] * 11
    assert sorted(high)[89] - sorted(low)[89] == 1.0
    assert run.quantile(high, 0.9) - run.quantile(low, 0.9) < 0.3


def test_seed_variation_is_deterministic_and_small():
    wl = workloads.WORKLOADS["ac2d_fig1"]
    text0, var0 = workloads.config_text(wl, 0, ROOT)
    assert var0["rotation_deg"] == 0.0 and "rot=" not in text0
    text1, var1 = workloads.config_text(wl, 7, ROOT)
    assert workloads.config_text(wl, 7, ROOT) == (text1, var1)
    assert 0.0 < var1["rotation_deg"] < workloads.MAX_ROTATION_DEG
    assert 0.0 < max(abs(s) for s in var1["shift"]) \
        < workloads.MAX_SHIFT_CELLS / 128
    scheme = parse_config(text1).scheme
    assert round(scheme.t_end / scheme.tau) == wl.steps


def test_fails_without_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ac2d_fig1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
