"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Every workload runs at tiny size, untraced and traced, and must emit
every metric BENCHMARK.json names, with its unit; a deliberately
corrupted output must be counted as a failure; the references must
agree with the kernel table's dense references.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import data  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    stamp = json.loads(proc.stdout.splitlines()[-2])["perfbench"]
    assert stamp["seed"] == 3 and stamp["config"]["tuner"] == "off"
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.5


@pytest.mark.parametrize("trace", [0, 1])
def test_corrupted_output_is_counted_as_a_failure(trace):
    # untraced, the first checked output is a cold start's (checked here);
    # traced, it is a plan output (checked in a child process)
    proc = bench("--workload", "kernel_steady", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny", "--corrupt")
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] > 1


def test_inherited_knobs_are_ignored():
    env = dict(os.environ, REPRO_BACKEND="python", REPRO_THREADS="2")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "serve_mixed",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    stamp = json.loads(proc.stdout.splitlines()[-2])["perfbench"]
    assert stamp["config"]["threads"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ----------------------------------------------------------------------
# the speed correction
# ----------------------------------------------------------------------
def test_speed_correction_uses_the_readings_around_an_interval():
    import speed

    meter = speed.SpeedMeter()
    ref = speed.REF_MS
    # slow until t=10, twice as fast from t=20 on
    meter.readings = [(0.0, 2 * ref), (9.9, 2 * ref), (20.0, ref), (21.0, ref)]
    assert meter.corrected(1.0, 1.0, 2.0) == pytest.approx(0.5)
    assert meter.corrected(1.0, 20.5, 20.6) == pytest.approx(1.0)
    # no reading inside: the last one before and the first one after
    assert meter.factor(12.0, 14.0) == pytest.approx(ref / (1.5 * ref))
    # the readings inside outvote the one before
    assert meter.factor(15.0, 21.5) == pytest.approx(1.0)


def test_maybe_read_skips_while_the_last_reading_is_young():
    import speed

    meter = speed.SpeedMeter()
    meter.maybe_read()
    meter.maybe_read()
    assert len(meter.readings) == 1 and meter.readings[0][1] > 0
    meter.read(speed.LONG_TICKS)
    assert len(meter.readings) == 2


# ----------------------------------------------------------------------
# the references against the kernel table's dense ones
# ----------------------------------------------------------------------
def test_expand_gives_every_distinct_permutation_once():
    rng = np.random.default_rng(0)
    coords = data.canonical_coords(rng, 6, 3, 30)
    vals = rng.random(coords.shape[1]) + 0.1
    dense = data.to_dense(*data.expand(coords, vals), (6, 6, 6))
    assert np.array_equal(dense, np.transpose(dense, (1, 0, 2)))
    assert np.array_equal(dense, np.transpose(dense, (2, 1, 0)))
    assert np.count_nonzero(dense) == data.expand(coords, vals)[1].size
    assert np.isclose(dense[tuple(coords)].sum(), vals.sum())


@pytest.mark.parametrize("name", data.KERNEL_ORDER)
def test_references_match_the_dense_references(name):
    from repro.kernels.library import KERNELS

    sizes = {
        "matrix": {"n": 12, "nnz_per_row": 4},
        "ssyrk": {"n": 9, "nnz_per_row": 3},
        "ttm": {"n": 7, "density": 0.3, "rank": 3},
        "mttkrp3d": {"n": 7, "density": 0.3, "rank": 3},
        "mttkrp4d": {"n": 5, "density": 0.3, "rank": 3},
        "mttkrp5d": {"n": 4, "density": 0.3, "rank": 3},
    }
    case = data.kernel_cases([name], sizes, seed=5)[name]
    dense = {
        k: (v.to_dense() if hasattr(v, "to_dense") else v)
        for k, v in case.tensors.items()
    }
    assert np.allclose(case.reference(), KERNELS[name].reference(**dense))
