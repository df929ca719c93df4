"""BENCHMARK.json, the metric registry and what run.py prints agree."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BENCH_DIR, ROOT
from metrics import END_TO_END, PER_LAYER
from workloads import NOMINAL_RUN_S, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(bench_dir: Path, *args: str):
    done = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done.stderr


def test_names_units_and_limits():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in DECLARED["workloads"])
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    # 4 + 22 x workloads runs of run_seconds each must fit the driver's cap.
    runs = 4 + 22 * len(DECLARED["workloads"])
    assert runs * (DECLARED["run_seconds"] + 6) < 3420


def test_registry_matches_benchmark_json():
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(PER_LAYER)
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert DECLARED["run_seconds"] == NOMINAL_RUN_S


@pytest.mark.parametrize("workload", ["sim_static_read", "svc_write_mix"])
def test_driver_mode_prints_exactly_the_declared_metrics(workload):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        status, result, err = _run(
            BENCH_DIR, "--workload", workload, "--quick", "--trace", trace,
            "--seed", "5",
        )
        assert status == 0, err
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in DECLARED[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        if trace == "0":
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_run_covers_every_workload_and_metric(tmp_path):
    out = tmp_path / "quick.json"
    spans = tmp_path / "spans.jsonl"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick",
         "--json", str(out), "--trace-out", str(spans)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads(out.read_text())
    assert record["quick"] is True
    assert record["host"]["nproc"] == os.cpu_count()
    assert "loopback" in record["host"]["network"]
    assert set(record["workloads"]) == {w["name"] for w in DECLARED["workloads"]}
    for name, entry in record["workloads"].items():
        assert set(entry["end_to_end"]) == set(END_TO_END)
        assert set(entry["per_layer"]) == set(PER_LAYER)
        assert entry["errors"] == [] and entry["ops_failed"] == 0
        assert entry["loop"].split()[0] in ("simulated", "closed", "open")
        # every name is printed, with its unit
        for metric in END_TO_END:
            assert re.search(rf"^\s+{re.escape(metric)}\s+[\d,.]+ \S+$",
                             done.stdout, re.M), metric
    # the traced service run wrote its spans, each tied to a client request
    span_file = tmp_path / "spans.jsonl.svc_write_mix"
    rows = [json.loads(line) for line in span_file.read_text().splitlines()]
    assert rows and {"name", "start", "end", "parent", "request_id"} <= set(rows[0])
    roots = [r for r in rows if r["parent"] is None]
    assert sum(r["request_id"] is not None for r in roots) >= 0.99 * len(roots)


@pytest.fixture()
def bench_copy(tmp_path):
    """A private copy of bench/ beside links to the real src/ and BENCHMARK.json."""
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path / "bench"


def test_corrupted_expectations_fail_the_run(bench_copy):
    expected_path = bench_copy / "expected.json"
    pinned = json.loads(expected_path.read_text())
    status, result, _ = _run(bench_copy, "--workload", "sim_static_read",
                             "--quick", "--trace", "0")
    assert status == 0 and result["correct"] is True

    pinned["sim_static_read"]["quick"]["digest"] = "0" * 64
    pinned["svc_hot_read"]["quick"]["hit_ratio"] = [0.0, 0.01]
    expected_path.write_text(json.dumps(pinned))

    status, result, err = _run(bench_copy, "--workload", "sim_static_read",
                               "--quick", "--trace", "0")
    assert status == 1 and result["correct"] is False
    assert "!= pinned" in err
    status, result, err = _run(bench_copy, "--workload", "svc_hot_read",
                               "--quick", "--trace", "0")
    assert status == 1 and result["correct"] is False
    assert "outside pinned band" in err
    # Another seed has no pinned digest: only repeat-to-repeat checks apply.
    status, result, _ = _run(bench_copy, "--workload", "sim_static_read",
                             "--quick", "--trace", "0", "--seed", "3")
    assert status == 0 and result["correct"] is True


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    status, result, err = _run(tmp_path / "bench", "--workload", "svc_hot_read",
                               "--seed", "1", "--seconds", "1", "--trace", "0")
    assert status != 0 and result is None
    assert "nothing to measure" in err
