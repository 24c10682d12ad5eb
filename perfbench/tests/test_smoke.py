"""Tiny-size runs of every workload through the benchmark's own command."""

import json
import shutil
import subprocess
import sys

import pytest

import env
from run import END_TO_END, PER_LAYER, WORKLOADS


def _run(*args, cwd=env.ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=timeout,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    line = _result(_run("--workload", workload, "--seed", "3", "--seconds", "9",
                        "--trace", "0", "--size", "tiny"))
    assert line["correct"], line
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(END_TO_END)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", ["community-soa", "live-small"])
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    line = _result(_run("--workload", workload, "--seed", "4", "--seconds", "9",
                        "--trace", "1", "--size", "tiny"))
    assert line["correct"], line
    assert set(line["metrics"]) == set(PER_LAYER)
    assert (env.OUT / f"spans-{workload}-4.jsonl").stat().st_size > 0
    assert (env.OUT / f"self-time-{workload}-4.json").is_file()


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(env.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "community-soa", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
