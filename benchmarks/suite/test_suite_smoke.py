"""Tier-1 smoke test of the benchmark suite.

Keeps ``BENCHMARK.json`` and ``run.py`` in step: the declaration stays
within the contract's limits, and a tiny run (``--smoke``, a few
seconds) really produces every workload and metric it declares, passes
its own correctness checks and writes a loadable trace per workload.
The suite's modules are never imported here -- ``run.py`` is run the
way the driver runs it, as a program.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_declaration_is_within_the_contract() -> None:
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCH["paths"] == ["benchmarks/suite"]
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60

    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCH[key]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}, metric
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple[str, dict, pathlib.Path]:
    out = tmp_path_factory.mktemp("suite-smoke")
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads((out / "results.json").read_text(encoding="utf-8"))
    return done.stdout, results, out


def test_smoke_run_produces_everything_declared(smoke) -> None:
    stdout, results, out = smoke
    end_to_end = {metric["name"] for metric in BENCH["end_to_end"]}
    per_layer = {metric["name"] for metric in BENCH["per_layer"]}
    assert set(results["host"]) == {"cores", "python", "numpy", "platform"}
    for workload in BENCH["workloads"]:
        name = workload["name"]
        entry = results["workloads"][name]
        assert f"== {name} -- end to end" in stdout
        assert f"== {name} -- per layer" in stdout
        assert set(entry["end_to_end"]) == end_to_end
        assert set(entry["per_layer"]) == per_layer
        for metric, summary in entry["end_to_end"].items():
            assert summary["value"] > 0, (name, metric)
            assert summary["q1"] <= summary["value"] <= summary["q3"]
            assert summary["n_samples"] >= 1
        assert entry["attempted"] >= 1 and entry["failed"] == 0
        assert entry["correct"], entry["checks"]
        trace = json.loads((out / f"trace-{name}.json").read_text(encoding="utf-8"))
        assert any(event["name"] == "request" for event in trace["traceEvents"])
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert f"  {metric['name']} " in stdout, metric["name"]
        assert f" {metric['unit']}" in stdout


def test_compare_judges_by_the_declared_bounds(smoke, tmp_path) -> None:
    _, results, out = smoke
    worse = json.loads(json.dumps(results))
    rps = worse["workloads"]["inproc_serve"]["end_to_end"]["rps"]
    for key in ("value", "q1", "q3"):
        rps[key] *= 0.5
    (tmp_path / "results.json").write_text(json.dumps(worse), encoding="utf-8")

    def compare(a: pathlib.Path, b: pathlib.Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(SUITE / "run.py"), "--compare", str(a), str(b)],
            capture_output=True,
            text=True,
            timeout=60,
        )

    same = compare(out / "results.json", out / "results.json")
    assert same.returncode == 0 and "regressed" not in same.stdout
    halved = compare(out / "results.json", tmp_path / "results.json")
    assert "B/A  0.5000" in halved.stdout
    line = next(
        row for row in halved.stdout.split("== inproc_serve")[1].splitlines()
        if row.strip().startswith("rps")
    )
    assert line.rstrip().endswith(("regressed", "unresolved"))
