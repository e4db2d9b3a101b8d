"""Tests of the benchmark itself: schema, correctness check, hygiene.

Run with ``PYTHONPATH=src python3 -m pytest perfbench/selftest.py`` from
the root.  The file name is outside pytest's default ``test_*.py``
discovery on purpose: the repository's own suite, run from the root, then
collects exactly what it collected before the benchmark existed.  Adding
modules to that collection moves the interpreter's full garbage
collections, and one that lands inside a single-shot timing window in
``benchmarks/`` (finalising SQLite result stores an earlier benchmark left
open) fails that benchmark's speed assertion.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from verify import check_campaign, load_reference
from workloads import TABLES, WORKLOADS, build_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _campaign(step: dict) -> dict:
    from repro.analysis.export import write_campaign_json
    from repro.orchestrate import run_campaign_spec

    spec = build_spec(step)
    stream = io.StringIO()
    write_campaign_json(run_campaign_spec(spec, workers=1), stream, spec=spec)
    return json.loads(stream.getvalue())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_names_units_and_definitions_agree():
    bench = _benchmark()
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [w["name"] for w in bench["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
    for workload in bench["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_window_lies_inside_its_reference_table(workload):
    for seed in range(40):
        for step in WORKLOADS[workload](seed):
            assert 0 <= min(step["seeds"])
            assert max(step["seeds"]) < TABLES[step["table"]]["seeds"]


def test_perturbed_results_count_as_failed():
    reference = load_reference()
    step = {"table": "fig9", "seeds": [3, 4, 5]}
    payload = _campaign(step)
    assert check_campaign(payload, step, reference) == (36, 0, [])

    shifted = copy.deepcopy(payload)
    shifted["results"][7]["detect_cycle"] += 1
    attempted, failed, problems = check_campaign(shifted, step, reference)
    assert (attempted, failed) == (36, 1)
    assert "differs from reference" in problems[0]

    unrecovered = copy.deepcopy(shifted)
    unrecovered["results"][20]["recovered"] = False
    unrecovered["recovered"] -= 1
    assert check_campaign(unrecovered, step, reference)[1] == 2

    other_seeds = dict(step, seeds=[3, 4, 6])
    assert check_campaign(payload, other_seeds, reference)[1] == 36


def test_fig11_golden_values_are_asserted():
    reference = load_reference()
    step = {"table": "fig11", "seeds": [0]}
    payload = _campaign(step)
    assert check_campaign(payload, step, reference) == (12, 0, [])
    # Full-Counter, data_transfer_error: the 250-cycle W budget.
    payload["results"][3]["fig11_latency"] = 251
    attempted, failed, problems = check_campaign(payload, step, reference)
    assert (attempted, failed) == (12, 1)
    assert problems[0].startswith("golden full/data_transfer_error")


def _snapshot(root: Path) -> dict:
    skip = {".git", "__pycache__", ".perfbench", ".pytest_cache", ".hypothesis"}
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("*")
        if path.is_file() and not skip.intersection(path.relative_to(root).parts)
    }


def test_run_checks_results_and_leaves_the_checkout_unchanged():
    before = _snapshot(ROOT)
    proc = _bench("--workload", "darkcorner_rw_ip", "--seed", "5",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_CHILDREN * 624
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert _snapshot(ROOT) == before


def test_traced_run_reports_every_layer():
    proc = _bench("--workload", "darkcorner_rw_ip", "--seed", "2",
                  "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    value = {name: metric["value"] for name, metric in metrics.items()}
    assert value["orchestrate.runs_executed"] == 624
    assert value["faults.harness_builds"] == 624
    assert value["soc.builds"] == 0
    assert value["sim.stepped_cycles"] > 0
    assert value["profile.calls.sim.signal"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fig9_ip", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
