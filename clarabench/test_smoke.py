"""Smoke test of the benchmark at tiny sizes (about a minute).

    python -m pytest clarabench/test_smoke.py

Every workload, untraced and traced, on two elements or NFs with one
set-up spawn: each named metric must be emitted with its unit, a
corrupted or unrecorded golden answer must count as a failed request,
and the benchmark must refuse to run without the program's source or
without its golden answers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from harness import ROOT, SRC, CheckoutError, Golden, Outcome, Session  # noqa: E402

sys.path.insert(0, str(SRC))

from workloads import E2E_UNITS, LAYER_UNITS, WORKLOADS, Plan  # noqa: E402


def test_benchmark_json_names_the_metrics_the_workloads_emit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def tiny(trace: bool, golden: Golden) -> Plan:
    return Plan(seed=3, seconds=0.01, trace=trace, golden=golden, limit=2,
                spawns=1)


@pytest.fixture(scope="module")
def session():
    with Session.open() as s:
        yield s


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(session, name, trace):
    result = WORKLOADS[name](session, tiny(trace, Golden.load()))
    units = {metric: unit for metric, (_, unit, _) in result.metrics.items()}
    if trace:
        assert units == LAYER_UNITS
    else:
        assert units == {**E2E_UNITS, "latency_p90_ms": "ms"}
    assert result.outcomes and result.correct
    assert not result.failed


def test_corrupted_answer_counts_as_failed(session):
    first = WORKLOADS["cold_lint"](session, tiny(False, Golden({})))
    record = {o.key: o.digest for o in first.outcomes}
    bad_key = first.outcomes[0].key
    record[bad_key] = "0" * 16
    again = WORKLOADS["cold_lint"](
        session, tiny(False, Golden({"cold_lint": record})))
    verdicts = {o.key: o.verdict for o in again.outcomes}
    assert verdicts.pop(bad_key) == "mismatch"
    assert set(verdicts.values()) == {"ok"}
    assert [o.key for o in again.failed] == [bad_key]
    assert not again.correct


def test_unrecorded_answer_fails_unless_its_workload_is_seeded(tmp_path):
    digest = "0" * 16
    verdict = Golden({}).verdict("cold_lint", "aggcounter", digest)
    assert verdict == "unrecorded"
    assert Outcome("aggcounter", 1.0, verdict).failed
    assert Golden({}).verdict("novel_nf", "9/0/large_flows/20/0",
                              digest) == "unchecked"
    assert Golden({}, recording=True).verdict(
        "cold_lint", "aggcounter", digest) == "unchecked"
    with pytest.raises(CheckoutError):
        Golden.load(tmp_path / "golden.json")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "cold_lint",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
