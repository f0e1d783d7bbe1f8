"""Smoke tests of the benchmark at toy sizes.  Timings are never asserted.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import refclock
import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

worker.import_package()
from workloads import WORKLOADS  # noqa: E402

from anickres.documents import PresentationDocument  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_workloads_match_declaration():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_seed_independent(name, trace):
    digests = []
    for seed in ("1", "2"):
        proc = run_bench("--workload", name, "--seed", seed, "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        *_, details_line, result_line = proc.stdout.strip().splitlines()
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        kind = "per_layer" if trace == "1" else "end_to_end"
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared(kind)
        details = json.loads(details_line.removeprefix("details "))
        assert details["fail_ratio"] == 0
        assert details["seed"] == int(seed)
        assert {"python", "nproc", "commit", "samples"} <= set(details)
        digests += details["report_sha256"]
    assert len(set(digests)) == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_rejects_a_wrong_answer(name):
    size = WORKLOADS[name].smoke
    system = PresentationDocument.from_json(WORKLOADS[name].document_json(True)).build().system
    _report, facts = WORKLOADS[name].pipeline(system, size.params)
    assert size.oracle(facts) == []
    if "table" in facts:
        facts["table"][1] = {1: 99}
    else:
        facts["counts"][2] += 1
    assert size.oracle(facts)


def test_runner_without_package_source_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "betti-small", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_refclock_takes_bursts_out_of_a_span():
    clock = refclock.RefClock()
    clock.run(0.002)
    try:
        mark, start = clock.mark(), time.monotonic()
        refclock.kernel(5000)
        program, normalized = clock.since(start, mark)
        elapsed = time.monotonic() - start
    finally:
        clock.stop()
    assert clock.rounds > 0
    assert 0 < program < elapsed
    assert normalized > 0
