"""Benchmark runner: runs one workload for a fixed time and reports metrics.

    python3 bench/run.py --workload betti-small --seed 1 --seconds 36 --trace 0

Every sample is a fresh interpreter (bench/worker.py), started one at a
time.  Sample i gets PYTHONHASHSEED = seed + i, so the samples of one run
already cover several hash seeds; their canonical reports must agree byte
for byte.  With --trace 0 the run times a few set-ups alone, then whole
samples, and reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced samples and reports the per-layer metrics and the
tracing overhead.  --smoke runs the toy sizes once, for the benchmark's
own tests.

The times wall_s and setup_s are normalized to a nominal host speed
(refclock.py), because raw wall times on a shared host drift by more than
their bounds; the raw medians and samples are printed in the details line.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count worker
processes.  The exit code is 0 only when every worker passed; a run in
which no sample completed prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Workers import from compiled bytecode, as an installed package would;
# the cache lives in the checkout's build directory, whatever the caller's
# PYTHONDONTWRITEBYTECODE says, and a first unmeasured start fills it.
PYCACHE = ROOT / ".bench_build" / "pycache"
HARD_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 9  # set-up is short and noisy; take its median over more starts


def commit() -> str:
    """The checkout's commit from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("ratio", "yield", "overhead")):
        return "ratio"
    return "count"


def sample(name: str, smoke: bool, mode: str, hash_seed: int, timeout: float) -> dict:
    """Run one worker to completion; a crash or timeout is a failed sample."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, str(BENCH / "worker.py"), name, "smoke" if smoke else "full", mode]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            argv + [repr(spawned_at)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        result = {"problems": [f"sample timed out after {timeout:.0f} s"]}
    else:
        if proc.returncode == 0:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        else:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            result = {"problems": [f"worker exited {proc.returncode}: {tail[0]}"]}
    return {**result, "mode": mode, "hash_seed": hash_seed}


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run steps until the next one would overrun `seconds` (at least one).

    A step is one untraced sample, plus one traced sample when tracing.
    Every run first starts the set-up alone once to warm the bytecode
    cache; an untraced run then repeats it SETUP_REPEATS times.
    Returns (set-up samples, warm-up first; untraced samples; traced samples).
    """
    start = time.monotonic()
    repeats = 0 if trace or smoke else SETUP_REPEATS
    setups = [sample(name, smoke, "setup", seed, HARD_LIMIT_S) for _ in range(1 + repeats)]
    plain, traced = [], []
    longest = 0.0
    while True:
        step_start = time.monotonic()
        for mode, bucket in (("plain", plain), ("traced", traced))[: 1 + trace]:
            remaining = HARD_LIMIT_S - (time.monotonic() - start)
            hash_seed = (seed + len(plain) + len(traced)) % 2**32
            bucket.append(sample(name, smoke, mode, hash_seed, max(remaining, 1.0)))
        longest = max(longest, time.monotonic() - step_start)
        elapsed = time.monotonic() - start
        if smoke or elapsed + longest > min(seconds, HARD_LIMIT_S):
            return setups, plain, traced


def judge(samples: list[dict]) -> list[dict]:
    """Failed samples: oracle problems, crashes, timeouts, or a canonical
    report that differs from the first one."""
    reference = next((s["report_sha256"] for s in samples if "report_sha256" in s), None)
    return [
        s
        for s in samples
        if s["problems"] or s.get("report_sha256", reference) != reference
    ]


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples if key in s)


def main(argv=None) -> int:
    worker.import_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, one step")
    args = parser.parse_args(argv)

    setups, plain, traced = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    samples = setups + plain + traced
    failed = judge(samples)
    for s in failed:
        why = s["problems"] or ["canonical report differs"]
        print(f"{s['mode']} sample with PYTHONHASHSEED={s['hash_seed']} failed: {why}")
    ok_plain = [s for s in plain if "wall_s" in s]
    ok_traced = [s for s in traced if "layers" in s]
    if not ok_plain or (args.trace and not ok_traced):
        print("error: no sample completed", file=sys.stderr)
        return 1

    if args.trace:
        # median_low keeps counts whole; they repeat exactly from sample to sample
        metrics = {
            key: statistics.median_low(s["layers"][key] for s in ok_traced)
            for key in ok_traced[0]["layers"]
        }
        metrics["trace_overhead"] = (
            median_of(ok_traced, "wall_s") / median_of(ok_plain, "wall_s") - 1
        )
    else:
        metrics = {
            "wall_s": median_of(ok_plain, "wall_s"),
            "setup_s": median_of(setups[1:] + ok_plain, "setup_s"),
            "peak_rss_mb": median_of(ok_plain, "peak_rss_mb"),
        }

    details = {
        "workload": args.workload,
        "smoke": args.smoke,
        "seed": args.seed,
        "hash_seeds": [s["hash_seed"] for s in plain + traced],
        "samples": {"setup": len(setups), "untraced": len(plain), "traced": len(traced)},
        "wall_s_samples": [s.get("wall_s") for s in plain + traced],
        "raw_wall_s_samples": [s.get("raw_wall_s") for s in plain + traced],
        "raw_setup_s": median_of(setups[1:] + ok_plain, "raw_setup_s"),
        "fail_ratio": len(failed) / len(samples),
        "report_sha256": sorted({s["report_sha256"] for s in samples if "report_sha256" in s}),
        "betti_top_row_bound": ok_plain[0]["top_row"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
    }
    for key, value in metrics.items():
        print(f"{key:36s} {value:.6g} {unit_of(key)}")
    print("details " + json.dumps(details, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
