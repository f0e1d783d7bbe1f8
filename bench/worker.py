"""One benchmark sample in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SIZE MODE SPAWNED_AT

SIZE is full or smoke.  MODE is setup (import and load only), plain, or
traced.  SPAWNED_AT is run.py's time.monotonic() just before it started
this process, so that set-up time counts the interpreter start.  Prints one
JSON object on stdout.

Both timed spans, set-up and the pipeline, run under a RefClock
(refclock.py): reference bursts every SETUP_INTERVAL_S or JOB_INTERVAL_S
seconds give the host's speed during the span, and each span is reported
raw (bursts taken out) and normalized to the nominal host speed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from refclock import RefClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_INTERVAL_S = 0.01  # set-up takes ~0.09 s; bursts cost ~10 % of it
JOB_INTERVAL_S = 0.05  # the pipeline takes seconds; bursts cost ~2 % of it


def import_package():
    """Import anickres from the checkout's own source tree, or exit 2."""
    if not (SRC / "anickres" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'anickres'}")
    sys.path.insert(0, str(SRC))
    import anickres

    if Path(anickres.__file__).resolve().parent != SRC / "anickres":
        sys.exit(f"error: anickres was imported from {anickres.__file__}, not {SRC}")


def run_sample(name: str, smoke: bool, mode: str, spawned_at: float) -> dict:
    clock = RefClock()
    clock.run(SETUP_INTERVAL_S)
    import_package()
    from tracer import Tracer
    from workloads import WORKLOADS

    from anickres.documents import PresentationDocument

    workload = WORKLOADS[name]
    size = workload.size(smoke)
    tracer = Tracer(clock.now) if mode == "traced" else None
    if tracer:
        tracer.install()
    loaded = PresentationDocument.from_json(workload.document_json(smoke)).build()
    raw_setup_s, setup_s = clock.since(spawned_at, (0.0, 0.0, 0))
    if mode == "setup":
        clock.stop()
        return {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "problems": []}

    clock.run(JOB_INTERVAL_S)
    mark, start = clock.mark(), time.monotonic()
    report, facts = workload.pipeline(loaded.system, size.params)
    canonical = report.to_json()
    raw_wall_s, wall_s = clock.since(start, mark)
    clock.stop()

    # the oracle is checked outside the timed span
    problems = size.oracle(facts)
    out = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "top_row": {str(d): c for d, c in facts.get("table", {}).get(3, {}).items()},
        "problems": problems,
    }
    if tracer:
        out["layers"] = tracer.layers(facts, len(loaded.system.rules))
    return out


def main(argv: list[str]) -> int:
    name, size, mode, spawned_at = argv
    result = run_sample(name, size == "smoke", mode, float(spawned_at))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
