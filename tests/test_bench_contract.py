"""The benchmark's contract with the package: its tracer wraps public names
of the package, and its workloads run the pipelines through the public
API.  A rename of a traced or used name fails here, in the tier-1 suite,
and not only in the benchmark's own tests."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from anickres.documents import PresentationDocument

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = load_bench_module("tracer")
workloads = load_bench_module("workloads")


class RecordingTracer(tracer.Tracer):
    """A Tracer that records each attribute as it stood before its wrap."""

    def __init__(self, clock):
        super().__init__(clock)
        self.patched = []  # (owner, attr, the owner's own value before the wrap)

    def wrap(self, owner, attr, name, on_result=None):
        self.patched.append((owner, attr, vars(owner)[attr]))
        super().wrap(owner, attr, name, on_result)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_pipeline_passes_its_oracle(name):
    workload = workloads.WORKLOADS[name]
    size = workload.size(smoke=True)
    traced = RecordingTracer(clock=lambda: 0.0)
    try:
        traced.install()
        loaded = PresentationDocument.from_json(workload.document_json(smoke=True)).build()
        _report, facts = workload.pipeline(loaded.system, size.params)
        layers = traced.layers(facts, len(loaded.system.rules))
    finally:
        for owner, attr, original in reversed(traced.patched):
            setattr(owner, attr, original)
    assert size.oracle(facts) == []
    assert traced.calls["documents.load"] == 2
    assert layers["kostant.rules_in"] == len(loaded.system.rules)


# sha256 of each full-size pipeline's canonical report, `Report.to_json()`:
# the benchmark compares these bytes only across its own samples, so a
# change to any table, verdict or listed problem fails here
REPORT_SHA256 = {
    "betti-small": "09e4425ee6c42e41d8d0bdf0b8d0e2e1e43da0bd7ad857acc1bca5a6e53da377",
    "complete-oddp": "87b31c70d774135dee73c9741fe64fa93a13bd391380c040c02b92c4deac9413",
    "resolve-big-p3": "21fa0f2cb7fa1813bc87520513ee364058f812e6e957180857a13ec29ceaac87",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_size_pipeline_passes_its_oracle(name):
    # the only tier-1 run of each pipeline at the benchmark's own size
    workload = workloads.WORKLOADS[name]
    size = workload.size(smoke=False)
    loaded = PresentationDocument.from_json(workload.document_json(smoke=False)).build()
    report, facts = workload.pipeline(loaded.system, size.params)
    assert size.oracle(facts) == []
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_SHA256[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pipeline_calls_no_matrix_oracle(monkeypatch, name):
    # basis, differential_matrix and rank_fp are the checks' oracles: the
    # greedy ranks, the column counts and the augmentation's rank need none
    from anickres import resolution

    called = []

    def recording(owner, attr):
        original = getattr(owner, attr)

        def record(*args, **kwargs):
            called.append(attr)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, record)

    recording(resolution.GradedComplex, "basis")
    recording(resolution.GradedComplex, "differential_matrix")
    recording(resolution, "rank_fp")
    workload = workloads.WORKLOADS[name]
    size = workload.size(smoke=True)
    loaded = PresentationDocument.from_json(workload.document_json(smoke=True)).build()
    _report, facts = workload.pipeline(loaded.system, size.params)
    assert size.oracle(facts) == []
    assert called == []
