"""The benchmark's fixed workloads: a presentation document, the pipeline
run on it through the public API, and an oracle for its answer.

Each workload has a full size (the measured one) and a toy smoke size for
the benchmark's own tests.  Golden values were recorded from the package as
it stood when the benchmark was defined; the top row of a Betti table is
only an upper bound (chains stop at level 2), so it is reported but never
compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from anickres import checks, resolution
from anickres.anick import ResolutionPrefix
from anickres.documents import Report
from anickres.resolution import GradedComplex
from anickres.rewriting import RewritingSystem


def _str_keys(table: dict) -> dict:
    """JSON-ready copy of a nested int-keyed table."""
    return {
        str(k): (_str_keys(v) if isinstance(v, dict) else v) for k, v in table.items()
    }


def _gated_rows(table: dict) -> dict:
    """Betti rows 0-2; the top row (3) is only a bound."""
    return {lvl: table[lvl] for lvl in (0, 1, 2)}


# ---------------------------------------------------------------------
# pipelines: (system, size) -> (canonical report, facts for the oracle)
# ---------------------------------------------------------------------

def betti_small(system: RewritingSystem, size: dict) -> tuple[Report, dict]:
    """The CLI `betti` path: braid minimalization, table, exactness."""
    D = size["D"]
    prefix = ResolutionPrefix(system)
    gc = resolution.minimalize(GradedComplex.from_prefix(prefix))
    table = gc.betti_table(D)
    defects = gc.verify_exactness([-1, 0, 1], D)
    report = Report(
        "betti",
        {"D": D, "minimal": True, "l": size["l"]},
        {"exact": not defects},
        tables={"betti": _str_keys(table)},
    )
    return report, {"table": table, "defects": len(defects), "chains_2": len(prefix.chains[2])}


def resolve_big(system: RewritingSystem, size: dict) -> tuple[Report, dict]:
    """Interreduce, resolve, check d o d = 0, minimalize generically, check exactness."""
    D = size["D"]
    reduced = system.interreduce()
    prefix = ResolutionPrefix(reduced)
    complex_ok, problems = prefix.verify_complex()
    gc = resolution.generic_minimalize(GradedComplex.from_prefix(prefix))
    table = gc.betti_table(D)
    defects = gc.verify_exactness([-1, 0, 1], D)
    report = Report(
        "resolve",
        {"D": D, "minimal": True, **size["big"]},
        {"complex_ok": complex_ok, "exact": not defects},
        tables={"betti": _str_keys(table), "problems": {"d_compose_d": problems}},
    )
    facts = {
        "table": table,
        "defects": len(defects),
        "complex_ok": complex_ok,
        "chains_2": len(prefix.chains[2]),
    }
    return report, facts


def complete_oddp(system: RewritingSystem, size: dict) -> tuple[Report, dict]:
    """Degree-bounded critical-pair completion, then the truncated Hilbert function."""
    D = size["D"]
    completed = system.complete(D)
    counts = completed.irreducible_counts_by_degree(D)
    report = Report(
        "complete",
        {"degree_bound": D, "variant": "odd_p_n3", "index_bound": size["index_bound"]},
        {"complete_up_to": completed.complete_up_to},
        tables={
            "irreducible_counts": _str_keys(counts),
            "rules": [str(r) for r in completed.rules],
        },
    )
    facts = {
        "complete_up_to": completed.complete_up_to,
        "counts": counts,
        "rules_added": len(completed.rules) - len(system.rules),
    }
    return report, facts


# ---------------------------------------------------------------------
# oracles: facts -> list of problems (empty = verified)
# ---------------------------------------------------------------------

def _betti_oracle(expected: dict) -> Callable[[dict], list[str]]:
    def check(facts: dict) -> list[str]:
        problems = []
        if facts["defects"]:
            problems.append(f"{facts['defects']} exactness defects")
        if facts.get("complex_ok") is False:
            problems.append("d o d != 0")
        rows = _gated_rows(facts["table"])
        if rows != expected:
            problems.append(f"Betti rows 0-2 {rows} != expected {expected}")
        return problems

    return check


def _hilbert_oracle(D: int, expected: dict) -> Callable[[dict], list[str]]:
    def check(facts: dict) -> list[str]:
        problems = []
        if facts["complete_up_to"] != D:
            problems.append(f"complete_up_to {facts['complete_up_to']} != {D}")
        if facts["counts"] != expected:
            problems.append(f"irreducible counts {facts['counts']} != expected {expected}")
        return problems

    return check


@dataclass(frozen=True)
class Size:
    document: dict
    params: dict
    oracle: Callable[[dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: Callable[[RewritingSystem, dict], tuple[Report, dict]]
    full: Size
    smoke: Size

    def size(self, smoke: bool) -> Size:
        return self.smoke if smoke else self.full

    def document_json(self, smoke: bool) -> str:
        return json.dumps(self.size(smoke).document, sort_keys=True)


def _conj(index_bound: int) -> dict:
    return {
        "builtin": "conjectural",
        "params": {"variant": "odd_p_n3", "n": 3, "p": 3, "index_bound": index_bound},
    }


# Golden Hilbert functions of odd_p_n3 (p=3) completions; they do not
# depend on the order in which critical pairs are processed.
_ODDP_COUNTS_16 = {
    0: 1, 1: 2, 2: 4, 3: 6, 4: 11, 5: 20, 6: 34, 7: 60, 8: 105, 9: 184,
    10: 316, 11: 538, 12: 927, 13: 1594, 14: 2748, 15: 4726, 16: 8126,
}
_ODDP_COUNTS_9_INDEX_1 = {
    0: 1, 1: 2, 2: 4, 3: 6, 4: 11, 5: 20, 6: 34, 7: 60, 8: 105, 9: 182,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "betti-small",
            betti_small,
            full=Size(
                {"builtin": "small", "params": {"l": 4}},
                {"l": 4, "D": 18},
                _betti_oracle(_gated_rows(checks.expected_betti_table(18, 4))),
            ),
            smoke=Size(
                {"builtin": "small", "params": {"l": 2}},
                {"l": 2, "D": 8},
                _betti_oracle(_gated_rows(checks.expected_betti_table(8, 2))),
            ),
        ),
        Workload(
            "resolve-big-p3",
            resolve_big,
            full=Size(
                {"builtin": "big", "params": {"n": 4, "p": 3, "exponent_bound": 2}},
                {"big": {"n": 4, "p": 3, "exponent_bound": 2}, "D": 12},
                _betti_oracle({0: {0: 1}, 1: {1: 3}, 2: {2: 1, 3: 7, 6: 2, 9: 1}}),
            ),
            smoke=Size(
                {"builtin": "big", "params": {"n": 3, "p": 3, "exponent_bound": 2}},
                {"big": {"n": 3, "p": 3, "exponent_bound": 2}, "D": 6},
                _betti_oracle({0: {0: 1}, 1: {1: 2}, 2: {3: 4, 6: 1}}),
            ),
        ),
        Workload(
            "complete-oddp",
            complete_oddp,
            full=Size(_conj(2), {"index_bound": 2, "D": 16}, _hilbert_oracle(16, _ODDP_COUNTS_16)),
            smoke=Size(
                _conj(1), {"index_bound": 1, "D": 9}, _hilbert_oracle(9, _ODDP_COUNTS_9_INDEX_1)
            ),
        ),
    )
}
