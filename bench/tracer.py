"""Per-layer tracing by wrapping the package's public functions.

Every wrapped call is a span; spans are aggregated in memory per layer
name (calls, inclusive time, self time) rather than stored one by one,
because the hot layers see hundreds of thousands of calls.  A span's self
time is its duration minus the time of the wrapped spans it caused.
Nothing inside the package is changed; the wrappers are installed on the
classes and modules of the running worker only.  Spans are read from the
clock given to Tracer, which in a worker is RefClock.now, so time spent in
reference bursts is left out.
"""

from __future__ import annotations

from collections import defaultdict


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # span times are read from this clock
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.matrix_keys: set[tuple[int, int]] = set()
        self.rank_cells = 0
        self.max_matrix_cells = 0
        self._children: list[float] = []  # child time of each open span

    def wrap(self, owner, attr: str, name: str, on_result=None):
        """Replace owner.attr by a function that records a `name` span."""
        original = getattr(owner, attr)
        calls, inclusive, self_time, children, clock = (
            self.calls,
            self.inclusive,
            self.self_time,
            self._children,
            self.clock,
        )

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = children.pop()
                calls[name] += 1
                inclusive[name] += elapsed
                self_time[name] += elapsed - nested
                if children:
                    children[-1] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)

    def install(self):
        """Wrap the layer boundaries named in the benchmark's README."""
        from anickres import resolution
        from anickres.anick import ResolutionPrefix
        from anickres.documents import PresentationDocument
        from anickres.resolution import GradedComplex
        from anickres.rewriting import RewritingSystem

        self.wrap(PresentationDocument, "from_json", "documents.load")
        self.wrap(PresentationDocument, "build", "documents.load")
        self.wrap(RewritingSystem, "__init__", "rewriting.system_init")
        self.wrap(RewritingSystem, "normal_form", "rewriting.nf")
        self.wrap(RewritingSystem, "normal_form_word", "rewriting.nf")
        self.wrap(RewritingSystem, "pair_obstruction", "rewriting.pair_obstruction")
        self.wrap(RewritingSystem, "complete", "rewriting.complete")
        self.wrap(RewritingSystem, "interreduce", "rewriting.interreduce")
        self.wrap(RewritingSystem, "irreducible_words", "rewriting.irreducible_words")
        self.wrap(ResolutionPrefix, "__init__", "anick.prefix")
        self.wrap(ResolutionPrefix, "verify_complex", "anick.verify_complex")
        self.wrap(ResolutionPrefix, "act", "anick.act")
        self.wrap(GradedComplex, "from_prefix", "anick.differentials")
        self.wrap(resolution, "minimalize", "resolution.minimalize")
        self.wrap(resolution, "generic_minimalize", "resolution.minimalize")
        self.wrap(GradedComplex, "verify_exactness", "resolution.exactness")
        self.wrap(GradedComplex, "differential_matrix", "resolution.matrix", self._on_matrix)
        # GradedComplex._rank looks rank_fp up in the module at call time
        self.wrap(resolution, "rank_fp", "resolution.rank", self._on_rank)

    def _on_matrix(self, args, mat):
        _self, level, d = args
        self.matrix_keys.add((level, d))
        cells = len(mat) * (len(mat[0]) if mat else 0)
        self.max_matrix_cells = max(self.max_matrix_cells, cells)

    def _on_rank(self, args, _rank):
        rows = args[0]
        self.rank_cells += len(rows) * (len(rows[0]) if rows else 0)

    def layers(self, facts: dict, rules_in: int) -> dict[str, float]:
        """The per-layer metrics of one traced run."""
        builds = self.calls["resolution.matrix"]
        pairs = self.calls["rewriting.pair_obstruction"]
        rules_added = facts.get("rules_added", 0)
        return {
            "documents.load_s": self.inclusive["documents.load"],
            "kostant.rules_in": rules_in,
            "rewriting.nf_calls": self.calls["rewriting.nf"],
            "rewriting.nf_s": self.self_time["rewriting.nf"],
            "rewriting.complete_s": self.inclusive["rewriting.complete"],
            "rewriting.systems_built": self.calls["rewriting.system_init"],
            "rewriting.pairs_reduced": pairs,
            "rewriting.rules_added": rules_added,
            "rewriting.pair_yield": rules_added / pairs if pairs else 0.0,
            "rewriting.interreduce_s": self.inclusive["rewriting.interreduce"],
            "rewriting.irreducible_words_calls": self.calls["rewriting.irreducible_words"],
            "rewriting.irreducible_words_s": self.inclusive["rewriting.irreducible_words"],
            "anick.prefix_s": self.inclusive["anick.prefix"],
            "anick.chains_2": facts.get("chains_2", 0),
            "anick.differentials_s": self.inclusive["anick.differentials"],
            "anick.verify_complex_s": self.inclusive["anick.verify_complex"],
            "anick.act_calls": self.calls["anick.act"],
            "anick.act_s": self.self_time["anick.act"],
            "resolution.minimalize_s": self.inclusive["resolution.minimalize"],
            "resolution.exactness_s": self.inclusive["resolution.exactness"],
            "resolution.matrix_builds": builds,
            "resolution.matrix_build_ratio": (
                builds / len(self.matrix_keys) if self.matrix_keys else 0.0
            ),
            "resolution.matrix_s": self.self_time["resolution.matrix"],
            "resolution.rank_calls": self.calls["resolution.rank"],
            "resolution.rank_s": self.inclusive["resolution.rank"],
            "resolution.rank_cells": self.rank_cells,
            "resolution.max_matrix_cells": self.max_matrix_cells,
        }
