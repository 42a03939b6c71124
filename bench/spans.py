"""Span tracing installed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
`maxminalloc` module namespace that binds it (so a name imported with
`from .flowkit import PathFlow` is wrapped too), and wraps traced methods
on their class.  Each call records a span (name, start, end, parent span,
operation id) in memory; `uninstall()` puts the originals back.

A span's self time is its duration minus the durations of its direct
children.  Spans are attributed to the layer named before the first dot.
Summed over all spans, the self times add up to the summed durations of
the root spans, the benchmark's operations ("bench.op"), by construction.
What that identity cannot show is time in package code that is not
wrapped: it is charged to the nearest wrapped caller, or to "bench" when
an operation calls it directly.  `bench.self_share`, the root spans' own
time over the traced wall time, measures the part charged to no layer.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from maxminalloc import (
    cli, clp, exact, flowkit, gen, lazysearch, model, simplex, treesearch,
)


def _targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, outcome) for every traced callable.

    The owner is a module for a function (wrapped wherever it is bound) or
    a class for a method.  `outcome` maps a return value to the suffix of
    an extra counter, or to None.
    """
    def matched(out):
        return "matched" if out == treesearch.MATCHED else None

    return [
        (simplex, "solve", "simplex.solve", None),
        (clp, "estimate_Tstar", "clp.estimate_Tstar", None),
        (clp, "solve_clp", "clp.solve_clp",
         lambda res: None if res.converged else "unconverged"),
        (clp, "separate", "clp.separate", None),
        (clp, "minimalize", "clp.minimalize", None),
        (clp, "build_support_hypergraph", "clp.build_support_hypergraph", None),
        (exact, "opt", "exact.opt", None),
        (exact, "feasible_at", "exact.feasible_at", None),
        (flowkit, "baseline_solve", "flowkit.baseline_solve", None),
        (flowkit, "count_feasible", "flowkit.count_feasible", None),
        (flowkit, "max_heavy_matching", "flowkit.max_heavy_matching", None),
        (flowkit.ResidualDigraph, "__init__", "flowkit.ResidualDigraph", None),
        (flowkit.PathFlow, "augment", "flowkit.PathFlow.augment",
         lambda ok: "hits" if ok else None),
        (flowkit.PathFlow, "reachable_out_agents",
         "flowkit.PathFlow.reachable_out_agents", None),
        (treesearch, "quasi_solve", "treesearch.quasi_solve", None),
        (treesearch, "gap3_certify", "treesearch.gap3_certify", None),
        (treesearch, "extend_matching", "treesearch.extend_matching", matched),
        (treesearch, "find_addable", "treesearch.find_addable", None),
        (treesearch, "contract", "treesearch.contract", None),
        (treesearch.TreeState, "check_structure", "treesearch.checks", None),
        (treesearch.TreeState, "check_signature_decreased", "treesearch.checks", None),
        (lazysearch, "poly_solve", "lazysearch.poly_solve", None),
        (lazysearch, "extend_matching_poly", "lazysearch.extend_matching_poly", matched),
        (lazysearch, "build_layer", "lazysearch.build_layer", None),
        (lazysearch, "compute_W", "lazysearch.compute_W", None),
        (lazysearch, "collapse", "lazysearch.collapse", None),
        (lazysearch.LazyState, "check_invariants", "lazysearch.check_invariants", None),
        (model, "min_value", "model.min_value", None),
        (model, "parse_instance", "model.io", None),
        (model, "serialize_instance", "model.io", None),
        (model, "parse_allocation", "model.io", None),
        (model, "serialize_allocation", "model.io", None),
        (gen, "gen_random", "gen.gen_random", None),
        (gen, "reduce_3dm", "gen.reduce_3dm", None),
        (gen, "gen_3dm_yes", "gen.gen_3dm_yes", None),
        (gen, "gen_3dm_no", "gen.gen_3dm_no", None),
        (gen, "search_gap_witness", "gen.search_gap_witness", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    ROOT = "bench.op"

    def __init__(self):
        self.names: List[str] = [self.ROOT]
        self.name_ids: Dict[str, int] = {self.ROOT: 0}
        # per span: name id, start, end, parent index (-1 for a root), op id
        self.spans: List[Tuple[int, float, float, int, int]] = []
        self.child_time: List[float] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._op = -1
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name_id, time.perf_counter(), 0.0, parent, self._op))
        self.child_time.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        end = time.perf_counter()
        name_id, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name_id, start, end, parent, op)
        self._stack.pop()
        if parent >= 0:
            self.child_time[parent] += end - start

    def run_op(self, op_id: int, fn: Callable):
        """Run one benchmark operation under a root span."""
        self._op = op_id
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)
            self._op = -1

    def _wrap(self, fn: Callable, name: str, outcome: Optional[Callable], count: str):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        counters = self.counters
        calls_key = name + "." + count

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
                counters[calls_key] += 1
            if outcome is not None:
                tag = outcome(out)
                if tag is not None:
                    counters[name + "." + tag] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "maxminalloc" or key.startswith("maxminalloc.")]
        for owner, attr, name, outcome in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, outcome,
                                 "builds" if attr == "__init__" else "calls")
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Calls, outcome counters and self times per span name and per layer,
        the traced wall time (sum of root spans) and the share of it that
        no layer took."""
        out: Dict[str, float] = dict(self.counters)
        self_by_name: Dict[str, float] = defaultdict(float)
        self_by_layer: Dict[str, float] = defaultdict(float)
        wall = 0.0
        for idx, (name_id, start, end, parent, _) in enumerate(self.spans):
            own = (end - start) - self.child_time[idx]
            name = self.names[name_id]
            self_by_name[name] += own
            self_by_layer[name.split(".", 1)[0]] += own
            if parent < 0:
                wall += end - start
        for name, value in self_by_name.items():
            out[name + ".self_s"] = value
        for layer, value in self_by_layer.items():
            out[layer + ".self_s"] = value
        out["trace.wall_s"] = wall
        if wall > 0:
            out["bench.self_share"] = self_by_name[self.ROOT] / wall
        return out

    def write(self, path):
        """Write every span as one CSV line: name,start,end,parent,op."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,op\n")
            for name_id, start, end, parent, op in self.spans:
                fh.write(f"{self.names[name_id]},{start:.9f},{end:.9f},{parent},{op}\n")
