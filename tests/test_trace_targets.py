"""The benchmark's tracer must find every function and method it wraps.

`bench/spans.py` names its targets by owner and attribute; a renamed or
deleted target would otherwise only show when `bench/run.py --trace 1`
runs.
"""

import importlib
import sys
from pathlib import Path

from maxminalloc import flowkit
from maxminalloc.model import Epsilon, HEAVY, Instance, Item

BENCH = Path(__file__).resolve().parent.parent / "bench"


def package_bindings():
    """Every attribute of every loaded maxminalloc module."""
    return {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if name == "maxminalloc" or name.startswith("maxminalloc.")
        for key, value in vars(mod).items()
    }


def test_install_wraps_every_target_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    targets = spans._targets()
    originals = [getattr(owner, attr) for owner, attr, _, _ in targets]
    bindings = package_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr, name, _), original in zip(targets, originals):
            assert getattr(owner, attr).__wrapped__ is original, name
        # the flow layer's counters come from the wrapped class members
        inst = Instance(Epsilon(1, 2), [Item(0, HEAVY)], [[0], [0]])
        pf = flowkit.disjoint_paths(flowkit.ResidualDigraph(inst, {1: 0}), [0], [1])
        assert pf.value == 1 and not pf.would_increase(0)
    finally:
        tracer.uninstall()
    assert tracer.counters["flowkit.ResidualDigraph.builds"] == 1
    assert tracer.counters["flowkit.PathFlow.augment.calls"] == 2
    assert tracer.counters["flowkit.PathFlow.augment.hits"] == 1
    assert tracer.counters["flowkit.PathFlow.reachable_out_agents.calls"] == 1
    for (owner, attr, name, _), original in zip(targets, originals):
        assert getattr(owner, attr) is original, name
    assert package_bindings() == bindings
