"""Tests of the benchmark's own reference code and planted generator.

Run from the repository root:
    PYTHONPATH=src python -m pytest -q bench/test_reference.py
"""

import itertools
import random
from fractions import Fraction

import pytest

from maxminalloc import clp, gen
from maxminalloc.model import Epsilon, Instance, Item

import planted
import reference
import workloads


def tiny_instances(count, seed=7, max_n=4, max_m=7):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        mh = rng.randint(0, 3)
        ml = rng.randint(1, max_m - mh)
        eps = Epsilon(1, rng.randint(2, 4))
        out.append(gen.gen_random(n, mh, ml, rng.uniform(0.3, 1.0), eps,
                                  rng.randrange(2**30)))
    return out


def exhaustive_opt(inst):
    """Every item to any agent that wants it, or to nobody."""
    choices = [[None] + [i for i in range(inst.n) if j in inst.interests[i]]
               for j in range(inst.m)]
    best = Fraction(0)
    for pick in itertools.product(*choices):
        got = [Fraction(0)] * inst.n
        for j, i in enumerate(pick):
            if i is not None:
                got[i] += reference.item_weight(inst, j)
        best = max(best, min(got))
    return best


def test_checker_accepts_valid_and_rejects_corrupted_allocations():
    eps = Epsilon(1, 3)
    inst = Instance(eps, [Item(0, "heavy"), Item(1, "light"), Item(2, "light")],
                    [[0, 1], [1, 2]])
    good = {0: [0], 1: [1, 2]}
    assert reference.check_allocation(inst, good) == []
    assert reference.allocation_value(inst, good) == Fraction(2, 3)
    assert reference.allocation_value(inst, {0: [0, 1]}) == 0  # agent 1 holds nothing
    corrupted = [
        {0: [0, 1], 1: [1, 2]},  # item 1 given twice
        {0: [2], 1: [1]},        # agent 0 does not want item 2
        {0: [0], 1: [7]},        # unknown item
        {0: [0], 5: [1]},        # unknown agent
    ]
    for alloc in corrupted:
        assert reference.check_allocation(inst, alloc), alloc
        with pytest.raises(ValueError):
            reference.allocation_value(inst, alloc)


def test_brute_force_equals_exhaustive_enumeration():
    for inst in tiny_instances(40):
        assert reference.brute_force_opt(inst) == exhaustive_opt(inst)


def test_brute_force_stops_at_node_limit():
    inst = gen.gen_random(6, 4, 14, 1.0, Epsilon(1, 4), 0)
    with pytest.raises(reference.TooLarge):
        reference.brute_force_opt(inst, node_limit=50)


def test_cheapest_config_equals_enumeration():
    rng = random.Random(3)
    for inst in tiny_instances(30, seed=11):
        for agent in range(inst.n):
            price = [rng.random() for _ in range(inst.m)]
            T = rng.choice(reference.lattice(inst)[1:] or [Fraction(1)])
            bundles = [
                s for size in range(len(inst.interests[agent]) + 1)
                for s in itertools.combinations(sorted(inst.interests[agent]), size)
                if sum(reference.item_weight(inst, j) for j in s) >= T
            ]
            got = reference.cheapest_config(inst, agent, T, price)
            if not bundles:
                assert got is None
                continue
            want = min(sum(price[j] for j in s) for s in bundles)
            assert got is not None and abs(got[0] - want) < 1e-12
            assert sum(reference.item_weight(inst, j) for j in got[1]) >= T


def test_highs_tstar_lies_between_opt_and_three_opt():
    pytest.importorskip("scipy")
    for inst in tiny_instances(40, seed=5):
        opt = reference.brute_force_opt(inst)
        tstar = reference.tstar(inst)
        assert tstar in reference.lattice(inst)
        assert opt <= tstar <= 3 * opt, (opt, tstar)


def test_highs_tstar_equals_program_estimate():
    pytest.importorskip("scipy")
    for inst in tiny_instances(15, seed=9, max_n=5, max_m=10):
        assert reference.tstar(inst) == clp.estimate_Tstar(inst).as_fraction(inst.epsilon)


def test_planted_instances_of_the_workload_are_seeded_and_hold_their_plan():
    for n, q, k, noisy, _ in workloads.PLANTED_CASES:
        eps = Epsilon(1, q)
        inst, plan, value = planted.planted_instance(n, eps, k, 4, noisy)
        again, plan2, _ = planted.planted_instance(n, eps, k, 4, noisy)
        assert inst.interests == again.interests and plan == plan2
        other, _, _ = planted.planted_instance(n, eps, k, 5, noisy)
        assert other.interests != inst.interests
        assert value == min(1, Fraction(k, q))
        assert reference.allocation_value(inst, plan) == value
        heavy = {j for j in range(inst.m) if reference.is_heavy(inst, j)}
        assert len(heavy) == n // 2
        contested = False
        for agent, items in plan.items():
            if items <= heavy:  # heavy-planted agents want heavy items only
                assert inst.interests[agent] <= heavy
            else:
                contested |= bool(inst.interests[agent] - heavy - items)
        assert contested == noisy
