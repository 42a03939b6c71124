import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxminalloc import clp, exact, gen
from maxminalloc.model import (
    Epsilon, Instance, Item, LIGHT, lattice_values, min_value, packing_cap,
)

from oracles import milp_opt, naive_opt


def random_tiny(rng):
    n = rng.randint(1, 3)
    m = rng.randint(1, 12 // n)
    mh = rng.randint(0, m)
    return gen.gen_random(n, mh, m - mh, rng.uniform(0.2, 1.0), Epsilon(1, rng.randint(2, 4)), rng.randrange(2**30))


class TestAgainstNaive:
    def test_matches_naive_enumeration(self):
        rng = random.Random(7)
        for _ in range(120):
            inst = random_tiny(rng)
            v, alloc = exact.opt(inst)
            assert v.as_fraction(inst.epsilon) == naive_opt(inst)
            assert min_value(inst, alloc).key(inst.epsilon) >= v.key(inst.epsilon)


@st.composite
def tiny_instances(draw):
    """random_tiny's shapes, drawn by hypothesis."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 12 // n))
    mh = draw(st.integers(0, m))
    return gen.gen_random(
        n, mh, m - mh, draw(st.floats(0.2, 1.0)), Epsilon(1, draw(st.integers(2, 4))),
        draw(st.integers(0, 2**30)),
    )


class TestOptProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(tiny_instances())
    def test_matches_naive_enumeration(self, inst):
        v, alloc = exact.opt(inst)
        assert v.as_fraction(inst.epsilon) == naive_opt(inst)
        assert min_value(inst, alloc).key(inst.epsilon) >= v.key(inst.epsilon)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(tiny_instances())
    def test_milp_oracle_matches_naive_enumeration(self, inst):
        # milp_opt is the OPT oracle of the instances too large for naive_opt
        assert milp_opt(inst) == naive_opt(inst)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(tiny_instances(), st.data())
    def test_upper_bound_keeps_the_answer(self, inst, data):
        v, _ = exact.opt(inst)
        upper = data.draw(st.sampled_from(
            [T for T in lattice_values(inst) if T.key(inst.epsilon) >= v.key(inst.epsilon)]))
        w, alloc = exact.opt(inst, upper=upper)
        assert w == v
        assert min_value(inst, alloc).key(inst.epsilon) >= v.key(inst.epsilon)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(tiny_instances())
    def test_tstar_as_upper_keeps_value_and_witness(self, inst):
        assert exact.opt(inst) == exact.opt(inst, upper=clp.estimate_Tstar(inst))

    def test_never_probes_above_the_cap(self, monkeypatch):
        probed, real = [], exact.feasible_at

        def counted(inst, T, size_cap):
            probed.append(T.key(inst.epsilon))
            return real(inst, T, size_cap)

        monkeypatch.setattr(exact, "feasible_at", counted)
        rng = random.Random(8)
        for _ in range(60):
            inst = random_tiny(rng)
            del probed[:]
            exact.opt(inst)
            assert probed and max(probed) <= packing_cap(inst)


class TestFeasibility:
    def test_monotone_in_T(self):
        rng = random.Random(9)
        for _ in range(20):
            inst = random_tiny(rng)
            flags = [exact.feasible_at(inst, t)[0] for t in lattice_values(inst)]
            # once infeasible, stays infeasible (lattice is sorted ascending)
            assert flags == sorted(flags, reverse=True)

    def test_witness_meets_value(self):
        inst = gen.gen_random(3, 2, 5, 0.8, Epsilon(1, 3), 42)
        v, _ = exact.opt(inst)
        ok, witness = exact.feasible_at(inst, v)
        assert ok and min_value(inst, witness).key(inst.epsilon) >= v.key(inst.epsilon)

    def test_empty_interest_agent(self):
        inst = Instance(Epsilon(1, 2), [Item(0, LIGHT)], [[0], []])
        v, _ = exact.opt(inst)
        assert v.is_zero()


class TestSizeCap:
    def test_reject_large(self):
        inst = gen.gen_random(2, 0, 30, 1.0, Epsilon(1, 2), 0)
        with pytest.raises(exact.InstanceTooLarge):
            exact.opt(inst)

    def test_cap_override(self):
        inst = gen.gen_random(2, 0, 14, 1.0, Epsilon(1, 2), 0)
        v, _ = exact.opt(inst, size_cap=14)
        assert v.as_fraction(inst.epsilon) == Fraction(7, 2)  # 7 lights each
