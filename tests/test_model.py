import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from maxminalloc import clp
from maxminalloc.model import (
    HEAVY,
    LIGHT,
    Epsilon,
    Instance,
    Item,
    LatticeValue,
    ParseError,
    k_of,
    last_feasible,
    lattice_values,
    lights_needed,
    min_value,
    minimal_count_pairs,
    packing_cap,
    parse_allocation,
    parse_instance,
    serialize_allocation,
    serialize_instance,
    verify_allocation,
)
from maxminalloc.treesearch import t_probe_candidates


def tiny_instance(eps="1/2"):
    text = (
        '{"epsilon": "%s", "items": [{"id": 0, "kind": "heavy"}],'
        ' "agents": [{"id": 0, "interests": [0]}]}' % eps
    )
    return text.encode()


class TestEpsilon:
    def test_parse_and_reduce(self):
        e = Epsilon.parse("2/4")
        assert (e.numerator, e.denominator) == (1, 2)
        assert e.fraction == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["3/2", "0/5", "1/1", "-1/2", "1/-3"])
    def test_out_of_range(self, bad):
        with pytest.raises(ParseError, match="epsilon"):
            Epsilon.parse(bad)

    def test_garbage(self):
        with pytest.raises(ParseError):
            Epsilon.parse("one half")


class TestLatticeValue:
    def test_key_matches_fraction_order(self):
        rng = random.Random(0)
        for _ in range(10_000):
            q = rng.randint(2, 40)
            p = rng.randint(1, q - 1)
            if math.gcd(p, q) != 1:
                continue
            eps = Epsilon(p, q)
            a = LatticeValue(rng.randint(0, 6), rng.randint(0, 30))
            b = LatticeValue(rng.randint(0, 6), rng.randint(0, 30))
            fa = a.h + a.l * Fraction(p, q)
            fb = b.h + b.l * Fraction(p, q)
            assert (a.key(eps) < b.key(eps)) == (fa < fb)
            assert (a.key(eps) == b.key(eps)) == (fa == fb)
            assert a.as_fraction(eps) == fa

    def test_k_of_and_lights_needed(self):
        rng = random.Random(1)
        for _ in range(10_000):
            q = rng.randint(2, 30)
            p = rng.randint(1, q - 1)
            eps = Epsilon(p, q)  # reduces itself
            T = LatticeValue(rng.randint(0, 3), rng.randint(0, 20))
            t = T.as_fraction(eps)
            if t > 0:
                assert k_of(T, eps) == math.ceil(t / eps.fraction)
            h = rng.randint(0, 4)
            want = lights_needed(T, eps, h)
            assert h + want * eps.fraction >= t
            assert want == 0 or h + (want - 1) * eps.fraction < t

    def test_k_of_rejects_zero(self):
        with pytest.raises(ValueError):
            k_of(LatticeValue(0, 0), Epsilon(1, 2))


class TestParsing:
    def test_smallest_instance(self):
        inst = parse_instance(tiny_instance())
        assert inst.n == 1 and inst.m == 1
        assert inst.b1(0) == (0,)

    def test_round_trip(self):
        inst = parse_instance(tiny_instance())
        again = parse_instance(serialize_instance(inst))
        assert again.interests == inst.interests
        assert again.items == inst.items
        assert again.epsilon == inst.epsilon

    def test_epsilon_range_error(self):
        with pytest.raises(ParseError, match="epsilon out of range"):
            parse_instance(tiny_instance(eps="3/2"))

    def test_unknown_item_id(self):
        text = (
            b'{"epsilon": "1/2", "items": [{"id": 0, "kind": "heavy"}],'
            b' "agents": [{"id": 0, "interests": [0, 1]}]}'
        )
        with pytest.raises(ParseError, match="unknown item id 1"):
            parse_instance(text)

    def test_duplicate_item_id(self):
        text = (
            b'{"epsilon": "1/2", "items": [{"id": 0, "kind": "heavy"},'
            b' {"id": 0, "kind": "light"}], "agents": [{"id": 0, "interests": []}]}'
        )
        with pytest.raises(ParseError, match="duplicate item id"):
            parse_instance(text)

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="malformed"):
            parse_instance(b"{nope")

    def test_empty_interest_agent_preserved(self):
        inst = Instance(
            Epsilon(1, 3),
            [Item(0, LIGHT)],
            [[0], []],
        )
        again = parse_instance(serialize_instance(inst))
        assert again.interests[1] == frozenset()

    def test_allocation_round_trip(self):
        alloc = {0: frozenset({1, 2}), 3: frozenset()}
        assert parse_allocation(serialize_allocation(alloc)) == alloc


class TestVerifyAndMinValue:
    def setup_method(self):
        self.inst = Instance(
            Epsilon(1, 2),
            [Item(0, HEAVY), Item(1, LIGHT), Item(2, LIGHT)],
            [[0, 1], [1, 2]],
        )

    def test_valid(self):
        assert verify_allocation(self.inst, {0: frozenset({0}), 1: frozenset({1})}) == []

    def test_duplicate_item(self):
        msgs = verify_allocation(self.inst, {0: frozenset({1}), 1: frozenset({1})})
        assert any("duplicate item" in m for m in msgs)

    def test_not_interested(self):
        msgs = verify_allocation(self.inst, {0: frozenset({2})})
        assert any("not interested" in m for m in msgs)

    def test_min_value_counts_unassigned(self):
        assert min_value(self.inst, {0: frozenset({0})}) == LatticeValue(0, 0)

    def test_min_value_mixed_bundle(self):
        one_agent = Instance(
            Epsilon(1, 2),
            [Item(0, HEAVY), Item(1, LIGHT)],
            [[0, 1]],
        )
        assert min_value(one_agent, {0: frozenset({0, 1})}) == LatticeValue(1, 1)

    def test_min_value_rejects_invalid(self):
        with pytest.raises(ValueError, match="invalid allocation"):
            min_value(self.inst, {0: frozenset({2})})


class TestLattice:
    def test_values_sorted_unique(self):
        inst = Instance(
            Epsilon(1, 2),
            [Item(0, HEAVY), Item(1, LIGHT), Item(2, LIGHT)],
            [[0, 1, 2]],
        )
        vals = lattice_values(inst)
        eps = inst.epsilon
        keys = [v.key(eps) for v in vals]
        assert keys == sorted(set(keys))
        # 1 == 2*eps here, so the duplicate key collapses
        assert LatticeValue(0, 2) in vals and LatticeValue(1, 0) not in vals
        fracs = {v.as_fraction(eps) for v in vals}
        assert fracs == {Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)}

    @given(st.integers(0, 6), st.integers(0, 12), st.integers(1, 8), st.integers(2, 9),
           st.fractions(-1, 8, max_denominator=7))
    @example(2, 5, 2, 3, Fraction(3, 2))
    @example(3, 9, 3, 7, Fraction(3, 2))
    def test_cap_filters_the_full_lattice(self, H, L, p, q, cap):
        # with p > 1 the h = 0 and h = 1 values interleave below 3/2
        eps = Epsilon(p, q) if p < q else Epsilon(1, q)
        items = [Item(j, HEAVY) for j in range(H)] + [Item(H + j, LIGHT) for j in range(L)]
        inst = Instance(eps, items, [[]])
        full = lattice_values(inst)
        assert lattice_values(inst, cap) == [v for v in full if v.as_fraction(eps) <= cap]
        positive = [v for v in full if 0 < v.as_fraction(eps) <= Fraction(3, 2)]
        assert t_probe_candidates(inst) == positive


class TestMinimalCountPairs:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 5), st.integers(2, 9), st.integers(0, 4), st.integers(0, 8),
           st.integers(0, 4), st.integers(0, 10), st.data())
    def test_brute_force_and_separate(self, p, q, H, L, th, tl, data):
        eps = Epsilon(p, q) if p < q else Epsilon(1, q)
        T = LatticeValue(th, tl)

        def reaches(h, l):
            return h >= 0 and l >= 0 and LatticeValue(h, l).key(eps) >= T.key(eps)

        want = [(h, l) for h in range(H + 1) for l in range(L + 1)
                if reaches(h, l) and not reaches(h - 1, l) and not reaches(h, l - 1)]
        pairs = minimal_count_pairs(T, eps, H, L)
        assert pairs == want
        # separate walks these pairs: it finds no configuration iff there are none
        items = [Item(j, HEAVY) for j in range(H)] + [Item(H + j, LIGHT) for j in range(L)]
        inst = Instance(eps, items, [range(H + L)])
        z = data.draw(st.lists(st.floats(0, 1), min_size=H + L, max_size=H + L))
        try:
            _, bundle = clp.separate(inst, 0, T, z)
        except clp.NoConfiguration:
            assert pairs == []
        else:
            value = inst.bundle_value(bundle)
            assert (value.h, value.l) in pairs


class TestPackingCap:
    def test_hand_instances(self):
        heavy_light = [Item(0, HEAVY), Item(1, LIGHT)]
        # W = 7/5 over 2 agents: floor(7/2) = 3, which no lattice key equals
        assert packing_cap(Instance(Epsilon(2, 5), heavy_light, [[0, 1], [0, 1]])) == 3
        # an agent that wants nothing caps everything at 0
        assert packing_cap(Instance(Epsilon(1, 6), heavy_light, [[0, 1], []])) == 0
        # heavy item 2 is wanted by nobody, so W = 4/3, not 7/3
        items = heavy_light + [Item(2, HEAVY)]
        assert packing_cap(Instance(Epsilon(1, 3), items, [[0, 1], [0, 1]])) == 2
        # agent 1 reaches only 1/3 although W/n = 2/3
        assert packing_cap(Instance(Epsilon(1, 3), items, [[0, 1], [1]])) == 1


class TestLastFeasible:
    @staticmethod
    def run(n, passing):
        """Search range(n) where the first `passing` values pass; payload v*10."""
        seen = []

        def probe(v):
            seen.append(v)
            return v * 10 if v < passing else None

        return last_feasible(range(n), probe), seen

    def test_agrees_with_linear_scan(self):
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randint(0, 40)
            passing = rng.randint(0, n)
            (idx, payload), seen = self.run(n, passing)
            want = max((v for v in range(n) if v < passing), default=-1)
            assert idx == want
            assert payload == (None if want < 0 else want * 10)
            assert len(set(seen)) == len(seen) <= n.bit_length()

    def test_all_fail_and_all_pass(self):
        assert self.run(9, 0) == ((-1, None), [4, 1, 0])
        assert self.run(9, 9) == ((8, 80), [4, 6, 7, 8])
        assert self.run(0, 0) == ((-1, None), [])

    def test_probe_sequence_is_the_midpoint_walk(self):
        # lo=0 hi=9: 4 passes, 7 fails, 5 and 6 pass
        assert self.run(10, 7) == ((6, 60), [4, 7, 5, 6])

    def test_payload_zero_counts_as_pass(self):
        # only None means "fails": falsy payloads such as 0 or {} still pass
        assert last_feasible(["a", "b", "c"], lambda v: 0 if v != "c" else None) == (1, 0)
