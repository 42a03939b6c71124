"""Acceptance gate: the eight headline guarantees at desk scale.

Each test prints one PASS/FAIL line.  Tolerances: LP feasibility 1e-9
with lattice snapping; every ratio comparison is exact over Fractions.
"""

import random
import time
from fractions import Fraction

import pytest

from maxminalloc import clp, exact, flowkit, gen, lazysearch, treesearch
from maxminalloc.model import Epsilon, LatticeValue, min_value

from oracles import (
    brute_disjoint_paths,
    brute_min_knapsack,
    naive_opt,
)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def exact_opts(corpus):
    return [exact.opt(inst)[0] for inst in corpus]


class Violations:
    """Collects invariant violations across the solver-heavy criteria."""

    count = 0
    runs = 0

    @classmethod
    def run(cls, fn):
        cls.runs += 1
        try:
            return fn()
        except (AssertionError, treesearch.CertificationError):
            cls.count += 1
            raise


def test_criterion_1_hardness_dichotomy():
    start = time.perf_counter()
    checked = 0
    for p, q in [(1, 2), (1, 3)]:
        eps = Epsilon(p, q)
        for size in range(1, 5):
            for seed in range(3):
                h, _ = gen.gen_3dm_yes(size, extra_edges=3, seed=seed)
                t0 = time.perf_counter()
                v, _ = exact.opt(gen.reduce_3dm(h, eps))
                assert time.perf_counter() - t0 < 10
                assert v.as_fraction(eps) == 2 * eps.fraction, (size, seed, eps)
                checked += 1
                if size >= 2:
                    hn = gen.gen_3dm_no(size, seed=seed)
                    v, _ = exact.opt(gen.reduce_3dm(hn, eps))
                    assert v.as_fraction(eps) <= eps.fraction, (size, seed, eps)
                    checked += 1
    report(1, True, f"OPT dichotomy exact on {checked} 3DM reductions "
                    f"({time.perf_counter() - start:.1f}s)")


def test_criterion_2_gap_two_witness():
    start = time.perf_counter()
    eps = Epsilon(1, 2)
    inst, tstar, opt_v = gen.search_gap_witness(
        n_max=4, m_max=6, eps=eps, budget=2000, seed=0
    )
    elapsed = time.perf_counter() - start
    ok = (
        inst is not None
        and elapsed < 300
        and tstar.as_fraction(eps) == 2 * opt_v.as_fraction(eps)
    )
    report(2, ok, f"witness n={inst.n} m={inst.m} with T*={tstar.as_fraction(eps)}"
                  f" = 2*OPT ({elapsed:.1f}s)")


def test_criterion_3_integrality_gap_three(corpus, exact_opts):
    start = time.perf_counter()
    certified = 0
    for inst, opt_v in zip(corpus, exact_opts):
        eps = inst.epsilon
        tstar = clp.estimate_Tstar(inst)
        assert 3 * opt_v.as_fraction(eps) >= tstar.as_fraction(eps), "gap > 3"
        if tstar.is_zero():
            continue

        def certify():
            res = clp.solve_clp(inst, tstar)
            return treesearch.gap3_certify(inst, res, tstar)

        alloc = Violations.run(certify)
        achieved = min_value(inst, alloc).as_fraction(eps)
        assert 3 * achieved >= tstar.as_fraction(eps), "rounded value < T*/3"
        certified += 1
    elapsed = time.perf_counter() - start
    report(3, elapsed < 600,
           f"opt >= T*/3 on {len(corpus)} instances, {certified} certified "
           f"without stalls ({elapsed:.1f}s)")


def test_criterion_4_quasi_ratio(corpus, exact_opts):
    start = time.perf_counter()
    for inst, opt_v in zip(corpus, exact_opts):
        eps = inst.epsilon
        rep = Violations.run(lambda: treesearch.quasi_solve(inst))
        value = rep.value.as_fraction(eps)
        opt_f = opt_v.as_fraction(eps)
        assert value * (3 + 4 * eps.fraction) >= opt_f, "quasi below OPT/(3+4eps)"
        assert 4 * value >= opt_f, "combined value below OPT/4"
        assert not min_value(inst, rep.allocation).as_fraction(eps) < value
    elapsed = time.perf_counter() - start
    report(4, elapsed < 600,
           f"quasi >= OPT/(3+4eps) and >= OPT/4 on {len(corpus)} instances "
           f"({elapsed:.1f}s)")


def test_criterion_5_poly_ratio(corpus, exact_opts):
    start = time.perf_counter()
    for inst, opt_v in zip(corpus, exact_opts):
        eps = inst.epsilon
        rep = Violations.run(lambda: lazysearch.poly_solve(inst))
        assert 9 * rep.value.as_fraction(eps) >= opt_v.as_fraction(eps), \
            "poly below OPT/9"
        assert not min_value(inst, rep.allocation).as_fraction(eps) \
            < rep.value.as_fraction(eps)
    # small-eps corpus: plenty of lights so T = 3/2 certifies with k = 150
    from maxminalloc.model import Instance, Item, LIGHT, k_of

    eps = Epsilon(1, 100)
    ratios = []
    for n, m_light in [(3, 480), (4, 640)]:
        inst = Instance(
            eps, [Item(j, LIGHT) for j in range(m_light)],
            [list(range(m_light))] * n,
        )
        rep = Violations.run(lambda: lazysearch.poly_solve(inst))
        assert rep.certified_T is not None, "no certified probe at eps=1/100"
        k = k_of(rep.certified_T, eps)
        assert k >= 100, f"certified k={k} < 100"
        ratios.append(Fraction(k, rep.r))
        assert Fraction(k, rep.r) <= 6, f"k/r = {k}/{rep.r} > 6"
    elapsed = time.perf_counter() - start
    report(5, elapsed < 900,
           f"poly >= OPT/9 on {len(corpus)} instances; certified k/r "
           f"{[str(r) for r in ratios]} <= 6.0 at eps=1/100 ({elapsed:.1f}s)")


def test_criterion_6_baseline_ratio(corpus, exact_opts):
    for inst, opt_v in zip(corpus, exact_opts):
        eps = inst.epsilon
        value, alloc = flowkit.baseline_solve(inst)
        assert value.as_fraction(eps) >= eps.fraction * opt_v.as_fraction(eps)
        assert min_value(inst, alloc).key(eps) >= value.key(eps)
    report(6, True, f"baseline >= eps*OPT on {len(corpus)} instances")


def test_criterion_7_invariant_suites():
    # solver-internal assertions (signatures, Fact 1, counting bound,
    # parity/kind structure, heavy-cardinality preservation, allocation
    # validity) raise on violation; criteria 3-5 route through
    # Violations.run, so the gate is a zero count over all those runs.
    ok = Violations.count == 0 and Violations.runs > 400
    report(7, ok, f"{Violations.count} invariant violations across "
                  f"{Violations.runs} solver runs in criteria 3-5")


def test_criterion_8_oracle_equivalences(corpus):
    rng = random.Random(99)
    # separation oracle vs exhaustive enumeration
    mismatches = 0
    trials = 0
    while trials < 1000:
        inst = rng.choice(corpus)
        agent = rng.randrange(inst.n)
        if len(inst.interests[agent]) > 12:
            continue
        trials += 1
        z = [rng.uniform(0, 1) for _ in range(inst.m)]
        T = LatticeValue(rng.randint(0, 2), rng.randint(0, 4))
        want = brute_min_knapsack(inst, agent, T.as_fraction(inst.epsilon), z)
        try:
            got, _ = clp.separate(inst, agent, T, z)
        except clp.NoConfiguration:
            got = None
        if want is None or got is None:
            mismatches += want is not got
        elif abs(got - want) > 1e-9:
            mismatches += 1
    # disjoint paths vs brute force on <= 10-node digraphs
    path_mismatches = 0
    for _ in range(150):
        inst = gen.gen_random(4, 3, 1, rng.uniform(0.3, 1.0), Epsilon(1, 2),
                              rng.randrange(2**30))
        matching = {
            i: j for i, j in flowkit.max_heavy_matching(inst).items()
            if rng.random() < 0.7
        }
        g = flowkit.ResidualDigraph(inst, matching)
        sources = [i for i in range(inst.n) if rng.random() < 0.5]
        sinks = [i for i in range(inst.n) if rng.random() < 0.5]
        got = flowkit.disjoint_paths(g, sources, sinks).value
        if got != brute_disjoint_paths(inst, matching, sources, sinks):
            path_mismatches += 1
    # exact solver vs naive enumeration
    exact_mismatches = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 12 // n)
        mh = rng.randint(0, m)
        inst = gen.gen_random(n, mh, m - mh, rng.uniform(0.2, 1.0),
                              Epsilon(1, rng.randint(2, 4)), rng.randrange(2**30))
        v, _ = exact.opt(inst)
        if v.as_fraction(inst.epsilon) != naive_opt(inst):
            exact_mismatches += 1
    ok = mismatches == 0 and path_mismatches == 0 and exact_mismatches == 0
    report(8, ok, f"separation {mismatches}/1000, paths {path_mismatches}/150, "
                  f"exact {exact_mismatches}/60 mismatches")
