"""Answer pins: sha256 digests of what the solvers answer on the
benchmark's workloads and on the test corpus, and of the work the
searches do there.

The pins hold answers byte for byte, so a change that only means to be
faster or simpler shows here if it moves any answer.  A change that
means to move answers re-pins: it replaces the digest here and gives
the reason in CHANGES.md.
"""
import collections
import hashlib
import importlib
import random

from maxminalloc import cli, clp, flowkit, gen, lazysearch, treesearch
from maxminalloc.model import Epsilon


def _digest(lines, end="\n"):
    return hashlib.sha256("".join(line + end for line in lines).encode()).hexdigest()


def _allocation(alloc):
    return sorted((a, sorted(s)) for a, s in alloc.items())


def _report(rep, eps):
    """algo, value, certified T, r, iterations, meta and allocation."""
    T = rep.certified_T and rep.certified_T.as_fraction(eps)
    return (f"{rep.algo} {rep.value.as_fraction(eps)} {T} {rep.r} "
            f"{rep.iterations} {sorted(rep.meta.items())} {_allocation(rep.allocation)}")


def test_desk_gap_witnesses(tmp_path):
    # the 54 gap searches of the benchmark's desk workload (seeds 0-53, eps
    # 1/2 to 1/6 by seed mod 5) through cli.main: the witness files'
    # bytes, concatenated, are pinned
    out = tmp_path / "gap.json"
    witnesses = []
    for r in range(54):
        eps = ["1/2", "1/3", "1/4", "1/5", "1/6"][r % 5]
        argv = ["generate", "gap-search", "--n", "4", "--m", "6", "--budget", "2000",
                "--eps", eps, "--seed", str(r), "--out", str(out)]
        assert cli.main(argv) == 0, argv
        witnesses.append(out.read_text())
    assert _digest(witnesses, end="") == (
        "d91ed4544c61c68ce66a996eb528b2ec7cdcd78bdb23cd88b176bb20b67dd0a9")


def test_lp_mid_answers():
    # the 60 instances of the benchmark's lp-mid workload at seeds 1 and 22
    # (bench/workloads.py): T*, the positive columns of solve_clp at T* and
    # the gap3_certify allocation
    lines = []
    for seed in (1, 22):
        rng = random.Random(seed)
        for _ in range(15):
            for eps in (Epsilon(1, 3), Epsilon(1, 4)):
                inst = gen.gen_random(12, 12, 24, 0.35, eps, rng.randrange(2**31))
                tstar = clp.estimate_Tstar(inst)
                res = clp.solve_clp(inst, tstar)
                lines.append(f"T* {tstar.as_fraction(eps)}")
                for col, mass in res.columns:
                    lines.append(f"{col.agent} {sorted(col.items)} {mass:.6f}")
                if not tstar.is_zero():
                    alloc = treesearch.gap3_certify(inst, res, tstar)
                    lines.append(repr(_allocation(alloc)))
    assert _digest(lines) == "e3c436c8a7fb49100d0518879367d01dc90b5ac48689ba72f83baca12f29b329"


def test_search_planted_answers(planted, monkeypatch):
    # the 48 instances of the benchmark's search-planted workload at seed 1,
    # solved by baseline_solve, quasi_solve and poly_solve.  Three digests:
    # each answer's value and allocation, the values alone (each answer
    # line cut to "algo value"), and the rest of each search report
    # (certified T, r, iterations and meta).  The work over these 144
    # solves is pinned too, as call counts: the top r answers every
    # planted probe, the searches call the count baseline only where
    # flowkit.baseline_ceiling shows it can win (12 of the 60
    # baseline_solve calls), and poly's PathFlow makes one residual
    # search per flow state it is asked about and none where its flow
    # is saturated.
    workloads = importlib.import_module("workloads")  # bench/, on planted's path
    calls = collections.Counter()
    for owner, name, label in [(treesearch, "_probe", "quasi _probe"),
                               (lazysearch, "_probe", "poly _probe"),
                               (lazysearch, "preprocess", "preprocess"),
                               (flowkit, "baseline_solve", "baseline_solve"),
                               (flowkit, "allocation_flow", "allocation_flow"),
                               (flowkit._Flow, "reachable", "_Flow.reachable")]:
        def counted(*args, real=getattr(owner, name), label=label, **kwargs):
            calls[label] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    lines, reports = [], []
    rng = random.Random(1)
    for _ in range(workloads.PLANTED_ROUNDS):
        for n, q, k, noisy, _ in workloads.PLANTED_CASES:
            inst, _, _ = planted.planted_instance(n, Epsilon(1, q), k,
                                                  rng.randrange(2**31), noisy)
            value, alloc = flowkit.baseline_solve(inst)
            answers = [("baseline", value, alloc)]
            for rep in (treesearch.quasi_solve(inst), lazysearch.poly_solve(inst)):
                answers.append((rep.algo, rep.value, rep.allocation))
                T = rep.certified_T and rep.certified_T.as_fraction(inst.epsilon)
                reports.append(f"{rep.algo} {T} {rep.r} {rep.iterations} "
                               f"{sorted(rep.meta.items())}")
            for algo, value, alloc in answers:
                lines.append(f"{algo} {value.as_fraction(inst.epsilon)} {_allocation(alloc)}")
    values = [" ".join(line.split(" ", 2)[:2]) for line in lines]
    assert _digest(lines) == "3629798a38418db815a8c0e1ea592a97e28a8cbcbf01c60dc0fb2fcb9c3de675"
    assert _digest(values) == "e518d952a993e9c0a7b9c6a49145eaa0b0fbaa2397104b77644a7b21c5809183"
    assert _digest(reports) == "1690cdc549d0b1ab7c6dad601ab54cc4b2fe1cb0d4d936c0f29f609611d2088f"
    assert calls == {"quasi _probe": 48, "poly _probe": 108, "preprocess": 48,
                     "baseline_solve": 60, "allocation_flow": 60, "_Flow.reachable": 1548}


def test_corpus_answers(corpus):
    # the 216 exact-solvable instances of conftest.small_corpus: every
    # quasi_solve report, every poly_solve value and every poly_solve report
    quasis, values, polys = [], [], []
    for inst in corpus:
        eps = inst.epsilon
        quasis.append(_report(treesearch.quasi_solve(inst), eps))
        rep = lazysearch.poly_solve(inst)
        polys.append(_report(rep, eps))
        values.append(str(rep.value.as_fraction(eps)))
    assert _digest(quasis) == "8fa98d9b71d020e713ba4605ee1b9bde9f8715ba32e104ef467b4c588089f432"
    assert _digest(values) == "a9e688190c140a3acfe028d84a344f2ce75df48d7b28dd1559fbd967d8b66254"
    assert _digest(polys) == "c7e809817767573125debcbb1fa8c5de174234e575cce1dff01132d22f645aaa"
