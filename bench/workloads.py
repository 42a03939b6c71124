"""The three benchmark workloads.

A workload is a list of rounds built from the seed; a round is a fixed
list of operations, and every run attempts whole rounds, so the share of
failed operations is the same in every run.  Operations call the public
functions of the package; `check` then tests the first outcome of every
operation against `reference` (computed apart from the package) or
against a bound the method guarantees, and returns the problems found and
the value ratios used by the `value_ratio` metric.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from maxminalloc import cli, clp, flowkit, gen, lazysearch, treesearch
from maxminalloc.model import Epsilon, Instance, Item

import planted
import reference


@dataclass
class Op:
    kind: str
    # called with the round's scratch dict, shared by the round's operations
    call: Callable[[dict], object]
    # False for the fault probe: attempted and counted, but not in round_s
    timed: bool = True


@dataclass
class Outcome:
    value: object = None
    error: Optional[str] = None  # exception name, or "exit<code>" from the CLI


@dataclass
class Workload:
    rounds: List[List[Op]]
    # first outcome per op, indexed [round][op] (None for a round not run)
    # -> (problems, value ratios)
    check: Callable[[List[List[Outcome]]], Tuple[List[str], List[Fraction]]]


def _frac(value, eps: Epsilon) -> Fraction:
    return value.as_fraction(eps)


def _keep(ctx: dict, key, value):
    """Store a result for the round's later operations and return it."""
    ctx[key] = value
    return value


# ---------------------------------------------------------------------------
# lp-mid: the configuration LP on mid-size random instances
# ---------------------------------------------------------------------------

LP_SHAPE = (12, 12, 24, 0.35)  # agents, heavy items, light items, density
LP_EPS = (Epsilon(1, 3), Epsilon(1, 4))
LP_ROUNDS = 15


def _certify(inst: Instance, tstar):
    res = clp.solve_clp(inst, tstar)
    if tstar.is_zero():
        return res, None
    return res, treesearch.gap3_certify(inst, res, tstar)


def lp_mid(seed: int) -> Workload:
    rng = random.Random(seed)
    n, mh, ml, density = LP_SHAPE
    insts: List[List[Instance]] = []
    rounds: List[List[Op]] = []
    for _ in range(LP_ROUNDS):
        batch = [gen.gen_random(n, mh, ml, density, eps, rng.randrange(2**31))
                 for eps in LP_EPS]
        ops = []
        for i, inst in enumerate(batch):
            ops.append(Op("estimate", lambda ctx, inst=inst, i=i:
                          _keep(ctx, i, clp.estimate_Tstar(inst))))
            ops.append(Op("certify", lambda ctx, inst=inst, i=i: _certify(inst, ctx[i])))
        insts.append(batch)
        rounds.append(ops)

    def check(outcomes):
        problems, ratios = [], []
        for r, batch in enumerate(insts):
            if outcomes[r] is None:
                continue
            for i, inst in enumerate(batch):
                est, cert = outcomes[r][2 * i], outcomes[r][2 * i + 1]
                if est.error or cert.error:
                    continue
                where = f"lp-mid round {r} instance {i}"
                eps = inst.epsilon
                tstar = _frac(est.value, eps)
                if not reference.is_tstar(inst, tstar):
                    problems.append(f"{where}: T* {tstar} != reference {reference.tstar(inst)}")
                res, alloc = cert.value
                if not res.feasible:
                    problems.append(f"{where}: CLP at T* reported infeasible")
                if alloc is None:
                    continue
                try:
                    value = reference.allocation_value(inst, alloc)
                except ValueError as exc:
                    problems.append(f"{where}: gap-3 allocation invalid: {exc}")
                    continue
                if 3 * value < tstar:
                    problems.append(f"{where}: 3*{value} < T* {tstar}")
                # The share of the gap-3 promise met: 1 unless 3*value < T*.
                # value / T* itself (about 0.6) spreads 5-10% over ten seeds
                # with the instances, too much to gate a ratio on.
                ratios.append(min(Fraction(1), 3 * value / tstar))
        return problems, ratios

    return Workload(rounds, check)


# ---------------------------------------------------------------------------
# search-planted: the local searches on planted-OPT instances
# ---------------------------------------------------------------------------

# (agents, 1/eps, light items per light-planted agent, noisy, solvers).
# Without light noise no light item is contested; with it the layered
# search builds and collapses layers, but quasi_solve then raises
# TreeInvariantError on some seeds and not others, so it runs only on the
# clean cases (see fault F1 in README.md).
CLEAN, NOISY = False, True
ALL_SOLVERS = ("baseline", "quasi", "poly")
PLANTED_CASES = [
    (40, 4, 4, CLEAN, ALL_SOLVERS),
    (40, 10, 10, CLEAN, ALL_SOLVERS),
    (40, 30, 15, CLEAN, ALL_SOLVERS),
    (60, 4, 4, CLEAN, ALL_SOLVERS),
    (60, 10, 10, CLEAN, ALL_SOLVERS),
    (60, 30, 15, CLEAN, ALL_SOLVERS),
    (40, 10, 10, NOISY, ("baseline", "poly")),
    (60, 10, 10, NOISY, ("baseline", "poly")),
]
PLANTED_ROUNDS = 6


def fault_f1_instance() -> Instance:
    """Seed-independent input on which quasi_solve raises TreeInvariantError."""
    return gen.gen_random(80, 40, 400, 0.05, Epsilon(1, 10), seed=0)


# Looked up on the module at call time, so that traced wrappers apply.
SOLVERS = {
    "baseline": lambda inst: flowkit.baseline_solve(inst),
    "quasi": lambda inst: treesearch.quasi_solve(inst),
    "poly": lambda inst: lazysearch.poly_solve(inst),
}


def _guarantee(kind: str, eps: Fraction, planted_value: Fraction) -> Fraction:
    if kind == "baseline":
        return eps * planted_value
    if kind == "quasi":
        return planted_value / (3 + 4 * eps)
    return planted_value / 9


def search_planted(seed: int) -> Workload:
    rng = random.Random(seed)
    f1 = fault_f1_instance()
    cases = []  # per round: (instance, planted value, solver) per operation
    rounds: List[List[Op]] = []
    for _ in range(PLANTED_ROUNDS):
        batch = []
        for n, q, k, noisy, solvers in PLANTED_CASES:
            inst, _, value = planted.planted_instance(n, Epsilon(1, q), k,
                                                      rng.randrange(2**31), noisy)
            batch += [(inst, value, kind) for kind in solvers]
        ops = [Op(kind, lambda ctx, inst=inst, fn=SOLVERS[kind]: fn(inst))
               for inst, _, kind in batch]
        ops.append(Op("quasi-f1", lambda ctx: treesearch.quasi_solve(f1), timed=False))
        cases.append(batch)
        rounds.append(ops)

    def check(outcomes):
        problems, ratios = [], []
        for r, batch in enumerate(cases):
            if outcomes[r] is None:
                continue
            for c, (inst, planted_value, kind) in enumerate(batch):
                out = outcomes[r][c]
                if out.error:
                    continue
                where = f"search-planted round {r} op {c} {kind}"
                if kind == "baseline":
                    reported, alloc = out.value
                else:
                    reported, alloc = out.value.value, out.value.allocation
                try:
                    value = reference.allocation_value(inst, alloc)
                except ValueError as exc:
                    problems.append(f"{where}: invalid allocation: {exc}")
                    continue
                if value != _frac(reported, inst.epsilon):
                    problems.append(f"{where}: reported {_frac(reported, inst.epsilon)}"
                                    f" but allocation is worth {value}")
                bound = _guarantee(kind, reference.eps_of(inst), planted_value)
                if value < bound:
                    problems.append(f"{where}: value {value} < guarantee {bound}")
                if kind != "baseline":  # held at eps by the construction
                    ratios.append(value / planted_value)
            probe = outcomes[r][-1]
            if probe.error is None:  # fault F1 mended: check the answer it now gives
                try:
                    value = reference.allocation_value(f1, probe.value.allocation)
                except ValueError as exc:
                    problems.append(f"quasi-f1 round {r}: invalid allocation: {exc}")
                    continue
                if value != _frac(probe.value.value, f1.epsilon):
                    problems.append(f"quasi-f1 round {r}: reported value is wrong")
        return problems, ratios

    return Workload(rounds, check)


# ---------------------------------------------------------------------------
# desk: the command line, in process, on exact-solvable instances
# ---------------------------------------------------------------------------

DESK_SHAPES = [(3, 2, 6), (3, 4, 8), (4, 3, 7), (4, 6, 6), (5, 2, 8), (5, 5, 7)]
DESK_EPS = ["1/2", "1/3", "1/4"]
DESK_DENSITIES = ["0.3", "0.6", "1.0"]
DESK_3DM_SIZES = [2, 3, 4, 5, 6, 7]
DESK_3DM_EPS = ["1/2", "1/3"]
DESK_GAP_EPS = ["1/2", "1/3", "1/4", "1/5", "1/6"]
DESK_ROUNDS = 54  # every shape x density x eps once


class CliExit(Exception):
    """The command line returned a nonzero exit code."""


def run_cli(argv: List[str]) -> Tuple[str, str]:
    """Run `maxminalloc <argv>` in process; return (stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse and input errors exit this way
            code = exc.code
    if code != 0:
        raise CliExit(f"exit{code}")
    return out.getvalue(), err.getvalue()


def read_instance(path: Path) -> Instance:
    """Parse an instance file without the package's parser."""
    doc = json.loads(path.read_text())
    eps = Epsilon(*map(int, doc["epsilon"].split("/")))
    items = [Item(it["id"], it["kind"]) for it in sorted(doc["items"], key=lambda it: it["id"])]
    agents = sorted(doc["agents"], key=lambda ag: ag["id"])
    return Instance(eps, items, [ag["interests"] for ag in agents])


def read_allocation(path: Path) -> Dict[int, List[int]]:
    doc = json.loads(path.read_text())
    return {int(a): list(js) for a, js in doc["assignment"].items()}


def desk(seed: int, work_dir: Path) -> Workload:
    # Shape, size and eps cycle with the round index, so that every seed
    # gets the same mix and only the generators' seeds vary with it.
    rng = random.Random(seed)
    cases = []  # per round: list of (family, instance path, allocation path)
    rounds: List[List[Op]] = []
    for r in range(DESK_ROUNDS):
        n, mh, ml = DESK_SHAPES[r % len(DESK_SHAPES)]
        size = DESK_3DM_SIZES[r % len(DESK_3DM_SIZES)]
        gens = [
            ("random", ["random", "--n", str(n), "--m-heavy", str(mh), "--m-light", str(ml),
                        "--density", DESK_DENSITIES[r // len(DESK_SHAPES) % len(DESK_DENSITIES)],
                        "--eps", DESK_EPS[r // 18 % len(DESK_EPS)]]),
            ("3dm-yes", ["3dm-yes", "--size", str(size), "--extra-edges", "3",
                         "--eps", DESK_3DM_EPS[r % len(DESK_3DM_EPS)]]),
            ("3dm-no", ["3dm-no", "--size", str(size),
                        "--eps", DESK_3DM_EPS[r % len(DESK_3DM_EPS)]]),
            ("gap-search", ["gap-search", "--n", "4", "--m", "6", "--budget", "2000",
                            "--eps", DESK_GAP_EPS[r % len(DESK_GAP_EPS)]]),
        ]
        batch, ops = [], []
        for family, args in gens:
            inst_path = work_dir / f"r{r}-{family}.json"
            alloc_path = work_dir / f"r{r}-{family}.alloc.json"
            batch.append((family, inst_path, alloc_path))
            # A gap search's time varies fourfold with its seed, and it is most
            # of a round, so its seeds are fixed: the round index.
            gen_seed = r if family == "gap-search" else rng.randrange(2**31)
            argv = ["generate"] + args + ["--seed", str(gen_seed), "--out", str(inst_path)]
            solve = ["solve", str(inst_path), "--algo", "auto", "--out", str(alloc_path)]
            ops += [
                Op("cli-generate", lambda ctx, argv=argv: run_cli(argv)),
                Op("cli-solve", lambda ctx, solve=solve, key=family:
                   _keep(ctx, key, run_cli(solve))),
                Op("cli-estimate", lambda ctx, p=inst_path: run_cli(["estimate", str(p)])),
                Op("cli-verify", lambda ctx, p=inst_path, a=alloc_path, key=family: run_cli(
                    ["verify", str(p), str(a), "--min-value",
                     json.loads(ctx[key][0])["value"]])),
            ]
        cases.append(batch)
        rounds.append(ops)

    def check(outcomes):
        problems, ratios = [], []
        for r, batch in enumerate(cases):
            if outcomes[r] is None:
                continue
            for c, (family, inst_path, alloc_path) in enumerate(batch):
                gen_out, solve_out, est_out, _ = outcomes[r][4 * c:4 * c + 4]
                if gen_out.error or solve_out.error or est_out.error:
                    continue
                where = f"desk round {r} {family}"
                inst = read_instance(inst_path)
                eps = reference.eps_of(inst)
                solved = json.loads(solve_out.value[0])
                try:
                    value = reference.allocation_value(inst, read_allocation(alloc_path))
                except ValueError as exc:
                    problems.append(f"{where}: invalid allocation: {exc}")
                    continue
                try:
                    opt = reference.brute_force_opt(inst, known=value)
                except reference.TooLarge:
                    opt = None
                if value != Fraction(solved["value"]):
                    problems.append(f"{where}: solve reported {solved['value']}, "
                                    f"allocation is worth {value}")
                if opt is not None and value != opt:
                    problems.append(f"{where}: solve --algo auto gave {value}, OPT is {opt}")
                if family == "3dm-yes" and value != 2 * eps:
                    problems.append(f"{where}: 3DM yes instance has OPT {value} != 2eps")
                if family == "3dm-no" and value > eps:
                    problems.append(f"{where}: 3DM no instance has OPT {value} > eps")
                est = json.loads(est_out.value[0])
                tstar = Fraction(est["T_star"])
                if not reference.is_tstar(inst, tstar):
                    problems.append(f"{where}: T* {tstar} != reference {reference.tstar(inst)}")
                if opt is not None and Fraction(est["opt"]) != opt:
                    problems.append(f"{where}: estimate reported OPT {est['opt']} != {opt}")
                if opt is not None and not opt <= tstar <= 3 * opt:
                    problems.append(f"{where}: T* {tstar} outside [OPT, 3*OPT] for OPT {opt}")
                if family == "gap-search":
                    found = json.loads(gen_out.value[1])
                    if Fraction(found["T_star"]) != tstar or Fraction(found["opt"]) != value:
                        problems.append(f"{where}: gap search reported {found}")
                    if tstar != 2 * value:
                        problems.append(f"{where}: gap search T* {tstar} != 2*OPT {value}")
                if opt:
                    ratios.append(value / opt)
        return problems, ratios

    return Workload(rounds, check)
