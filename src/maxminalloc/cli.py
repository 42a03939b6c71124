"""Command-line driver: solve, estimate, generate, verify, bench.

Reports are machine-readable JSON on stdout; diagnostics go to stderr.
Exit codes: 0 success, 1 failed verification, 2 malformed input,
3 exact-solver size cap exceeded, 4 LP solver failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import clp, exact, flowkit, gen, lazysearch, simplex, treesearch
from .model import (
    Epsilon,
    Instance,
    ParseError,
    min_value,
    packing_cap,
    parse_allocation,
    parse_instance,
    serialize_allocation,
    serialize_instance,
    verify_allocation,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_SIZE_CAP = 3
EXIT_LP = 4


def _load_instance(path: str) -> Instance:
    try:
        return parse_instance(Path(path).read_bytes())
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _epsilon_arg(text: str) -> Epsilon:
    try:
        return Epsilon.parse(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count_arg(text: str) -> int:
    """A count option's value: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad count {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"count {value} is negative")
    return value


def _density_arg(text: str) -> float:
    """`--density`: a probability, in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad density {text!r}") from None
    if not 0 <= value <= 1:  # nan fails too
        raise argparse.ArgumentTypeError(f"density {text} is not in [0, 1]")
    return value


ALGOS = ("exact", "baseline", "quasi", "poly")


def _algos_arg(text: str) -> list:
    """`--algos`: comma-separated names from ALGOS."""
    algos = text.split(",")
    for algo in algos:
        if algo not in ALGOS:
            raise argparse.ArgumentTypeError(
                f"unknown algo {algo!r} (choose from {', '.join(ALGOS)})")
    return algos


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad fraction {text!r}") from None


def _frac_str(value, eps: Epsilon) -> str:
    return str(value.as_fraction(eps))


def _ratio_bound(algo: str, inst: Instance, extras: dict) -> float:
    """The ratio OPT/value that `algo`'s report, with `extras`, is
    promised to meet.

    The local searches keep their promise only while OPT <= 3/2 (they
    certify T up to 3/2), which 2*packing_cap <= 3*q shows, and only where
    no probe ran out of budget (a "budget_exceeded" report: such a probe
    proves nothing about T).  Otherwise only the 1/eps of the baseline
    holds, and every search report meets that, since search_solve never
    returns less than the baseline: it skips computing the baseline only
    where its own value is strictly above flowkit.baseline_ceiling, a
    bound on the baseline's value.
    """
    eps = inst.epsilon
    e = eps.numerator / eps.denominator
    if algo == "exact":
        return 1.0
    if (algo in ("quasi", "poly") and "budget_exceeded" not in extras
            and 2 * packing_cap(inst) <= 3 * eps.denominator):
        return min(1.0 / e, 3.0 + 4.0 * e if algo == "quasi" else 9.0)
    if algo in ("baseline", "quasi", "poly"):
        return 1.0 / e
    raise ValueError(algo)


def _results(inst: Instance, algos, args):
    """Runs `algos` on inst in order, yielding (algo, value, allocation,
    extras, wall_ms) for each.  A local search reuses the answer of a
    baseline that ran before it; its extras carry the report's label as
    "algo", which names a fallback to the baseline ("quasi(baseline)")."""
    baseline = None
    for algo in algos:
        start = time.perf_counter()
        extras = {}
        if algo == "exact":
            value, alloc = exact.opt(inst, args.exact_cap)
        elif algo == "baseline":
            value, alloc = baseline = flowkit.baseline_solve(inst)
        else:
            solve = treesearch.quasi_solve if algo == "quasi" else lazysearch.poly_solve
            rep = solve(inst, args.budget, baseline)
            value, alloc = rep.value, rep.allocation
            extras = {"algo": rep.algo, "iterations": rep.iterations}
            if rep.certified_T is not None:
                extras["certified_T"] = _frac_str(rep.certified_T, inst.epsilon)
                extras["r"] = rep.r
            extras.update(rep.meta)
        yield algo, value, alloc, extras, round(1000 * (time.perf_counter() - start), 3)


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    eps = inst.epsilon
    algos = ["baseline", "quasi", "poly"] if args.algo == "auto" else [args.algo]
    if args.algo == "auto" and inst.m <= args.exact_cap:
        algos.append("exact")
    best = None
    timings, bounds = {}, []
    for algo, value, alloc, extras, wall_ms in _results(inst, algos, args):
        timings[algo] = wall_ms
        bounds.append(_ratio_bound(algo, inst, extras))
        if best is None or value.key(eps) > best[0].key(eps):
            best = (value, alloc, algo, extras)
    value, alloc, algo, extras = best
    out = args.out or args.instance + ".alloc.json"
    Path(out).write_bytes(serialize_allocation(alloc))
    report = {
        "value": _frac_str(value, eps),
        "algo": algo,
        "certified_ratio_bound": min(bounds),
        "allocation": out,
        "wall_ms": timings,
    }
    report.update(extras)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_estimate(args) -> int:
    inst = _load_instance(args.instance)
    eps = inst.epsilon
    tstar = clp.estimate_Tstar(inst)
    report = {"T_star": _frac_str(tstar, eps)}
    if inst.m <= args.exact_cap:
        opt_v, _ = exact.opt(inst, args.exact_cap, upper=tstar)  # OPT <= T*
        report["opt"] = _frac_str(opt_v, eps)
        if not opt_v.is_zero():
            ratio = tstar.as_fraction(eps) / opt_v.as_fraction(eps)
            report["ratio"] = str(ratio)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_generate(args) -> int:
    eps = args.eps
    try:
        if args.kind == "random":
            inst = gen.gen_random(
                args.n, args.m_heavy, args.m_light, args.density, eps, args.seed
            )
        elif args.kind == "3dm-yes":
            h, _ = gen.gen_3dm_yes(args.size, args.extra_edges, args.seed)
            inst = gen.reduce_3dm(h, eps)
        elif args.kind == "3dm-no":
            inst = gen.reduce_3dm(gen.gen_3dm_no(args.size, args.seed), eps)
    except ValueError as exc:  # ParseError too: a random instance without agents
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.kind == "gap-search":
        inst, tstar, opt_v = gen.search_gap_witness(
            args.n, args.m, eps, args.budget, args.seed
        )
        if inst is None:
            print("error: gap search found no instance", file=sys.stderr)
            return EXIT_PARSE
        print(
            json.dumps(
                {
                    "T_star": _frac_str(tstar, eps),
                    "opt": _frac_str(opt_v, eps),
                },
                sort_keys=True,
            ),
            file=sys.stderr,
        )
    Path(args.out).write_bytes(serialize_instance(inst))
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    try:
        alloc = parse_allocation(Path(args.allocation).read_bytes())
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    violations = verify_allocation(inst, alloc)
    if violations:
        for v in violations:
            print(v)
        return EXIT_INVALID
    value = min_value(inst, alloc)
    if value.as_fraction(inst.epsilon) < args.min_value:
        print(f"min value {value.as_fraction(inst.epsilon)} below {args.min_value}")
        return EXIT_INVALID
    return EXIT_OK


BENCH_FIELDS = ("instance", "n", "m_heavy", "m_light", "epsilon", "algo",
                "value", "opt", "ratio", "iterations", "wall_ms")


def cmd_bench(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        print(f"error: corpus {args.corpus!r} is not a directory", file=sys.stderr)
        return EXIT_PARSE
    # solve's output beside an instance is not one
    paths = [p for p in sorted(corpus.glob("*.json")) if not p.name.endswith(".alloc.json")]
    # each instance's rows are written once they are all computed, so an
    # instance that ends the run (exit 2 or 3) leaves those before it
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_FIELDS)
        for path in paths:
            inst = _load_instance(str(path))
            eps = inst.epsilon
            results = list(_results(inst, args.algos, args))
            # OPT from the exact run if there was one, else from one exact call
            opt = next((value for algo, value, *_ in results if algo == "exact"), None)
            if opt is None and inst.m <= args.exact_cap:
                opt, _ = exact.opt(inst, args.exact_cap)
            opt_f = None if opt is None else opt.as_fraction(eps)
            head = [path.name, inst.n, len(inst.heavy_ids), inst.m - len(inst.heavy_ids),
                    f"{eps.numerator}/{eps.denominator}"]
            for algo, value, _, extras, wall_ms in results:
                value_f = value.as_fraction(eps)
                ratio = ""
                if opt_f is not None:
                    ratio = opt_f / value_f if value_f else ("1" if not opt_f else "")
                # csv writes None as ""
                writer.writerow(head + [algo, value_f, opt_f, ratio,
                                        extras.get("iterations"), wall_ms])
    return EXIT_OK


def _add_exact_cap(p):
    p.add_argument("--exact-cap", type=_count_arg, default=exact.DEFAULT_SIZE_CAP,
                   help="max item count for the exact solver")


def _add_search_knobs(p):
    p.add_argument("--budget", type=_count_arg, default=treesearch.DEFAULT_BUDGET,
                   help="local-search iteration budget per root agent of each probe "
                        "(one probe per bundle size r)")
    _add_exact_cap(p)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: option
    defaults and each subcommand's `func` are bound then, once."""
    ap = argparse.ArgumentParser(prog="maxminalloc")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute a max-min allocation")
    p.add_argument("instance")
    p.add_argument("--algo", default="auto", choices=[*ALGOS, "auto"])
    p.add_argument("--out", help="allocation output path")
    _add_search_knobs(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("estimate", help="estimate the CLP threshold T*")
    p.add_argument("instance")
    _add_exact_cap(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("generate", help="write a generated instance")
    p.add_argument("kind", choices=["random", "3dm-yes", "3dm-no", "gap-search"])
    p.add_argument("--out", required=True)
    p.add_argument("--eps", type=_epsilon_arg, default="1/2", help="light weight as p/q")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=_count_arg, default=4, help="agents (random/gap-search cap)")
    p.add_argument("--m", type=_count_arg, default=6, help="item cap for gap-search")
    p.add_argument("--m-heavy", type=_count_arg, default=2)
    p.add_argument("--m-light", type=_count_arg, default=6)
    p.add_argument("--density", type=_density_arg, default=0.5)
    p.add_argument("--size", type=_count_arg, default=2, help="3DM ground-set size")
    p.add_argument("--extra-edges", type=_count_arg, default=2)
    p.add_argument("--budget", type=_count_arg, default=2000,
                   help="gap-search: up to this many structured candidates, then as many "
                        "random ones, repeats included")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check an allocation file")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--min-value", type=_fraction_arg, default="0",
                   help="required min value, p/q")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run algorithms over a corpus directory")
    p.add_argument("corpus")
    p.add_argument("--algos", type=_algos_arg, default="baseline,quasi,poly")
    p.add_argument("--out", required=True)
    _add_search_knobs(p)
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except exact.InstanceTooLarge as exc:  # solve/bench --algos exact over the cap
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except simplex.SimplexError as exc:  # estimate and gap-search solve LPs
        print(f"error: LP solver failure: {exc}", file=sys.stderr)
        return EXIT_LP


if __name__ == "__main__":
    sys.exit(main())
