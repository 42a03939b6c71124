import csv
import json
from fractions import Fraction

import pytest

from maxminalloc import cli, clp, exact, flowkit, gen, lazysearch, simplex, treesearch
from maxminalloc.model import HEAVY, LIGHT, Epsilon, Instance, Item, serialize_instance


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_bytes(serialize_instance(inst))
    return str(path)


@pytest.fixture
def yes_instance(tmp_path):
    h, _ = gen.gen_3dm_yes(2, 1, seed=3)
    return write_instance(tmp_path, gen.reduce_3dm(h, Epsilon(1, 2)))


@pytest.fixture
def baseline_calls(monkeypatch):
    """Instances flowkit.baseline_solve is called on, wherever it is bound."""
    calls = []
    real = flowkit.baseline_solve

    def counted(inst):
        calls.append(inst)
        return real(inst)

    for mod in (flowkit, lazysearch, treesearch):
        if getattr(mod, "baseline_solve", None) is real:
            monkeypatch.setattr(mod, "baseline_solve", counted)
    return calls


class TestSolve:
    def test_exact_on_yes_reduction(self, yes_instance, tmp_path, capsys):
        out = str(tmp_path / "a.json")
        code = cli.main(["solve", yes_instance, "--algo", "exact", "--out", out])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == "1"  # 2*eps at eps = 1/2
        assert report["algo"] == "exact"

    def test_auto_at_least_each_algo(self, yes_instance, tmp_path, capsys):
        values = {}
        for algo in ["baseline", "quasi", "poly", "auto"]:
            out = str(tmp_path / f"{algo}.json")
            assert cli.main(["solve", yes_instance, "--algo", algo, "--out", out]) == 0
            from fractions import Fraction

            report = json.loads(capsys.readouterr().out)
            values[algo] = Fraction(report["value"])
            if algo in ("quasi", "poly"):
                assert isinstance(report["iterations"], int)
        assert values["auto"] >= max(values["baseline"], values["quasi"], values["poly"])

    def test_auto_runs_baseline_once(self, yes_instance, tmp_path, capsys, baseline_calls):
        out = str(tmp_path / "a.json")
        assert cli.main(["solve", yes_instance, "--algo", "auto", "--out", out]) == 0
        assert len(baseline_calls) == 1

    def test_auto_on_fault_f1_input(self, tmp_path):
        # quasi_solve once raised TreeInvariantError here, as a traceback
        inst = gen.gen_random(80, 40, 400, 0.05, Epsilon(1, 10), seed=0)
        out = str(tmp_path / "a.json")
        assert cli.main(["solve", write_instance(tmp_path, inst), "--algo", "auto",
                         "--out", out]) == 0

    @pytest.mark.parametrize("lights, bounds", [(10, {"quasi": 3.4, "poly": 9.0}),
                                                (20, {"quasi": 10.0, "poly": 10.0})])
    def test_ratio_bound_only_up_to_three_halves(self, tmp_path, capsys, lights, bounds):
        # agent 0 wants two heavy items, agent 1 `lights` light items: OPT is
        # 1 with 10 lights, and 2 with 20, where the searches certify only
        # T = 3/2 (quasi returns 1/2, poly stalls and falls back to the
        # baseline's 1/5) and only the baseline's 1/eps holds
        eps = Epsilon(1, 10)
        items = [Item(0, HEAVY), Item(1, HEAVY)] + [Item(j, LIGHT) for j in range(2, 2 + lights)]
        inst = Instance(eps, items, [[0, 1], list(range(2, 2 + lights))])
        path = write_instance(tmp_path, inst)
        opt, _ = exact.opt(inst)
        for algo, bound in bounds.items():
            out = str(tmp_path / f"{algo}.json")
            assert cli.main(["solve", path, "--algo", algo, "--out", out]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["algo"] == {"quasi": "quasi", "poly": "poly(baseline)"}[algo]
            assert report["certified_ratio_bound"] == bound
            assert opt.as_fraction(eps) <= bound * Fraction(report["value"])

    @pytest.mark.parametrize("algo, bound", [("quasi", 3.4), ("poly", 9.0)])
    def test_probe_out_of_budget_voids_the_ratio(self, tmp_path, capsys, planted, algo, bound):
        # fault F4 in small: below the steps of the top probe's slowest
        # root (3 for quasi, 1 for poly) every probe runs out of steps and
        # the search falls back to the baseline's 1/10, where the planted
        # OPT is 1, so only the baseline's 1/eps = 10 holds
        inst, _, opt = planted.planted_instance(12, Epsilon(1, 10), 10, 7, False)
        path = write_instance(tmp_path, inst)
        out = str(tmp_path / "a.json")
        argv = ["solve", path, "--algo", algo, "--out", out]
        budget = {"quasi": "2", "poly": "0"}[algo]
        assert cli.main(argv + ["--budget", budget]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["budget_exceeded"] and report["value"] == "1/10"
        assert report["algo"] == f"{algo}(baseline)"
        assert report["certified_ratio_bound"] == 10.0
        assert opt <= 10 * Fraction(report["value"])
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert "budget_exceeded" not in report and report["algo"] == algo
        assert report["certified_ratio_bound"] == bound
        assert opt <= bound * Fraction(report["value"])

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", str(bad)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("doc", [
        {"items": [{"kind": "heavy"}], "agents": [{"id": 0, "interests": [0]}]},
        {"items": [[0, "heavy"]], "agents": [{"id": 0, "interests": [0]}]},
        {"items": [{"id": 0, "kind": "heavy"}], "agents": [{"interests": [0]}]},
        {"items": [{"id": 0, "kind": "heavy"}], "agents": [{"id": 0, "interests": 5}]},
        {"items": None, "agents": [{"id": 0, "interests": [0]}]},
        # JSON true and 1.0 are not integer ids
        {"items": [{"id": 0, "kind": "heavy"}, {"id": True, "kind": "light"}],
         "agents": [{"id": 0, "interests": [0]}]},
        {"items": [{"id": 0.0, "kind": "heavy"}], "agents": [{"id": 0, "interests": [0]}]},
        {"items": [{"id": 0, "kind": "heavy"}],
         "agents": [{"id": 0, "interests": [0]}, {"id": True, "interests": []}]},
        {"items": [{"id": 0, "kind": "heavy"}], "agents": [{"id": 0.0, "interests": [0]}]},
        {"items": [{"id": 0, "kind": "heavy"}, {"id": 1, "kind": "light"}],
         "agents": [{"id": 0, "interests": [True]}]},
    ])
    def test_malformed_record_exit_2(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"epsilon": "1/2", **doc}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", str(bad)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_size_cap_exit_3(self, tmp_path):
        inst = gen.gen_random(2, 0, 30, 1.0, Epsilon(1, 2), 0)
        path = write_instance(tmp_path, inst)
        code = cli.main(["solve", path, "--algo", "exact"])
        assert code == 3


class TestVerify:
    def test_round_trip_with_solver_output(self, yes_instance, tmp_path, capsys):
        out = str(tmp_path / "a.json")
        assert cli.main(["solve", yes_instance, "--algo", "exact", "--out", out]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert cli.main(["verify", yes_instance, out, "--min-value", value]) == 0

    def test_threshold_failure(self, yes_instance, tmp_path, capsys):
        out = str(tmp_path / "a.json")
        cli.main(["solve", yes_instance, "--algo", "exact", "--out", out])
        capsys.readouterr()
        assert cli.main(["verify", yes_instance, out, "--min-value", "5"]) == 1

    def test_tampered_duplicate(self, yes_instance, tmp_path, capsys):
        out = tmp_path / "a.json"
        cli.main(["solve", yes_instance, "--algo", "exact", "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        agents = sorted(doc["assignment"])
        first = doc["assignment"][agents[0]]
        doc["assignment"][agents[1]] = first  # duplicate items
        out.write_text(json.dumps(doc))
        assert cli.main(["verify", yes_instance, str(out)]) == 1
        assert "duplicate item" in capsys.readouterr().out


    @pytest.mark.parametrize("assignment", [
        {"0": [1.7]}, {"0": [1.0]}, {"0": ["1"]}, {"0": [True]}, {"0": "01"},
        {"1_0": []}, {"01": []}, {" 1": []}, {"+1": []}, {"-0": []},
    ])
    def test_malformed_allocation_exit_2(self, yes_instance, tmp_path, capsys, assignment):
        bad = tmp_path / "a.json"
        bad.write_text(json.dumps({"assignment": assignment}))
        assert cli.main(["verify", yes_instance, str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed allocation")


class TestEstimate:
    def test_reports_ratio(self, tmp_path, capsys):
        inst, _, _ = gen.search_gap_witness(4, 6, Epsilon(1, 2), budget=300, seed=0)
        path = write_instance(tmp_path, inst)
        assert cli.main(["estimate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ratio"] == "2"

    def test_opt_search_stops_at_tstar(self, tmp_path, capsys, monkeypatch):
        # OPT = T* = 2/3 and the packing cap is 1, where a search up to the
        # cap probes once above T*
        items = [Item(0, HEAVY), Item(1, HEAVY)] + [Item(j, LIGHT) for j in range(2, 6)]
        inst = Instance(Epsilon(1, 3), items, [[0, 5], [1, 2, 3, 4, 5], [0, 4, 5]])
        probed, real = [], exact.feasible_at

        def counted(inst, T, size_cap):
            probed.append(T.key(inst.epsilon))
            return real(inst, T, size_cap)

        monkeypatch.setattr(exact, "feasible_at", counted)
        assert cli.main(["estimate", write_instance(tmp_path, inst)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["T_star"], report["opt"]) == ("2/3", "2/3")
        assert probed and max(probed) <= 2

    def test_rejects_search_knobs(self, yes_instance, capsys):
        for argv in (["estimate", yes_instance, "--mu", "0.5"],
                     ["estimate", yes_instance, "--tol", "1e-6"],
                     ["solve", yes_instance, "--mu", "0.5"],
                     ["solve", yes_instance, "--p-sweep"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2


class TestLpFailure:
    def test_estimate_and_gap_search_exit_4(self, yes_instance, tmp_path, capsys,
                                            monkeypatch):
        def fail(*args, **kwargs):
            raise simplex.SimplexError("simplex iteration cap exceeded")

        monkeypatch.setattr(clp, "estimate_Tstar", fail)
        out = tmp_path / "gap.json"
        for argv in (["estimate", yes_instance],
                     ["generate", "gap-search", "--out", str(out)]):
            assert cli.main(argv) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: LP solver failure: simplex iteration cap exceeded\n"
        assert not out.exists()


class TestGenerate:
    def test_kinds_round_trip(self, tmp_path, capsys):
        for kind, extra in [
            ("random", ["--n", "3", "--m-heavy", "1", "--m-light", "4"]),
            ("3dm-yes", ["--size", "2"]),
            ("3dm-no", ["--size", "2"]),
        ]:
            out = str(tmp_path / f"{kind}.json")
            assert cli.main(["generate", kind, "--out", out, "--seed", "1"] + extra) == 0
            assert cli.main(["solve", out, "--algo", "exact",
                             "--out", out + ".alloc"]) == 0
            capsys.readouterr()

    def test_determinism(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            cli.main(["generate", "random", "--out", out, "--seed", "7"])
        assert open(a, "rb").read() == open(b, "rb").read()


class TestBadArguments:
    @pytest.mark.parametrize("argv", [
        ["verify", "{inst}", "{alloc}", "--min-value", "abc"],
        ["verify", "{inst}", "{alloc}", "--min-value", "1/0"],
        ["generate", "random", "--eps", "2/1", "--out", "{out}"],
        ["generate", "random", "--eps", "x", "--out", "{out}"],
        ["generate", "random", "--n", "0", "--out", "{out}"],
        ["generate", "3dm-no", "--size", "1", "--out", "{out}"],
        # negative counts
        ["generate", "random", "--m-heavy", "-2", "--m-light", "-1", "--out", "{out}"],
        ["generate", "3dm-yes", "--extra-edges", "-3", "--out", "{out}"],
        ["generate", "gap-search", "--budget", "-5", "--out", "{out}"],
        ["solve", "{inst}", "--budget", "-1", "--out", "{out}"],
        ["solve", "{inst}", "--exact-cap", "-1", "--out", "{out}"],
        ["bench", "{corpus}", "--budget", "-1", "--out", "{out}"],
        # an unknown or empty algo name, a missing corpus, a density outside [0, 1]
        ["bench", "{corpus}", "--algos", "baseline,foo", "--out", "{out}"],
        ["bench", "{corpus}", "--algos", "", "--out", "{out}"],
        ["bench", "{missing}", "--out", "{out}"],
        ["generate", "random", "--density", "2", "--out", "{out}"],
        ["generate", "random", "--density", "-0.1", "--out", "{out}"],
        ["generate", "random", "--density", "nan", "--out", "{out}"],
    ], ids=" ".join)
    def test_exit_2_with_one_error_line(self, yes_instance, tmp_path, capsys, argv):
        alloc, out = tmp_path / "a.json", tmp_path / "out.json"
        alloc.write_text('{"assignment": {}}')
        corpus = tmp_path / "corpus"  # empty, so only a bad argument fails bench
        corpus.mkdir()
        argv = [arg.format(inst=yes_instance, alloc=alloc, out=out, corpus=corpus,
                           missing=tmp_path / "missing") for arg in argv]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a bad option value this way
            code = exc.code
        assert code == 2
        assert len([line for line in capsys.readouterr().err.splitlines()
                    if "error:" in line]) == 1
        assert not out.exists()


class TestBench:
    def test_csv_shape(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for seed in range(3):
            inst = gen.gen_random(3, 2, 5, 0.6, Epsilon(1, 2), seed)
            (corpus / f"i{seed}.json").write_bytes(serialize_instance(inst))
        out = str(tmp_path / "bench.csv")
        assert cli.main(["bench", str(corpus), "--algos", "baseline,quasi,poly",
                         "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 9
        assert set(rows[0]) == {
            "instance", "n", "m_heavy", "m_light", "epsilon", "algo",
            "value", "opt", "ratio", "iterations", "wall_ms",
        }
        from fractions import Fraction

        for row in rows:
            if row["ratio"]:
                bound = {"baseline": 2, "quasi": 2, "poly": 2}[row["algo"]]
                assert Fraction(row["ratio"]) <= bound  # 1/eps = 2 dominates here
            if row["algo"] in ("quasi", "poly"):
                assert int(row["iterations"]) >= 0

    def test_empty_corpus_writes_the_header(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", str(tmp_path), "--out", str(out)]) == 0
        assert out.read_bytes() == b",".join(f.encode() for f in cli.BENCH_FIELDS) + b"\r\n"

    def test_skips_solve_output(self, yes_instance, tmp_path, capsys):
        # solve writes inst.json.alloc.json beside the instance by default
        assert cli.main(["solve", yes_instance, "--algo", "baseline"]) == 0
        assert (tmp_path / "inst.json.alloc.json").exists()
        out = str(tmp_path / "bench.csv")
        assert cli.main(["bench", str(tmp_path), "--algos", "baseline", "--out", out]) == 0
        assert [row["instance"] for row in csv.DictReader(open(out))] == ["inst.json"]

    @pytest.mark.parametrize("algo", cli.ALGOS)
    def test_rows_carry_what_solve_prints(self, tmp_path, capsys, algo):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for seed in range(3):
            inst = gen.gen_random(4, 3, 7, 0.6, Epsilon(1, 3), seed)
            (corpus / f"i{seed}.json").write_bytes(serialize_instance(inst))
        out = str(tmp_path / "bench.csv")
        assert cli.main(["bench", str(corpus), "--algos", algo, "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        assert [row["instance"] for row in rows] == ["i0.json", "i1.json", "i2.json"]
        for row in rows:
            alloc = str(tmp_path / "a.json")
            assert cli.main(["solve", str(corpus / row["instance"]), "--algo", algo,
                             "--out", alloc]) == 0
            report = json.loads(capsys.readouterr().out)
            assert (row["value"], row["iterations"]) == (
                report["value"], str(report.get("iterations", "")))

    def test_exact_over_size_cap_exit_3(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        inst = gen.gen_random(2, 0, 30, 1.0, Epsilon(1, 2), 0)
        (corpus / "big.json").write_bytes(serialize_instance(inst))
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", str(corpus), "--algos", "exact", "--out", str(out)]) == 3
        assert "exceeds exact-mode cap" in capsys.readouterr().err

    def test_exact_opt_once_per_instance(self, tmp_path, monkeypatch):
        calls = []
        real = exact.opt

        def counted(inst, *args):
            calls.append(inst)
            return real(inst, *args)

        monkeypatch.setattr(exact, "opt", counted)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for seed in range(3):
            inst = gen.gen_random(4, 3, 7, 0.6, Epsilon(1, 3), seed)
            (corpus / f"i{seed}.json").write_bytes(serialize_instance(inst))
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", str(corpus), "--algos", "exact,baseline",
                         "--out", str(out)]) == 0
        assert len(calls) == 3
        rows = list(csv.DictReader(open(out)))
        for row in rows:
            if row["algo"] == "exact":
                assert row["value"] == row["opt"] and row["ratio"] == "1"
                assert float(row["wall_ms"]) >= 0

    def test_baseline_once_per_instance(self, tmp_path, baseline_calls):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for seed in range(3):
            inst = gen.gen_random(3, 2, 5, 0.6, Epsilon(1, 2), seed)
            (corpus / f"i{seed}.json").write_bytes(serialize_instance(inst))
        out = str(tmp_path / "bench.csv")
        assert cli.main(["bench", str(corpus), "--out", out]) == 0
        assert len(baseline_calls) == 3


class TestParser:
    def test_built_once_and_defaults_survive(self, yes_instance, tmp_path, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        budgets, real = [], treesearch.quasi_solve

        def recorded(inst, budget, baseline=None):
            budgets.append(budget)
            return real(inst, budget, baseline)

        monkeypatch.setattr(treesearch, "quasi_solve", recorded)
        out = str(tmp_path / "a.json")
        for extra in (["--budget", "5"], []):
            argv = ["solve", yes_instance, "--algo", "quasi", "--out", out] + extra
            assert cli.main(argv) == 0
        assert budgets == [5, treesearch.DEFAULT_BUDGET]
