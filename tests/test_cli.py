import argparse
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import kdom.cli
import kdom.io
from conftest import complete, open_root, random_connected, relabelled_path
from kdom import clique_expanded_path, cycle, direct_product, gamma_k_exact, path, serialize_edge_list
from kdom.cli import build_parser, main

GRAPH_IO = {"--in", "--strict", "--out"}
SOLVE = GRAPH_IO | {"--k", "--budget-nodes", "--budget-seconds"}
# the options each command's handler reads, and so the only ones it takes
OPTIONS_TAKEN = {
    "gamma": SOLVE | {"--require-exact"},
    "bounds": SOLVE | {"--require-exact"},
    "product": SOLVE,
    "spanning-tree": SOLVE,
    "metrics": GRAPH_IO,
    "witness": GRAPH_IO | {"--k", "--vertex", "--adjacent"},
    "construct": GRAPH_IO | {"--family", "--n", "--delta"},
    "fuzz": {"--out", "--k", "--budget-nodes", "--seed", "--trials",
             "--n-min", "--n-max", "--p-min", "--p-max"},
}


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def c10_file(tmp_path):
    p = tmp_path / "c10.txt"
    p.write_text(serialize_edge_list(cycle(10)))
    return str(p)


class TestOptionTable:
    def test_each_command_takes_only_what_it_reads(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        taken = {
            name: {a.option_strings[0] for a in p._actions if a.dest != "help"}
            for name, p in sub.choices.items()
        }
        assert taken == OPTIONS_TAKEN
        assert sum(len(flags) for flags in taken.values()) == 50

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["metrics"], "--k 2"),
            (["fuzz"], "--budget-seconds 5"),
            (["fuzz"], "--in x"),
            (["witness", "--vertex", "0"], "--budget-nodes 1"),
            (["construct", "--family", "path", "--n", "3"], "--require-exact"),
            (["product"], "--require-exact"),
        ],
    )
    def test_option_not_taken_exits_2(self, capsys, argv, extra):
        with pytest.raises(SystemExit) as exc:
            main(argv + extra.split())
        assert exc.value.code == 2
        assert f"unrecognized arguments: {extra}\n" in capsys.readouterr().err


class TestParserReuse:
    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        run_cli(capsys, "construct", "--family", "path", "--n", "3")
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
        assert run_cli(capsys, "construct", "--family", "path", "--n", "3") == (0, "3 2\n0 1\n1 2\n")
        assert built == []

    def test_usage_error_leaves_no_trace(self, capsys):
        good = ["construct", "--family", "cycle", "--n", "4"]
        kdom.cli.build_parser.cache_clear()
        alone = run_cli(capsys, *good)  # on a freshly built parser
        with pytest.raises(SystemExit) as exc:
            main([*good, "--k", "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *good) == alone == (0, "4 4\n0 1\n0 3\n1 2\n2 3\n")


class TestGammaCommand:
    def test_c10_k2(self, capsys, c10_file):
        code, doc = run_json(capsys, "gamma", "--k", "2", "--in", c10_file)
        assert code == 0
        assert doc["schema"] == "kdom/1"
        assert doc["gamma_k"] == 2 and doc["status"] == "Exact"
        assert doc["results"][0]["set"] == [0, 5]

    def test_multiple_k(self, capsys, c10_file):
        code, doc = run_json(capsys, "gamma", "--k", "1,2,3", "--in", c10_file)
        assert code == 0
        assert [r["gamma_k"] for r in doc["results"]] == [4, 2, 2]

    def test_require_exact_budget_exit_3(self, capsys, tmp_path):
        assert gamma_k_exact(open_root(), 1).nodes_explored > 0  # the root stays open
        p = tmp_path / "open.txt"
        p.write_text(serialize_edge_list(open_root()))
        code, doc = run_json(
            capsys, "gamma", "--k", "1", "--in", str(p), "--budget-nodes", "0", "--require-exact"
        )
        assert code == 3
        assert doc["status"] == "UpperBoundOnly"

    @pytest.mark.parametrize(
        "value, message",
        [("0", "--k values must be >= 1"), ("x", "--k expects a comma-separated integer list, got 'x'")],
    )
    def test_bad_k_message_reaches_stderr(self, capsys, c10_file, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["gamma", "--k", value, "--in", c10_file])
        assert exc.value.code == 2
        assert f"argument --k: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gamma", "bounds", "spanning-tree"])
    def test_nan_budget_seconds_exit_2(self, capsys, c10_file, command):
        assert main([command, "--in", c10_file, "--budget-seconds", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "kdom: budget_seconds must be a number or inf, got nan\n"

    def test_inf_budget_seconds_accepted(self, capsys, c10_file):
        code, doc = run_json(capsys, "gamma", "--k", "2", "--in", c10_file, "--budget-seconds", "inf")
        assert code == 0 and doc["status"] == "Exact"

    def test_unwritable_out_exit_2(self, capsys, c10_file, tmp_path):
        assert main(["gamma", "--in", c10_file, "--out", str(tmp_path / "no" / "x.json")]) == 2
        assert capsys.readouterr().err.startswith("kdom: [Errno 2]")

    def test_parse_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3 1\n0 9\n")
        code = main(["gamma", "--in", str(p)])
        assert code == 2

    def test_non_ascii_decimal_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 1\n+0 1\n"))
        assert main(["gamma"]) == 2
        assert "ASCII decimal" in capsys.readouterr().err

    def test_vertex_cap_exit_2(self, capsys, tmp_path):
        p = tmp_path / "huge.txt"
        p.write_text(f"{kdom.io.MAX_VERTICES + 1} 0\n")
        assert main(["gamma", "--in", str(p)]) == 2
        assert "above the cap" in capsys.readouterr().err

    def test_no_strict_tolerates_duplicates(self, capsys, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("3 3\n0 1\n1 0\n1 2\n")
        assert main(["gamma", "--in", str(p)]) == 2  # strict by default
        capsys.readouterr()
        code = main(["gamma", "--in", str(p), "--no-strict"])
        out, err = capsys.readouterr()
        assert err == "kdom: dropped 0 self-loop(s) and 1 duplicate edge(s)\n"
        assert code == 0 and json.loads(out)["gamma_k"] == 1

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_other_warnings_keep_outer_filters(self, capsys, monkeypatch):
        # main reformats UserWarning only; a leaked handle inside a command
        # must still fail under an outer error filter, not print "kdom: ..."
        read = kdom.cli._read_graphs

        def leaky(args, expected):
            warnings.warn("unclosed file", ResourceWarning)
            return read(args, expected)

        monkeypatch.setattr(kdom.cli, "_read_graphs", leaky)
        monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n0 1\n"))
        assert main(["metrics"]) == 4
        assert capsys.readouterr().err == "kdom: internal error: ResourceWarning: unclosed file\n"


class TestMetricsCommand:
    def test_petersen_metrics(self, capsys, tmp_path):
        from conftest import petersen

        p = tmp_path / "pet.txt"
        p.write_text(serialize_edge_list(petersen()))
        code, doc = run_json(capsys, "metrics", "--in", str(p))
        assert code == 0
        assert (doc["diameter"], doc["radius"], doc["girth"]) == (2, 2, 5)

    def test_disconnected_reports_null(self, capsys, tmp_path):
        p = tmp_path / "two.txt"
        p.write_text("4 2\n0 1\n2 3\n")
        code, doc = run_json(capsys, "metrics", "--in", str(p))
        assert code == 0
        assert doc["diameter"] is None and doc["connected"] is False


class TestBoundsCommand:
    def test_c12(self, capsys, tmp_path):
        p = tmp_path / "c12.txt"
        p.write_text(serialize_edge_list(cycle(12)))
        code, doc = run_json(capsys, "bounds", "--k", "2", "--in", str(p))
        assert code == 0
        r = doc["results"][0]
        assert r["verdict"] == "Consistent"
        assert r["lower_bounds"]["girth"] == 3
        assert r["exact"]["gamma_k"] == 3

    def test_twin_rich_reports_pinned(self, capsys, tmp_path):
        # clique-expanded paths, whose cells are true twins, and a dense
        # random graph whose k = 1 root stays open; every byte but the wall
        # clock as first produced, before twins shared ball tuples
        graphs = [clique_expanded_path(61, 2), clique_expanded_path(45, 3),
                  random_connected(random.Random(47), 36, 0.35)]
        docs = []
        for i, g in enumerate(graphs):
            p = tmp_path / f"g{i}.txt"
            p.write_text(serialize_edge_list(g))
            code, doc = run_json(capsys, "bounds", "--k", "1,2,3", "--in", str(p),
                                 "--budget-nodes", "100000", "--budget-seconds", "inf")
            assert code == 0
            doc.pop("timing")
            docs.append(doc)
        assert [r["exact"]["status"] for doc in docs for r in doc["results"]] == ["Exact"] * 9
        text = json.dumps(docs, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == "4ac90763794d77e9ba3c6ad8255556ff7bebdaa1cfb468da1b7c20d582b44bfe"

    def test_cycle_and_relabelled_path_reports_pinned(self, capsys, tmp_path):
        # a cycle, whose balls are runs but for the wrap-around, and a path
        # whose balls are not runs (its k = 3 root stays open); every byte
        # but the wall clock as first produced, before run-shaped balls were
        # grown by joining two neighbour balls
        docs = []
        for i, g in enumerate([cycle(301), relabelled_path(301, 5)]):
            p = tmp_path / f"g{i}.txt"
            p.write_text(serialize_edge_list(g))
            code, doc = run_json(capsys, "bounds", "--k", "1,2,3", "--in", str(p),
                                 "--budget-nodes", "100000", "--budget-seconds", "inf")
            assert code == 0
            doc.pop("timing")
            docs.append(doc)
        assert [r["exact"]["gamma_k"] for doc in docs for r in doc["results"]] == [101, 61, 43] * 2
        text = json.dumps(docs, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == "ff7b20f01f5258ce7714872ca7cabe124c2a63d6fb6ed79931231cf605c88262"


class TestProductCommand:
    def test_two_inputs(self, capsys, tmp_path):
        a = tmp_path / "p4.txt"
        a.write_text(serialize_edge_list(path(4)))
        b = tmp_path / "c3.txt"
        b.write_text(serialize_edge_list(cycle(3)))
        code, doc = run_json(capsys, "product", "--k", "1", "--in", str(a), "--in", str(b))
        assert code == 0
        r = doc["results"][0]
        assert r["satisfied"] is True and r["gamma_product"] == 4

    def test_single_input_rejected(self, capsys, tmp_path):
        a = tmp_path / "p4.txt"
        a.write_text(serialize_edge_list(path(4)))
        assert main(["product", "--in", str(a)]) == 2

    @pytest.mark.parametrize("command", [["product"], ["construct", "--family", "product"]])
    def test_stdin_given_twice_exit_2(self, capsys, monkeypatch, command):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n0 1\n"))
        assert main([*command, "--in", "-", "--in", "-"]) == 2
        assert capsys.readouterr().err == "kdom: stdin can be read once: give '--in -' at most once\n"
        assert sys.stdin.read() == "2 1\n0 1\n"  # rejected before reading

    @pytest.mark.parametrize("command", [["product"], ["construct", "--family", "product"]])
    def test_vertex_cap_exit_2(self, capsys, tmp_path, command):
        a = tmp_path / "p.txt"
        a.write_text(serialize_edge_list(path(math.isqrt(kdom.io.MAX_VERTICES) + 1)))
        assert main([*command, "--in", str(a), "--in", str(a)]) == 2
        assert "above the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["product"], ["construct", "--family", "product"]])
    def test_edge_cap_exit_2(self, capsys, tmp_path, command):
        k50 = complete(50)  # the product has 2500 vertices but 2 * 1225^2 edges
        assert 2 * k50.m**2 > kdom.io.MAX_EDGES
        a = tmp_path / "k50.txt"
        a.write_text(serialize_edge_list(k50))
        assert main([*command, "--in", str(a), "--in", str(a)]) == 2
        assert "edges is above the cap" in capsys.readouterr().err

    def test_budget_stop_exit_3(self, capsys, tmp_path):
        a, b = tmp_path / "c5.txt", tmp_path / "c7.txt"
        a.write_text(serialize_edge_list(cycle(5)))
        b.write_text(serialize_edge_list(cycle(7)))
        assert main(["product", "--k", "1", "--in", str(a), "--in", str(b), "--budget-nodes", "0"]) == 3
        assert capsys.readouterr() == ("", "kdom: exact solve of a factor or the product did not finish\n")


class TestSpanningTreeCommand:
    def test_c6(self, capsys, tmp_path):
        p = tmp_path / "c6.txt"
        p.write_text(serialize_edge_list(cycle(6)))
        code, doc = run_json(capsys, "spanning-tree", "--k", "1", "--in", str(p))
        assert code == 0
        r = doc["results"][0]
        assert r["gamma_k"] == 2
        assert r["tree"].startswith("6 5\n")


    def test_empty_graph(self, capsys, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("0 0\n")
        code, doc = run_json(capsys, "spanning-tree", "--k", "1,2", "--in", str(p))
        assert code == 0
        for r in doc["results"]:
            assert r["gamma_k"] == 0 and r["tree"] == "0 0\n"
            assert r["dominating_set"] == r["partition"] == r["connectors"] == []

    def test_budget_stop_exit_3(self, capsys, tmp_path):
        p = tmp_path / "c5xc7.txt"
        p.write_text(serialize_edge_list(direct_product(cycle(5), cycle(7))))
        assert main(["spanning-tree", "--k", "1", "--in", str(p), "--budget-nodes", "0"]) == 3
        assert capsys.readouterr() == ("", "kdom: embedded exact solve did not finish within budget\n")
        code, _ = run_cli(capsys, "spanning-tree", "--k", "1", "--in", str(p), "--budget-nodes", "100000")
        assert code == 0


class TestWitnessCommand:
    def test_apex_witness(self, capsys, tmp_path):
        p = tmp_path / "apex.txt"
        p.write_text("5 6\n0 1\n0 3\n0 4\n1 2\n2 3\n2 4\n")
        code, doc = run_json(capsys, "witness", "--k", "1", "--vertex", "4", "--in", str(p))
        assert code == 0
        r = doc["results"][0]
        assert r["u"] not in r["path_w"] and r["w"] not in r["path_u"]

    @pytest.mark.parametrize("text, vertex, code, expected", [
        # K4: vertex 3 dominates the whole triangle [0, 1, 2]
        ("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", 3, 0, {"cycle": [0, 1, 2], "u": 1, "w": 0}),
        # C4 plus the path 0-4-5: vertex 4 reaches one cycle vertex at k = 1
        ("6 6\n0 1\n1 2\n2 3\n0 3\n0 4\n4 5\n", 4, 2,
         "kdom: v k-dominates only 1 cycle vertices, need >= 2\n"),
    ], ids=["k4", "c4-tail"])
    def test_adjacent_pair(self, capsys, tmp_path, text, vertex, code, expected):
        p = tmp_path / "g.txt"
        p.write_text(text)
        assert main(["witness", "--k", "1", "--vertex", str(vertex), "--adjacent", "--in", str(p)]) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == ("", expected)
            return
        doc = json.loads(out)
        cyc = doc["cycle"]
        (r,) = doc["results"]
        assert {"cycle": cyc, "u": r["u"], "w": r["w"]} == expected
        assert abs(cyc.index(r["u"]) - cyc.index(r["w"])) in (1, len(cyc) - 1)

    def test_acyclic_exit_2(self, capsys, tmp_path):
        p = tmp_path / "p3.txt"
        p.write_text(serialize_edge_list(path(3)))
        assert main(["witness", "--k", "1", "--vertex", "0", "--in", str(p)]) == 2


class TestConstructCommand:
    def test_path_text(self, capsys):
        code, out = run_cli(capsys, "construct", "--family", "path", "--n", "9")
        assert code == 0
        assert out == serialize_edge_list(path(9))

    def test_clique_expanded(self, capsys):
        code, out = run_cli(capsys, "construct", "--family", "clique-expanded", "--n", "6", "--delta", "2")
        assert code == 0
        assert out.startswith("10 ")

    def test_invalid_order_exit_2(self, capsys):
        assert main(["construct", "--family", "cycle", "--n", "2"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "path", "--n", str(kdom.io.MAX_VERTICES + 1)],
            ["--family", "cycle", "--n", str(kdom.io.MAX_VERTICES + 1)],
            # 2 + (3 - 2) * (MAX_VERTICES - 1) = MAX_VERTICES + 1 vertices
            ["--family", "clique-expanded", "--n", "3", "--delta", str(kdom.io.MAX_VERTICES - 1)],
        ],
        ids=["path", "cycle", "clique-expanded"],
    )
    def test_vertex_cap_exit_2(self, capsys, argv):
        # output above the cap could not be parsed back by the other commands
        assert main(["construct", *argv]) == 2
        assert "above the cap" in capsys.readouterr().err

    def test_edge_cap_exit_2(self, capsys):
        # exactly MAX_VERTICES vertices, but one clique of MAX_VERTICES - 2
        delta = str(kdom.io.MAX_VERTICES - 2)
        assert main(["construct", "--family", "clique-expanded", "--n", "3", "--delta", delta]) == 2
        assert "edges is above the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["path", "cycle", "clique-expanded"])
    def test_missing_n_exit_2(self, capsys, family):
        assert main(["construct", "--family", family]) == 2
        assert capsys.readouterr().err == f"kdom: --family {family} needs --n\n"

    def test_product_family(self, capsys, tmp_path):
        a = tmp_path / "k2.txt"
        a.write_text(serialize_edge_list(path(2)))
        code, out = run_cli(capsys, "construct", "--family", "product", "--in", str(a), "--in", str(a))
        assert code == 0
        assert out == "4 2\n0 3\n1 2\n"

    def test_pipes_into_gamma(self, capsys, tmp_path):
        code, out = run_cli(capsys, "construct", "--family", "cycle", "--n", "9")
        p = tmp_path / "c9.txt"
        p.write_text(out)
        code, doc = run_json(capsys, "gamma", "--k", "1", "--in", str(p))
        assert doc["gamma_k"] == 3


class TestFuzzCommand:
    def test_clean_run_exit_0(self, capsys):
        code, doc = run_json(
            capsys, "fuzz", "--seed", "42", "--trials", "8", "--n-max", "10", "--k", "1,2"
        )
        assert code == 0
        assert doc["failures"] == []
        for counters in doc["checks_run"].values():
            assert counters["pass"] + counters["fail"] + counters["skip"] == 16

    def test_default_k_is_1_and_2(self, capsys):
        code, doc = run_json(capsys, "fuzz", "--trials", "1")
        assert code == 0 and doc["generator_params"]["k_set"] == [1, 2]

    def test_negative_trials_exit_2(self, capsys):
        assert main(["fuzz", "--trials", "-3"]) == 2
        assert "trials must be >= 0" in capsys.readouterr().err

    def test_byte_identical_reports(self, capsys):
        outs = []
        for _ in range(3):
            _, out = run_cli(
                capsys, "fuzz", "--seed", "9", "--trials", "6", "--n-max", "9", "--k", "1"
            )
            doc = json.loads(out)
            del doc["timing"]
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1] == outs[2]

    def test_byte_identical_when_the_budget_runs_out(self, capsys):
        outs = []
        for _ in range(2):
            code, out = run_cli(capsys, "fuzz", "--seed", "3", "--trials", "30", "--budget-nodes", "0")
            doc = json.loads(out)
            assert code == 0 and doc["skipped"]["budget_exhausted"] == 25
            del doc["timing"]
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]


class TestInternalError:
    def test_unexpected_exception_exit_4(self, capsys, monkeypatch, c10_file):
        def broken(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr("kdom.cli.gamma_k_exact", broken)
        assert main(["gamma", "--in", c10_file]) == 4
        err = capsys.readouterr().err
        assert err == "kdom: internal error: KeyError: 'boom'\n"


def _run_module(*args, **kwargs):
    """``python -m kdom *args`` in a child process that imports this checkout's ``src``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "kdom", *args], capture_output=True, text=True, env=env, **kwargs
    )


class TestProcessEntryPoint:
    def test_module_invocation(self, tmp_path):
        p = tmp_path / "c6.txt"
        p.write_text(serialize_edge_list(cycle(6)))
        proc = _run_module("gamma", "--k", "1", "--in", str(p))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["gamma_k"] == 2

    def test_stdin_default(self):
        proc = _run_module("metrics", input=serialize_edge_list(path(7)))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["diameter"] == 6

    def test_out_flag_writes_file(self, tmp_path):
        p = tmp_path / "c6.txt"
        p.write_text(serialize_edge_list(cycle(6)))
        out = tmp_path / "result.json"
        proc = _run_module("gamma", "--in", str(p), "--out", str(out))
        assert proc.returncode == 0 and proc.stdout == ""
        assert json.loads(out.read_text())["gamma_k"] == 2
