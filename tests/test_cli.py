import argparse
import io
import json
import math
import subprocess
import sys
import warnings

import pytest

import kdom.cli
import kdom.io
from conftest import complete
from kdom import cycle, path, serialize_edge_list
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
        p = tmp_path / "c4.txt"
        p.write_text(serialize_edge_list(cycle(4)))
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

    def test_unwritable_out_exit_2(self, capsys, c10_file, tmp_path):
        assert main(["gamma", "--in", c10_file, "--out", str(tmp_path / "no" / "x.json")]) == 2
        assert capsys.readouterr().err.startswith("kdom: [Errno 2]")

    def test_parse_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3 1\n0 9\n")
        code = main(["gamma", "--in", str(p)])
        assert code == 2

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


class TestWitnessCommand:
    def test_apex_witness(self, capsys, tmp_path):
        p = tmp_path / "apex.txt"
        p.write_text("5 6\n0 1\n0 3\n0 4\n1 2\n2 3\n2 4\n")
        code, doc = run_json(capsys, "witness", "--k", "1", "--vertex", "4", "--in", str(p))
        assert code == 0
        r = doc["results"][0]
        assert r["u"] not in r["path_w"] and r["w"] not in r["path_u"]

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


class TestInternalError:
    def test_unexpected_exception_exit_4(self, capsys, monkeypatch, c10_file):
        def broken(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr("kdom.cli.gamma_k_exact", broken)
        assert main(["gamma", "--in", c10_file]) == 4
        err = capsys.readouterr().err
        assert err == "kdom: internal error: KeyError: 'boom'\n"


class TestProcessEntryPoint:
    def test_module_invocation(self, tmp_path):
        p = tmp_path / "c6.txt"
        p.write_text(serialize_edge_list(cycle(6)))
        proc = subprocess.run(
            [sys.executable, "-m", "kdom", "gamma", "--k", "1", "--in", str(p)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["gamma_k"] == 2

    def test_stdin_default(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kdom", "metrics"],
            input=serialize_edge_list(path(7)),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["diameter"] == 6

    def test_out_flag_writes_file(self, tmp_path):
        p = tmp_path / "c6.txt"
        p.write_text(serialize_edge_list(cycle(6)))
        out = tmp_path / "result.json"
        proc = subprocess.run(
            [sys.executable, "-m", "kdom", "gamma", "--in", str(p), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stdout == ""
        assert json.loads(out.read_text())["gamma_k"] == 2
