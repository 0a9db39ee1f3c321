import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest

from spannerlab.cli import EXIT_CAP, EXIT_OK, EXIT_PARAM, EXIT_VERIFY, build_parser, main
from spannerlab.graphs import parse_rational, read_graph, scale_to_integers, write_graph, WeightedGraph
from spannerlab.instances import gen_ladder
from spannerlab.prune import iterate_prune


@pytest.fixture
def ladder_file(tmp_path):
    path = tmp_path / "ladder.g"
    assert main(["gen", "ladder", "--n", "6", "--eps", "1/4", "--out", str(path)]) == EXIT_OK
    return path


def test_gen_ladder_counts(ladder_file):
    g = read_graph(ladder_file)
    assert g.n == 14 and g.m == 19 and g.declared_planar


def test_gen_greedyhard_counts(tmp_path):
    out = tmp_path / "gh.g"
    assert main(["gen", "greedyhard", "--eps", "1/64", "--x", "2", "--out", str(out)]) == EXIT_OK
    assert read_graph(out).n == 21


def test_gen_multiladder_counts(tmp_path):
    out = tmp_path / "ml.g"
    assert main(["gen", "multiladder", "--k", "2", "--n", "3", "--eps", "1/4", "--out", str(out)]) == EXIT_OK
    assert read_graph(out).n == 2 * (2 * 3 + 2) + 2


def test_gen_sat_writes_graph_and_sidecar(tmp_path):
    formula = tmp_path / "formula.txt"
    formula.write_text("vars 2\nclause above 0 1\nclause below 0 1\n")
    out = tmp_path / "sat.g"
    assert main(["gen", "sat", "--in", str(formula), "--eps", "1/10", "--out", str(out)]) == EXIT_OK
    side = json.loads((tmp_path / "sat.g.json").read_text())
    assert side["W"] == "108/5"
    assert read_graph(out).n == len(side["labels"])


def test_run_prune_matches_oracle_on_ladder(tmp_path, ladder_file, capsys):
    spanner = tmp_path / "out.spanner"
    report = tmp_path / "report.json"
    code = main(
        ["run", "prune", str(ladder_file), "--eps", "1/4",
         "--out", str(spanner), "--report", str(report)]
    )
    assert code == EXIT_OK
    data = json.loads(report.read_text())
    # exact ladder: greedy seeding already lands on the optimum 1 + n*eps
    assert data["weight"] == "5/2"
    assert F(data["stretch"]) <= F(5, 4)
    assert data["rounds"]
    emitted = read_graph(spanner)
    assert emitted.is_subgraph_of(read_graph(ladder_file))


def test_run_iterate_from_initial_spanner(tmp_path, ladder_file):
    g = gen_ladder(6, F(1, 4), perturb=True)
    init = tmp_path / "init.g"
    write_graph(g, init)  # same topology, nudged weights: used as an edge set
    report = tmp_path / "report.json"
    code = main(
        ["run", "iterate", str(ladder_file), "--eps", "1/4",
         "--initial", str(init), "--report", str(report),
         "--out", str(tmp_path / "it.spanner")]
    )
    assert code == EXIT_OK
    data = json.loads(report.read_text())
    assert data["weight"] == "5/2"
    assert data["stretch"] == "5/4"
    assert data["iterations"][0]["total_weight"] != data["iterations"][-1]["total_weight"]


def test_run_iterate_report_on_rational_input(tmp_path, ladder_file):
    # pruning runs on the file's rational weights; the logs are in units of
    # 1/scale, the numbers a run on the scaled copy gives
    report = tmp_path / "report.json"
    code = main(["run", "iterate", str(ladder_file), "--eps", "1/4",
                 "--out", str(tmp_path / "it.spanner"), "--report", str(report)])
    assert code == EXIT_OK
    data = json.loads(report.read_text())
    scaled, scale = scale_to_integers(read_graph(ladder_file))
    _, logs, states = iterate_prune(scaled, F(1, 4))
    assert F(data["scale"]) == scale == 8
    assert data["iterations"] == [entry.as_dict() for entry in logs]
    assert data["rounds"] == [r.as_dict() for st in states for r in st.rounds] != []


def test_run_oracle(tmp_path):
    g = gen_ladder(2, F(1, 2))
    path = tmp_path / "tiny.g"
    write_graph(g, path)
    report = tmp_path / "r.json"
    code = main(["run", "oracle", str(path), "--eps", "1/2",
                 "--out", str(tmp_path / "o.spanner"), "--report", str(report)])
    assert code == EXIT_OK
    assert F(json.loads(report.read_text())["weight"]) == 2


def test_negative_oracle_eps_is_a_parameter_error(tmp_path, capsys):
    path = tmp_path / "l.g"
    write_graph(gen_ladder(3, F(1, 2)), path)
    out = tmp_path / "o.spanner"
    message = "parameter error: oracle needs --eps >= 0, got -1/2\n"
    assert main(["run", "oracle", str(path), "--eps=-1/2", "--out", str(out)]) == EXIT_PARAM
    assert capsys.readouterr().err == message
    assert not out.exists()
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{path} greedy t=3/2\n{path} oracle eps=-1/2\n")
    assert main(["bench", str(manifest), "--out", str(tmp_path / "b.csv")]) == EXIT_PARAM
    assert capsys.readouterr().err == message
    # eps = 0 stays valid: the optimum keeps every shortest path exact
    assert main(["run", "oracle", str(path), "--eps", "0", "--out", str(out)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["stretch"] == "1/1"


def test_parser_is_built_once_and_survives_parse_errors(tmp_path, ladder_file, capsys):
    assert build_parser() is build_parser()
    args = ["run", "iterate", str(ladder_file), "--eps", "1/4", "--out", str(tmp_path / "o")]

    def report():
        assert main(args) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        del data["wall_time_s"]
        return data

    before = report()
    for bad in (["run"], ["run", "iterate", str(ladder_file), "--cell-cap", "x"], ["gen", "ladder", "--n", "3"]):
        assert main(bad) == EXIT_PARAM
        err = capsys.readouterr().err
        assert err.startswith("parameter error: ") and err.count("\n") == 1
    assert report() == before


def test_verify_ok_and_fail(tmp_path, ladder_file):
    g = read_graph(ladder_file)
    assert main(["verify", str(ladder_file), str(ladder_file), "--eps", "1/100"]) == EXIT_OK
    stars = tmp_path / "stars.g"
    keep = [k for k in g.edge_keys if 0 in k or 7 in k]
    keep = [k for k in keep if not (k[0] == 0 and k[1] == 7)]
    write_graph(g.subgraph(keep), stars)
    assert main(["verify", str(ladder_file), str(stars), "--eps", "1/4"]) == EXIT_VERIFY


def test_verify_of_a_file_that_is_no_subgraph_is_a_parameter_error(tmp_path, ladder_file, capsys):
    # another weight on a graph edge, and another vertex count
    g = read_graph(ladder_file)
    (u, v, w), *rest = g.edges
    heavier, wider = tmp_path / "heavier.g", tmp_path / "wider.g"
    write_graph(WeightedGraph(g.n, ((u, v, w + 1), *rest)), heavier)
    write_graph(WeightedGraph(g.n + 1, g.edges), wider)
    for spanner in (heavier, wider):
        assert main(["verify", str(ladder_file), str(spanner), "--eps", "1/4"]) == EXIT_PARAM
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parameter error: spanner file is not a subgraph of the graph file\n"


def test_run_without_out_writes_into_the_current_directory(tmp_path, ladder_file, monkeypatch, capsys):
    # the spanner goes to <graph file name>.<algorithm>.spanner where the
    # command runs, not next to the graph file
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["run", "greedy", str(ladder_file), "--eps", "1/4"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["spanner_file"] == "ladder.g.greedy.spanner"
    assert [p.name for p in work.iterdir()] == ["ladder.g.greedy.spanner"]
    assert read_graph(work / "ladder.g.greedy.spanner").is_subgraph_of(read_graph(ladder_file))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ladder.g", "work"]


def test_negative_verify_eps_is_a_parameter_error(ladder_file, capsys):
    args = ["verify", str(ladder_file), str(ladder_file)]
    assert main([*args, "--eps=-1/2"]) == EXIT_PARAM
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parameter error: verify needs --eps >= 0, got -1/2\n"
    # eps = 0 stays valid: a graph checked against itself has stretch exactly 1
    assert main([*args, "--eps", "0"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["stretch"] == "1/1"


def test_parameter_errors(tmp_path, ladder_file):
    assert main(["run", "prune", str(ladder_file)]) == EXIT_PARAM  # missing eps
    assert main(["gen", "ladder", "--n", "3", "--eps", "0", "--out", str(tmp_path / "x")]) == EXIT_PARAM
    assert main(["run", "greedy", str(ladder_file), "--t", "1"]) == EXIT_PARAM
    assert main(["verify", str(ladder_file), str(tmp_path / "missing.g"), "--eps", "1"]) == EXIT_PARAM


def _one_error_line(capsys) -> bool:
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def test_zero_denominator_weight_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("2 1 planar:0\n0 1 1/0\n")
    assert main(["run", "greedy", str(bad), "--eps", "1/4", "--out", str(tmp_path / "o")]) == EXIT_PARAM
    assert _one_error_line(capsys)
    assert main(["verify", str(bad), str(bad), "--eps", "1/4"]) == EXIT_PARAM
    assert _one_error_line(capsys)


@pytest.mark.parametrize(
    "text",
    ["vars\n", "vars 1\nclause\n", "vars 1\norder+\n", "vars 1\norder+ 5 0 1 2\n", "vars 1\norder+ -1 0\n",
     "vars 1\nclause above 0\norder- 0\norder- 0\n"],
)
def test_malformed_formula_exits_3(tmp_path, capsys, text):
    formula = tmp_path / "f.txt"
    formula.write_text(text)
    code = main(["gen", "sat", "--in", str(formula), "--eps", "1/10", "--out", str(tmp_path / "s.g")])
    assert code == EXIT_PARAM
    assert _one_error_line(capsys)


@pytest.mark.parametrize("eps", ["0", "-1/2"])
@pytest.mark.parametrize("algorithm", ["prune", "iterate", "scaled"])
@pytest.mark.parametrize("initial", [False, True])
def test_run_scaled_nonpositive_eps_exits_3(tmp_path, ladder_file, capsys, eps, algorithm, initial):
    args = ["run", algorithm, str(ladder_file), f"--eps={eps}", "--out", str(tmp_path / "o")]
    if initial:
        args += ["--initial", str(ladder_file)]
    assert main(args) == EXIT_PARAM
    assert capsys.readouterr().err == f"parameter error: {algorithm} needs --eps > 0, got {eps}\n"


@pytest.mark.parametrize("algorithm, flag", [
    ("greedy", "--initial"), ("scaled", "--initial"), ("oracle", "--initial"),
    ("prune", "--t"), ("iterate", "--t"), ("scaled", "--t"), ("oracle", "--t"),
    ("greedy", "--t"),
])
def test_run_refuses_a_flag_its_algorithm_ignores(tmp_path, ladder_file, capsys, algorithm, flag):
    value = str(ladder_file) if flag == "--initial" else "5/4"
    # greedy reads --t, and then ignores the --eps every case passes
    refused = "--eps with --t" if (algorithm, flag) == ("greedy", "--t") else flag
    out = tmp_path / "o"
    assert main(["run", algorithm, str(ladder_file), "--eps", "1/4", flag, value, "--out", str(out)]) == EXIT_PARAM
    assert capsys.readouterr().err.startswith(f"parameter error: {algorithm} takes no {refused}; ")
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["greedy", "--t", "1", "--initial", "{g}"], "greedy needs --t > 1 or --eps > 0"),
    (["oracle", "--eps", "-1", "--t", "2"], "oracle needs --eps >= 0, got -1"),
    (["scaled", "--t", "2"], "scaled needs --eps"),
    (["prune", "--eps", "1/4", "--t", "2", "--cell-cap", "0"], "cell cap must be at least 1, got 0"),
])
def test_an_algorithms_own_checks_come_before_the_unread_flag(tmp_path, ladder_file, capsys, args, message):
    args = [a.format(g=ladder_file) for a in args]
    assert main(["run", args[0], str(ladder_file), *args[1:], "--out", str(tmp_path / "o")]) == EXIT_PARAM
    assert capsys.readouterr().err == f"parameter error: {message}\n"


@pytest.mark.parametrize("row", [
    "greedy t=5/4 initial={g}", "iterate eps=1/4 t=5/4", "oracle eps=1/4 initial={g}", "greedy t=5/4 eps=1/4",
])
def test_bench_refuses_a_manifest_key_its_algorithm_ignores(tmp_path, ladder_file, capsys, row):
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{ladder_file} greedy eps=1/4\n{ladder_file} {row.format(g=ladder_file)}\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", str(manifest), "--out", str(out)]) == EXIT_PARAM
    assert "takes no --" in capsys.readouterr().err and not out.exists()


# at eps 1/3 greedy drops (1, 2) for the path 1-3-2; pruning then counts
# (2, 3) as hanging at (1, 3) through d(2, 1) = 15/7, which runs over the
# dropped edge, and exchanges it away: vertex 2 loses its last spanner edge
DISCONNECTED_AT_ONE_THIRD = """7 9 planar:0
0 1 1
0 4 4
0 6 10
1 2 15/7
1 3 1/2
1 4 17/7
2 3 2
4 5 6
5 6 17/4
"""


@pytest.mark.parametrize("algorithm, eps, code, stretch", [
    ("prune", "1/3", EXIT_VERIFY, "inf"),
    ("iterate", "1/3", EXIT_VERIFY, "inf"),
    ("scaled", "1/3", EXIT_OK, "383/280"),
    ("iterate", "1/4", EXIT_OK, "383/280"),
])
def test_run_exits_2_when_its_spanner_disconnects_the_graph(tmp_path, capsys, algorithm, eps, code, stretch):
    path, out, report = tmp_path / "g7.g", tmp_path / "g7.spanner", tmp_path / "r.json"
    path.write_text(DISCONNECTED_AT_ONE_THIRD)
    assert main(["run", algorithm, str(path), "--eps", eps, "--out", str(out), "--report", str(report)]) == code
    # the spanner and the report are written either way
    assert json.loads(report.read_text())["stretch"] == stretch
    assert read_graph(out).is_subgraph_of(read_graph(path))
    failed = "verification failed: the spanner leaves some edge's endpoints disconnected (stretch inf)\n"
    assert capsys.readouterr().err == (failed if code == EXIT_VERIFY else "")


@pytest.mark.parametrize("algorithm", ["prune", "iterate", "scaled"])
def test_large_eps_warning_is_one_plain_line(tmp_path, ladder_file, capsys, algorithm):
    args = ["run", algorithm, str(ladder_file), "--eps", "1/4", "--out", str(tmp_path / "o")]
    with warnings.catch_warnings():
        # the interpreter's default filters; the test settings ignore this warning
        warnings.simplefilter("default")
        assert main(args) == EXIT_OK
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("warning:")] == [
        "warning: eps=1/4 is above 1/100; the pruning guarantees are calibrated for smaller values"
    ]
    assert ".py:" not in err
    # the caller's filters stay in force
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=r"eps=.* is above 1/100", category=UserWarning)
        assert main(args) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_run_scaled_on_wide_weight_range(tmp_path):
    lad = gen_ladder(3, F(1, 4))
    big = WeightedGraph(
        lad.n + 1,
        tuple((u, v, w * 10**6) for u, v, w in lad.edges) + ((0, lad.n, F(1)),),
    )
    path = tmp_path / "wide.g"
    write_graph(big, path)
    report = tmp_path / "r.json"
    code = main(["run", "scaled", str(path), "--eps", "1/4",
                 "--out", str(tmp_path / "w.spanner"), "--report", str(report)])
    assert code == EXIT_OK
    data = json.loads(report.read_text())
    assert data["contracted"] is True
    assert "inner_stretch" in data


@pytest.mark.parametrize("algorithm", ["prune", "iterate", "scaled"])
def test_pruning_an_edgeless_graph_gives_the_empty_spanner(tmp_path, algorithm):
    path = tmp_path / "point.g"
    path.write_text("1 0 planar:0\n")
    out = tmp_path / "point.spanner"
    report = tmp_path / "r.json"
    code = main(["run", algorithm, str(path), "--eps", "1/4", "--out", str(out), "--report", str(report)])
    assert code == EXIT_OK
    assert (read_graph(out).n, read_graph(out).m) == (1, 0)
    assert json.loads(report.read_text()).get("contracted", False) is False


@pytest.mark.parametrize("algorithm", ["greedy", "prune", "iterate", "scaled"])
def test_run_on_a_sat_threshold_graph_keeps_every_zero_edge(tmp_path, algorithm):
    formula, graph, out = tmp_path / "f.txt", tmp_path / "sat.g", tmp_path / "sat.spanner"
    formula.write_text("vars 2\nclause above 0 1\nclause below 0 1\n")
    assert main(["gen", "sat", "--in", str(formula), "--eps", "1/10", "--out", str(graph)]) == EXIT_OK
    assert main(["run", algorithm, str(graph), "--eps", "1/10", "--out", str(out)]) == EXIT_OK
    g, h = read_graph(graph), read_graph(out)
    assert h.is_subgraph_of(g) and {k for k, w in g.weights.items() if w == 0} <= h.edge_keys
    assert main(["verify", str(graph), str(out), "--eps", "11/10"]) == EXIT_OK


def test_cap_exit_codes(tmp_path, ladder_file):
    big = tmp_path / "big.g"
    write_graph(WeightedGraph(2, ((0, 1, F(3_000_000)),)), big)
    assert main(["run", "prune", str(big), "--eps", "1/4"]) == EXIT_CAP
    assert main(["run", "oracle", str(ladder_file), "--eps", "1/4", "--max-edges", "3"]) == EXIT_CAP
    # the cap counts g's positive edges, 4 here, though the search runs on
    # the zero-weight quotient, which has 1
    zeros = tmp_path / "zeros.g"
    write_graph(WeightedGraph(4, ((0, 1, 0), (1, 2, 0), (0, 2, 1), (0, 3, 1), (1, 3, 1), (2, 3, 2))), zeros)
    assert main(["run", "oracle", str(zeros), "--eps", "1/2", "--max-edges", "1"]) == EXIT_CAP
    out = tmp_path / "zeros.opt"
    assert main(["run", "oracle", str(zeros), "--eps", "1/2", "--max-edges", "4", "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize(
    "algorithm, flag, value",
    [("prune", "--cell-cap", "0"), ("prune", "--cell-cap", "-5"), ("iterate", "--cell-cap", "0"),
     ("oracle", "--max-edges", "-1")],
)
def test_caps_below_their_least_value_are_parameter_errors(tmp_path, ladder_file, capsys, algorithm, flag, value):
    # a cap that no run can meet is a bad parameter (3), not a resource cap (4)
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{ladder_file} {algorithm} eps=1/4 {flag[2:].replace('-', '_')}={value}\n")
    assert main(["run", algorithm, str(ladder_file), "--eps", "1/4", flag, value]) == EXIT_PARAM
    assert main(["bench", str(manifest)]) == EXIT_PARAM
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("parameter error: ") and value in line for line in err)


def test_least_caps_are_accepted(tmp_path, ladder_file):
    # --max-edges 0 and --cell-cap 1 are valid; the ladder trips both caps
    assert main(["run", "oracle", str(ladder_file), "--eps", "1/4", "--max-edges", "0"]) == EXIT_CAP
    assert main(["run", "prune", str(ladder_file), "--eps", "1/4", "--cell-cap", "1"]) == EXIT_CAP


def test_initial_spanner_outside_the_graph_names_a_few_edges(tmp_path, capsys):
    ladder, other = tmp_path / "ladder8.g", tmp_path / "multiladder2x4.g"
    assert main(["gen", "ladder", "--n", "8", "--eps", "1/4", "--out", str(ladder)]) == EXIT_OK
    assert main(["gen", "multiladder", "--k", "2", "--n", "4", "--eps", "1/4", "--out", str(other)]) == EXIT_OK
    capsys.readouterr()
    args = ["run", "iterate", str(ladder), "--eps", "1/4", "--initial", str(other), "--out", str(tmp_path / "o")]
    assert main(args) == EXIT_PARAM
    err = capsys.readouterr().err
    missing = read_graph(other).edge_keys - read_graph(ladder).edge_keys
    assert len(missing) > 20 and err.count("\n") == 1
    assert err.startswith(f"error: {len(missing)} edges not in graph: ") and err.count("(") == 3
    assert err.rstrip().endswith(", ...")


def test_spanner_files_are_byte_identical_across_runs(tmp_path, ladder_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.spanner"
        main(["run", "iterate", str(ladder_file), "--eps", "1/4", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_bench_manifest(tmp_path, capsys):
    files = []
    for n in (2, 4):
        path = tmp_path / f"lad{n}.g"
        write_graph(gen_ladder(n, F(1, 4)), path)
        files.append(path)
    manifest = tmp_path / "manifest.txt"
    lines = []
    for path in files:
        lines.append(f"{path} oracle eps=1/4")
        lines.append(f"{path} iterate eps=1/4")
        lines.append(f"{path} greedy t=5/4")
    manifest.write_text("\n".join(lines) + "\n# comment\n")
    out_csv = tmp_path / "bench.csv"
    assert main(["bench", str(manifest), "--out", str(out_csv)]) == EXIT_OK
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0].startswith("instance,algorithm,")
    assert len(rows) == 7
    for line in rows[1:]:
        cells = line.split(",")
        if cells[1] == "iterate":
            assert cells[7] == "1/1"  # weight ratio vs oracle

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    assert main(["bench", str(empty), "--out", str(out_csv)]) == EXIT_OK
    assert out_csv.read_text().strip().splitlines()[0].startswith("instance,")


def test_bench_rejects_unknown_manifest_keys(tmp_path, ladder_file, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{ladder_file} greedy t=5/4 cellcap=1\n")
    assert main(["bench", str(manifest)]) == EXIT_PARAM
    assert "'cellcap'" in capsys.readouterr().err
    manifest.write_text(f"{ladder_file} iterate eps=1/4 cell_cap=1\n")
    assert main(["bench", str(manifest)]) == EXIT_CAP


def test_bench_pairs_each_row_with_the_oracle_row_at_its_eps(tmp_path):
    lad = tmp_path / "l.g"
    assert main(["gen", "ladder", "--n", "3", "--eps", "1/4", "--out", str(lad)]) == EXIT_OK
    manifest = tmp_path / "m.txt"
    manifest.write_text(
        f"{lad} oracle eps=1/4\n{lad} iterate eps=1/4\n{lad} oracle eps=1/100\n"
        f"{lad} greedy t=5/4\n{lad} greedy t=2\n"
    )
    out_csv = tmp_path / "bench.csv"
    assert main(["bench", str(manifest), "--out", str(out_csv)]) == EXIT_OK
    ratios = [line.split(",")[7:9] for line in out_csv.read_text().strip().splitlines()[1:]]
    # the eps=1/100 optimum is heavier: a row paired with it would read 7/19;
    # greedy at t=2 has no oracle row at eps=1
    assert ratios == [["1/1", "1"], ["1/1", "1"], ["1/1", "1"], ["1/1", "1"], ["", ""]]


def test_bench_greedy_gap_ratio(tmp_path):
    gh = tmp_path / "gh.g"
    main(["gen", "greedyhard", "--eps", "1/64", "--x", "2", "--out", str(gh)])
    manifest = tmp_path / "m.txt"
    # the greedy row (t = 1 + 1/32) is compared with the optimum at eps = 1/32
    manifest.write_text(
        f"{gh} greedy t=33/32\n{gh} iterate eps=1/64\n{gh} oracle eps=1/64 max_edges=64\n"
        f"{gh} oracle eps=1/32 max_edges=64\n"
    )
    out_csv = tmp_path / "bench.csv"
    assert main(["bench", str(manifest), "--out", str(out_csv)]) == EXIT_OK
    rows = {line.split(",")[1]: line.split(",") for line in out_csv.read_text().strip().splitlines()[1:]}
    ratio = F(rows["greedy"][3]) / F(rows["iterate"][3])
    assert ratio > 2
    assert F(rows["greedy"][7]) > 2  # vs the exact optimum as well


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spannerlab.cli", "gen", "ladder", "--n", "1",
         "--eps", "1/2", "--out", "/tmp/_spannerlab_smoke.g"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_deterministic_across_processes(tmp_path, ladder_file):
    # separate interpreters get different hash seeds; emitted files must agree
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / f"{name}.spanner"
        proc = subprocess.run(
            [sys.executable, "-m", "spannerlab.cli", "run", "iterate",
             str(ladder_file), "--eps", "1/4", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("weight, decimal", [("1e400", "1e+400"), ("1e-400", "2e-400")])
def test_weights_beyond_float_range_print_exactly(tmp_path, capsys, weight, decimal):
    g = tmp_path / "g.g"
    g.write_text(f"3 2 planar:0\n0 1 {weight}\n1 2 {weight if weight == '1e-400' else 1}\n")
    assert main(["run", "greedy", str(g), "--t", "2", "--out", str(tmp_path / "o")]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["weight_decimal"], report["stretch_decimal"]) == (decimal, "1")
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{g} greedy t=2\n{g} oracle eps=1\n")
    assert main(["bench", str(manifest)]) == EXIT_OK
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == [decimal, decimal]
    assert rows[0].split(",")[8] == "1"  # the greedy weight over the oracle's


LIMIT = sys.get_int_max_str_digits()


def _cli(*args, cwd):
    """The CLI in a fresh interpreter, killed after a few seconds: a value
    too long to print must be refused before it is built, not compute."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "spannerlab.cli", *map(str, args)],
        capture_output=True, text=True, timeout=10, cwd=cwd, env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize("weight", ["1e9999999", "1e99999999", "-1e-99999999"])
def test_huge_exponent_weight_is_refused_at_once(tmp_path, weight):
    g = tmp_path / "g.g"
    g.write_text(f"2 1 planar:0\n0 1 {weight}\n")
    proc = _cli("run", "greedy", g, "--t", "2", cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (EXIT_PARAM, "")
    assert proc.stderr == f"error: more than {LIMIT} digits in edge line '0 1 {weight}'\n"


@pytest.mark.parametrize(
    "args, value",
    [
        (["run", "greedy", "{g}", "--eps", "1e-99999999"], "1e-99999999"),
        (["run", "greedy", "{g}", "--t", "1e99999999"], "1e99999999"),
        (["gen", "greedyhard", "--eps", "1/64", "--x", "1e99999999", "--out", "gh.g"], "1e99999999"),
        (["bench", "{m}"], "1e-99999999"),  # the manifest's eps
    ],
)
def test_huge_exponent_parameter_is_refused_at_once(tmp_path, args, value):
    g, m = tmp_path / "g.g", tmp_path / "m.txt"
    g.write_text("2 1 planar:0\n0 1 1\n")
    m.write_text(f"{g} iterate eps=1e-99999999\n")
    proc = _cli(*(a.format(g=g, m=m) for a in args), cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (EXIT_PARAM, "")
    assert proc.stderr == f"parameter error: bad rational {value!r}: more than {LIMIT} digits\n"


@pytest.mark.parametrize(
    "text, value",
    [
        ("1e400", F(10) ** 400), ("-1e-400", -F(1, 10**400)), ("0e99999999", F(0)), ("0.00e-99999999", F(0)),
        (f"1e{LIMIT - 1}", F(10) ** (LIMIT - 1)), (f"10e-{LIMIT}", F(1, 10 ** (LIMIT - 1))),
        (f"0.{'0' * (LIMIT - 2)}1e1", F(1, 10 ** (LIMIT - 2))), ("1_000e-2", F(10)),
    ],
)
def test_parse_rational_keeps_every_printable_value(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text", [f"1e{LIMIT}", f"1e-{LIMIT}", f"-5e{LIMIT}", "1e99999999", "1" * 3000 + "." + "1" * 3000]
)
def test_parse_rational_refuses_values_too_long_to_print(text):
    with pytest.raises(OverflowError, match=f"^more than {LIMIT} digits$"):
        parse_rational(text)


def test_float_range_values_keep_float_formatting():
    from spannerlab.cli import _dec_str

    for x in (F(0), F(1, 3), F(10**300), F(1, 10**300), F(123456789, 1000)):
        assert _dec_str(x) == f"{float(x):.6g}"
    assert _dec_str(F(1234565) * 10**400) == "1.23456e+406"  # half to even
    assert _dec_str(-F(2, 3) / 10**400) == "-6.66667e-401"


def test_huge_declared_vertex_count_exits_3_without_per_vertex_memory(tmp_path, capsys):
    import tracemalloc

    g = tmp_path / "wide.g"
    g.write_text("1000000 0 planar:0\n")
    tracemalloc.start()
    try:
        code = main(["run", "greedy", str(g), "--t", "2", "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_PARAM
    assert "connected" in capsys.readouterr().err
    assert peak < 2**20  # one list of n ints alone would take 8 MB


def test_bench_unknown_algorithm_is_named(tmp_path, ladder_file, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{ladder_file} nosuchalg\n")
    assert main(["bench", str(manifest)]) == EXIT_PARAM
    err = capsys.readouterr().err
    assert "unknown algorithm 'nosuchalg'" in err and "--eps" not in err


def test_verify_of_a_huge_edgeless_graph_allocates_nothing_per_vertex(tmp_path, capsys):
    import tracemalloc

    g = tmp_path / "wide.g"
    g.write_text("1000000 0 planar:0\n")
    tracemalloc.start()
    try:
        code = main(["verify", str(g), str(g), "--eps", "1/4"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"ok": True, "stretch": "1/1", "weight": "0/1"}
    assert peak < 2**20  # one adjacency list per vertex alone would take tens of MB


def test_gen_sat_refuses_more_variables_than_mentions_without_per_variable_memory(tmp_path, capsys):
    import tracemalloc

    formula = tmp_path / "f.txt"
    formula.write_text("vars 99999999999\nclause above 0\nclause below 0\n")
    tracemalloc.start()
    try:
        code = main(["gen", "sat", "--in", str(formula), "--eps", "1/10", "--out", str(tmp_path / "s.g")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_PARAM
    assert "vars 99999999999" in capsys.readouterr().err
    assert peak < 2**20
    assert not (tmp_path / "s.g").exists()


def test_bench_rows_get_the_run_parsers_validation(tmp_path, ladder_file, capsys):
    # a row is parsed as the flags of `run`, so a bad value names its flag
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{ladder_file} oracle eps=1/4 max_edges=x\n")
    assert main(["bench", str(manifest)]) == EXIT_PARAM
    err = capsys.readouterr().err
    assert err.startswith("parameter error: ") and "--max-edges" in err and err.count("\n") == 1
