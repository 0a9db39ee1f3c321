"""Fuzzers for the text formats: any graph or formula text either parses or
is refused with ValueError (which the CLI maps to exit code 3), formatting a
value then parsing it gives the value back, and any bench manifest maps to a
documented exit code."""
import contextlib
import io
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spannerlab.cli import EXIT_CAP, EXIT_OK, EXIT_PARAM, EXIT_VERIFY, main
from spannerlab.graphs import WeightedGraph, format_graph, parse_graph, write_graph
from spannerlab.hardness import ABOVE, BELOW, Clause, SatInstance, parse_sat
from spannerlab.instances import gen_ladder

from bruteforce import previous_parse_graph


def format_sat(inst: SatInstance) -> str:
    """The formula text of `inst`, every order line written out, which
    `parse_sat` reads back to `inst`."""
    lines = [f"vars {inst.num_vars}"]
    for c in inst.clauses:
        lines.append(f"clause {c.side} " + " ".join(str(v) for v in c.literals))
    for i in range(inst.num_vars):
        lines.append(f"order+ {i} " + " ".join(str(j) for j in inst.pos_order[i]))
        lines.append(f"order- {i} " + " ".join(str(j) for j in inst.neg_order[i]))
    return "\n".join(lines) + "\n"


ENDPOINTS = ["0", "1", "2", "3", "-1", "x"]
WEIGHTS = ["0", "1", "3/2", "-1", "1/0", "-0/0", "1/-2", "0.5", "1e2", "nan", "x"]
GRAPH_TOKENS = ENDPOINTS + WEIGHTS + ["planar:0", "planar:1", "planar:", "#"]
SAT_TOKENS = [
    "vars", "clause", "order+", "order-", "above", "below",
    "0", "1", "2", "-1", "x", "#", "\n", "\n", "\n",
]


def soup(tokens):
    """Texts made of format keywords and numbers, so that inputs get past
    the first line far more often than arbitrary text does."""
    line = st.lists(st.sampled_from(tokens), min_size=1, max_size=4).map(" ".join)
    return st.lists(line, max_size=6).map("\n".join)


@st.composite
def graph_texts(draw):
    """Edge-list texts whose header counts their lines, so that the edge
    lines themselves get parsed."""
    edge = st.tuples(*map(st.sampled_from, (ENDPOINTS, ENDPOINTS, WEIGHTS))).map(" ".join)
    junk = st.lists(st.sampled_from(GRAPH_TOKENS), max_size=4).map(" ".join)
    lines = draw(st.lists(edge | junk, max_size=4))
    n = draw(st.integers(min_value=-1, max_value=4))
    planar = draw(st.sampled_from("01"))
    return "\n".join([f"{n} {len(lines)} planar:{planar}"] + lines) + "\n"


# spellings of a few values: equal values written differently, and decimals
# that differ exactly but round to the same float
RESPELT_WEIGHTS = [
    "3/2", "6/4", "1.5", "15e-1",
    "1/3", "2/6",
    "0.1", "1/10", "0.10000000000000001",
    "1e2", "100", "100/1",
    "0", "0/5", "1/0",
]


@st.composite
def respelt_graph_texts(draw):
    """Edge-list texts over four vertices whose weights respell a few values."""
    pairs = draw(st.lists(st.sampled_from([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), unique=True))
    lines = [f"{u} {v} {draw(st.sampled_from(RESPELT_WEIGHTS))}" for u, v in pairs]
    planar = draw(st.sampled_from("01"))
    return "\n".join([f"4 {len(lines)} planar:{planar}"] + lines) + "\n"


def parses_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = tuple(
        (u, v, F(draw(st.integers(0, 20)), draw(st.integers(1, 6)))) for u, v in chosen
    )
    planar = draw(st.booleans()) and (n < 3 or len(edges) <= 3 * n - 6)
    return WeightedGraph(n, edges, planar)


@st.composite
def sat_instances(draw):
    k = draw(st.integers(min_value=0, max_value=4))
    clauses = []
    for _ in range(draw(st.integers(0, 5)) if k else 0):
        side = draw(st.sampled_from([ABOVE, BELOW]))
        lits = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=min(3, k), unique=True))
        clauses.append(Clause(side, tuple(lits)))
    base = SatInstance(k, tuple(clauses))
    pos = tuple(tuple(draw(st.permutations(order))) for order in base.pos_order)
    neg = tuple(tuple(draw(st.permutations(order))) for order in base.neg_order)
    return SatInstance(k, tuple(clauses), pos, neg)


class TestParseGraph:
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40) | soup(GRAPH_TOKENS) | graph_texts())
    def test_parses_or_raises_value_error(self, text):
        parses_or_value_error(parse_graph, text)

    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_format_round_trips(self, g):
        text = format_graph(g)
        assert parse_graph(text) == g
        assert format_graph(parse_graph(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(graph_texts() | respelt_graph_texts())
    @example(text="4 3 planar:0\n0 1 3/2\n1 2 6/4\n2 3 1.5\n")
    @example(text="4 3 planar:1\n0 1 0.1\n1 2 0.10000000000000001\n2 3 1/10\n")
    def test_matches_previous_parser(self, text):
        try:
            expected = previous_parse_graph(text)
        except Exception as exc:
            with pytest.raises(type(exc)) as raised:
                parse_graph(text)
            assert str(raised.value) == str(exc)
            return
        g = parse_graph(text)
        assert g == expected
        assert all(type(w) is F for _, _, w in g.edges)

    @pytest.mark.parametrize("flag", ["planar:", "planar:2", "planar:yes"])
    def test_malformed_planar_flag_is_a_bad_header(self, flag):
        with pytest.raises(ValueError, match=f"^bad header '3 1 {flag}'; expected 'n m planar:0\\|1'$"):
            parse_graph(f"3 1 {flag}\n0 1 1\n")


class TestParseSat:
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40) | soup(SAT_TOKENS))
    def test_parses_or_raises_value_error(self, text):
        parses_or_value_error(parse_sat, text)

    @settings(max_examples=100, deadline=None)
    @given(sat_instances())
    def test_format_round_trips(self, inst):
        text = format_sat(inst)
        assert parse_sat(text) == inst
        assert format_sat(parse_sat(text)) == text


@settings(max_examples=60, deadline=None)
@given(graph_texts())
def test_verify_maps_any_graph_file_to_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", str(path), str(path), "--eps", "1/4"])
    assert code in (EXIT_OK, EXIT_PARAM)


@pytest.mark.parametrize("flag", ["planar:", "planar:2", "planar:yes"])
def test_verify_refuses_a_malformed_planar_flag(tmp_path, capsys, flag):
    path = tmp_path / "g.txt"
    path.write_text(f"3 1 {flag}\n0 1 1\n")
    assert main(["verify", str(path), str(path), "--eps", "1/4"]) == EXIT_PARAM
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad header '3 1 {flag}'; expected 'n m planar:0|1'\n"


# small values only: a large eps or cell cap would make a pruning table huge
MANIFEST_VALUES = {
    "eps": ["1/4", "1/2", "2", "0", "-1", "1/0", "x", ""],
    "t": ["5/4", "2", "1", "0", "x"],
    "max_edges": ["24", "2", "0", "-1", "x"],
    "cell_cap": ["2000000", "10", "1", "0", "-5", "x"],
    "initial": ["{ladder}", "{tree}", "{other}", "{missing}"],
}
MANIFEST_ALGORITHMS = ["greedy", "prune", "iterate", "scaled", "oracle", "exact"]
MANIFEST_GRAPHS = ["{ladder}", "{tree}", "{other}", "{missing}", "{zero}"]


@st.composite
def manifest_texts(draw):
    """Manifest lines of known and misspelt keys over a few small graph
    files; `{name}` stands for the file's path."""
    param = st.one_of(
        st.sampled_from(sorted(MANIFEST_VALUES)).flatmap(
            lambda k: st.sampled_from(MANIFEST_VALUES[k]).map(lambda v: f"{k}={v}")
        ),
        st.sampled_from(["cellcap=1", "Eps=1/4", "=1", "eps", "x=y=z", "#"]),
    )
    line = st.tuples(
        st.sampled_from(MANIFEST_GRAPHS),
        st.sampled_from(MANIFEST_ALGORITHMS),
        st.lists(param, max_size=3),
    ).map(lambda row: " ".join([row[0], row[1], *row[2]]))
    junk = st.lists(st.sampled_from(MANIFEST_GRAPHS + MANIFEST_ALGORITHMS + ["#", "eps=1/4"]), max_size=2)
    lines = draw(st.lists(line | junk.map(" ".join), max_size=4))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def manifest_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("manifest")
    graphs = {
        "ladder": gen_ladder(2, F(1, 4)),
        "tree": WeightedGraph(3, ((0, 1, F(1, 2)), (1, 2, F(3)))),
        "other": WeightedGraph(2, ((0, 1, F(1)),)),
        "zero": WeightedGraph(3, ((0, 1, F(0)), (1, 2, F(1)), (0, 2, F(1)))),
    }
    paths = {name: tmp / f"{name}.g" for name in [*graphs, "missing"]}
    for name, g in graphs.items():
        write_graph(g, paths[name])
    return tmp, paths


@settings(max_examples=80, deadline=None)
@given(text=manifest_texts())
@example(text="{ladder} iterate eps=0 initial={ladder}\n")
def test_bench_maps_any_manifest_to_an_exit_code(manifest_files, text):
    tmp, paths = manifest_files
    manifest = tmp / "manifest.txt"
    manifest.write_text(text.format(**paths))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["bench", str(manifest), "--out", str(tmp / "out.csv")])
    assert code in (EXIT_OK, EXIT_VERIFY, EXIT_PARAM, EXIT_CAP)
