"""Fuzzers for the two text formats: any input either parses or is refused
with ValueError (which the CLI maps to exit code 3), and formatting a value
then parsing it gives the value back."""
import contextlib
import io
import tempfile
from fractions import Fraction as F
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from spannerlab.cli import EXIT_OK, EXIT_PARAM, main
from spannerlab.graphs import WeightedGraph, format_graph, parse_graph
from spannerlab.hardness import ABOVE, BELOW, Clause, SatInstance, format_sat, parse_sat

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
