import re
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spannerlab.graphs as graphs_module
from spannerlab.graphs import (
    INF,
    Search,
    WeightedGraph,
    apsp,
    components,
    edge_key,
    format_graph,
    is_connected,
    parse_graph,
    quotient,
    scale_to_integers,
    stretch,
)
from spannerlab.hardness import reduce_sat
from spannerlab.instances import gen_ladder, ladder_u, ladder_v
from spannerlab.oracle import exact_opt_spanner

from bruteforce import (
    PreviousWeightedGraph,
    Walk,
    brute_all_distances,
    brute_shortest,
    brute_stretch_over_pairs,
    concat,
    count_runs,
    floor_pow2,
    int_adjacency,
    k44_declared_planar,
    normalize_edges,
    oracle_dist,
    previous_all_positive,
    previous_dijkstra,
    previous_format_graph,
    previous_is_subgraph_of,
    previous_stretch,
    previous_total_weight,
    random_connected_graph,
    settled_map,
    small_graphs,
    walk_from_vertices,
    zero_weighted,
)
from test_acceptance import _hardness_catalogue


class TestWeightedGraph:
    def test_canonical_edge_order(self):
        a = WeightedGraph(3, ((2, 0, F(1)), (1, 2, F(2))))
        b = WeightedGraph(3, ((1, 2, F(2)), (0, 2, F(1))))
        assert a == b
        assert a.edges[0] == (0, 2, F(1))

    def test_rejects_duplicates_and_loops(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((0, 1, F(1)), (1, 0, F(2))))
        with pytest.raises(ValueError):
            WeightedGraph(3, ((1, 1, F(1)),))
        with pytest.raises(ValueError):
            WeightedGraph(2, ((0, 1, F(-1)),))
        with pytest.raises(TypeError):
            WeightedGraph(2, ((0, 1, 0.5),))

    def test_planar_bound_enforced(self):
        complete5 = tuple((u, v, F(1)) for u in range(5) for v in range(u + 1, 5))
        with pytest.raises(ValueError):
            WeightedGraph(5, complete5, declared_planar=True)
        WeightedGraph(5, complete5)  # fine undeclared

    def test_subgraph(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(2))))
        h = g.subgraph([(0, 1)])
        assert h.edge_keys == {(0, 1)} and h.n == 3
        with pytest.raises(ValueError):
            g.subgraph([(0, 2)])


@st.composite
def subgraph_pairs(draw):
    """(h, g): h takes some of g's edges at g's weight or at another one,
    and sometimes a vertex count of its own."""
    g = draw(small_graphs(positive=False))
    weight = st.builds(F, st.integers(0, 12), st.integers(1, 6))
    edges = []
    for u, v, w in g.edges:
        pick = draw(st.sampled_from(["drop", "keep", "keep", "other"]))
        if pick != "drop":
            edges.append((u, v, w if pick == "keep" else draw(weight)))
    other_n = draw(st.integers(0, 7)) == 0
    return WeightedGraph(g.n + other_n, tuple(edges)), g


# (h, g) pairs where comparing ints needs care: h.scale does not divide
# g.scale (1/3 against 1/4, and 1/2 against a zero weight, where g.scale //
# h.scale is 0), equal values at different scales, an edgeless h, another n
BOUNDARY_PAIRS = [
    (WeightedGraph(3, ((0, 1, F(1, 3)),)), WeightedGraph(3, ((0, 1, F(1, 4)), (1, 2, F(1)))), False),
    (WeightedGraph(2, ((0, 1, F(1, 2)),)), WeightedGraph(2, ((0, 1, F(0)),)), False),
    (WeightedGraph(3, ((0, 1, F(1, 3)),)), WeightedGraph(3, ((0, 1, F(2, 6)), (1, 2, F(1, 6)))), True),
    (WeightedGraph(3, ((0, 1, F(1, 3)),)), WeightedGraph(3, ((0, 1, F(1, 3)), (1, 2, F(1, 2)))), True),
    (WeightedGraph(3), WeightedGraph(3, ((0, 1, F(1, 3)), (1, 2, F(1, 6)))), True),
    (WeightedGraph(3), WeightedGraph(3), True),
    (WeightedGraph(2, ((0, 1, F(1)),)), WeightedGraph(3, ((0, 1, F(1)),)), False),
]


class TestIntBoundary:
    """The per-edge checks on ints agree with the Fraction comparisons they
    replaced."""

    @pytest.mark.parametrize("h, g, expected", BOUNDARY_PAIRS)
    def test_is_subgraph_of_boundary_cases(self, h, g, expected):
        assert h.is_subgraph_of(g) == previous_is_subgraph_of(h, g) == expected

    @settings(max_examples=150, deadline=None)
    @given(subgraph_pairs())
    def test_is_subgraph_of_matches_fraction_comparison(self, pair):
        h, g = pair
        assert h.is_subgraph_of(g) == previous_is_subgraph_of(h, g)
        assert g.is_subgraph_of(h) == previous_is_subgraph_of(g, h)

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(positive=False))
    def test_total_weight_and_all_positive_match_fractions(self, g):
        assert g.total_weight == previous_total_weight(g)
        assert type(g.total_weight) is F
        assert apsp(g).all_positive == previous_all_positive(g)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_edgeless_total_weight(self, n):
        g = WeightedGraph(n)
        assert g.total_weight == previous_total_weight(g) == 0
        assert apsp(g).all_positive == previous_all_positive(g)


# integer, p/q and zero weights, and weights beyond the float range
INT_FIRST_WEIGHTS = st.one_of(
    st.integers(0, 20).map(F),
    st.builds(F, st.integers(0, 20), st.integers(1, 12)),
    st.sampled_from([F(0), F(10) ** 400, 7 * F(10) ** 400, F(1, 10**400), F(3, 2 * 10**400)]),
)


@st.composite
def int_first_graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = tuple((u, v, draw(INT_FIRST_WEIGHTS)) for u, v in chosen)
    planar = draw(st.booleans()) and (n < 3 or len(edges) <= 3 * n - 6)
    return WeightedGraph(n, edges, planar)


def assert_same_graph(built, validated):
    """`built` is indistinguishable from the graph the constructor
    validated: value, hash, repr, scale, ints and edge order."""
    assert built == validated and hash(built) == hash(validated)
    assert repr(built) == repr(validated)
    assert (built.scale, built.int_weights) == (validated.scale, validated.int_weights)
    assert list(built.int_weights) == list(validated.int_weights) == [(u, v) for u, v, _ in validated.edges]
    assert built.edges == validated.edges and built.m == validated.m


class TestIntFirstConstruction:
    """Graphs built from ints equal the ones the constructor validates from
    the same Fraction edges, and the constructor fails as it did when it
    stored Fractions."""

    @settings(max_examples=80, deadline=None)
    @given(int_first_graphs(), st.data())
    def test_subgraph_quotient_and_scaling_equal_validated_graphs(self, g, data):
        keys = data.draw(st.lists(st.sampled_from(sorted(g.edge_keys)), unique=True)) if g.m else []
        kept = tuple(e for e in g.edges if e[:2] in keys)
        assert_same_graph(g.subgraph(keys), WeightedGraph(g.n, kept, g.declared_planar))
        q, _, back = quotient(g, keys)
        assert_same_graph(q, WeightedGraph(q.n, tuple((a, b, F(g.int_weights[k])) for (a, b), k in back.items())))
        scaled, scale = scale_to_integers(g)
        assert scale == g.scale
        assert_same_graph(scaled, WeightedGraph(g.n, tuple((u, v, w * g.scale) for u, v, w in g.edges), g.declared_planar))

    @settings(max_examples=80, deadline=None)
    @given(int_first_graphs())
    def test_format_and_parse_match_the_fraction_path(self, g):
        text = format_graph(g)
        assert text == previous_format_graph(g)
        assert_same_graph(parse_graph(text), g)
        assert_same_graph(WeightedGraph(g.n, g.edges[::-1], g.declared_planar), g)
        assert PreviousWeightedGraph(g.n, g.edges[::-1], g.declared_planar).edges == g.edges

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-1, 4),
        st.lists(
            st.tuples(
                st.integers(-1, 5),
                st.integers(-1, 5),
                st.sampled_from([F(1), F(3, 2), 2, "5/4", F(0), F(-1), -2, "-1/2", "x", "1/0", 0.5]),
            ),
            min_size=2,
            max_size=6,
        ),
        st.booleans(),
    )
    def test_constructor_reports_the_previous_first_error(self, n, edges, planar):
        seen, faults = set(), 0
        for u, v, w in edges:
            key = edge_key(u, v)
            faults += (
                not (0 <= u < n and 0 <= v < n) or u == v or key in seen
                or isinstance(w, float) or w in ("x", "1/0") or F(w) < 0
            )
            seen.add(key)
        assume(faults >= 2)
        try:
            expected = PreviousWeightedGraph(n, edges, planar)
        except Exception as exc:
            with pytest.raises(type(exc)) as raised:
                WeightedGraph(n, edges, planar)
            assert str(raised.value) == str(exc)
            return
        assert WeightedGraph(n, edges, planar).edges == expected.edges

    def test_declared_bound_is_checked_after_every_edge(self):
        complete5 = [(u, v, F(1)) for u in range(5) for v in range(u + 1, 5)]
        for edges in (complete5, complete5 + [(0, 0, F(1))], complete5 + [(0, 1, 0.5)]):
            with pytest.raises((ValueError, TypeError)) as previous:
                PreviousWeightedGraph(5, edges, True)
            with pytest.raises(type(previous.value), match=f"^{re.escape(str(previous.value))}$"):
                WeightedGraph(5, edges, True)


class TestApsp:
    def test_ladder_direct_rung_beats_detour(self):
        g = gen_ladder(2, F(1, 2))
        d = apsp(g)
        assert oracle_dist(d, ladder_u(0), ladder_v(2, 0)) == F(1)

    def test_one_oracle_per_graph(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(2))))
        assert apsp(g) is apsp(g)
        assert apsp(WeightedGraph(3, g.edges)) is not apsp(g)

    def test_single_vertex(self):
        assert oracle_dist(apsp(WeightedGraph(1)), 0, 0) == 0

    def test_disconnected_sentinel(self):
        assert oracle_dist(apsp(WeightedGraph(2)), 0, 1) is INF

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=8))
    def test_matches_simple_path_enumeration(self, g):
        oracle = apsp(g)
        brute = brute_all_distances(g)
        for pair, d in brute.items():
            assert oracle_dist(oracle, *pair) == d

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_canonical_path_is_lex_min(self, g):
        oracle = apsp(g)
        for s in range(g.n):
            for t in range(g.n):
                d, verts = brute_shortest(g, s, t)
                if d is INF:
                    continue
                path = oracle.path(s, t)
                assert walk_from_vertices(g, path).weight == d
                assert path == verts

    def test_lex_tie_break(self):
        # two equal-weight routes 0-1-3 and 0-2-3; lex picks the one through 1
        g = WeightedGraph(4, ((0, 1, F(1)), (1, 3, F(1)), (0, 2, F(1)), (2, 3, F(1))))
        assert apsp(g).path(0, 3) == (0, 1, 3)


def _reference_rows(g):
    """g's distance rows in int units, by Floyd-Warshall."""
    rows = [[0 if s == t else INF for t in range(g.n)] for s in range(g.n)]
    for (u, v), w in g.int_weights.items():
        rows[u][v] = rows[v][u] = w
    for z in range(g.n):
        for row in rows:
            for t, via in enumerate(rows[z]):
                if row[z] + via < row[t]:
                    row[t] = row[z] + via
    return rows


class TestQuotientApsp:
    """APSP gives Floyd-Warshall's rows, zero weights included, and the
    zero-weight quotient that the oracle and pruning search keeps every
    distance: d_q(label[s], label[t]) = d_g(s, t)."""

    @staticmethod
    def _check(g):
        rows = [apsp(g).row(s) for s in range(g.n)]
        assert rows == _reference_rows(g)
        q, label, _ = quotient(g, [k for k, w in g.int_weights.items() if w == 0])
        assert [[apsp(q).row(a)[b] for b in label] for a in label] == rows

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=8, positive=False))
    def test_drawn_graphs(self, g):
        self._check(g)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(), st.sampled_from([0, 0.2, 0.5]))
    def test_graphs_with_zero_weight_cycles(self, rng, integer, zero_prob):
        self._check(zero_weighted(rng, random_connected_graph(rng, max_n=9, max_extra=6, integer=integer), zero_prob))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_edgeless_graphs(self, n):
        g = WeightedGraph(n)
        self._check(g)
        assert [apsp(g).row(s) for s in range(n)] == [[0 if s == t else INF for t in range(n)] for s in range(n)]

    def test_all_zero_triangle_rows_are_zero(self):
        g = WeightedGraph(3, ((0, 1, F(0)), (1, 2, F(0)), (0, 2, F(0))))
        self._check(g)
        assert [apsp(g).row(s) for s in range(3)] == [[0, 0, 0]] * 3
        assert not apsp(g).all_positive

    def test_lighter_parallel_quotient_edge_gives_the_distance(self):
        # components {0, 1} and {2, 3} are joined by 0-2 (weight 5) and
        # 1-3 (weight 2); every cross distance is 2
        g = WeightedGraph(4, ((0, 1, F(0)), (2, 3, F(0)), (0, 2, F(5)), (1, 3, F(2))))
        self._check(g)
        assert oracle_dist(apsp(g), 0, 2) == oracle_dist(apsp(g), 1, 2) == 2

    def test_dijkstra_runs_on_the_sat_catalogue(self, monkeypatch):
        # APSP runs one search per vertex, 428 on the SAT graphs; the
        # oracle ran it on their zero-weight quotients, 222, and now reads
        # bounded rows of its own searches instead
        calls = count_runs(monkeypatch, graphs_module)
        eps = F(1, 10)
        graphs = [reduce_sat(inst, eps).graph for inst in _hardness_catalogue()]
        for g in graphs:
            apsp(g)
        assert len(calls) == 428
        calls.clear()
        for g in graphs:
            exact_opt_spanner(g, eps, max_edges=64)
        assert len(calls) == 0
        for g in graphs:
            self._check(g)


def test_apsp_on_a_declared_graph_whose_quotient_breaks_3n_minus_6():
    # the zero-weight (0, 4) leaves 16 edges on 7 vertices: the quotient
    # must not be declared planar
    g = k44_declared_planar(0)
    assert apsp(g).row(0)[4] == 0
    TestQuotientApsp._check(g)


class TestQuotient:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_labels_weights_and_lightest_edges(self, data):
        # three weights, so that edges between two components often tie
        n = data.draw(st.integers(1, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = WeightedGraph(n, tuple((u, v, data.draw(st.sampled_from([F(0), F(1, 2), F(1)]))) for u, v in edges))
        keys = data.draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
        q, label, back = quotient(g, keys)
        assert (label, q.n) == components(g.n, keys)
        assert not q.declared_planar
        lightest = {}
        for (u, v), w in sorted(g.int_weights.items()):
            qk = edge_key(label[u], label[v])
            if qk[0] != qk[1] and w < lightest.get(qk, (INF,))[0]:
                lightest[qk] = (w, (u, v))
        assert back == {qk: k for qk, (_, k) in lightest.items()}
        assert q.int_weights == {qk: g.int_weights[k] for qk, k in back.items()}

    def test_equal_weights_go_to_the_smaller_key(self):
        # components {0, 1} and {2, 3} are joined by 1-3, 0-3 and 1-2, all
        # of weight 2 in units of 1/2; 0-3 is the smallest key
        g = WeightedGraph(4, ((0, 1, F(0)), (2, 3, F(1, 2)), (1, 3, F(1)), (1, 2, F(1)), (0, 3, F(1))))
        q, label, back = quotient(g, [(0, 1), (2, 3)])
        assert (label, back) == ([0, 0, 1, 1], {(0, 1): (0, 3)})
        assert q.edges == ((0, 1, F(2)),)

    def test_no_keys_keeps_every_edge(self):
        g = WeightedGraph(4, ((0, 1, F(1, 2)), (1, 2, F(3)), (0, 3, F(0))), declared_planar=True)
        q, label, back = quotient(g, [])
        assert label == [0, 1, 2, 3]
        assert q == WeightedGraph(4, ((0, 1, F(1)), (1, 2, F(6)), (0, 3, F(0))))
        assert back == {k: k for k in g.edge_keys}


class TestDijkstra:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=7, positive=False), st.randoms(use_true_random=False))
    def test_target_and_limit_match_enumeration(self, g, rng):
        # zero-weight edges included: settled vertices may tie at distance 0
        search = Search(g.int_adjacency())
        brute = brute_all_distances(g)
        oracle = apsp(g)
        for s in range(g.n):
            exact = {t: d * g.scale for (u, t), d in brute.items() if u == s and d is not INF}
            assert settled_map(search, s) == exact
            assert oracle.row(s) == [exact.get(t, INF) for t in range(g.n)]
            limit = rng.randint(0, max(exact.values()) + 1)
            assert settled_map(search, s, limit=limit) == {t: d for t, d in exact.items() if d <= limit}
            for t in range(g.n):
                got = settled_map(search, s, {t}, limit)
                assert (t in got) == (t in exact and exact[t] <= limit)
                assert all(exact[v] == d for v, d in got.items())
            # target sets mixing unreachable vertices, vertices beyond the
            # limit and zero-distance ties; an empty set stops at the source
            assert settled_map(search, s, set(), limit) == {s: 0}
            for _ in range(4):
                targets = {t for t in range(g.n) if rng.random() < 0.4}
                for lim in (limit, None):
                    got = settled_map(search, s, targets, lim)
                    for t in targets:
                        assert (t in got) == (t in exact and (lim is None or exact[t] <= lim))
                    assert all(exact[v] == d for v, d in got.items())

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=6, positive=False), st.randoms(use_true_random=False))
    def test_rest_row_prunes_toward_the_target(self, g, rng):
        # rest is g's distance row of the target t; over every subgraph of g
        # (every one up to 5 edges, else 32 drawn) it bounds the distance to
        # t from below. Zero-weight edges and disconnected pairs included.
        keys = sorted(g.edge_keys)
        if len(keys) <= 5:
            subsets = [[k for i, k in enumerate(keys) if mask >> i & 1] for mask in range(1 << len(keys))]
        else:
            subsets = [[k for k in keys if rng.random() < 0.6] for _ in range(32)]
        rows = apsp(g)
        for sub in subsets:
            search = Search(int_adjacency(g, sub))
            for s in range(g.n):
                exact = settled_map(search, s)
                for t in range(g.n):
                    rest = rows.row(t)
                    d = exact.get(t)
                    for limit in {0, rng.randint(0, 30), d or 0, max((d or 0) - 1, 0)}:
                        got = settled_map(search, s, {t}, limit, rest)
                        assert (t in got) == (d is not None and d <= limit)
                        assert all(exact[x] == dx for x, dx in got.items())
                        if t not in got:
                            # a search that misses t settles s and the whole pruned ball
                            assert got.keys() == {s} | {x for x, dx in exact.items() if dx + rest[x] <= limit}

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=6, positive=False), st.randoms(use_true_random=False), st.sampled_from([1, 10**400]))
    def test_capped_rows_prune_as_lower_bounds(self, g, rng, unit):
        # min(row, c), g's distance row of t capped at any c >= 0 (and c
        # where t is unreachable), is 0 at t and consistent over every
        # subgraph of g, so it prunes as the row does; `unit` puts the
        # weights beyond the float range
        g = WeightedGraph(g.n, tuple((u, v, w * unit) for u, v, w in g.edges))
        rows = apsp(g)
        top = max([d for s in range(g.n) for d in rows.row(s) if d is not INF], default=0)
        for _ in range(4):
            search = Search(int_adjacency(g, [k for k in g.edge_keys if rng.random() < 0.7]))
            for s in range(g.n):
                exact = settled_map(search, s)
                for t in range(g.n):
                    d = exact.get(t)
                    for c in {0, rng.randint(0, top), top + 1}:
                        rest = [min(r, c) for r in rows.row(t)]
                        for limit in {0, rng.randint(0, top), d or 0, max((d or 0) - 1, 0)}:
                            got = settled_map(search, s, {t}, limit, rest)
                            assert (t in got) == (t in settled_map(search, s, {t}, limit))
                            assert all(exact[x] == dx for x, dx in got.items())
                            if t not in got:
                                assert got.keys() == {s} | {x for x, dx in exact.items() if dx + rest[x] <= limit}

    def test_int_weights_use_the_lcm_scale(self):
        g = WeightedGraph(3, ((0, 1, F(3, 2)), (1, 2, F(5, 6)), (0, 2, F(0))))
        assert g.scale == 6
        assert g.int_weights == {(0, 1): 9, (0, 2): 0, (1, 2): 5}
        assert int_adjacency(g, [(0, 1)]) == [[(1, 9)], [(0, 9)], []]
        assert oracle_dist(apsp(g), 1, 2) == F(5, 6) and apsp(g).row(1)[2] == 5
        assert WeightedGraph(2).scale == 1


class TestSearchReuse:
    """One `Search` keeps its workspace over many runs while its adjacency
    is edited between them; every run settles exactly the map that the
    dict-based search it replaced returns."""

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(max_n=7, positive=False), st.sampled_from([1, 10**400]), st.randoms(use_true_random=False))
    def test_runs_on_an_edited_adjacency_match_previous_dijkstra(self, g, unit, rng):
        # edits as greedy makes them (append a new edge) and as the
        # oracle's checks do (remove an edge, re-add the last removed);
        # g's rows bound every subgraph's distances from below, capped or not
        g = WeightedGraph(g.n, tuple((u, v, w * unit) for u, v, w in g.edges))
        rows = apsp(g)
        top = max([d for s in range(g.n) for d in rows.row(s) if d is not INF], default=0)
        outside = sorted(g.int_weights)
        rng.shuffle(outside)
        inside, removed = [], []
        adj = [[] for _ in range(g.n)]
        search = Search(adj)
        for _ in range(24):
            edit = rng.randrange(4)
            if edit == 0 and outside:
                k = outside.pop()
            elif edit == 1 and inside:
                k = inside.pop(rng.randrange(len(inside)))
                removed.append(k)
                adj[k[0]].remove((k[1], g.int_weights[k]))
                adj[k[1]].remove((k[0], g.int_weights[k]))
                k = None
            elif edit == 2 and removed:
                k = removed.pop()
            else:
                k = None
            if k is not None:
                inside.append(k)
                adj[k[0]].append((k[1], g.int_weights[k]))
                adj[k[1]].append((k[0], g.int_weights[k]))
            s, t = rng.randrange(g.n), rng.randrange(g.n)
            targets = rng.choice([None, set(), {t}, {x for x in range(g.n) if rng.random() < 0.4}])
            limit = rng.choice([None, 0, rng.randint(0, top + 1)])
            rest = None
            if limit is not None and targets == {t} and rng.random() < 0.5:
                rest = [min(r, c) for r in rows.row(t)] if (c := rng.randint(0, top + 1)) <= top else rows.row(t)
            expect = previous_dijkstra(adj, s, targets, limit, rest)
            assert settled_map(search, s, targets, limit, rest) == expect

    def test_a_run_after_one_stopped_at_its_target_reads_no_stale_entry(self):
        # the first run stops on settling 1, leaving 2 reached at distance
        # 1; the second must find 2 anew, at distance 2 over 1-0-2, not
        # keep the stale 1 (which would also hide the edge 1-2 of weight 3)
        adj = [[(1, 1), (2, 1)], [(0, 1), (2, 3)], [(0, 1), (1, 3)]]
        search = Search(adj)
        assert settled_map(search, 0, {1}) == {0: 0, 1: 1} == previous_dijkstra(adj, 0, {1})
        assert search.mark[2] == search.stamp - 1  # reached, not settled
        assert settled_map(search, 1) == {1: 0, 0: 1, 2: 2} == previous_dijkstra(adj, 1)
        # an empty target set stops at the source, a limit of 0 settles only
        # the source here, and a run waits for every target within its limit
        assert settled_map(search, 2, set()) == {2: 0}
        assert settled_map(search, 2, None, 0) == {2: 0}
        assert settled_map(search, 2, {0, 1}, 1) == {2: 0, 0: 1} == previous_dijkstra(adj, 2, {0, 1}, 1)


class TestStretch:
    def test_identity(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(3, 2)), (0, 2, F(2))))
        assert stretch(g, g) == 1

    def test_ladder_missing_center_rung(self):
        g = gen_ladder(4, F(1, 4))
        keep = g.edge_keys - {edge_key(ladder_u(0), ladder_v(4, 0))}
        s = stretch(g, g.subgraph(keep))
        # detour u0 -> u_j -> v_j -> v0 costs eps/2 + 1 + eps/2 = 1 + eps
        assert s == F(5, 4)
        assert s == brute_stretch_over_pairs(g, g.subgraph(keep))

    def test_disconnecting_subgraph(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        assert stretch(g, g.subgraph([(0, 1)])) is INF

    def test_rejects_non_subgraph(self):
        g = WeightedGraph(3, ((0, 1, F(1)),))
        with pytest.raises(ValueError):
            stretch(g, WeightedGraph(3, ((1, 2, F(1)),)))

    @settings(max_examples=40, deadline=None)
    @given(st.booleans().flatmap(lambda positive: small_graphs(positive=positive)), st.randoms(use_true_random=False))
    def test_edge_form_equals_pairwise_form(self, g, rng):
        # zero-weight edges included: h must keep such pairs at distance 0
        keys = sorted(g.edge_keys)
        keep = [k for k in keys if rng.random() < 0.7]
        h = g.subgraph(keep)
        assert stretch(g, h) == brute_stretch_over_pairs(g, h)

    @settings(max_examples=80, deadline=None)
    @given(
        st.booleans().flatmap(lambda positive: small_graphs(max_n=8, positive=positive)),
        st.sampled_from([0, 0.3, 0.7, 0.95, 1]),
        st.randoms(use_true_random=False),
    )
    def test_matches_previous_stretch(self, g, keep_prob, rng):
        # rational and zero weights; low keep probabilities disconnect h
        h = g.subgraph(k for k in sorted(g.edge_keys) if rng.random() < keep_prob)
        assert stretch(g, h) == previous_stretch(g, h)

    def test_checks_only_dropped_edges(self, monkeypatch):
        runs = count_runs(monkeypatch, graphs_module)
        side = 16
        edges = [(r * side + c, r * side + c + 1, F(1)) for r in range(side) for c in range(side - 1)]
        edges += [(r * side + c, (r + 1) * side + c, F(1)) for r in range(side - 1) for c in range(side)]
        g = WeightedGraph(side * side, tuple(edges))
        assert stretch(g, g) == 1 and runs == []
        assert stretch(g, g.subgraph(g.edge_keys - {(0, 1)})) == 3 and [r[0] for r in runs] == [0]

    @staticmethod
    def _count_searches(monkeypatch):
        """A function giving the number of vertices that each search
        `stretch` has run so far settled."""
        runs = count_runs(monkeypatch, graphs_module)
        return lambda: [settled for _, _, settled, _ in runs]

    def test_searches_on_the_sat_catalogue_optima(self, monkeypatch):
        # the dropped edges are checked on h's zero-weight quotient: 75
        # searches settling 1,168 vertices, where searching h itself took
        # 119 settling 2,883
        eps = F(1, 10)
        pairs = []
        for inst in _hardness_catalogue():
            g = reduce_sat(inst, eps).graph
            pairs.append((g, g.subgraph(exact_opt_spanner(g, eps, max_edges=64).opt_edges)))
        settled = self._count_searches(monkeypatch)
        assert [stretch(g, h) for g, h in pairs] == [F(11, 10)] * 10
        assert (len(settled()), sum(settled())) == (75, 1168)
        monkeypatch.undo()
        assert [previous_stretch(g, h) for g, h in pairs] == [F(11, 10)] * 10

    def test_dropped_edge_inside_a_zero_component_needs_no_search(self, monkeypatch):
        # 0-2 (weight 5) joins two vertices of h's zero component {0, 1, 2}
        g = WeightedGraph(4, ((0, 1, F(0)), (1, 2, F(0)), (0, 2, F(5)), (2, 3, F(1))))
        h = g.subgraph([(0, 1), (1, 2), (2, 3)])
        settled = self._count_searches(monkeypatch)
        assert stretch(g, h) == 1 == previous_stretch(g, h)
        assert settled() == []

    def test_zero_dropped_edge_between_components_is_inf(self, monkeypatch):
        # h keeps {0, 1} and {2, 3} zero-joined and 1-2 of weight 1; g's
        # zero-weight 0-3 ends in two components, whose distance is 1
        g = WeightedGraph(4, ((0, 1, F(0)), (2, 3, F(0)), (1, 2, F(1)), (0, 3, F(0))))
        h = g.subgraph([(0, 1), (2, 3), (1, 2)])
        settled = self._count_searches(monkeypatch)
        assert stretch(g, h) is INF and previous_stretch(g, h) is INF
        assert settled() == []

    def test_lightest_dropped_edge_of_a_quotient_pair_is_checked(self, monkeypatch):
        # components {0, 1} and {2, 3} are 6 apart through vertex 4; g also
        # joins them by 0-2 (weight 2) and, later in key order, 1-3 (weight
        # 5); the ratio 3 of the lighter one is the worse; one search checks both
        g = WeightedGraph(5, ((0, 1, F(0)), (2, 3, F(0)), (1, 4, F(3)), (2, 4, F(3)), (0, 2, F(2)), (1, 3, F(5))))
        h = g.subgraph([(0, 1), (2, 3), (1, 4), (2, 4)])
        settled = self._count_searches(monkeypatch)
        assert stretch(g, h) == 3 == previous_stretch(g, h)
        assert len(settled()) == 1

    def test_zero_weight_edge_needs_zero_distance(self):
        g = WeightedGraph(3, ((0, 1, F(0)), (0, 2, F(0)), (1, 2, F(1))))
        assert stretch(g, g.subgraph([(0, 2), (1, 2)])) is INF
        assert stretch(g, g.subgraph([(0, 1), (0, 2)])) == 1
        assert stretch(g, g) == 1

    def test_edgeless_graph_needs_no_distance_table(self):
        # an n x n table would take about 72 MB here
        g = WeightedGraph(3000)
        tracemalloc.start()
        try:
            assert stretch(g, g) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestComponents:
    def test_labels_follow_the_order_of_the_roots(self):
        # (0, 2) links 0 under 2, so the roots are 1 and 2; numbering by
        # first vertex instead would label {0, 2} first
        assert components(3, [(0, 2)]) == ([1, 0, 1], 2)
        assert components(4, [(2, 1), (3, 0)]) == ([0, 1, 1, 0], 2)
        assert components(3, []) == ([0, 1, 2], 3)


class TestNormalize:
    def test_triangle(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(1)), (0, 2, F(3))))
        assert normalize_edges(g).edge_keys == {(0, 1), (1, 2)}

    def test_ladder_unchanged(self):
        g = gen_ladder(3, F(1, 3))
        assert normalize_edges(g) == g

    def test_empty(self):
        g = WeightedGraph(0)
        assert normalize_edges(g) == g

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_idempotent_and_distance_preserving(self, g):
        g1 = normalize_edges(g)
        assert normalize_edges(g1) == g1
        d0, d1 = apsp(g), apsp(g1)
        for s in range(g.n):
            for t in range(g.n):
                assert oracle_dist(d0, s, t) == oracle_dist(d1, s, t)


class TestFloorPow2:
    @pytest.mark.parametrize("x,expect", [(1, 1), (5, 4), (16, 16), (17, 16), (1023, 512)])
    def test_values(self, x, expect):
        assert floor_pow2(x) == expect

    def test_rejects_non_positive(self):
        for bad in (0, -3, F(1, 2)):
            with pytest.raises(ValueError):
                floor_pow2(bad)


class TestScaleToIntegers:
    def test_examples(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(1, 4)), (0, 2, F(1, 4))))
        scaled, scale = scale_to_integers(g)
        assert scale == 4
        assert sorted(w for *_, w in scaled.edges) == [F(1), F(1), F(4)]

        g2 = WeightedGraph(3, ((0, 1, F(3, 2)), (1, 2, F(5, 6))))
        scaled2, scale2 = scale_to_integers(g2)
        assert scale2 == 6 and sorted(w for *_, w in scaled2.edges) == [F(5), F(9)]

        g3 = WeightedGraph(2, ((0, 1, F(7)),))
        assert scale_to_integers(g3) == (g3, 1)

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_preserves_stretch_exactly(self, g, rng):
        keep = [k for k in sorted(g.edge_keys) if rng.random() < 0.7]
        h = g.subgraph(keep)
        scaled, _ = scale_to_integers(g)
        assert stretch(scaled, scaled.subgraph(keep)) == stretch(g, h)


class TestWalks:
    def test_concat_identity(self):
        g = WeightedGraph(2, ((0, 1, F(2)),))
        single = Walk((0,), ())
        edge = walk_from_vertices(g, (0, 1))
        assert concat(single, edge) == edge

    def test_concat_weights_add(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(5, 2))))
        a = walk_from_vertices(g, (0, 1))
        b = walk_from_vertices(g, (1, 2))
        joined = concat(a, b)
        assert joined.vertices == (0, 1, 2)
        assert joined.weight == a.weight + b.weight == F(7, 2)

    def test_concat_endpoint_mismatch(self):
        g = WeightedGraph(4, ((0, 1, F(1)), (2, 3, F(1))))
        with pytest.raises(ValueError):
            concat(walk_from_vertices(g, (0, 1)), walk_from_vertices(g, (2, 3)))

    def test_walk_requires_host_edges(self):
        g = WeightedGraph(3, ((0, 1, F(1)),))
        with pytest.raises(ValueError):
            walk_from_vertices(g, (0, 2))

    def test_single_vertex_weight_zero(self):
        assert Walk((4,), ()).weight == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    def test_concat_additive_on_random_walks(self, mids):
        g = WeightedGraph(4, tuple((u, v, F(u + v + 1, 2)) for u in range(4) for v in range(u + 1, 4)))
        verts = [0] + [m for prev, m in zip([0] + mids, mids) if m != prev]
        walk = walk_from_vertices(g, verts)
        for cut in range(len(verts)):
            left = walk_from_vertices(g, verts[: cut + 1])
            right = walk_from_vertices(g, verts[cut:])
            assert concat(left, right) == walk
            assert left.weight + right.weight == walk.weight


class TestGraphIO:
    def test_round_trip_bit_exact(self):
        g = gen_ladder(3, F(1, 7))
        text = format_graph(g)
        assert parse_graph(text) == g
        assert format_graph(parse_graph(text)) == text

    def test_comments_and_errors(self):
        text = "# hello\n2 1 planar:1\n0 1 3/2\n"
        g = parse_graph(text)
        assert g.declared_planar and g.weights[(0, 1)] == F(3, 2)
        with pytest.raises(ValueError):
            parse_graph("2 2 planar:0\n0 1 1\n")
        with pytest.raises(ValueError):
            parse_graph("")

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="0 1 1/0"):
            parse_graph("2 1 planar:0\n0 1 1/0\n")

    def test_connectivity_helper(self):
        assert is_connected(WeightedGraph(1))
        assert not is_connected(WeightedGraph(2))
        assert is_connected(WeightedGraph(2, ((0, 1, F(1)),)))

    def test_too_few_edges_answer_before_any_per_vertex_work(self, monkeypatch):
        def fail(n, keys):
            raise AssertionError("components called")

        monkeypatch.setattr(graphs_module, "components", fail)
        assert not is_connected(WeightedGraph(10**9))
        assert not is_connected(WeightedGraph(4, ((0, 1, F(1)), (1, 2, F(1)))))
