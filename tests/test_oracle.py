import gc
import random
from fractions import Fraction as F

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import spannerlab.oracle as oracle_module
from spannerlab.graphs import INF, WeightedGraph, _find, apsp, components, edge_key, quotient
from spannerlab.hardness import ABOVE, BELOW, Clause, SatInstance, reduce_sat
from spannerlab.instances import gen_ladder, ladder_u, ladder_v
from spannerlab.oracle import (
    OracleCapError,
    exact_opt_spanner,
    is_spanner,
    sat_brute_force,
)

from bruteforce import (
    _previous_completion_bound,
    brute_opt_spanner,
    count_runs,
    feasible_exclusion_opt_spanner,
    int_adjacency,
    previous_dijkstra,
    previous_exact_opt_spanner,
    random_connected_graph,
    seeded_grid,
    zero_weighted,
)
from test_acceptance import _hardness_catalogue


class TestIsSpanner:
    def test_whole_graph(self):
        g = gen_ladder(3, F(1, 3))
        assert is_spanner(g, g, F(1, 100))

    def test_star_only_ladder_subgraph_fails(self):
        n = 4
        g = gen_ladder(n, F(1, 8))
        stars = {edge_key(ladder_u(0), ladder_u(j)) for j in range(1, n + 1)}
        stars |= {edge_key(ladder_v(n, 0), ladder_v(n, j)) for j in range(1, n + 1)}
        h = g.subgraph(stars)
        assert not is_spanner(g, h, F(1, 8))  # the two stars are disconnected

    def test_boundary_is_inclusive(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(1)), (0, 2, F(2))))
        h = g.subgraph([(0, 1), (1, 2)])
        assert is_spanner(g, h, F(0))  # detour exactly matches the edge


def _searched(g):
    """The graph the oracle searches, g's zero-weight quotient, and its back-map."""
    q, _, back = quotient(g, [k for k, w in g.int_weights.items() if w == 0])
    return q, back


def _quotient_under_the_cap():
    """A zero-weight path 0-1-2 with a positive chord (0, 2), and vertex 3
    joined to all three: 4 positive edges, 1 in the zero-weight quotient."""
    return WeightedGraph(4, ((0, 1, F(0)), (1, 2, F(0)), (0, 2, F(1)), (0, 3, F(1)), (1, 3, F(1)), (2, 3, F(2))))


class TestExactOptSpanner:
    def test_ladder_optimum(self):
        n = 3
        g = gen_ladder(n, F(1, 2))
        res = exact_opt_spanner(g, F(1, 2))
        assert res.opt_weight == 1 + n * F(1, 2)
        expect = {edge_key(ladder_u(0), ladder_v(n, 0))}
        expect |= {edge_key(ladder_u(0), ladder_u(j)) for j in range(1, n + 1)}
        expect |= {edge_key(ladder_v(n, 0), ladder_v(n, j)) for j in range(1, n + 1)}
        assert res.opt_edges == expect

    def test_tree_is_its_own_optimum(self):
        tree = WeightedGraph(4, ((0, 1, F(2)), (1, 2, F(1)), (1, 3, F(4))))
        res = exact_opt_spanner(tree, F(1, 10))
        assert res.opt_edges == tree.edge_keys

    def test_unit_triangle_keeps_everything(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(1)), (0, 2, F(1))))
        res = exact_opt_spanner(g, F(1, 10))
        assert res.opt_edges == g.edge_keys
        assert res.opt_weight == 3

    def test_cap_refusal(self):
        edges = tuple((u, v, F(1)) for u in range(8) for v in range(u + 1, 8))
        g = WeightedGraph(8, edges)
        with pytest.raises(OracleCapError):
            exact_opt_spanner(g, F(1, 2), max_edges=10)

    def test_cap_counts_the_positive_edges_of_g(self):
        g = _quotient_under_the_cap()
        assert _searched(g)[0].m == 1
        with pytest.raises(OracleCapError, match="4 positive-weight edges exceed the cap 1"):
            exact_opt_spanner(g, F(1, 2), max_edges=1)
        assert exact_opt_spanner(g, F(1, 2), max_edges=4).opt_weight == 1

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError, match="eps >= 0"):
            exact_opt_spanner(gen_ladder(3, F(1, 2)), F(-1, 2))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            exact_opt_spanner(WeightedGraph(3, ((0, 1, F(1)),)), F(1, 2))

    def test_matches_full_enumeration(self):
        for integer in (True, False):
            rng = random.Random(42)
            for _ in range(12):
                g = random_connected_graph(rng, max_n=6, max_extra=4, max_w=6, integer=integer)
                eps = rng.choice([F(1, 10), F(1, 3), F(1)])
                res = exact_opt_spanner(g, eps)
                brute_w, brute_edges = brute_opt_spanner(g, eps)
                assert res.opt_weight == brute_w
                assert tuple(sorted(res.opt_edges)) == brute_edges

    def test_one_edge_removal_sweep(self):
        rng = random.Random(7)
        for _ in range(8):
            g = random_connected_graph(rng, max_n=6, max_extra=3, max_w=5)
            eps = F(1, 4)
            res = exact_opt_spanner(g, eps)
            opt = g.subgraph(res.opt_edges)
            assert is_spanner(g, opt, eps)
            for k in sorted(res.opt_edges):
                smaller = g.subgraph(res.opt_edges - {k})
                # dropping an edge breaks the spanner or costs nothing
                assert not is_spanner(g, smaller, eps) or g.weights[k] == 0

    def test_weight_monotone_in_eps(self):
        rng = random.Random(11)
        for _ in range(8):
            g = random_connected_graph(rng, max_n=6, max_extra=4, max_w=6)
            weights = [
                exact_opt_spanner(g, eps).opt_weight
                for eps in (F(1, 100), F(1, 10), F(1, 2), F(2))
            ]
            assert weights == sorted(weights, reverse=True)


def _check_against_references(res, g, eps, max_edges=24):
    """`res`, the oracle's result on g, has the weight and edges of the
    previous oracle on g, which searched g itself and whose local check let
    infeasible subtrees run to their leaves; no more nodes are explored.
    The reference search that checks every edge at each exclusion, run on
    the same zero-weight quotient, explores exactly as many nodes and finds
    the same weight; lifted to g, its edges are no smaller than `res`'s,
    which break ties on g's keys. Returns the previous oracle's node count."""
    prev = previous_exact_opt_spanner(g, eps, max_edges)
    assert (res.opt_weight, res.opt_edges) == (prev.opt_weight, prev.opt_edges)
    assert res.nodes_explored <= prev.nodes_explored
    q, back = _searched(g)
    ref = feasible_exclusion_opt_spanner(q, eps, max_edges)
    assert (ref.opt_weight, ref.nodes_explored) == (res.opt_weight * g.scale, res.nodes_explored)
    lifted = {back[k] for k in ref.opt_edges} | {k for k, w in g.int_weights.items() if w == 0}
    assert sorted(lifted) >= sorted(res.opt_edges)
    assert sum(g.weights[k] for k in lifted) == res.opt_weight and is_spanner(g, g.subgraph(lifted), eps)
    return prev.nodes_explored


class TestAgainstPreviousOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(), st.sampled_from([0, 0.2, 0.5]))
    def test_drawn_graphs(self, rng, integer, zero_prob):
        g = random_connected_graph(rng, max_n=7, max_extra=6, max_w=6, integer=integer)
        g = WeightedGraph(g.n, tuple((u, v, F(0) if rng.random() < zero_prob else w) for u, v, w in g.edges))
        for eps in (F(0), F(1, 10), F(1, 3), F(1), F(3)):
            _check_against_references(exact_opt_spanner(g, eps), g, eps)

    def test_sat_threshold_graphs(self):
        eps = F(1, 10)
        nodes = previous = 0
        for inst in _hardness_catalogue():
            g = reduce_sat(inst, eps).graph
            res = exact_opt_spanner(g, eps, max_edges=64)
            previous += _check_against_references(res, g, eps, max_edges=64)
            nodes += res.nodes_explored
        # the previous oracle reached the leaves of dead subtrees here; with
        # the feasibility cut, searching g itself took 3,927 nodes, and its
        # zero-weight quotient takes fewer
        assert (nodes, previous) == (2_678, 14_793)

    @pytest.mark.parametrize("k", range(4, 9))
    def test_seeded_grids(self, k):
        g, eps = seeded_grid(k, k), F(1, 4)
        _check_against_references(exact_opt_spanner(g, eps, max_edges=1000), g, eps, max_edges=1000)

    def test_ties_break_on_g_keys(self):
        # the quotient joins {0, 2} to 1 by (1, 2) and to 3 by (0, 3); the two
        # optima of weight 3 differ in those edges, and q's keys would pick
        # (1, 2), whose lift is the larger g-set
        g = WeightedGraph(4, ((0, 2, F(0)), (0, 3, F(2)), (1, 2, F(2)), (1, 3, F(1)), (2, 3, F(2))))
        res = exact_opt_spanner(g, F(1))
        assert (res.opt_weight, res.opt_edges) == (3, {(0, 2), (0, 3), (1, 3)})

    def test_tie_heavy_drawn_graphs(self):
        # weights in {0, 1, 2} tie often, between and inside the zero-weight
        # components; a tie-break on the quotient's keys fails here
        rng = random.Random(25)
        for i in range(400):
            g = random_connected_graph(rng, max_n=7, max_extra=6, max_w=2)
            zero_prob = (0.3, 0.5, 0.7)[i % 3]
            g = WeightedGraph(g.n, tuple((u, v, F(0) if rng.random() < zero_prob else w) for u, v, w in g.edges))
            for eps in (F(0), F(1, 10), F(1, 2), F(1)):
                res, prev = exact_opt_spanner(g, eps), previous_exact_opt_spanner(g, eps)
                assert (res.opt_weight, res.opt_edges) == (prev.opt_weight, prev.opt_edges), (g, eps)

    def test_weights_beyond_float_range(self):
        # weights of 1e400 and 1e-400 are 10^800 and 1 in units of 1/scale:
        # a row capped at a small limit sits next to distances no float
        # holds, so the cap must stay an int
        rng = random.Random(26)
        huge, tiny = F("1e400"), F("1e-400")
        for _ in range(30):
            g = random_connected_graph(rng, max_n=7, max_extra=6, max_w=3)
            g = WeightedGraph(g.n, tuple((u, v, w * rng.choice((huge, tiny))) for u, v, w in g.edges))
            for eps in (F(0), F(1, 10), F(1)):
                res, prev = exact_opt_spanner(g, eps), previous_exact_opt_spanner(g, eps)
                assert (res.opt_weight, res.opt_edges) == (prev.opt_weight, prev.opt_edges), (g, eps)

    def test_adjacency_is_built_once_per_call(self, monkeypatch):
        calls = []
        real = WeightedGraph.int_adjacency

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(WeightedGraph, "int_adjacency", counting)
        eps = F(1, 10)
        explored = []
        for inst in _hardness_catalogue():
            g = reduce_sat(inst, eps).graph
            calls.clear()
            explored.append(exact_opt_spanner(g, eps, max_edges=64).nodes_explored)
            # one, of g's zero-weight quotient, a graph of its own: the
            # distance rows and the search share it
            assert len(calls) == 1 and calls[0] is not g
        assert max(explored) > 10 * min(explored)

    def test_a_call_leaves_no_cyclic_garbage(self):
        # the search state, its memos and the distance oracle are freed by
        # reference counting when the call returns
        eps = F(1, 10)
        graphs = [reduce_sat(inst, eps).graph for inst in _hardness_catalogue()]
        gc.collect()
        gc.disable()
        try:
            for g in graphs:
                exact_opt_spanner(g, eps, max_edges=64)
                assert gc.collect() == 0
        finally:
            gc.enable()


@st.composite
def completion_bound_inputs(draw):
    """Arguments of `_completion_bound`: base components of a few vertices,
    chosen edges, and undecided (weight, edge) pairs heaviest first."""
    n = draw(st.integers(2, 7))
    comps = draw(st.integers(1, n))
    label = [x % comps for x in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    chosen = {k for k in edges if draw(st.integers(0, 3)) == 0}
    free = sorted(((draw(st.integers(1, 5)), k) for k in edges if k not in chosen), key=lambda e: (-e[0], e[1]))
    idx = draw(st.integers(0, max(len(free) - 1, 0)))
    return label, comps, chosen, free, idx


def _carried(label, comps, chosen):
    """The union-find over the base components that the search carries to
    a node whose chosen edges are `chosen`, and its class count: each
    inclusion copies it only when its edge joins two classes."""
    parent = list(range(comps))
    for u, v in chosen:
        ru, rv = _find(parent, label[u]), _find(parent, label[v])
        if ru != rv:
            parent = parent.copy()
            parent[ru] = rv
            comps -= 1
    return parent, comps


class TestCompletionBound:
    @settings(max_examples=200, deadline=None)
    @given(completion_bound_inputs())
    def test_exclusion_children_inherit_the_bound(self, args):
        # the search hands an exclusion child (idx + 1, same chosen) its
        # parent's bound; that is the child's own bound unless the child's
        # edges cannot connect, and then free[idx]'s endpoints are apart
        # without it, so the child is never searched
        label, comps, chosen, free, idx = args
        if idx == len(free):
            return
        parent, left = _carried(label, comps, chosen)
        before = parent.copy()
        bound = oracle_module._completion_bound(parent, left, label, free, idx)
        child = oracle_module._completion_bound(parent, left, label, free, idx + 1)
        # the child shares the union-find, so the bound must not change it
        assert parent == before
        if child is None and bound is not None:
            rest = [*chosen, *(k for _, k in free[idx + 1:])]
            part, _ = components(comps, [(label[u], label[v]) for u, v in rest])
            u, v = free[idx][1]
            assert part[label[u]] != part[label[v]]
        else:
            assert child == bound

    @settings(max_examples=200, deadline=None)
    @given(completion_bound_inputs())
    def test_carried_union_find_matches_previous_bound(self, args):
        # the previous bound re-unions the base and chosen edges over the
        # vertices and reads the undecided ones by ascending weight
        label, comps, chosen, free, idx = args
        n = len(label)
        base = {(label.index(label[x]), x) for x in range(n) if label.index(label[x]) != x}
        parent, left = _carried(label, comps, chosen)
        expect = _previous_completion_bound(WeightedGraph(n), base | chosen, sorted(free[idx:]))
        assert oracle_module._completion_bound(parent, left, label, free, idx) == expect


def _edges(checks, mask) -> set:
    """The edges of the bitset `mask` of a `_Checks`."""
    return {k for k, b in checks.bit.items() if mask & b}


def _check_path(g, k, limit, edges):
    """The edge set `edges` is a simple u-v path of g within `limit`: from
    v, each vertex reached has exactly one edge left, until u is reached
    with none left."""
    u, v = k
    left, x, total = set(edges), v, 0
    while left:
        (e,) = [e for e in left if x in e]
        left.remove(e)
        x = e[0] if x == e[1] else e[1]
        total += g.int_weights[e]
    assert x == u and total <= limit


def _check_witness_answers(mp, g) -> list[tuple[bool, bool]]:
    """Wrap the oracle's threshold check on g, which runs on g's zero-weight
    quotient (rebound to g below), so that every answer, those given from a
    witness or a certificate included, is checked against a fresh full
    search over an adjacency rebuilt from the same edge set. A path
    answered lies in that edge set. Every witness stored for the edge is a
    u-v path of the quotient within the limit, and every certificate stored
    is the set its definition gave, with exact distances to v, at the
    search that made it; the lists only grow, by one entry per search. The
    row that prunes toward v is v's exact row capped at a value above every
    limit of an edge (u, v). Returns (answer, searched) pairs in
    the order given, where `searched` tells whether the check ran a search
    of its own."""
    g, _ = _searched(g)
    real = oracle_module._Checks.within
    answers = []
    searches = count_runs(mp, oracle_module)
    # per _Checks and g-edge: the witnesses and the certificates' edge sets
    # that its searches produced, in order
    made: dict = {}

    def checked(self, k):
        before = len(searches)
        found = real(self, k)
        got = found is not None
        keys = _edges(self, self.available)
        fresh = int_adjacency(g, keys)
        assert [sorted(row) for row in self.search.adj] == [sorted(row) for row in fresh]
        assert keys == g.edge_keys - set(self.excluded)
        u, v = k
        limit = self.thresholds[k]
        assert got == (v in previous_dijkstra(fresh, u, {v}, limit))
        row, exact = self.rows[v], apsp(g).row(v)
        cap = min([r for r, d in zip(row, exact) if r != d], default=INF)
        assert cap > max(self.thresholds[j] for j in self.thresholds if j[1] == v)
        assert row == [min(d, cap) for d in exact]
        witnesses, certs = made.setdefault((self, k), ([], []))
        searched = len(searches) > before
        if got:
            assert keys.issuperset(_edges(self, found))
            if searched:
                witnesses.append(found)
        elif searched:
            # the certificate is every excluded edge that leaves the ball of
            # u within the limit, from either endpoint, by its definition
            dist_u = previous_dijkstra(fresh, u)
            to_v = apsp(g).row(v)
            certs.append({
                (a, b)
                for a, b in self.excluded
                if any(x in dist_u and dist_u[x] + g.int_weights[a, b] + to_v[y] <= limit for x, y in ((a, b), (b, a)))
            })
        assert self.witness[k] == witnesses
        for path in self.witness[k]:
            _check_path(g, k, limit, _edges(self, path))
        assert [_edges(self, c) for c in self.cert[k]] == certs
        answers.append((got, searched))
        return found

    mp.setattr(oracle_module._Checks, "within", checked)
    return answers


def _check_holds(mp, g) -> list[int]:
    """Wrap the oracle's exclusion and restore on g, which run on g's
    zero-weight quotient (rebound to g below), so that after every accepted
    exclusion, and after every restore, each excluded edge holds a path
    that is wholly available and within its limit, and no other edge holds
    one. Excluding k checks k, then exactly the held paths that contained
    k, in the order they were excluded: all of them when the exclusion is
    accepted, and up to the first that fails when not. Returns [accepted
    exclusions, paths that an accepted exclusion replaced]."""
    g, _ = _searched(g)
    real_exclude = oracle_module._Checks.exclude
    real_restore = oracle_module._Checks.restore
    real_within = oracle_module._Checks.within
    counts = [0, 0]
    checked = []

    def check(self):
        assert set(self.held) == set(self.excluded)
        for j, path in self.held.items():
            assert path & self.available == path
            _check_path(g, j, self.thresholds[j], _edges(self, path))

    def within(self, k):
        checked.append(k)
        return real_within(self, k)

    def exclude(self, k):
        before = dict(self.held)
        checked.clear()
        ok = real_exclude(self, k)
        expect = [k, *(j for j, path in before.items() if path & self.bit[k])]
        assert checked == (expect if ok else expect[:len(checked)])
        if ok:
            counts[0] += 1
            counts[1] += sum(self.held[j] != path for j, path in before.items())
            check(self)
        return ok

    def restore(self):
        real_restore(self)
        check(self)

    mp.setattr(oracle_module._Checks, "exclude", exclude)
    mp.setattr(oracle_module._Checks, "restore", restore)
    mp.setattr(oracle_module._Checks, "within", within)
    return counts


class TestWitnessPaths:
    """Threshold checks answered from stored witness paths or failure
    certificates give the same booleans as a fresh search, and every stored
    witness is a real path."""

    def test_sat_threshold_graphs(self):
        eps = F(1, 10)
        seen = set()
        for inst in _hardness_catalogue():
            g = reduce_sat(inst, eps).graph
            with pytest.MonkeyPatch.context() as mp:
                answers = _check_witness_answers(mp, g)
                exact_opt_spanner(g, eps, max_edges=64)
            assert {got for got, _ in answers} == {True, False}
            seen.update(answers)
        # searches that pass and fail, witness yeses and certificate noes
        assert seen == {(True, True), (False, True), (True, False), (False, False)}

    @staticmethod
    def _check_drawn(rng, integer, zero_prob):
        g = random_connected_graph(rng, max_n=7, max_extra=6, max_w=6, integer=integer)
        g = zero_weighted(rng, g, zero_prob)
        for eps in (F(0), F(1, 10), F(1, 3), F(1)):
            with pytest.MonkeyPatch.context() as mp:
                _check_witness_answers(mp, g)
                _check_holds(mp, g)
                res = exact_opt_spanner(g, eps)
            _check_against_references(res, g, eps)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(), st.sampled_from([0, 0.2, 0.5]))
    def test_drawn_graphs_with_zero_weight_cycles(self, rng, integer, zero_prob):
        self._check_drawn(rng, integer, zero_prob)

    def test_seeded_graphs_with_zero_weight_cycles(self):
        # the same checks on a fixed draw, so that every run covers
        # certificate edges that leave the ball only from their larger end
        rng = random.Random(12)
        for i in range(30):
            self._check_drawn(rng, i % 2 == 0, (0, 0.2, 0.5)[i % 3])

    def test_dijkstra_calls_on_the_sat_catalogue(self, monkeypatch):
        # Searching afresh for every check, and checking the dropped edge
        # from both of its endpoints, took 16,751 calls here, 13,768 of them
        # answering yes. Witnesses left 3,346 calls, 2,983 of them failing,
        # which settled 74,940 vertices. Certificates answer most repeat
        # failures, and searches pruned toward the target settle few vertices:
        # 730 calls, 363 passing, settled 5,945 vertices over 14,793 nodes.
        # Cutting an exclusion once any excluded edge loses its path, and
        # keeping every witness and certificate, left 599 calls, 290 passing,
        # settling 5,145 vertices over 3,927 nodes. Searching g's zero-weight
        # quotient left 557 calls, 248 passing, settling 2,377 vertices, and
        # re-checking the held paths in the order they were held leaves the
        # counts below. The rows that prune the checks come from searches
        # with no targets, each bounded by the largest floor((1+eps)*w) of
        # the edges (u, v), u < v, toward its source v: APSP on the
        # quotients ran 222 full searches settling 5,250 vertices.
        runs = count_runs(monkeypatch, oracle_module)
        eps = F(1, 10)
        nodes = sum(
            exact_opt_spanner(reduce_sat(inst, eps).graph, eps, max_edges=64).nodes_explored
            for inst in _hardness_catalogue()
        )
        assert nodes == 2_678
        rows = [settled for _, targets, settled, _ in runs if targets is None]
        calls = [(found, settled) for _, targets, settled, found in runs if targets is not None]
        assert (len(calls), sum(found for found, _ in calls)) == (557, 248)
        assert sum(settled for _, settled in calls) == 2_380
        assert (len(rows), sum(rows)) == (203, 1_930)


class TestHeldPaths:
    """Every excluded edge holds a path within its limit over the available
    edges, and an exclusion re-checks exactly the held paths it breaks."""

    def test_sat_threshold_graphs(self):
        eps = F(1, 10)
        totals = [0, 0]
        for inst in _hardness_catalogue():
            g = reduce_sat(inst, eps).graph
            with pytest.MonkeyPatch.context() as mp:
                counts = _check_holds(mp, g)
                exact_opt_spanner(g, eps, max_edges=64)
            totals = [a + b for a, b in zip(totals, counts)]
        # exclusions that broke a held path elsewhere and found a new one
        assert totals[0] > 0 and totals[1] > 0

    @pytest.mark.parametrize("k", [4, 5])
    def test_seeded_grids(self, k):
        g, eps = seeded_grid(k, k), F(1, 4)
        with pytest.MonkeyPatch.context() as mp:
            counts = _check_holds(mp, g)
            exact_opt_spanner(g, eps, max_edges=1000)
        assert counts[0] > 0


class TestSatBruteForce:
    def test_three_clause_formula(self):
        # c1 = x0 or x1 or x2 (above), c2 = x0 or x3 or x4 (above),
        # c3 = !x0 or !x2 or !x3 (below)
        inst = SatInstance(
            5,
            (
                Clause(ABOVE, (0, 1, 2)),
                Clause(ABOVE, (0, 3, 4)),
                Clause(BELOW, (0, 2, 3)),
            ),
        )
        a = sat_brute_force(inst)
        assert a is not None and inst.satisfied_by(a)

    def test_empty_formula(self):
        assert sat_brute_force(SatInstance(0, ())) == ()

    def test_unsatisfiable(self):
        inst = SatInstance(
            2, (Clause(ABOVE, (0, 1)), Clause(BELOW, (0,)), Clause(BELOW, (1,)))
        )
        assert sat_brute_force(inst) is None

    def test_cap(self):
        with pytest.raises(OracleCapError):
            sat_brute_force(SatInstance(25, ()), max_vars=20)
