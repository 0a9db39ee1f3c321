import random
from fractions import Fraction as F

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from spannerlab.graphs import WeightedGraph, edge_key
from spannerlab.hardness import ABOVE, BELOW, Clause, SatInstance, reduce_sat
from spannerlab.instances import gen_ladder, ladder_u, ladder_v
from spannerlab.oracle import (
    OracleCapError,
    exact_opt_spanner,
    is_spanner,
    sat_brute_force,
)

from bruteforce import brute_opt_spanner, previous_exact_opt_spanner, random_connected_graph
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


class TestAgainstPreviousOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(), st.sampled_from([0, 0.2, 0.5]))
    def test_drawn_graphs(self, rng, integer, zero_prob):
        g = random_connected_graph(rng, max_n=7, max_extra=6, max_w=6, integer=integer)
        g = WeightedGraph(g.n, tuple((u, v, F(0) if rng.random() < zero_prob else w) for u, v, w in g.edges))
        for eps in (F(0), F(1, 10), F(1, 3), F(1), F(3)):
            assert exact_opt_spanner(g, eps) == previous_exact_opt_spanner(g, eps)

    def test_sat_threshold_graphs(self):
        eps = F(1, 10)
        for inst in _hardness_catalogue():
            g = reduce_sat(inst, eps).graph
            assert exact_opt_spanner(g, eps, max_edges=64) == previous_exact_opt_spanner(g, eps, max_edges=64)

    def test_adjacency_is_built_once_per_call(self, monkeypatch):
        calls = []
        real = WeightedGraph.int_adjacency

        def counting(self, keys=None):
            calls.append(keys)
            return real(self, keys)

        monkeypatch.setattr(WeightedGraph, "int_adjacency", counting)
        eps = F(1, 10)
        explored = []
        for inst in _hardness_catalogue():
            g = reduce_sat(inst, eps).graph
            calls.clear()
            explored.append(exact_opt_spanner(g, eps, max_edges=64).nodes_explored)
            # one for the distance oracle, one for the search
            assert len(calls) == 2
        assert max(explored) > 10 * min(explored)


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
