from fractions import Fraction as F

import pytest

from spannerlab.graphs import apsp, edge_key, is_connected, scale_to_integers, stretch
from spannerlab.greedy import greedy_spanner
from spannerlab.hardness import reduce_sat
from spannerlab.instances import (
    gen_greedy_hard,
    gen_ladder,
    gen_multiladder,
    ladder_u,
    ladder_v,
)
from spannerlab.oracle import exact_opt_spanner
from spannerlab.prune import iterate_prune

from bruteforce import oracle_dist


class TestLadder:
    def test_counts_and_weight(self):
        g = gen_ladder(1, F(1, 2))
        assert g.n == 4 and g.m == 4
        assert g.total_weight == F(5, 2)

    def test_optimum_weight(self):
        n, eps = 3, F(1, 2)
        g = gen_ladder(n, eps)
        assert exact_opt_spanner(g, eps).opt_weight == 1 + n * eps

    def test_every_edge_is_its_own_shortest_path(self):
        g = gen_ladder(4, F(1, 5))
        d = apsp(g)
        for u, v, w in g.edges:
            assert oracle_dist(d, u, v) == w

    def test_perturbation_magnitudes(self):
        n, eps = 5, F(1, 4)
        g = gen_ladder(n, eps, perturb=True)
        bound = eps / (8 * n * n)
        for i in range(n + 1):
            w = g.weights[edge_key(ladder_u(i), ladder_v(n, i))]
            assert 0 < 1 - w < bound
        rungs = [g.weights[edge_key(ladder_u(i), ladder_v(n, i))] for i in range(n + 1)]
        assert len(set(rungs)) == n + 1
        assert max(rungs) == rungs[0]  # center rung scans last

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_ladder(2, F(0))
        with pytest.raises(ValueError):
            gen_ladder(0, F(1, 2))


class TestMultiladder:
    def test_vertex_count(self):
        for k, n in ((1, 2), (3, 4), (2, 1)):
            g = gen_multiladder(k, n, F(1, 3))
            assert g.n == k * (2 * n + 2) + 2
            assert is_connected(g)

    def test_single_block_contains_the_ladder(self):
        k, n, eps = 1, 3, F(1, 3)
        g = gen_multiladder(k, n, eps)
        lad = gen_ladder(n, eps)
        shifted = {(u + 1, v + 1) for u, v in lad.edge_keys}
        assert shifted <= g.edge_keys
        assert g.m == lad.m + 2  # two pendant path edges

    def test_pruning_removes_every_off_center_rung(self):
        k, n, eps = 2, 3, F(1, 4)
        g = gen_multiladder(k, n, eps, perturb=True)
        h0 = greedy_spanner(g, 1 + eps)
        assert h0.edge_keys == g.edge_keys  # adversarial scan keeps everything
        exact = gen_multiladder(k, n, eps)
        gs, scale = scale_to_integers(exact)
        h, logs, states = iterate_prune(gs, eps, initial_spanner=gs.subgraph(h0.edge_keys))
        removed = set().union(*(st.removed for st in states))
        blueances = set()
        for b in range(k):
            base = 1 + b * (2 * n + 2)
            for i in range(1, n + 1):
                blue_rung = edge_key(base + i, base + n + 1 + i)
                blueances.add(blue_rung)
                assert blue_rung not in h.edge_keys
        assert blueances <= removed
        # what stays: k+1 red path edges, k center rungs, 2kn spokes
        assert h.total_weight == scale * ((k + 1) + k + k * n * eps)


class TestGreedyHard:
    def test_size_formula(self):
        g = gen_greedy_hard(F(1, 64), F(2))
        assert g.n == 21  # n = 1 + ceil(1/2 + 8) = 10 posts per column
        assert g.m == 31

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_greedy_hard(F(1, 2), F(1))
        with pytest.raises(ValueError):
            gen_greedy_hard(F(1, 64), F(5))  # 4 x^2 eps > 1
        gen_greedy_hard(F(1, 64), F(4))  # boundary allowed: 4*16/64 = 1

    def test_witness_spanner_numbers(self):
        eps, x = F(1, 64), F(2)
        g = gen_greedy_hard(eps, x)
        n = (g.n - 1) // 2
        witness = g.subgraph(g.edge_keys - {edge_key(i, n + i) for i in range(n)})
        assert witness.total_weight == F(4207, 2048)
        assert witness.total_weight < 4
        assert stretch(g, witness) == 1 + eps

    @pytest.mark.parametrize(
        "eps,x",
        [
            (F(1, 64), F(2)),
            (F(1, 100), F(3, 2)),
            (F(1, 16), F(1)),
            (F(1, 256), F(4)),
        ],
    )
    def test_greedy_pays_more_than_the_bound(self, eps, x):
        g = gen_greedy_hard(eps, x)
        n = (g.n - 1) // 2
        hg = greedy_spanner(g, 1 + x * eps)
        assert hg.total_weight > n
        witness = g.subgraph(g.edge_keys - {edge_key(i, n + i) for i in range(n)})
        assert stretch(g, witness) == 1 + eps
        ratio = hg.total_weight / witness.total_weight
        assert ratio > 1 / (8 * x * x * eps)


def test_declared_planar_graphs_are_planar():
    # the constructors check only m <= 3n - 6; this checks planarity itself
    nx = pytest.importorskip("networkx")
    from test_acceptance import _hardness_catalogue

    eps = F(1, 4)
    graphs = [
        gen_ladder(6, eps),
        gen_ladder(6, eps, perturb=True),
        gen_multiladder(2, 3, eps),
        gen_greedy_hard(F(1, 64), F(2)),
        *(reduce_sat(inst, F(1, 10)).graph for inst in _hardness_catalogue()),
    ]
    for g in graphs:
        assert g.declared_planar
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edge_keys)
        assert nx.check_planarity(h)[0]
