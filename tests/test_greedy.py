from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spannerlab.graphs import WeightedGraph, edge_key, stretch
from spannerlab.greedy import greedy_spanner
from spannerlab.instances import gen_greedy_hard, gen_ladder, ladder_u, ladder_v

from bruteforce import brute_greedy, brute_msf_weight, random_connected_graph, zero_weighted


def test_rejects_bad_parameters():
    g = WeightedGraph(2, ((0, 1, F(1)),))
    with pytest.raises(ValueError):
        greedy_spanner(g, F(1))
    with pytest.raises(ValueError):
        greedy_spanner(WeightedGraph(3, ((0, 1, F(1)),)), F(2))


def test_tree_returned_unchanged():
    tree = WeightedGraph(4, ((0, 1, F(3)), (1, 2, F(1, 2)), (1, 3, F(5))))
    assert greedy_spanner(tree, F(101, 100)) == tree
    assert greedy_spanner(tree, F(10)) == tree


def test_perturbed_ladder_keeps_every_edge():
    # with the tie-forcing nudges, the scan sees rung 0 last yet every detour
    # over an earlier rung exceeds the (1+eps) budget by an exact margin
    n, eps = 6, F(1, 4)
    g = gen_ladder(n, eps, perturb=True)
    h = greedy_spanner(g, 1 + eps)
    assert h.edge_keys == g.edge_keys
    # weight is n + 1 + n*eps up to the nudges, which total below eps/(8n)
    nominal = n + 1 + n * eps
    assert nominal - F(eps, 8 * n) < h.total_weight <= nominal


def test_exact_ladder_scan_finds_the_light_spanner():
    # without nudges the center rung is scanned first among rungs and the
    # other rungs are all skipped at exactly the budget boundary
    n, eps = 6, F(1, 4)
    g = gen_ladder(n, eps)
    h = greedy_spanner(g, 1 + eps)
    expect = {edge_key(ladder_u(0), ladder_v(n, 0))}
    expect |= {edge_key(ladder_u(0), ladder_u(j)) for j in range(1, n + 1)}
    expect |= {edge_key(ladder_v(n, 0), ladder_v(n, j)) for j in range(1, n + 1)}
    assert h.edge_keys == expect
    assert h.total_weight == 1 + n * eps


def test_greedy_hard_instance_drops_shortcut_keeps_crossings():
    eps, x = F(1, 64), F(2)
    g = gen_greedy_hard(eps, x)
    n = (g.n - 1) // 2
    h = greedy_spanner(g, 1 + x * eps)
    shortcut = edge_key(n - 1, n)  # x_n to y_1
    assert shortcut not in h.edge_keys
    crossings = {edge_key(i, n + i) for i in range(n)}
    assert crossings <= h.edge_keys
    assert h.total_weight > n


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([F(21, 20), F(3, 2), F(3)]))
    def test_output_is_a_spanner(self, rng, t):
        g = random_connected_graph(rng, max_n=8, integer=False)
        h = greedy_spanner(g, t)
        assert stretch(g, h) <= t

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([F(21, 20), F(3, 2), F(3)]))
    def test_matches_definitional_greedy(self, rng, t):
        # rational weights leave t*w fractional in units of 1/scale, so the
        # floor in the search limit decides edges the exact stretch test keeps
        g = random_connected_graph(rng, max_n=8, integer=False)
        assert greedy_spanner(g, t).edge_keys == brute_greedy(g, t)

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([F(21, 20), F(3, 2), F(3)]))
    def test_matches_definitional_greedy_with_zero_weights(self, rng, t):
        # a zero-weight edge is kept exactly when no zero-weight path joins its ends
        g = zero_weighted(rng, random_connected_graph(rng, max_n=8, integer=False), 0.3)
        h = greedy_spanner(g, t)
        assert h.edge_keys == brute_greedy(g, t)
        assert stretch(g, h) <= t

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([F(11, 10), F(2)]))
    def test_contains_minimum_spanning_forest(self, rng, t):
        g = random_connected_graph(rng, max_n=7, max_extra=4)
        h = greedy_spanner(g, t)
        assert brute_msf_weight(h) == brute_msf_weight(g)

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_edge_order_does_not_matter(self, rng):
        g = random_connected_graph(rng, max_n=7)
        edges = list(g.edges)
        rng.shuffle(edges)
        permuted = WeightedGraph(g.n, tuple(edges))
        assert greedy_spanner(permuted, F(5, 4)) == greedy_spanner(g, F(5, 4))
