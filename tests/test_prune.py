import inspect
import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

import spannerlab.prune as prune_module
from spannerlab.graphs import (
    DistanceOracle,
    Walk,
    WeightedGraph,
    apsp,
    edge_key,
    scale_to_integers,
    stretch,
)
from spannerlab.greedy import greedy_spanner
from spannerlab.instances import gen_greedy_hard, gen_ladder, gen_multiladder, ladder_u, ladder_v
from spannerlab.prune import (
    CellCapError,
    PruneState,
    contract_and_round,
    endpoint_hanging_sets,
    fill_tables,
    hanging_kappa,
    is_hanging,
    iterate_prune,
    log_star_ceil,
    prune,
    prune_round,
    prune_with_scaling,
    reconstruct,
    select_best_triple,
)

from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    brute_endpoint_hanging_sets,
    previous_fill_tables,
    previous_select_best_triple,
    random_connected_graph,
)

EPS = F(1, 4)


def test_prune_submodule_is_not_shadowed():
    # a package-root attribute named `prune` would shadow the submodule,
    # and this import would give that attribute instead
    assert inspect.ismodule(prune_module)
    assert prune_module is sys.modules["spannerlab.prune"]


def multiset_weight(g, mset):
    return sum(c * g.weights[k] for k, c in mset.items())


def scaled_ladder(n, eps=EPS):
    g, scale = scale_to_integers(gen_ladder(n, eps))
    return g, scale


def rung(n, i):
    return edge_key(ladder_u(i), ladder_v(n, i))


def ladder_tables(n, with_center_rung):
    g, _ = scaled_ladder(n)
    pool = set(g.edge_keys)
    if not with_center_rung:
        pool.discard(rung(n, 0))
    dist = apsp(g)
    return g, dist, fill_tables(g, frozenset(pool), dist, EPS)


class TestIsHanging:
    def test_edge_hangs_on_itself(self):
        g = WeightedGraph(2, ((0, 1, F(5)),))
        dist = apsp(g)
        walk = Walk.from_vertices(g, (0, 1))
        for kappa in (F(1), F(1, 2), hanging_kappa(EPS)):
            w = is_hanging(dist, (0, 1, F(5)), walk, kappa, EPS)
            assert w is not None and (w.i, w.j) == (0, 1)

    def test_ladder_rung_hangs_on_center_rung(self):
        n = 4
        g = gen_ladder(n, EPS)
        dist = apsp(g)
        walk = Walk.from_vertices(g, (ladder_u(0), ladder_v(n, 0)))
        kappa = hanging_kappa(EPS)
        w = is_hanging(dist, (ladder_u(2), ladder_v(n, 2), F(1)), walk, kappa, EPS)
        # detour eps/2 + 1 + eps/2 = 1 + eps meets the budget exactly
        assert w is not None and (w.i, w.j) == (0, 1) and w.kappa == kappa

    def test_too_heavy_for_short_walk(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (0, 2, F(10))))
        dist = apsp(g)
        walk = Walk.from_vertices(g, (0, 1))
        assert is_hanging(dist, (0, 2, F(10)), walk, F(2, 3), EPS) is None

    def test_lex_smallest_witness(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        dist = apsp(g)
        walk = Walk.from_vertices(g, (0, 1, 2))
        w = is_hanging(dist, (0, 1, F(1)), walk, F(1, 2), F(1))
        assert (w.i, w.j) == (0, 1)


class TestEndpointHangingSets:
    def test_ladder_center_pair_collects_rungs(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=False)
        pair = (ladder_u(0), ladder_v(n, 0))
        assert tables.anchored[pair] == {rung(n, i) for i in range(1, n + 1)}
        assert tables.anchored_weight[pair] == 32

    def test_center_pair_with_full_pool_adds_the_rung_itself(self):
        n = 6
        g, dist, tables = ladder_tables(n, with_center_rung=True)
        pair = (ladder_u(0), ladder_v(n, 0))
        assert tables.anchored[pair] == {rung(n, i) for i in range(n + 1)}

    def test_membership_agrees_with_endpoint_witness(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=True)
        kappa = hanging_kappa(EPS)
        for s in range(g.n):
            for t in range(s + 1, g.n):
                walk = dist.path(s, t)
                for key in sorted(tables.pool):
                    witness = is_hanging(dist, (*key, g.weights[key]), walk, kappa, EPS)
                    at_endpoints = witness is not None and (witness.i, witness.j) == (
                        0,
                        len(walk.vertices) - 1,
                    )
                    # the endpoint-anchored set contains exactly the edges whose
                    # lex-smallest witness spans the whole shortest path
                    if key in tables.anchored[(s, t)]:
                        assert witness is not None
                        seg = walk.weight
                        assert seg >= kappa * g.weights[key]
                    if at_endpoints:
                        assert key in tables.anchored[(s, t)]

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_definition_on_rational_weights(self, rng):
        # rational weights leave kappa*w and (1+eps)*w fractional in units of
        # 1/scale, so the ceil and floor of the integer thresholds both matter;
        # every eps and a shrinking pool reuse one oracle and its memo
        g = random_connected_graph(rng, max_n=7, max_extra=4, integer=False)
        pool = frozenset(k for k in sorted(g.edge_keys) if rng.random() < 0.7)
        for eps in (F(1, 64), F(1, 10), F(1, 4), F(1)):
            for subpool in (pool, frozenset(k for k in sorted(pool) if rng.random() < 0.5)):
                got = endpoint_hanging_sets(g, subpool, apsp(g), eps)
                assert got == brute_endpoint_hanging_sets(g, subpool, eps)

    def test_empty_pool_gives_empty_sets(self):
        g, _ = scaled_ladder(3)
        dist = apsp(g)
        sets = endpoint_hanging_sets(g, frozenset(), dist, EPS)
        assert all(not v for v in sets.values())

    def test_no_diagonal_entries(self):
        g, dist, tables = ladder_tables(3, with_center_rung=True)
        assert (2, 2) not in tables.anchored


class TestFillTables:
    def test_ladder_base_cell(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=False)
        u0, v0 = ladder_u(0), ladder_v(n, 0)
        entry = tables.entry(u0, v0, 8)
        assert entry is not None and entry.back is None
        assert entry.value == 32  # four rungs of scaled weight 8 each
        assert entry.value >= tables.anchored_weight[(u0, v0)]

    def test_single_edge_graph_has_only_base(self):
        g = WeightedGraph(2, ((0, 1, F(3)),))
        tables = fill_tables(g, g.edge_keys, apsp(g), EPS)
        assert tables.levels(0, 1) == [3]
        assert tables.levels(1, 0) == [3]

    def test_values_dominate_anchored_weight_at_base_length(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=True)
        seen = 0
        for s, t, length, entry in tables.iter_entries():
            if length == int(dist.dist(s, t)):
                assert entry.value >= tables.anchored_weight[(s, t)]
                seen += 1
        assert seen > 50

    def test_rejects_bad_weights(self):
        g = WeightedGraph(2, ((0, 1, F(1, 2)),))
        with pytest.raises(ValueError):
            fill_tables(g, g.edge_keys, apsp(g), EPS)

    def test_matches_direct_recurrence_enumeration(self):
        import random

        from bruteforce import brute_walk_tables
        from spannerlab.graphs import floor_pow2

        rng = random.Random(99)
        compared = 0
        for trial in range(14):
            g = random_connected_graph(rng, max_n=6, max_extra=3, max_w=5)
            eps = rng.choice([F(1, 4), F(1, 10), F(1, 64), F(1, 2), F(1)])
            pool = greedy_spanner(g, 1 + eps).edge_keys
            dist = apsp(g)
            tables = fill_tables(g, frozenset(pool), dist, eps)
            ref = brute_walk_tables(
                g, pool, dist, eps, floor_pow2, tables.anchored_weight
            )
            mine = {(s, t, L): e.value for s, t, L, e in tables.iter_entries()}
            assert mine == ref
            compared += len(ref)
        assert compared > 300

    def test_cell_cap_guard(self):
        g = WeightedGraph(2, ((0, 1, F(3_000_000)),))
        with pytest.raises(CellCapError):
            fill_tables(g, g.edge_keys, apsp(g), EPS)
        tables = fill_tables(g, g.edge_keys, apsp(g), EPS, cell_cap=4_000_000)
        assert tables.entry(0, 1, 3_000_000) is not None

    def test_cell_cap_applies_to_a_cached_plan(self):
        g = WeightedGraph(2, ((0, 1, F(300)),))
        dist = apsp(g)
        assert fill_tables(g, g.edge_keys, dist, EPS, cell_cap=376).levels(0, 1) == [300]
        with pytest.raises(CellCapError):
            fill_tables(g, g.edge_keys, dist, EPS, cell_cap=375)

    def test_only_occupied_levels_are_visited(self):
        # 1.25 * 10**12 lengths lie in range; a scan over them would not end
        g = WeightedGraph(2, ((0, 1, F(10**12)),))
        tables = fill_tables(g, g.edge_keys, apsp(g), EPS, cell_cap=10**13)
        assert tables.levels(0, 1) == [10**12]
        assert tables.max_level == 10**12 * 5 // 4


def all_cells(tables):
    """Every cell of a table, the diagonal included: {(s, t, L): DpEntry}."""
    return {(*pair, length): tables.entry(*pair, length) for pair, cells in tables.entries.items() for length in cells}


def assert_same_tables(new, old):
    assert all_cells(new) == all_cells(old)
    assert list(new.iter_entries()) == list(old.iter_entries())
    assert all(new.levels(s, t) == old.levels(s, t) for s, t in old.entries)
    assert (new.bounds, new.max_level) == (old.bounds, old.max_level)
    assert (new.anchored, new.anchored_weight) == (old.anchored, old.anchored_weight)
    assert select_best_triple(new) == previous_select_best_triple(old)


def catalogue_instance(name):
    """(scaled graph, eps, initial spanner or None) of a benchmark-style pruning
    job; ladders start from the greedy spanner of their perturbed twin."""
    if name == "greedyhard":
        eps = F(1, 64)
        return scale_to_integers(gen_greedy_hard(eps, F(2)))[0], eps, None
    eps = F(1, 4)
    make = {"ladder": lambda p: gen_ladder(8, eps, p), "multiladder": lambda p: gen_multiladder(2, 4, eps, p)}[name]
    g = scale_to_integers(make(False))[0]
    return g, eps, g.subgraph(greedy_spanner(make(True), 1 + eps).edge_keys)


class TestAgainstPreviousTables:
    """The plan and value pass against verbatim copies of the code they replaced."""

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_same_cells_and_best_triple_on_random_graphs(self, rng, integer):
        # integer=False draws rational weights, scaled to integers here
        g, _ = scale_to_integers(random_connected_graph(rng, max_n=7, max_extra=4, integer=integer))
        pool = frozenset(k for k in sorted(g.edge_keys) if rng.random() < 0.7)
        dist = apsp(g)
        for eps in (F(1, 64), F(1, 10), F(1, 4), F(1, 2), F(1)):  # one oracle, one plan per eps
            assert_same_tables(fill_tables(g, pool, dist, eps), previous_fill_tables(g, pool, dist, eps))

    @pytest.mark.parametrize("name", ["ladder", "multiladder", "greedyhard"])
    def test_reused_plan_matches_fresh_and_previous_every_round(self, name):
        g, eps, h = catalogue_instance(name)
        h = h or greedy_spanner(g, 1 + eps)
        dist = apsp(g)
        state = PruneState()
        rounds = 0
        while True:
            pool = frozenset(h.edge_keys - state.added - state.removed)
            reused = fill_tables(g, pool, dist, eps)
            assert_same_tables(reused, previous_fill_tables(g, pool, dist, eps))
            assert all_cells(fill_tables(g, pool, DistanceOracle(g), eps)) == all_cells(reused)
            if not prune_round(g, h, state, eps, dist=dist):
                break
            rounds += 1
        assert rounds > 3

    @pytest.mark.parametrize("name", ["ladder", "multiladder", "greedyhard"])
    def test_iterate_prune_round_logs_match_previous(self, name, monkeypatch):
        g, eps, initial = catalogue_instance(name)
        new = iterate_prune(g, eps, initial_spanner=initial)
        monkeypatch.setattr(prune_module, "fill_tables", previous_fill_tables)
        monkeypatch.setattr(prune_module, "select_best_triple", previous_select_best_triple)
        old = iterate_prune(g, eps, initial_spanner=initial)
        assert new[0] == old[0] and new[1] == old[1]
        assert [s.rounds for s in new[2]] == [s.rounds for s in old[2]]
        assert [(s.added, s.removed) for s in new[2]] == [(s.added, s.removed) for s in old[2]]


class TestSelectBestTriple:
    def test_ladder_best_is_the_center_pair(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=False)
        s, t, length, beta = select_best_triple(tables)
        assert (s, t, length) == (ladder_u(0), ladder_v(n, 0), 8)
        assert beta == F(4)

    def test_empty_pool_returns_none(self):
        g, _ = scaled_ladder(2)
        tables = fill_tables(g, frozenset(), apsp(g), EPS)
        assert select_best_triple(tables) is None

    def test_single_edge_self_hang_has_ratio_one(self):
        g = WeightedGraph(2, ((0, 1, F(3)),))
        tables = fill_tables(g, g.edge_keys, apsp(g), EPS)
        s, t, length, beta = select_best_triple(tables)
        assert beta == 1 and (s, t, length) == (0, 1, 3)


class TestReconstruct:
    def test_base_cell(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=False)
        u0, v0 = ladder_u(0), ladder_v(n, 0)
        walk, mset = reconstruct(tables, u0, v0, 8)
        assert walk.vertices == (u0, v0)
        assert mset == Counter({rung(n, i): 1 for i in range(1, n + 1)})

    def test_split_cell_concatenates(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=True)
        # (u1, u2, 2) joins two spoke cells through the star center
        u1, u2 = ladder_u(1), ladder_u(2)
        entry = tables.entry(u1, u2, 2)
        assert entry is not None and entry.back is not None
        walk, mset = reconstruct(tables, u1, u2, 2)
        assert walk.vertices == (u1, ladder_u(0), u2)
        assert walk.weight == 2
        assert multiset_weight(g, mset) == entry.value

    def test_rejects_unrealizable(self):
        n = 3
        g, dist, tables = ladder_tables(n, with_center_rung=True)
        with pytest.raises(ValueError):
            reconstruct(tables, ladder_u(0), ladder_v(n, 0), 9)

    def test_every_cell_is_internally_consistent(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=True)
        kappa = hanging_kappa(EPS)
        checked = 0
        for s, t, length, entry in tables.iter_entries():
            walk, mset = reconstruct(tables, s, t, length)
            assert walk.first == s and walk.last == t
            assert walk.weight == length
            assert multiset_weight(g, mset) == entry.value
            for key in sorted(mset):
                assert is_hanging(dist, (*key, g.weights[key]), walk, kappa, EPS)
            checked += 1
        assert checked > 100


class TestPruneRound:
    def test_first_ladder_round(self):
        n = 6
        g, _ = scaled_ladder(n)
        state = PruneState()
        assert prune_round(g, g, state, EPS)
        assert state.added == {rung(n, 0)}
        assert state.removed == {rung(n, i) for i in range(n + 1)}
        log = state.rounds[0]
        assert (log.source, log.target, log.length) == (ladder_u(0), ladder_v(n, 0), 8)
        assert log.beta == 7 and log.multiset_weight == 56 == log.pruned_weight
        assert log.pool_weight_remaining == 12

    def test_no_progress_leaves_state_alone(self):
        g = WeightedGraph(3, ((0, 1, F(8)), (1, 2, F(8))))
        state = PruneState()
        state.removed |= g.edge_keys  # pool exhausted
        assert not prune_round(g, g, state, EPS)
        assert state.rounds == [] and state.added == set()

    def test_empty_pool(self):
        g, _ = scaled_ladder(2)
        state = PruneState()
        state.removed |= g.edge_keys
        assert not prune_round(g, g, state, EPS)


class TestPrune:
    def test_ladder_from_full_edge_set(self):
        n = 6
        g, scale = scaled_ladder(n)
        h1, state = prune(g, g, EPS)
        assert h1.total_weight == 20 == scale * (1 + n * EPS)
        assert stretch(g, h1) == 1 + EPS
        assert len(state.rounds) <= g.m

    def test_weight_never_grows_here_and_two_accountings_agree(self):
        n = 6
        g, _ = scaled_ladder(n)
        h = g
        h1, state = prune(g, h, EPS)
        assert h1.total_weight <= h.total_weight
        keys = state.added | (h.edge_keys - state.removed)
        assert h1.edge_keys == keys
        assert h1.total_weight == sum(g.weights[k] for k in keys)
        assert h1.total_weight <= h.total_weight + sum(g.weights[k] for k in state.added)

    def test_single_edge_fixpoint(self):
        g = WeightedGraph(2, ((0, 1, F(7)),))
        h1, state = prune(g, g, EPS)
        assert h1 == g
        assert state.added == state.removed == {(0, 1)}

    def test_optimal_ladder_is_a_fixpoint(self):
        n = 6
        g, scale = scaled_ladder(n)
        opt_keys = {rung(n, 0)}
        opt_keys |= {edge_key(ladder_u(0), ladder_u(j)) for j in range(1, n + 1)}
        opt_keys |= {edge_key(ladder_v(n, 0), ladder_v(n, j)) for j in range(1, n + 1)}
        h = g.subgraph(opt_keys)
        h1, state = prune(g, h, EPS)
        assert h1 == h  # only self-exchanges fire, nothing changes
        assert h1.total_weight == 20
        assert all(log.beta == 1 for log in state.rounds)

    def test_rejects_disconnected(self):
        g = WeightedGraph(4, ((0, 1, F(1)), (2, 3, F(1))))
        with pytest.raises(ValueError):
            prune(g, g, EPS)

    def test_warns_on_large_eps(self):
        g = WeightedGraph(2, ((0, 1, F(2)),))
        with pytest.warns(UserWarning):
            prune(g, g, F(1, 2))

    def test_removed_grows_every_round_and_round_count_bounded(self):
        rng = random.Random(7)
        for _ in range(10):
            g = random_connected_graph(rng, max_n=8, max_extra=4, max_w=6)
            h = greedy_spanner(g, 1 + F(1, 100))
            h1, state = prune(g, h, F(1, 100))
            assert len(state.rounds) <= h.m
            sizes = []
            running = set()
            for log in state.rounds:
                assert log.pruned_weight <= log.multiset_weight
                assert log.beta >= 1
            assert len(state.removed) >= len(state.rounds)

    def test_stretch_bound_with_coarse_input_spanner(self):
        # input stretch 1 + delta with delta well above eps: the output must
        # stay within 1 + 11 * delta
        rng = random.Random(777)
        for _ in range(15):
            g = random_connected_graph(rng, max_n=9, max_extra=6, max_w=8)
            h = greedy_spanner(g, F(3, 2))
            delta = stretch(g, h) - 1
            eps = min(F(1, 100), delta) if delta > 0 else F(1, 100)
            h1, _ = prune(g, h, eps)
            assert stretch(g, h1) <= 1 + 11 * max(delta, eps)

    def test_deterministic(self):
        g, _ = scaled_ladder(5)
        a = prune(g, g, EPS)
        b = prune(g, g, EPS)
        assert a[0] == b[0] and a[1].rounds == b[1].rounds


class TestIteratePrune:
    def test_ladder_reaches_the_optimum_in_one_pass(self):
        n = 6
        g, scale = scaled_ladder(n)
        h, logs, _ = iterate_prune(g, EPS, initial_spanner=g)
        assert h.total_weight == 20
        assert logs[1].total_weight == 20  # single pass suffices
        assert stretch(g, h) == 1 + EPS

    def test_tree_unchanged(self):
        tree = WeightedGraph(5, ((0, 1, F(2)), (1, 2, F(3)), (1, 3, F(1)), (3, 4, F(2))))
        h, logs, _ = iterate_prune(tree, EPS)
        assert h == tree
        assert all(entry.total_weight == tree.total_weight for entry in logs)

    def test_greedy_hard_scaled_instance(self):
        eps, x = F(1, 64), F(2)
        g = gen_greedy_hard(eps, x)
        gs, scale = scale_to_integers(g)
        n = (g.n - 1) // 2
        h, logs, _ = iterate_prune(gs, eps)
        assert h.total_weight < 4 * scale
        hg = greedy_spanner(gs, 1 + x * eps)
        assert hg.total_weight > n * scale

    def test_pass_cap(self):
        assert log_star_ceil(F(4)) == 2
        assert log_star_ceil(F(100)) == 4
        assert log_star_ceil(F(1)) == 0
        assert log_star_ceil(F(65536)) == 4


class TestPruneWithScaling:
    def test_small_weights_delegate(self):
        g, _ = scaled_ladder(4)
        h_direct, logs, _ = iterate_prune(g, EPS)
        h, log = prune_with_scaling(g, EPS)
        assert not log.scaled
        assert h == h_direct

    def _big_ladder_with_tendrils(self):
        lad = gen_ladder(4, EPS)
        n0 = lad.n
        edges = tuple((u, v, w * 10**6) for u, v, w in lad.edges) + (
            (1, n0, F(1)),
            (n0, n0 + 1, F(1)),
            (7, n0 + 2, F(1)),
            (n0 + 2, n0 + 3, F(1)),
        )
        tendrils = {(1, n0), (n0, n0 + 1), (7, n0 + 2), (n0 + 2, n0 + 3)}
        return WeightedGraph(n0 + 4, edges, declared_planar=True), tendrils

    def test_large_weights_contract_round_and_keep_small_edges(self):
        g, tendrils = self._big_ladder_with_tendrils()
        h, log = prune_with_scaling(g, EPS)
        assert log.scaled
        assert tendrils <= h.edge_keys  # the whole small-edge set survives
        assert log.inner_stretch == F(5, 4)
        bound = 1 + (log.inner_stretch - 1) + 2 * EPS
        assert stretch(g, h) <= bound

    def test_random_large_weight_instances(self):
        rng = random.Random(31)
        for _ in range(8):
            base = random_connected_graph(rng, max_n=8, max_extra=4, max_w=8)
            edges = [(u, v, w * 10**6) for u, v, w in base.edges]
            tails = rng.randint(1, 3)
            for k in range(tails):
                edges.append((rng.randrange(base.n), base.n + k, F(1)))
            g = WeightedGraph(base.n + tails, tuple(edges))
            eps = F(1, 4)
            w_max = max(w for *_, w in g.edges)
            h, log = prune_with_scaling(g, eps)
            assert log.scaled
            small = {edge_key(u, v) for u, v, w in g.edges if w * g.n <= w_max}
            assert small <= h.edge_keys
            assert stretch(g, h) <= 1 + (log.inner_stretch - 1) + 2 * eps

    def test_contract_and_round_structure(self):
        g, tendrils = self._big_ladder_with_tendrils()
        contracted, back = contract_and_round(g, EPS)
        assert contracted.n == 10  # tendril chains merged into their posts
        # every rounded weight is a positive integer within the promised range
        n = g.n
        w_max = max(w for *_, w in g.edges)
        for u, v, w in contracted.edges:
            assert w.denominator == 1 and w >= 1
            orig = g.weights[back[(u, v)]]
            assert w == int(orig * n * n / (w_max * EPS))
