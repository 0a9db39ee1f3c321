import copy
import inspect
import random
import sys
import warnings
from array import array
from collections import Counter
from fractions import Fraction as F
from itertools import groupby
from types import SimpleNamespace

import pytest

import spannerlab.prune as prune_module
from spannerlab.graphs import (
    DistanceOracle,
    WeightedGraph,
    apsp,
    edge_key,
    quotient,
    scale_to_integers,
    stretch,
)
from spannerlab.greedy import greedy_spanner
from spannerlab.hardness import reduce_sat
from spannerlab.oracle import exact_opt_spanner
from spannerlab.instances import gen_greedy_hard, gen_ladder, gen_multiladder, ladder_u, ladder_v
from spannerlab.prune import (
    CellCapError,
    IterationLog,
    PruneState,
    ScalingLog,
    contract_and_round,
    endpoint_hanging_sets,
    fill_tables,
    iterate_prune,
    log_star_ceil,
    prune,
    prune_round,
    prune_with_scaling,
    reconstruct,
    select_best_triple,
)

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import (
    brute_endpoint_hanging_sets,
    hanging_kappa,
    int_walk_weight,
    is_hanging,
    k44_declared_planar,
    oracle_dist,
    previous_contract_and_round,
    previous_evaluate,
    previous_fill_tables,
    previous_hanging_pairs,
    previous_iterate_prune,
    previous_length_bounds,
    previous_prune,
    previous_prune_round,
    previous_reconstruct,
    previous_reconstruct_from_anchored,
    previous_select_best_triple,
    previous_walk_plan,
    random_connected_graph,
    seeded_grid,
    small_graphs,
    table_cells,
    walk_from_vertices,
    zero_weighted,
)
from test_acceptance import _hardness_catalogue

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


def hanging_weight(g, tables, pair):
    """The endpoint hanging weight of `pair`, summed from `tables.anchored`."""
    return sum(g.int_weights[k] for k in tables.anchored[pair])


def levels(tables, s, t):
    """The lengths of the cells of (s, t), ascending."""
    return [length for a, b, length in table_cells(tables) if (a, b) == (s, t)]


def ladder_tables(n, with_center_rung):
    g, _ = scaled_ladder(n)
    pool = set(g.edge_keys)
    if not with_center_rung:
        pool.discard(rung(n, 0))
    dist = apsp(g)
    return g, dist, fill_tables(frozenset(pool), dist, EPS)


class TestIsHanging:
    def test_edge_hangs_on_itself(self):
        g = WeightedGraph(2, ((0, 1, F(5)),))
        dist = apsp(g)
        walk = walk_from_vertices(g, (0, 1))
        for kappa in (F(1), F(1, 2), hanging_kappa(EPS)):
            w = is_hanging(dist, (0, 1, F(5)), walk, kappa, EPS)
            assert w is not None and (w.i, w.j) == (0, 1)

    def test_ladder_rung_hangs_on_center_rung(self):
        n = 4
        g = gen_ladder(n, EPS)
        dist = apsp(g)
        walk = walk_from_vertices(g, (ladder_u(0), ladder_v(n, 0)))
        kappa = hanging_kappa(EPS)
        w = is_hanging(dist, (ladder_u(2), ladder_v(n, 2), F(1)), walk, kappa, EPS)
        # detour eps/2 + 1 + eps/2 = 1 + eps meets the budget exactly
        assert w is not None and (w.i, w.j) == (0, 1) and w.kappa == kappa

    def test_too_heavy_for_short_walk(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (0, 2, F(10))))
        dist = apsp(g)
        walk = walk_from_vertices(g, (0, 1))
        assert is_hanging(dist, (0, 2, F(10)), walk, F(2, 3), EPS) is None

    def test_lex_smallest_witness(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        dist = apsp(g)
        walk = walk_from_vertices(g, (0, 1, 2))
        w = is_hanging(dist, (0, 1, F(1)), walk, F(1, 2), F(1))
        assert (w.i, w.j) == (0, 1)


class TestEndpointHangingSets:
    def test_ladder_center_pair_collects_rungs(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=False)
        pair = (ladder_u(0), ladder_v(n, 0))
        assert tables.anchored[pair] == {rung(n, i) for i in range(1, n + 1)}
        assert hanging_weight(g, tables, pair) == 32

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
                walk = walk_from_vertices(g, dist.path(s, t))
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
                got = endpoint_hanging_sets(subpool, apsp(g), eps)
                assert got == brute_endpoint_hanging_sets(g, subpool, eps)

    def test_empty_pool_gives_empty_sets(self):
        g, _ = scaled_ladder(3)
        dist = apsp(g)
        sets = endpoint_hanging_sets(frozenset(), dist, EPS)
        assert all(not v for v in sets.values())

    def test_builds_no_joins_and_rejects_nothing_new(self):
        # the hanging pairs live on the plan, whose joins only the tables
        # build; a zero weight, which the tables reject, is no error here
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(0)), (0, 2, F(2))))
        for graph in (g, scaled_ladder(3)[0]):
            dist = apsp(graph)
            endpoint_hanging_sets(graph.edge_keys, dist, EPS)
            [plan] = dist.memo.values()
            assert plan.cells_of is None and plan.hangs_at.keys() == graph.edge_keys

    def test_no_diagonal_entries(self):
        g, dist, tables = ladder_tables(3, with_center_rung=True)
        assert (2, 2) not in tables.anchored

    @pytest.mark.parametrize("name", ["ladder", "multiladder", "greedyhard", "grid"])
    def test_memoised_pairs_match_the_previous_scan(self, name):
        # the pairs of every edge, as memoised on the oracle, against the scan
        # that fetched both distance rows per pair: same tuples, same order
        if name == "grid":
            g, eps = seeded_grid(5, 5), EPS
        else:
            _, g, eps, _ = catalogue_instance(name)
        dist = apsp(g)
        endpoint_hanging_sets(g.edge_keys, dist, eps)
        plan = prune_module._plan(dist, eps)
        hangs_at = plan.hangs_at
        assert hangs_at.keys() == g.edge_keys
        assert any(hangs_at.values())
        for k, at in hangs_at.items():
            assert at == previous_hanging_pairs(k, g.int_weights[k], plan.pairs, dist, eps)


class TestFillTables:
    def test_ladder_base_cell(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=False)
        u0, v0 = ladder_u(0), ladder_v(n, 0)
        entry = table_cells(tables).get((u0, v0, 8))
        assert entry is not None and entry.back is None
        assert entry.value == 32  # four rungs of scaled weight 8 each
        assert entry.value >= hanging_weight(g, tables, (u0, v0))

    def test_single_edge_graph_has_only_base(self):
        g = WeightedGraph(2, ((0, 1, F(3)),))
        tables = fill_tables(g.edge_keys, apsp(g), EPS)
        assert levels(tables, 0, 1) == [3]
        assert levels(tables, 1, 0) == [3]

    def test_values_dominate_anchored_weight_at_base_length(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=True)
        seen = 0
        for (s, t, length), entry in table_cells(tables).items():
            if s != t and length == int(oracle_dist(dist, s, t)):
                assert entry.value >= hanging_weight(g, tables, (s, t))
                seen += 1
        assert seen > 50

    def test_the_tables_reject_a_zero_weight(self):
        # the public pruning entries contract zero weights first (see
        # TestZeroWeights); the tables and a bare round refuse them
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(0))))
        entries = (
            lambda: fill_tables(g.edge_keys, apsp(g), EPS),
            lambda: prune_round(g, g, PruneState(), EPS),
        )
        for entry in entries:
            with pytest.raises(ValueError, match="pruning requires strictly positive weights"):
                entry()

    def test_accepts_rational_weights(self):
        # lengths and log weights are ints in units of 1/scale
        g = WeightedGraph(2, ((0, 1, F(1, 2)),))
        assert levels(fill_tables(g.edge_keys, apsp(g), EPS), 0, 1) == [1]
        h, state = prune(g, g, EPS)
        assert h == g and [(r.length, r.multiset_weight) for r in state.rounds] == [(1, 1)]
        # the spanner drops the only half-integer edge, so its own scale is 1,
        # but its logged weight stays in units of 1/g.scale
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(1)), (0, 2, F(5, 2))))
        h, logs, _ = iterate_prune(g, EPS)
        assert (h.scale, g.scale) == (1, 2)
        assert [entry.total_weight for entry in logs] == [4, 4]

    def test_matches_direct_recurrence_enumeration(self):
        import random

        from bruteforce import brute_walk_tables

        rng = random.Random(99)
        compared = 0
        for trial in range(14):
            g = random_connected_graph(rng, max_n=6, max_extra=3, max_w=5)
            eps = rng.choice([F(1, 4), F(1, 10), F(1, 64), F(1, 2), F(1)])
            pool = greedy_spanner(g, 1 + eps).edge_keys
            dist = apsp(g)
            tables = fill_tables(frozenset(pool), dist, eps)
            anchored_weight = {pair: hanging_weight(g, tables, pair) for pair in tables.anchored}
            ref = brute_walk_tables(g, pool, dist, eps, anchored_weight)
            mine = {(s, t, L): e.value for (s, t, L), e in table_cells(tables).items() if s != t}
            assert mine == ref
            compared += len(ref)
        assert compared > 300

    def test_cell_cap_guard(self):
        g = WeightedGraph(2, ((0, 1, F(3_000_000)),))
        with pytest.raises(CellCapError):
            fill_tables(g.edge_keys, apsp(g), EPS)
        tables = fill_tables(g.edge_keys, apsp(g), EPS, cell_cap=4_000_000)
        assert (0, 1, 3_000_000) in table_cells(tables)

    def test_cell_cap_error_on_a_fresh_plan_builds_no_joins(self):
        g = WeightedGraph(2, ((0, 1, F(3_000_000)),))
        dist = apsp(g)
        with pytest.raises(CellCapError):
            fill_tables(g.edge_keys, dist, EPS)
        [plan] = dist.memo.values()
        assert plan.cells_of is None and not plan.hangs_at

    def test_cell_cap_applies_to_a_cached_plan(self):
        g = WeightedGraph(2, ((0, 1, F(300)),))
        dist = apsp(g)
        assert levels(fill_tables(g.edge_keys, dist, EPS, cell_cap=376), 0, 1) == [300]
        with pytest.raises(CellCapError):
            fill_tables(g.edge_keys, dist, EPS, cell_cap=375)

    def test_only_occupied_levels_are_visited(self):
        # 1.25 * 10**12 lengths lie in range; a scan over them would not end
        g = WeightedGraph(2, ((0, 1, F(10**12)),))
        tables = fill_tables(g.edge_keys, apsp(g), EPS, cell_cap=10**13)
        assert levels(tables, 0, 1) == [10**12]
        assert tables.max_level == 10**12 * 5 // 4


def assert_same_tables(new, old):
    """The package's tables against the previous ones: the same cells, in the
    same (s, t, L) order, and for every cell the same walk and multiset."""
    cells = table_cells(new)
    assert cells == {(*pair, length): old.entry(*pair, length) for pair, c in old.entries.items() for length in c}
    assert [(s, t, L, e) for (s, t, L), e in cells.items() if s != t] == list(old.iter_entries())
    lengths = {}
    for s, t, length in cells:
        lengths.setdefault((s, t), []).append(length)
    assert lengths == {pair: old.levels(*pair) for pair in old.entries}
    assert (plan_bounds(new.plan), new.max_level) == (old.bounds, old.max_level)
    assert new.anchored == old.anchored
    assert {pair: hanging_weight(old.graph, new, pair) for pair in new.anchored} == old.anchored_weight
    assert select_best_triple(new) == previous_select_best_triple(old)
    # the previous tables run on a scaled copy, whose weights are the new
    # graph's int weights, so lengths and walk weights compare in those units
    for s, t, length in cells:
        walk, mset = reconstruct(new, s, t, length)
        old_walk, old_mset = previous_reconstruct(old, s, t, length)
        assert walk == old_walk.vertices and mset == old_mset
        assert int_walk_weight(old.graph, walk) == length


def catalogue_instance(name):
    """(rational graph, its scaled copy, eps, initial spanner edge keys or
    None) of a benchmark-style pruning job; ladders start from the greedy
    spanner of their perturbed twin."""
    if name == "greedyhard":
        eps = F(1, 64)
        g = gen_greedy_hard(eps, F(2))
        return g, scale_to_integers(g)[0], eps, None
    eps = F(1, 4)
    make = {"ladder": lambda p: gen_ladder(8, eps, p), "multiladder": lambda p: gen_multiladder(2, 4, eps, p)}[name]
    g = make(False)
    return g, scale_to_integers(g)[0], eps, greedy_spanner(make(True), 1 + eps).edge_keys


PLAN_FIELDS = (
    "pairs", "offset", "cell_s", "cell_t", "cell_len", "base",
    "join_start", "join_left", "join_right", "join_bonus", "max_level",
)


def plan_bounds(plan):
    """The plan's `bound` rows as a dict over the connected pairs s != t."""
    return {(s, t): b for s, row in enumerate(plan.bound) for t, b in enumerate(row) if b >= 0}


def expanded_plan(plan):
    """The plan with every cell's joins written out, as the builder stored
    them while reversed cells (s > t) kept their own: a reversed cell gets
    its twin's joins, per via from last to first, with the halves swapped
    and mirrored. The other fields are the plan's."""
    n, offset, mirror, cell_t = plan.n, plan.offset, plan.mirror, plan.cell_t
    start, jl, jr, jb = plan.join_start, plan.join_left, plan.join_right, plan.join_bonus
    out = SimpleNamespace(**{name: getattr(plan, name) for name in PLAN_FIELDS})
    out.join_start = array("i", start[: n + 1])
    out.join_left, out.join_right, out.join_bonus = array("i"), array("i"), array("i")
    for c in range(n, len(plan.cell_len)):
        twin = mirror[c]
        source = min(c, twin)
        joins = range(start[source], start[source + 1])
        if twin < c:
            by_via = groupby(joins, key=lambda j: cell_t[jl[j] - offset])
            joins = [j for _, group in by_via for j in reversed(list(group))]
        for j in joins:
            left, right = jl[j], jr[j]
            if twin < c:
                left, right = offset + mirror[right - offset], offset + mirror[left - offset]
            out.join_left.append(left)
            out.join_right.append(right)
            out.join_bonus.append(jb[j])
        out.join_start.append(len(out.join_left))
    return out


def assert_mirror_invariants(plan):
    """`mirror` is an involution onto the cell (t, s, L) of each cell
    (s, t, L), fixing the diagonal, and only canonical cells store joins."""
    mirror, cell_s, cell_t, cell_len = plan.mirror, plan.cell_s, plan.cell_t, plan.cell_len
    assert len(mirror) == len(cell_len)
    for c, twin in enumerate(mirror):
        assert mirror[twin] == c and cell_len[twin] == cell_len[c]
        assert (cell_s[twin], cell_t[twin]) == (cell_t[c], cell_s[c])
        assert (twin == c) == (cell_s[c] == cell_t[c])
        if cell_s[c] > cell_t[c]:
            assert plan.join_start[c] == plan.join_start[c + 1]


def assert_same_plan(g, eps):
    """The plan of (apsp(g), eps), expanded, against the previous builder,
    field by field; `cells_of` in insertion order, lengths included, and
    `by_pair` the previous one's canonical cells. Returns the join count of
    the expanded plan."""
    dist = apsp(g)
    bounds, max_level = previous_length_bounds(dist, eps)
    new = prune_module._joined_plan(dist, eps, max_level + 1)
    old = previous_walk_plan(dist, bounds, max_level)
    assert_mirror_invariants(new)
    expanded = expanded_plan(new)
    for name in PLAN_FIELDS:
        assert getattr(expanded, name) == getattr(old, name), name
    assert new.by_pair == [c for c in old.by_pair if old.cell_s[c] < old.cell_t[c]]
    assert plan_bounds(new) == old.bounds
    assert [(p, list(c.items())) for p, c in new.cells_of.items()] == [
        (p, list(c.items())) for p, c in old.cells_of.items()
    ]
    n = g.n
    for i, (s, t) in enumerate(new.pairs, 1):
        assert new.slot[s * n + t] == new.slot[t * n + s] == i
    assert sum(map(bool, new.slot)) == 2 * len(new.pairs)
    return len(expanded.join_left)


def wide_ladder():
    """The 4-ladder at eps 1/4 with its scaled weights times 10**4."""
    scaled, _ = scale_to_integers(gen_ladder(4, EPS))
    return WeightedGraph(scaled.n, tuple((u, v, w * 10**4) for u, v, w in scaled.edges), scaled.declared_planar)


class TestPlanAgainstPreviousBuilder:
    """The plan builder, which joins each new cell only with partner cells
    whose lengths fit the bound and stores the joins of canonical cells
    only, against a verbatim copy of the builder that scanned every
    finalised cell and stored every cell's joins."""

    @pytest.mark.parametrize("name", ["ladder", "multiladder", "greedyhard"])
    def test_catalogue(self, name):
        g, scaled, eps, _ = catalogue_instance(name)
        assert assert_same_plan(scaled, eps) == assert_same_plan(g, eps) > 1000

    def test_wide_ladder(self):
        assert assert_same_plan(wide_ladder(), EPS) > 10

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_seeded_grids(self, k):
        assert assert_same_plan(seeded_grid(k, k), F(1, 4)) > 1000

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_random_graphs(self, rng, integer):
        g = random_connected_graph(rng, max_n=8, max_extra=6, integer=integer)
        for eps in (F(1, 64), F(1, 10), F(1, 4), F(1, 2), F(1)):
            assert_same_plan(g, eps)


class TestAgainstPreviousTables:
    """The plan and value pass against verbatim copies of the code they replaced."""

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_same_cells_and_best_triple_on_random_graphs(self, rng, integer):
        # integer=False draws rational weights: the new tables run on them
        # directly, the previous code on their scaled copy
        g = random_connected_graph(rng, max_n=7, max_extra=4, integer=integer)
        scaled, _ = scale_to_integers(g)
        pool = frozenset(k for k in sorted(g.edge_keys) if rng.random() < 0.7)
        dist, scaled_dist = apsp(g), apsp(scaled)
        for eps in (F(1, 64), F(1, 10), F(1, 4), F(1, 2), F(1)):  # one oracle, one plan per eps
            assert_same_tables(fill_tables(pool, dist, eps), previous_fill_tables(scaled, pool, scaled_dist, eps))

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_previous_tables_are_symmetric(self, g, rng):
        # what lets a reversed cell take its twin's value: in the previous
        # tables, which fill every cell from its own joins, (t, s, L) has the
        # value of (s, t, L), and the best triple never has s > t
        scaled, _ = scale_to_integers(g)
        dist = apsp(scaled)
        pool = frozenset(k for k in sorted(g.edge_keys) if rng.random() < 0.7)
        for eps in (F(1, 64), F(1, 10), F(1, 4), F(1)):
            old = previous_fill_tables(scaled, pool, dist, eps)
            for s, t, length, entry in old.iter_entries():
                assert old.entry(t, s, length).value == entry.value
            best = previous_select_best_triple(old)
            assert best is None or best[0] < best[1]

    @pytest.mark.parametrize("name", ["ladder", "multiladder", "greedyhard"])
    def test_reused_plan_matches_fresh_and_previous_every_round(self, name):
        # the unscaled graph runs the same rounds on its own int weights
        g, scaled, eps, init = catalogue_instance(name)
        h = scaled.subgraph(init) if init else greedy_spanner(scaled, 1 + eps)
        h_rational = g.subgraph(h.edge_keys)
        dist, rational_dist = apsp(scaled), apsp(g)
        state, rational_state = PruneState(), PruneState()
        rounds = 0
        while True:
            pool = frozenset(h.edge_keys - state.added - state.removed)
            reused = fill_tables(pool, dist, eps)
            previous = previous_fill_tables(scaled, pool, dist, eps)
            assert_same_tables(reused, previous)
            assert_same_tables(fill_tables(pool, rational_dist, eps), previous)
            assert table_cells(fill_tables(pool, DistanceOracle(scaled), eps)) == table_cells(reused)
            exchanged = prune_round(scaled, h, state, eps, dist=dist)
            assert prune_round(g, h_rational, rational_state, eps, dist=rational_dist) == exchanged
            assert (rational_state.added, rational_state.removed) == (state.added, state.removed)
            assert rational_state.rounds == state.rounds
            if not exchanged:
                break
            rounds += 1
        assert rounds > 3

    @pytest.mark.parametrize("name", ["ladder", "multiladder", "greedyhard"])
    def test_iterate_prune_round_logs_match_previous(self, name):
        g, scaled, eps, init = catalogue_instance(name)
        new = iterate_prune(scaled, eps, initial_spanner=scaled.subgraph(init) if init else None)
        # the unscaled graph gives the same edges and logs, in units of 1/g.scale
        rational = iterate_prune(g, eps, initial_spanner=g.subgraph(init) if init else None)
        assert rational[0].edge_keys == new[0].edge_keys and rational[1] == new[1]
        assert [s.rounds for s in rational[2]] == [s.rounds for s in new[2]]
        assert [(s.added, s.removed) for s in rational[2]] == [(s.added, s.removed) for s in new[2]]
        old = previous_iterate_prune(scaled, eps, initial_spanner=scaled.subgraph(init) if init else None)
        assert new[0] == old[0] and new[1] == old[1]
        assert [s.rounds for s in new[2]] == [s.rounds for s in old[2]]
        assert [(s.added, s.removed) for s in new[2]] == [(s.added, s.removed) for s in old[2]]


def assert_same_prune(g, scaled, eps, init):
    """`prune` and `iterate_prune` on g against the previous round loop on
    its scaled copy, from the spanner with edge keys `init` (None: greedy)."""
    h = greedy_spanner(g, 1 + eps) if init is None else g.subgraph(init)
    new_h, new_state = prune(g, h, eps)
    old_h, old_state = previous_prune(scaled, scaled.subgraph(h.edge_keys), eps)
    assert new_h.edge_keys == old_h.edge_keys
    assert new_state.rounds == old_state.rounds
    assert (new_state.added, new_state.removed) == (old_state.added, old_state.removed)
    new = iterate_prune(g, eps, initial_spanner=None if init is None else h)
    old = previous_iterate_prune(scaled, eps, initial_spanner=None if init is None else scaled.subgraph(init))
    assert new[0].edge_keys == old[0].edge_keys and new[1] == old[1]
    assert [(st.rounds, st.added, st.removed) for st in new[2]] == [(st.rounds, st.added, st.removed) for st in old[2]]
    return sum(len(st.rounds) for st in new[2])


def lockstep(g, h, eps, dist, state, old_state):
    """One round of `prune_round` and of the previous round loop on copies
    of the same state; asserts they agree and returns whether they exchanged."""
    exchanged = prune_round(g, h, state, eps, dist=dist)
    assert previous_prune_round(g, h, old_state, eps, dist=dist) == exchanged
    assert (state.added, state.removed, state.rounds) == (old_state.added, old_state.removed, old_state.rounds)
    return exchanged


def copy_state(state):
    old = PruneState()
    old.added, old.removed, old.rounds = set(state.added), set(state.removed), list(state.rounds)
    return old


TAIL_INSTANCES = ["ladder", "multiladder", "greedyhard", "grid5", "grid5-sparse"]


def tail_instance(name):
    """(g, start spanner, eps) of one of TAIL_INSTANCES."""
    if name.startswith("grid5"):
        # the sparse start leaves cells that no pool edge hangs on, whose
        # base and joins all tie at 0
        g, eps = seeded_grid(5, 5), F(1, 4)
        h = greedy_spanner(g, 1 + eps)
        return g, g.subgraph(sorted(h.edge_keys)[::3]) if name == "grid5-sparse" else h, eps
    _, g, eps, init = catalogue_instance(name)
    return g, g.subgraph(init) if init else greedy_spanner(g, 1 + eps), eps


class TestRatioOneTail:
    """Rounds after a ratio-1 round are answered without a value pass; they
    must give exactly what the previous loop, a value pass per round, gave."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.booleans(),
        st.sampled_from([F(1, 64), F(1, 10), F(1, 4), F(1, 2), F(1)]),
        st.sampled_from([None, 0.4, 0.8, 1.0]),
    )
    def test_prune_and_iterate_match_previous_on_random_graphs(self, rng, integer, eps, keep):
        # integer=False draws rational weights, which the previous loop runs
        # on their scaled copy; keep=None starts from the greedy spanner
        g = random_connected_graph(rng, max_n=8, max_extra=6, integer=integer)
        init = None if keep is None else frozenset(k for k in sorted(g.edge_keys) if rng.random() < keep)
        assert_same_prune(g, scale_to_integers(g)[0], eps, init)

    def test_prune_and_iterate_match_previous_on_a_planar_grid(self):
        g = seeded_grid(5, 5)
        assert assert_same_prune(g, g, F(1, 4), None) > 10

    def test_value_passes_only_start_a_pass_or_follow_a_gain(self, monkeypatch):
        g, scaled, eps, init = catalogue_instance("multiladder")
        evaluate = prune_module._WalkPlan.evaluate
        calls = []

        def counted(plan, hanging):
            calls.append(1)
            return evaluate(plan, hanging)

        monkeypatch.setattr(prune_module._WalkPlan, "evaluate", counted)
        _, _, states = iterate_prune(scaled, eps, initial_spanner=scaled.subgraph(init))
        rounds = [r for st in states for r in st.rounds]
        gains = sum(r.beta > 1 for r in rounds)
        assert len(rounds) > 20 and len(calls) <= len(states) + gains

    @pytest.mark.parametrize("name", ["ladder", "multiladder", "greedyhard"])
    def test_a_grown_pool_falls_back_to_a_value_pass(self, name):
        g, scaled, eps, init = catalogue_instance(name)
        h = scaled.subgraph(init) if init else greedy_spanner(scaled, 1 + eps)
        h = scaled.subgraph(sorted(h.edge_keys)[::2])  # every other edge
        dist = apsp(scaled)
        state, old_state = PruneState(), PruneState()
        while state.tail is None:  # up to the first ratio-1 round
            assert lockstep(scaled, h, eps, dist, state, old_state)
        # one round from the tail; then every edge of g is in h, so the pool
        # grows past the tail's and a value pass must answer
        assert lockstep(scaled, h, eps, dist, state, old_state)
        assert not scaled.edge_keys - state.added - state.removed <= state.tail.pool
        while lockstep(scaled, scaled, eps, dist, state, old_state):
            pass

    @pytest.mark.parametrize("name", ["ladder", "multiladder", "greedyhard"])
    def test_a_pool_restored_within_the_reference_pool_falls_back(self, name):
        # a tail round marks cells broken for its own pool; a pool that grows
        # back, even within the pool of the tail's first round, may revive them
        g, scaled, eps, init = catalogue_instance(name)
        h = scaled.subgraph(init) if init else greedy_spanner(scaled, 1 + eps)
        dist = apsp(scaled)
        state, old_state = PruneState(), PruneState()
        while True:
            before = copy_state(state)
            assert lockstep(scaled, h, eps, dist, state, old_state)
            if state.tail is not None:
                break
        assert lockstep(scaled, h, eps, dist, state, old_state)  # a tail round
        state.added, state.removed, state.rounds = set(before.added), set(before.removed), list(before.rounds)
        assert not h.edge_keys - state.added - state.removed <= state.tail.pool
        assert lockstep(scaled, h, eps, dist, state, copy_state(before))
        assert state.rounds[-1] == old_state.rounds[len(before.rounds)]

    @pytest.mark.parametrize("name", ["ladder", "multiladder", "greedyhard"])
    def test_a_pool_shrunk_by_the_caller_is_marked_from_what_left(self, name):
        # an edge the caller drops from h leaves the pool without being pruned
        # or walked; the tail still answers, and must mark where it hung
        _, scaled, eps, init = catalogue_instance(name)
        h = scaled.subgraph(init) if init else greedy_spanner(scaled, 1 + eps)
        dist = apsp(scaled)
        state, old_state = PruneState(), PruneState()
        while state.tail is None:  # up to the first ratio-1 round
            assert lockstep(scaled, h, eps, dist, state, old_state)
        tail, answered = state.tail, 0
        while True:
            pool = sorted(h.edge_keys - state.added - state.removed)
            h = scaled.subgraph(h.edge_keys - set(pool[:1]))
            if not lockstep(scaled, h, eps, dist, state, old_state):
                break
            answered += state.tail is tail
        assert answered > 0

    @pytest.mark.parametrize("name", TAIL_INSTANCES)
    def test_tail_marks_and_picks_agree_with_a_value_pass(self, name):
        # white box, every round the tail answers: a cell marked broken has a
        # value below its reference value under a full value pass for the
        # round's pool, and stays marked for the rest of the pass; a cell
        # found intact keeps its reference value and gets the value pass's
        # pick. A probe, a copy of the tail, decides every cell of the plan.
        scaled, h, eps = tail_instance(name)
        dist = apsp(scaled)
        state = PruneState()
        marked, tail_rounds = set(), 0
        while True:
            tail = state.tail
            pool = frozenset(h.edge_keys - state.added - state.removed)
            exchanged = prune_round(scaled, h, state, eps, dist=dist)
            if state.tail is not tail:  # a value pass ran
                marked = set()
            elif tail is not None and tail.pool == pool:  # the tail answered
                tail_rounds += 1
                full = fill_tables(pool, dist, eps)
                probe, probe_tables = copy.copy(tail), copy.copy(tail.tables)
                probe.broken, probe.picks = bytearray(tail.broken), array("q", tail.picks)
                probe_tables.picks = probe.picks
                intact, offset = set(), tail.plan.offset
                for x in range(offset, len(tail.values)):
                    if not probe.broken[x]:
                        probe._intact(x, intact)
                now = {x for x, b in enumerate(tail.broken) if b}
                assert marked <= now
                for x in range(offset, len(tail.values)):
                    if probe.broken[x]:
                        assert full.values[x] < tail.values[x] and x not in intact
                    else:
                        assert full.values[x] == tail.values[x] and x in intact
                        assert full.pick(x - offset) == probe_tables.pick(x - offset)
                marked = now
            if not exchanged:
                break
        assert tail_rounds > 3 and marked

    @pytest.mark.parametrize("name", TAIL_INSTANCES)
    def test_a_tail_round_follows_only_the_picks_it_wrote(self, name):
        # white box, every round the tail answers: a copy of the tail whose
        # picks all point past the last join selects the same cell, and its
        # walk and multiset equal a full value pass's, so every pick on the
        # walk, reversed cells' included, was written by this round
        scaled, h, eps = tail_instance(name)
        dist = apsp(scaled)
        state = PruneState()
        tail_rounds = 0
        while True:
            tail = state.tail
            pool = frozenset(h.edge_keys - state.added - state.removed)
            if tail is not None and pool <= tail.pool:
                probe, probe_tables = copy.copy(tail), copy.copy(tail.tables)
                probe.broken = bytearray(tail.broken)
                probe.picks = probe_tables.picks = array("q", [len(tail.plan.join_left)]) * len(tail.picks)
                cell = probe.best(pool)
            exchanged = prune_round(scaled, h, state, eps, dist=dist)
            if tail is not None and state.tail is tail and tail.pool == pool:
                tail_rounds += 1
                plan, last = tail.plan, state.rounds[-1] if exchanged else None
                if cell is None:
                    assert not exchanged
                else:
                    s, t, length = plan.cell_s[cell], plan.cell_t[cell], plan.cell_len[cell]
                    assert (last.source, last.target, last.length) == (s, t, length)
                    full = fill_tables(pool, dist, eps)
                    assert reconstruct(probe_tables, s, t, length) == reconstruct(full, s, t, length)
            if not exchanged:
                break
        assert tail_rounds > 3

    @pytest.mark.parametrize("name", TAIL_INSTANCES)
    def test_marks_from_departed_edges_equal_the_changed_hanging_weights(self, name):
        # white box, every round the tail answers: the hanging slots marked
        # from the edges that left the pool are exactly those whose hanging
        # weight for the round's pool differs from the reference value
        scaled, h, eps = tail_instance(name)
        dist = apsp(scaled)
        state = PruneState()
        tail_rounds = 0
        while True:
            tail = state.tail
            pool = frozenset(h.edge_keys - state.added - state.removed)
            exchanged = prune_round(scaled, h, state, eps, dist=dist)
            if tail is not None and state.tail is tail and tail.pool == pool:
                tail_rounds += 1
                anchored = endpoint_hanging_sets(pool, dist, eps)
                hanging = [sum(scaled.int_weights[k] for k in anchored[pair]) for pair in tail.plan.pairs]
                changed = {i for i, w in enumerate(hanging, 1) if w != tail.values[i]}
                assert {i for i in range(1, tail.plan.offset) if tail.broken[i]} == changed
            if not exchanged:
                break
        assert tail_rounds > 3

    @pytest.mark.parametrize("name", ["ladder", "multiladder", "greedyhard"])
    def test_a_tail_from_another_eps_falls_back_to_a_value_pass(self, name, monkeypatch):
        # the tail is keyed on the plan, one per (oracle, eps): a round at
        # another eps runs a value pass even though the pool shrank
        _, scaled, eps, init = catalogue_instance(name)
        h = scaled.subgraph(init) if init else greedy_spanner(scaled, 1 + eps)
        dist = apsp(scaled)
        state, old_state = PruneState(), PruneState()
        while state.tail is None:  # up to the first ratio-1 round
            assert lockstep(scaled, h, eps, dist, state, old_state)
        evaluate, calls = prune_module._WalkPlan.evaluate, []

        def counted(plan, hanging):
            calls.append(1)
            return evaluate(plan, hanging)

        monkeypatch.setattr(prune_module._WalkPlan, "evaluate", counted)
        other = eps / 2
        lockstep(scaled, h, other, dist, state, old_state)
        assert calls == [1]
        while lockstep(scaled, h, other, dist, state, old_state):
            pass
        assert set(dist.memo) == {("walk-plan", eps), ("walk-plan", other)}

    def test_a_tail_round_checks_the_cell_cap(self):
        # the tail reuses a cached plan, so it too checks the cap
        _, scaled, eps, init = catalogue_instance("ladder")
        h, dist, state = scaled.subgraph(init), apsp(scaled), PruneState()
        while state.tail is None:  # up to the first ratio-1 round
            assert prune_round(scaled, h, state, eps, dist=dist)
        tail, cap = state.tail, state.tail.plan.max_level + 1
        with pytest.raises(CellCapError):
            prune_round(scaled, h, state, eps, dist=dist, cell_cap=cap - 1)
        assert prune_round(scaled, h, state, eps, dist=dist, cell_cap=cap) and state.tail is tail

    def test_hanging_weights_are_summed_once_per_value_pass(self, monkeypatch):
        # each evaluate reads the slot sums of exactly one hanging call, made
        # for it, and no round builds the hanging sets themselves
        g, scaled, eps, init = catalogue_instance("multiladder")
        summed, evaluated = [], []
        hanging_sets, evaluate = prune_module.endpoint_hanging_sets, prune_module._WalkPlan.evaluate

        def counted_hanging(*args):
            summed.append(hanging_sets(*args))
            return summed[-1]

        def counted_evaluate(plan, hanging):
            evaluated.append(hanging)
            return evaluate(plan, hanging)

        monkeypatch.setattr(prune_module, "endpoint_hanging_sets", counted_hanging)
        monkeypatch.setattr(prune_module._WalkPlan, "evaluate", counted_evaluate)
        _, _, states = iterate_prune(scaled, eps, initial_spanner=scaled.subgraph(init))
        assert sum(len(st.rounds) for st in states) > 20
        assert len(summed) == len(evaluated) > 0
        assert all(anchored.weights is hanging for anchored, hanging in zip(summed, evaluated))
        assert not any("_sets" in vars(anchored) for anchored in summed)

    @pytest.mark.parametrize("name", ["multiladder", "greedyhard"])
    def test_tail_rounds_build_no_fraction(self, name, monkeypatch):
        # Fraction constructions per round in the passes of `iterate_prune`:
        # a round the tail answers builds none (its logged ratio is one
        # shared Fraction(1)); a value pass builds at least its ratio
        _, scaled, eps, init = catalogue_instance(name)
        built, rounds = [0], []
        new, exchange = F.__new__, prune_module._exchange

        def counted_new(cls, *args, **kwargs):
            built[0] += 1
            return new(cls, *args, **kwargs)

        def counted_exchange(g, pool, state, *args):
            tail, before = state.tail, built[0]
            exchanged = exchange(g, pool, state, *args)
            rounds.append((tail is not None, built[0] - before, exchanged))
            return exchanged

        monkeypatch.setattr(F, "__new__", counted_new)
        monkeypatch.setattr(prune_module, "_exchange", counted_exchange)
        _, _, states = iterate_prune(scaled, eps, initial_spanner=scaled.subgraph(init) if init else None)
        monkeypatch.undo()
        tail_rounds = [fractions for answered, fractions, _ in rounds if answered]
        value_passes = [fractions for answered, fractions, _ in rounds if not answered]
        assert sum(len(st.rounds) for st in states) == sum(exchanged for *_, exchanged in rounds)
        assert len(tail_rounds) >= 20 and tail_rounds == [0] * len(tail_rounds)
        assert all(value_passes)


def checked_iterate_prune(g, eps, initial=None) -> int:
    """`iterate_prune` with every value pass checked against the previous
    evaluate, which chose each canonical cell's join eagerly: the value
    lists are equal, and `WalkTables.pick` finds the eager pick of every
    canonical cell. Returns the number of value passes."""
    fill, passes = prune_module.fill_tables, []

    def checked(pool, dist, eps, cell_cap=prune_module.DEFAULT_CELL_CAP):
        tables = fill(pool, dist, eps, cell_cap)
        plan = tables.plan
        values, picks = previous_evaluate(plan, tables.values[1 : plan.offset])
        assert tables.values == values
        # a copy, so the picks found here stay out of the round's own cache
        probe = copy.copy(tables)
        probe.picks = array("q", tables.picks)
        canonical = [c for c in range(len(plan.base)) if plan.mirror[c] >= c]
        assert [probe.pick(c) for c in canonical] == [picks[c] for c in canonical]
        passes.append(1)
        return tables

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prune_module, "fill_tables", checked)
        iterate_prune(g, eps, initial_spanner=initial)
    return len(passes)


def slot_checked_iterate_prune(g, eps, initial=None) -> int:
    """`iterate_prune` with every value pass checked against its hanging
    sets: the slot sums it evaluated equal the per-pair sums over a fresh
    `endpoint_hanging_sets` for its pool, whose sets its own `anchored`
    mapping equals, and `reconstruct` gives every canonical cell the walk
    and multiset read from that full mapping. Returns the number of value
    passes."""
    fill, passes = prune_module.fill_tables, []

    def checked(pool, dist, eps, cell_cap=prune_module.DEFAULT_CELL_CAP):
        tables = fill(pool, dist, eps, cell_cap)
        plan, fresh = tables.plan, dict(endpoint_hanging_sets(pool, dist, eps))
        sums = [sum(dist.int_weights[k] for k in fresh[pair]) for pair in plan.pairs]
        assert tables.values[: plan.offset] == [0, *sums]
        # a copy, so the picks found here stay out of the round's own cache
        probe = copy.copy(tables)
        probe.picks = array("q", tables.picks)
        for c in plan.by_pair:
            cell = plan.cell_s[c], plan.cell_t[c], plan.cell_len[c]
            assert reconstruct(probe, *cell) == previous_reconstruct_from_anchored(probe, *cell)
        assert dict(tables.anchored) == fresh
        passes.append(1)
        return tables

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prune_module, "fill_tables", checked)
        iterate_prune(g, eps, initial_spanner=initial)
    return len(passes)


class TestSlotSums:
    """The hanging weights a value pass sums into pair slots, and the
    hanging sets `reconstruct` reads through the plan, against the sets."""

    @pytest.mark.parametrize("name", ["ladder", "multiladder", "greedyhard"])
    def test_catalogue_value_passes(self, name):
        g, _, eps, init = catalogue_instance(name)
        assert slot_checked_iterate_prune(g, eps, None if init is None else g.subgraph(init)) > 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from(["integer", "rational", "zero"]),
        st.sampled_from([F(1, 64), F(1, 10), F(1, 4), F(1)]),
    )
    def test_random_graphs(self, rng, weights, eps):
        g = random_connected_graph(rng, max_n=8, max_extra=6, integer=weights == "integer")
        if weights == "zero":
            g = zero_weighted(rng, g, 0.3)
        slot_checked_iterate_prune(g, eps)


class TestLazyPicks:
    """Picks found on request equal the picks the value pass used to store."""

    @pytest.mark.parametrize("name", ["ladder", "multiladder", "greedyhard"])
    def test_catalogue_value_passes(self, name):
        g, _, eps, init = catalogue_instance(name)
        assert checked_iterate_prune(g, eps, None if init is None else g.subgraph(init)) > 0

    def test_a_planar_grid(self):
        assert checked_iterate_prune(seeded_grid(4, 2), F(1, 4)) > 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.booleans(),
        st.sampled_from([F(1, 64), F(1, 10), F(1, 4), F(1)]),
    )
    def test_random_graphs(self, rng, integer, eps):
        g = random_connected_graph(rng, max_n=8, max_extra=6, integer=integer)
        assert checked_iterate_prune(g, eps) > 0


class TestSelectBestTriple:
    def test_ladder_best_is_the_center_pair(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=False)
        s, t, length, beta = select_best_triple(tables)
        assert (s, t, length) == (ladder_u(0), ladder_v(n, 0), 8)
        assert beta == F(4)

    def test_empty_pool_returns_none(self):
        g, _ = scaled_ladder(2)
        tables = fill_tables(frozenset(), apsp(g), EPS)
        assert select_best_triple(tables) is None

    def test_single_edge_self_hang_has_ratio_one(self):
        g = WeightedGraph(2, ((0, 1, F(3)),))
        tables = fill_tables(g.edge_keys, apsp(g), EPS)
        s, t, length, beta = select_best_triple(tables)
        assert beta == 1 and (s, t, length) == (0, 1, 3)


class TestReconstruct:
    def test_base_cell(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=False)
        u0, v0 = ladder_u(0), ladder_v(n, 0)
        walk, mset = reconstruct(tables, u0, v0, 8)
        assert walk == (u0, v0)
        assert mset == Counter({rung(n, i): 1 for i in range(1, n + 1)})

    def test_split_cell_concatenates(self):
        n = 4
        g, dist, tables = ladder_tables(n, with_center_rung=True)
        # (u1, u2, 2) joins two spoke cells through the star center
        u1, u2 = ladder_u(1), ladder_u(2)
        entry = table_cells(tables).get((u1, u2, 2))
        assert entry is not None and entry.back is not None
        walk, mset = reconstruct(tables, u1, u2, 2)
        assert walk == (u1, ladder_u(0), u2)
        assert int_walk_weight(g, walk) == 2
        assert multiset_weight(g, mset) == entry.value

    def test_repeated_sub_cells_are_expanded_at_each_place(self):
        # a sub-cell reached twice in a cell's pick tree stands at two places
        # on its walk and counts twice in its multiset
        g, scaled, eps, init = catalogue_instance("multiladder")
        pool = frozenset(init)
        tables = fill_tables(pool, apsp(g), eps)
        old = previous_fill_tables(scaled, pool, apsp(scaled), eps)
        cells = table_cells(tables)
        repeating = []
        for (s, t, length), entry in cells.items():
            seen, stack = Counter(), [(s, t, length)]
            while stack:
                cell = stack.pop()
                seen[cell] += 1
                back = cells[cell].back
                if back is not None:
                    via, l_left, _ = back
                    stack += ((cell[0], via, l_left), (via, cell[1], cell[2] - l_left))
            if max(seen.values()) > 1:
                repeating.append((s, t, length))
        assert len(repeating) > 300
        for s, t, length in repeating:
            walk, mset = reconstruct(tables, s, t, length)
            old_walk, old_mset = previous_reconstruct(old, s, t, length)
            assert walk == old_walk.vertices and mset == old_mset

    def test_joins_that_collect_a_nonempty_hanging_set(self):
        # every picked join of the catalogue instances that collects its
        # pair's endpoint hanging set collects an empty one; on this planar
        # grid, pooled from its greedy spanner, two collect a nonempty one
        g = seeded_grid(4, 2)
        pool = frozenset(greedy_spanner(g, 1 + EPS).edge_keys)
        tables = fill_tables(pool, apsp(g), EPS)
        old = previous_fill_tables(g, pool, apsp(g), EPS)
        plan, anchored = tables.plan, tables.anchored
        collecting = [
            (s, t, length)
            for (s, t), cells in sorted(plan.cells_of.items())
            for length, c in cells.items()
            if tables.pick(c) >= 0 and plan.join_bonus[tables.pick(c)] and anchored[(s, t)]
        ]
        assert collecting == [(4, 9, 5), (9, 4, 5)]
        for s, t, length in collecting:
            walk, mset = reconstruct(tables, s, t, length)
            old_walk, old_mset = previous_reconstruct(old, s, t, length)
            assert walk == old_walk.vertices and mset == old_mset
            assert anchored[(s, t)] <= mset.keys()

    def test_a_tie_that_splits_the_twins(self):
        # (6, 14, 9) and (14, 6, 9) both pick via 9 with left length 4, so
        # the reversed cell takes its twin's join of left length 5, read
        # backwards: its walk is not the twin's walk reversed
        g = seeded_grid(4, 6)
        pool = frozenset(g.edge_keys)
        tables = fill_tables(pool, apsp(g), EPS)
        old = previous_fill_tables(g, pool, apsp(g), EPS)
        cells, plan = table_cells(tables), tables.plan
        assert cells[(6, 14, 9)].back[:2] == cells[(14, 6, 9)].back[:2] == (9, 4)
        j = tables.pick(plan.cells_of[(14, 6)][9])
        assert plan.cell_len[plan.join_left[j] - plan.offset] == 5
        for (s, t), pinned in {(6, 14): (6, 5, 9, 8, 13, 14), (14, 6): (14, 13, 9, 4, 5, 6)}.items():
            walk, mset = reconstruct(tables, s, t, 9)
            old_walk, old_mset = previous_reconstruct(old, s, t, 9)
            assert walk == pinned == old_walk.vertices and mset == old_mset

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
        for (s, t, length), entry in table_cells(tables).items():
            if s == t:
                continue
            walk, mset = reconstruct(tables, s, t, length)
            assert walk[0] == s and walk[-1] == t
            assert int_walk_weight(g, walk) == length
            assert multiset_weight(g, mset) == entry.value
            for key in sorted(mset):
                assert is_hanging(dist, (*key, g.weights[key]), walk_from_vertices(g, walk), kappa, EPS)
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

    @pytest.mark.parametrize("name", ["ladder", "multiladder", "greedyhard"])
    def test_an_unchanged_pass_repeats_the_last_log(self, name, monkeypatch):
        # each of these runs ends on a pass that changes nothing, before the
        # pass cap; the previous driver computed that spanner's stretch again
        _, g, eps, init = catalogue_instance(name)
        start = g.subgraph(init) if init else None
        old_h, old_logs, _ = previous_iterate_prune(g, eps, initial_spanner=start)
        calls = []
        real = prune_module.stretch
        monkeypatch.setattr(prune_module, "stretch", lambda *a: calls.append(a) or real(*a))
        h, logs, states = iterate_prune(g, eps, initial_spanner=start)
        assert (h, logs) == (old_h, old_logs)
        assert len(states) < log_star_ceil(1 / eps) + 2 and logs[-1] == logs[-2]
        # one stretch for the start and one per pass that changed the spanner
        assert len(calls) == len(logs) - 1

    def test_one_memo_entry_per_eps(self):
        g, _, eps, init = catalogue_instance("multiladder")
        iterate_prune(g, eps, initial_spanner=g.subgraph(init))
        assert list(apsp(g).memo) == [("walk-plan", eps)]

    def test_stretch_safety_at_the_eps_values_the_cli_runs(self):
        # the acceptance sweep runs one pass at eps 1/100 and 1/64 on integer
        # weights; the README and the benchmark iterate at 1/4
        rng = random.Random(20261019)
        for i in range(150):
            g = random_connected_graph(rng, max_n=10, integer=False)
            eps = (F(1, 4), F(1, 10), F(1, 16))[i % 3]
            h, _, _ = iterate_prune(g, eps)
            assert stretch(g, h) <= 1 + 11 * eps, (g, eps)

    def test_pass_cap(self):
        assert log_star_ceil(F(4)) == 2
        assert log_star_ceil(F(100)) == 4
        assert log_star_ceil(F(1)) == 0
        assert log_star_ceil(F(65536)) == 4


def zero_keys(g):
    """g's zero-weight edges in g's edge order, which fixes the quotient's
    vertex numbering."""
    return [k for k, w in g.int_weights.items() if w == 0]


def image_in_quotient(g, h):
    """g's zero-weight quotient and the image of h in it."""
    q, label, _ = quotient(g, zero_keys(g))
    return q, q.subgraph({edge_key(label[u], label[v]) for u, v in h.edge_keys if label[u] != label[v]})


def check_zero_weight_result(g, h, eps, last=None):
    """h is a subgraph of g holding every zero edge, its stretch is the
    stretch of its image in the zero-weight quotient and within 1 + 11 eps,
    and `last`, the final IterationLog, gives its stretch and weight."""
    assert h.is_subgraph_of(g) and h.edge_keys.issuperset(zero_keys(g))
    q, image = image_in_quotient(g, h)
    s = stretch(g, h)
    assert s == stretch(q, image) and s <= 1 + 11 * eps
    assert image.total_weight == h.total_weight * g.scale  # q weighs in units of 1/g.scale
    if last is not None:
        assert (last.stretch, last.total_weight) == (s, h.total_weight * g.scale)
    return s


def graphs_with_zero_weights(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        g = random_connected_graph(rng, max_n=9, max_extra=6, integer=i % 2 == 0)
        yield zero_weighted(rng, g, (0.2, 0.5)[i % 2])


class TestZeroWeights:
    """The public pruning entries prune a graph with zero-weight edges over
    its quotient by them and lift the result: a subgraph of g with every
    zero edge, of the quotient spanner's stretch and weight."""

    def test_every_pruning_entry_accepts_a_zero_weight(self):
        g = WeightedGraph(3, ((0, 1, F(1)), (1, 2, F(0))))
        assert prune(g, g, EPS)[0] == g
        assert iterate_prune(g, EPS)[0] == g
        assert prune_with_scaling(g, EPS)[0] == g
        # the zero edge is contracted: one edge between two vertices is left
        contracted, back = contract_and_round(g, EPS)
        assert (contracted.n, back) == (2, {(0, 1): (0, 1)})

    def test_all_zero_weights(self):
        g = WeightedGraph(3, ((0, 1, F(0)), (1, 2, F(0)), (0, 2, F(0))))
        h, logs, states = iterate_prune(g, EPS)
        assert h == g and logs == [IterationLog(F(1), 0)] * 2 and states[0].rounds == []
        assert prune_with_scaling(g, EPS)[0] == g
        contracted, back = contract_and_round(g, EPS)
        assert (contracted.n, contracted.m, back) == (1, 0, {})

    def test_sat_threshold_graphs(self):
        eps = F(1, 10)
        figures = []
        for inst in _hardness_catalogue():
            g = reduce_sat(inst, eps).graph
            h, logs, states = iterate_prune(g, eps)
            s = check_zero_weight_result(g, h, eps, logs[-1])
            # the round logs name quotient vertices
            q = image_in_quotient(g, h)[0]
            assert all(max(r.source, r.target) < q.n < g.n for st in states for r in st.rounds)
            one_pass, state = prune(g, greedy_spanner(g, 1 + eps), eps)
            check_zero_weight_result(g, one_pass, eps)
            assert state == states[0] and one_pass.total_weight * g.scale == logs[1].total_weight
            assert prune_with_scaling(g, eps) == (h, ScalingLog(logs))
            opt = exact_opt_spanner(g, eps, max_edges=64).opt_weight
            figures.append(((s - 1) / eps, h.total_weight / opt))
        # realised stretch 1 + 1.55 eps to 1 + 2 eps, weight 0.69 to 0.82 of OPT_eps
        assert {x for x, _ in figures} == {F(31, 20), F(2)}
        assert min(r for _, r in figures) == F(11, 16) and max(r for _, r in figures) == F(22, 27)

    def test_passes_share_one_quotient_oracle_and_plan(self, monkeypatch):
        made = []

        def recorded(g, keys):
            made.append(quotient(g, keys))
            return made[-1]

        monkeypatch.setattr(prune_module, "quotient", recorded)
        g = reduce_sat(_hardness_catalogue()[4], F(1, 10)).graph
        _, _, states = iterate_prune(g, F(1, 10))
        assert len(states) == 3 and len(made) == 1
        assert list(apsp(made[0][0]).memo) == [("walk-plan", F(1, 10))]

    @pytest.mark.parametrize("eps", [F(1, 4), F(1, 10), F(1, 64)])
    def test_random_graphs_with_zero_weights(self, eps):
        for g in graphs_with_zero_weights(int(1 / eps), 40):
            h, logs, _ = iterate_prune(g, eps)
            check_zero_weight_result(g, h, eps, logs[-1])
            h0 = greedy_spanner(g, 1 + eps)
            check_zero_weight_result(g, prune(g, h0, eps)[0], eps)
            scaled, log = prune_with_scaling(g, eps)
            assert log.inner_stretch is None and scaled == h

    def test_matches_pruning_the_quotient(self):
        # the quotient is zero-free, so pruning it is the zero-free code path
        for g in graphs_with_zero_weights(5, 30):
            q, image = image_in_quotient(g, greedy_spanner(g, 1 + EPS))
            h, logs, states = iterate_prune(g, EPS)
            hq, q_logs, q_states = iterate_prune(q, EPS, initial_spanner=image)
            assert (logs, states) == (q_logs, q_states)
            assert image_in_quotient(g, h)[1] == hq

    def test_one_warning_per_call_at_the_caller(self):
        g = WeightedGraph(4, ((0, 1, F(1)), (1, 2, F(0)), (2, 3, F(2)), (0, 3, F(5, 2))))
        for graph in (g, scaled_ladder(3)[0]):
            for entry in (
                lambda: prune(graph, graph, EPS),
                lambda: iterate_prune(graph, EPS),
                lambda: iterate_prune(graph, EPS, initial_spanner=graph),
                lambda: prune_with_scaling(graph, EPS),
            ):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    entry()
                assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]


@st.composite
def wide_weight_graphs(draw):
    """Positive rationals from 1/5 to 10^6 on a few vertices, so that some
    edges fall below eps*W/n^2 and get contracted."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    weight = st.builds(F, st.integers(1, 10) | st.integers(1, 10**6), st.integers(1, 5))
    return WeightedGraph(n, tuple((u, v, draw(weight)) for u, v in chosen))


class TestPruneWithScaling:
    def test_small_weights_delegate(self):
        g, _ = scaled_ladder(4)
        h_direct, logs, _ = iterate_prune(g, EPS)
        h, log = prune_with_scaling(g, EPS)
        assert log.inner_stretch is None
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
        assert log.inner_stretch is not None
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
            assert log.inner_stretch is not None
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

    @settings(max_examples=150, deadline=None)
    @given(wide_weight_graphs(), st.builds(F, st.integers(1, 12), st.integers(1, 12)))
    @example(WeightedGraph(4, ((0, 1, F(32)), (1, 2, F(2)), (2, 3, F(5)))), F(1))
    def test_contract_and_round_matches_fraction_formulas(self, g, eps):
        # the example puts an edge exactly on the threshold eps*W/n^2
        assert contract_and_round(g, eps) == previous_contract_and_round(g, eps)

    @pytest.mark.parametrize("w, scaled", [(F(15), False), (F(16), True), (F(15, 2), False), (F(16, 3), True)])
    def test_scaling_starts_at_n_squared_over_eps(self, w, scaled):
        # W is the int weight in units of 1/g.scale: 15, 16, 15 and 16
        g = WeightedGraph(2, ((0, 1, w),))
        _, log = prune_with_scaling(g, F(1, 4))
        assert (log.inner_stretch is not None) == scaled

    def test_declared_graph_whose_contraction_breaks_3n_minus_6(self):
        # contracting (0, 4) leaves 16 edges on 7 vertices: the contracted
        # graph must not be declared planar, and the spanner keeps g's flag
        g = k44_declared_planar(1)
        h, log = prune_with_scaling(g, EPS)
        assert log.inner_stretch is not None and h.is_subgraph_of(g) and h.declared_planar
        assert stretch(g, h) <= 1 + (log.inner_stretch - 1) + 2 * EPS

    def test_edgeless_graph_has_nothing_to_contract(self):
        g = WeightedGraph(1, ())
        contracted, back = contract_and_round(g, EPS)
        assert (contracted.n, contracted.m, back) == (1, 0, {})
        h, log = prune_with_scaling(g, EPS)
        assert h == g and log.inner_stretch is None


@pytest.mark.parametrize("eps", [F(0), F(-1, 2)])
def test_every_entry_rejects_nonpositive_eps(eps):
    # each entry checks eps first: neither greedy's stretch target 1 + eps
    # nor log*(1/eps) is reached
    g, _ = scaled_ladder(2)
    entries = [
        lambda: prune(g, g, eps),
        lambda: iterate_prune(g, eps),
        lambda: iterate_prune(g, eps, initial_spanner=g),
        lambda: prune_with_scaling(g, eps),
        lambda: contract_and_round(g, eps),
        lambda: fill_tables(g.edge_keys, apsp(g), eps),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match="^eps must be positive$"):
            entry()


def run_pruning_entry(name, g, eps):
    """The result of pruning entry `name` on g, starting from g itself."""
    if name == "prune_round":
        state = PruneState()
        return prune_round(g, g, state, eps), state
    if name == "fill_tables":
        tables = fill_tables(g.edge_keys, apsp(g), eps)
        return tables.values, dict(tables.anchored)
    if name == "prune":
        return prune(g, g, eps)
    if name == "iterate_prune":
        return iterate_prune(g, eps)
    return prune_with_scaling(g, eps)


@pytest.mark.parametrize("name", ["prune_round", "fill_tables", "prune", "iterate_prune", "prune_with_scaling"])
def test_each_pruning_entry_checks_eps(name):
    # the rounds inside a pass take eps as checked once by their entry; each
    # entry still checks it, and takes it as a string too
    g, _ = scaled_ladder(3)
    for eps in (F(0), F(-1, 4)):
        with pytest.raises(ValueError, match="^eps must be positive$"):
            run_pruning_entry(name, g, eps)
    assert run_pruning_entry(name, g, F(1, 4)) == run_pruning_entry(name, scaled_ladder(3)[0], "1/4")
