"""Acceptance suite: one test per shipping criterion, exact arithmetic
throughout, one PASS/FAIL line printed per criterion (straight to stdout so
it shows up even under pytest's capture)."""
import random
import time
from fractions import Fraction as F

from spannerlab.graphs import (
    WeightedGraph,
    apsp,
    edge_key,
    scale_to_integers,
    stretch,
)
from spannerlab.greedy import greedy_spanner
from spannerlab.hardness import (
    ABOVE,
    BELOW,
    Clause,
    SatInstance,
    assignment_to_spanner,
    reduce_sat,
    spanner_to_assignment,
)
from spannerlab.instances import gen_greedy_hard, gen_ladder
from spannerlab.oracle import exact_opt_spanner, is_spanner, sat_brute_force
from spannerlab.prune import (
    fill_tables,
    iterate_prune,
    prune,
    prune_with_scaling,
    reconstruct,
)

from bruteforce import (
    hanging_kappa,
    hanging_sets,
    int_walk_weight,
    is_hanging,
    oracle_dist,
    random_connected_graph,
    table_cells,
    walk_from_vertices,
)


def _report(capsys, criterion: int, started: float, budget_s: float, detail: str):
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        print(
            f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s / {budget_s:g}s budget) {detail}",
            flush=True,
        )
    assert elapsed < budget_s, f"criterion {criterion} exceeded {budget_s}s ({elapsed:.1f}s)"


def _fail_line(capsys, criterion: int):
    with capsys.disabled():
        print(f"ACCEPTANCE {criterion}: FAIL", flush=True)


def _criterion3_runs():
    rng = random.Random(20260808)
    for i in range(50):
        g = random_connected_graph(rng, max_n=10, max_extra=6, max_w=8)
        eps = F(1, 100) if i % 2 == 0 else F(1, 64)
        yield g, eps


def test_criterion_1_ladder_optimality(capsys):
    started = time.perf_counter()
    try:
        n, eps = 6, F(1, 4)
        gs, scale = scale_to_integers(gen_ladder(n, eps))
        assert scale == 8
        opt = exact_opt_spanner(gs, eps)
        assert opt.opt_weight == 20 == scale * (1 + n * eps)
        perturbed_greedy = greedy_spanner(gen_ladder(n, eps, perturb=True), 1 + eps)
        h0 = gs.subgraph(perturbed_greedy.edge_keys)
        h, logs, _ = iterate_prune(gs, eps, initial_spanner=h0)
        assert h.total_weight == 20
        assert stretch(gs, h) <= 1 + eps
    except BaseException:
        _fail_line(capsys, 1)
        raise
    _report(capsys, 1, started, 10, f"oracle=20, pruned weight={h.total_weight}, stretch={stretch(gs, h)}")


def test_criterion_2_greedy_gap(capsys):
    started = time.perf_counter()
    try:
        eps, x = F(1, 64), F(2)
        g = gen_greedy_hard(eps, x)
        n = (g.n - 1) // 2
        assert (n, g.n) == (10, 21)
        hg = greedy_spanner(g, 1 + x * eps)
        assert hg.total_weight > 10
        witness = g.subgraph(g.edge_keys - {edge_key(i, n + i) for i in range(n)})
        assert is_spanner(g, witness, eps)
        assert witness.total_weight < 4
        ratio = hg.total_weight / witness.total_weight
        bound = 1 / (8 * x * x * eps)
        assert bound == 2 and ratio > bound
    except BaseException:
        _fail_line(capsys, 2)
        raise
    _report(capsys, 2, started, 5, f"greedy={float(hg.total_weight):.3f} > 10, witness={float(witness.total_weight):.3f} < 4, ratio={float(ratio):.2f} > 2")


def test_criterion_3_stretch_safety(capsys):
    started = time.perf_counter()
    try:
        runs = 0
        for g, eps in _criterion3_runs():
            h = greedy_spanner(g, 1 + eps)
            h1, _ = prune(g, h, eps)
            assert stretch(g, h1) <= 1 + 11 * eps
            runs += 1
        assert runs == 50
    except BaseException:
        _fail_line(capsys, 3)
        raise
    _report(capsys, 3, started, 120, "50 random instances within 1 + 11*eps, exact")


def test_criterion_4_table_consistency(capsys):
    started = time.perf_counter()
    try:
        instances = []
        gs, _ = scale_to_integers(gen_ladder(6, F(1, 4)))
        instances.append((gs, gs.edge_keys, F(1, 4)))
        for (g, eps), _ in zip(_criterion3_runs(), range(26)):
            pool = greedy_spanner(g, 1 + eps).edge_keys
            instances.append((g, pool, eps))
        checked = 0
        for g, pool, eps in instances:
            dist = apsp(g)
            tables = fill_tables(frozenset(pool), dist, eps)
            kappa, anchored = hanging_kappa(eps), hanging_sets(tables.plan, tables.pool)
            for (s, t, length), entry in table_cells(tables).items():
                if s == t:
                    continue
                walk, mset = reconstruct(tables, s, t, length)
                assert int_walk_weight(g, walk) == length
                assert sum(c * g.weights[k] for k, c in mset.items()) == entry.value
                # the endpoint-set lower bound is well-posed exactly at the
                # base length, where the base candidate realises it; at other
                # lengths it cannot coexist with walk-weight exactness
                if length == int(oracle_dist(dist, s, t)):
                    assert entry.value >= sum(g.int_weights[k] for k in anchored[(s, t)])
                for key in sorted(mset):
                    edge = (key[0], key[1], g.weights[key])
                    assert is_hanging(dist, edge, walk_from_vertices(g, walk), kappa, eps) is not None
                checked += 1
        assert checked >= 1000
    except BaseException:
        _fail_line(capsys, 4)
        raise
    _report(capsys, 4, started, 120, f"{checked} realizable cells verified exactly")


def test_criterion_5_oracle_dominance(capsys):
    started = time.perf_counter()
    try:
        rng = random.Random(555)
        eps = F(1, 100)
        for _ in range(30):
            g = random_connected_graph(rng, max_n=8, max_extra=5, max_w=8)
            assert g.m <= 12
            hg = greedy_spanner(g, 1 + eps)
            hp, _ = prune(g, hg, eps)
            s_g, s_p = stretch(g, hg), stretch(g, hp)
            assert s_g <= 1 + eps
            assert s_p <= 1 + 11 * eps
            # the oracle runs at the loosest realised stretch so that both
            # outputs are feasible candidates and dominance must hold exactly
            eps_oracle = max(s_g, s_p) - 1
            opt = exact_opt_spanner(g, eps_oracle)
            assert opt.opt_weight <= hp.total_weight <= hg.total_weight
            assert is_spanner(g, g.subgraph(opt.opt_edges), eps_oracle)
    except BaseException:
        _fail_line(capsys, 5)
        raise
    _report(capsys, 5, started, 120, "oracle <= prune <= greedy on 30 instances, exact")


def _hardness_catalogue():
    above = lambda *v: Clause(ABOVE, v)
    below = lambda *v: Clause(BELOW, v)
    return [
        # three unsatisfiable instances, each through 1-literal clauses
        SatInstance(1, (above(0), below(0))),
        SatInstance(2, (above(0, 1), below(0), below(1))),
        SatInstance(2, (above(0), above(1), below(0, 1))),
        # satisfiable
        SatInstance(2, (above(0, 1), below(0, 1))),
        SatInstance(2, (above(0), below(0, 1), above(1, 0))),
        SatInstance(2, (above(0, 1), below(1), below(0, 1))),
        SatInstance(2, (above(0), below(1), above(1, 0), below(0, 1))),
        SatInstance(2, (above(0, 1), below(0), below(1, 0))),
        SatInstance(2, (below(0), above(0, 1), below(1, 0))),
        SatInstance(2, (above(1), below(0), above(0, 1), below(1, 0))),
    ]


def test_criterion_6_hardness_iff(capsys):
    started = time.perf_counter()
    try:
        eps = F(1, 10)
        catalogue = _hardness_catalogue()
        assert len(catalogue) == 10
        unsat_seen = 0
        for inst in catalogue:
            assert inst.num_vars <= 4 and len(inst.clauses) <= 4
            assignment = sat_brute_force(inst)
            out = reduce_sat(inst, eps)
            opt = exact_opt_spanner(out.graph, eps, max_edges=64)
            assert (opt.opt_weight <= out.W) == (assignment is not None)
            if assignment is None:
                unsat_seen += 1
                assert any(len(c.literals) == 1 for c in inst.clauses)
            else:
                h = assignment_to_spanner(out, assignment)
                assert h.total_weight == out.W
                assert stretch(out.graph, h) <= 1 + eps
                back = spanner_to_assignment(out, h)
                assert inst.satisfied_by(back)
        assert unsat_seen >= 2
    except BaseException:
        _fail_line(capsys, 6)
        raise
    _report(capsys, 6, started, 300, f"10 instances, {unsat_seen} unsatisfiable, all thresholds exact")


def test_criterion_7_scaling_wrapper(capsys):
    started = time.perf_counter()
    try:
        eps = F(1, 4)
        lad = gen_ladder(4, eps)
        n0 = lad.n
        tendrils = {(1, n0), (n0, n0 + 1), (7, n0 + 2), (n0 + 2, n0 + 3)}
        g = WeightedGraph(
            n0 + 4,
            tuple((u, v, w * 10**6) for u, v, w in lad.edges)
            + tuple((u, v, F(1)) for u, v in sorted(tendrils)),
            declared_planar=True,
        )
        w_max = max(w for *_, w in g.edges)
        assert w_max >= F(g.n * g.n) / eps  # the rescaling branch is exercised
        h, log = prune_with_scaling(g, eps)
        assert log.inner_stretch is not None
        small = {edge_key(u, v) for u, v, w in g.edges if w * g.n <= w_max}
        assert tendrils <= small <= h.edge_keys
        eps0 = log.inner_stretch - 1
        assert stretch(g, h) <= 1 + eps0 + 2 * eps
    except BaseException:
        _fail_line(capsys, 7)
        raise
    _report(capsys, 7, started, 30, f"inner stretch 1+{eps0}, outer stretch {stretch(g, h)} <= {1 + eps0 + 2 * eps}")
