import re
from fractions import Fraction as F
from typing import NamedTuple

import pytest

from spannerlab.graphs import apsp, stretch
from spannerlab.hardness import (
    ABOVE,
    BELOW,
    Clause,
    SatInstance,
    assignment_to_spanner,
    parse_sat,
    reduce_sat,
    spanner_to_assignment,
)
from spannerlab.oracle import exact_opt_spanner, sat_brute_force

from bruteforce import oracle_dist, weight_of
from test_parsers import format_sat

EPS = F(1, 10)


class PreprocessResult(NamedTuple):
    instance: SatInstance
    forced: dict[int, bool]  # original variable index -> forced value
    kept_vars: tuple[int, ...]  # original index of each surviving variable


def preprocess(inst: SatInstance) -> PreprocessResult:
    """Eliminate single-polarity variables until every survivor appears both
    positively and negatively.

    A variable seen only positively is forced true (only negatively: false),
    which satisfies and deletes every clause containing it; the deletions can
    expose new single-polarity variables, so this iterates to a fixpoint.
    Satisfiability is preserved. Variables left with no clause at all are
    dropped without a forced value. `reduce_sat` takes only preprocessed
    instances; the package itself never preprocesses one.
    """
    clauses = list(inst.clauses)
    alive = [True] * len(clauses)
    forced: dict[int, bool] = {}
    while True:
        pos: dict[int, list[int]] = {}
        neg: dict[int, list[int]] = {}
        for j, c in enumerate(clauses):
            if not alive[j]:
                continue
            store = pos if c.side == ABOVE else neg
            for v in c.literals:
                store.setdefault(v, []).append(j)
        target = None
        for v in range(inst.num_vars):
            if v in forced:
                continue
            p, m = pos.get(v, []), neg.get(v, [])
            if (p and not m) or (m and not p):
                target = (v, bool(p), p or m)
                break
        if target is None:
            break
        v, value, hits = target
        forced[v] = value
        for j in hits:
            alive[j] = False

    used = sorted(
        {v for j, c in enumerate(clauses) if alive[j] for v in c.literals}
    )
    remap = {old: new for new, old in enumerate(used)}
    old_index = [j for j in range(len(clauses)) if alive[j]]
    new_clauses = tuple(
        Clause(clauses[j].side, tuple(remap[v] for v in clauses[j].literals))
        for j in old_index
    )
    clause_remap = {old: new for new, old in enumerate(old_index)}
    pos_order = tuple(
        tuple(clause_remap[j] for j in inst.pos_order[old] if alive[j]) for old in used
    )
    neg_order = tuple(
        tuple(clause_remap[j] for j in inst.neg_order[old] if alive[j]) for old in used
    )
    reduced = SatInstance(len(used), new_clauses, pos_order, neg_order)
    return PreprocessResult(reduced, forced, tuple(used))


# one 2-literal clause of each polarity over two variables
TWO_VAR = SatInstance(2, (Clause(ABOVE, (0, 1)), Clause(BELOW, (0, 1))))

# 3-literal positive clause, satisfiable with exactly one true literal
THREE_LIT = SatInstance(
    3,
    (Clause(ABOVE, (0, 1, 2)), Clause(BELOW, (0, 1)), Clause(BELOW, (2,))),
)

FIG_FORMULA = SatInstance(
    5,
    (
        Clause(ABOVE, (0, 1, 2)),
        Clause(ABOVE, (0, 3, 4)),
        Clause(BELOW, (0, 2, 3)),
    ),
)


class TestSatInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            Clause("left", (0,))
        with pytest.raises(ValueError):
            Clause(ABOVE, (0, 0))
        with pytest.raises(ValueError):
            SatInstance(1, (Clause(ABOVE, (1,)),))
        with pytest.raises(ValueError):
            SatInstance(2, (Clause(ABOVE, (0,)),), pos_order=((), ()), neg_order=((), ()))

    def test_orders_default_to_clause_order(self):
        inst = SatInstance(
            2,
            (Clause(ABOVE, (0,)), Clause(ABOVE, (0, 1)), Clause(BELOW, (0, 1))),
        )
        assert inst.pos_order[0] == (0, 1)
        assert inst.neg_order[0] == (2,)
        assert inst.h(0) == 2 and inst.h(1) == 1

    def test_satisfied_by(self):
        assert TWO_VAR.satisfied_by((True, False))
        assert not TWO_VAR.satisfied_by((False, False))  # above clause unmet
        assert not TWO_VAR.satisfied_by((True, True))  # below clause unmet


class TestPreprocess:
    def test_single_polarity_cascade(self):
        # x1 only positive -> true, deleting c0; then x2 only negative -> false
        inst = SatInstance(
            3,
            (
                Clause(ABOVE, (0, 1)),
                Clause(BELOW, (0, 2)),
                Clause(ABOVE, (0,)),
            ),
        )
        res = preprocess(inst)
        assert res.forced[1] is True
        assert res.instance.num_vars < inst.num_vars

    def test_already_preprocessed_is_unchanged(self):
        res = preprocess(TWO_VAR)
        assert res.instance == TWO_VAR and res.forced == {}

    def test_published_example_collapses_to_forced_assignment(self):
        res = preprocess(FIG_FORMULA)
        assert res.instance.num_vars == 0
        full = [True] * FIG_FORMULA.num_vars
        for v, val in res.forced.items():
            full[v] = val
        assert FIG_FORMULA.satisfied_by(tuple(full))
        assert sat_brute_force(FIG_FORMULA) is not None


class TestReduceSat:
    def test_rejects_unpreprocessed(self):
        with pytest.raises(ValueError):
            reduce_sat(SatInstance(1, (Clause(ABOVE, (0,)),)), EPS)

    def test_accepts_eps_at_least_one(self):
        out = reduce_sat(TWO_VAR, F(1))
        assert out.W == 2 * 1 * 4 + 2 * (5 + 2) * 2

    def test_two_var_weights_by_hand(self):
        out = reduce_sat(TWO_VAR, EPS)
        assert out.h == (1, 1)
        assert out.W == 2 * EPS * 4 + 2 * (5 + 2 * EPS) * 2 == F(108, 5)
        g, labels = out.graph, out.labels
        w = lambda a, b: weight_of(g, labels[a], labels[b])
        # clause gadget weights
        assert w("l[0,1]", "r[0,1]") == 2 + 2 * EPS
        assert w("e[0]", "f[0]") == (4 + 6 * EPS) / (1 + EPS)
        assert w("l[0,1]", "a[0,0]") == EPS
        assert w("r[0,2]", "b[0,1]") == EPS
        # variable gadget weights
        assert w("a[0,0]", "b[0,0]") == 2
        assert w("a[0,0]", "g[0,0]") == 1 + EPS
        assert w("s[0]", "t[0]") == 4 * 1 / (1 + EPS)
        assert w("u[0]", "u'[0]") == 2 * 1
        assert w("v[1]", "v'[1]") == 2 * 1

    def test_three_literal_spine_weight(self):
        out = reduce_sat(THREE_LIT, EPS)
        g, labels = out.graph, out.labels
        assert weight_of(g, labels["e[0]"], labels["f[0]"]) == (6 + 10 * EPS) / (1 + EPS)
        one_lit = out.clause_gadgets[2]
        assert g.weights[one_lit.spine] == (2 + 2 * EPS) / (1 + EPS)

    def test_planar_sanity_and_connectivity(self):
        for inst in (TWO_VAR, THREE_LIT):
            out = reduce_sat(inst, EPS)
            assert out.graph.declared_planar  # construction enforces m <= 3n-6
            assert out.graph.m <= 3 * out.graph.n - 6

    def test_side_path_lengths(self):
        out = reduce_sat(THREE_LIT, EPS)
        a = assignment_to_spanner(out, (True, False, False))
        d = apsp(a)
        for i in range(3):
            s, t = out.labels[f"s[{i}]"], out.labels[f"t[{i}]"]
            assert oracle_dist(d, s, t) == 4 * out.h[i]

    def test_weight_bookkeeping_identity(self):
        for inst, eps in ((TWO_VAR, EPS), (THREE_LIT, F(1, 7)), (TWO_VAR, F(1))):
            out = reduce_sat(inst, eps)
            lits = sum(len(c.literals) for c in inst.clauses)
            hsum = sum(out.h)
            assert out.W == 2 * eps * lits + 4 * (1 + eps) * hsum + 4 * hsum + 2 * hsum


class TestConverters:
    def test_assignment_round_trip(self):
        out = reduce_sat(TWO_VAR, EPS)
        a = sat_brute_force(TWO_VAR)
        h = assignment_to_spanner(out, a)
        assert h.total_weight == out.W
        assert stretch(out.graph, h) == 1 + EPS
        assert spanner_to_assignment(out, h) == a

    def test_all_true_uses_upper_paths(self):
        inst = SatInstance(2, (Clause(ABOVE, (0, 1)), Clause(BELOW, (0, 1))))
        out = reduce_sat(inst, EPS)
        # all-true satisfies: above clause has two true, below clause... fails!
        with pytest.raises(ValueError):
            assignment_to_spanner(out, (True, True))
        h = assignment_to_spanner(out, (True, False))
        keys = h.edge_keys
        assert set(out.variables[0].true_edges) <= keys
        assert not set(out.variables[0].false_edges) & keys
        assert set(out.variables[1].false_edges) <= keys

    def test_spine_distance_is_tight_with_one_true_literal(self):
        out = reduce_sat(THREE_LIT, EPS)
        h = assignment_to_spanner(out, (True, False, False))
        d = apsp(h)
        e, f = out.labels["e[0]"], out.labels["f[0]"]
        spine_w = weight_of(out.graph, e, f)
        assert oracle_dist(d, e, f) == 6 + 10 * EPS == (1 + EPS) * spine_w

    def test_chord_bearing_subgraph_rejected(self):
        out = reduce_sat(TWO_VAR, EPS)
        h = assignment_to_spanner(out, (True, False))
        with_chord = out.graph.subgraph(
            h.edge_keys | {out.variables[0].chord}
        )
        with pytest.raises(ValueError):
            spanner_to_assignment(out, with_chord)

    def test_oracle_optimum_round_trips(self):
        # the single-literal clause pins x0, which blocks the tunnel routes,
        # so the optimum decomposes cleanly per variable
        inst = SatInstance(
            2, (Clause(ABOVE, (0,)), Clause(BELOW, (0, 1)), Clause(ABOVE, (1, 0)))
        )
        out = reduce_sat(inst, EPS)
        res = exact_opt_spanner(out.graph, EPS, max_edges=60)
        assert res.opt_weight == out.W
        a = spanner_to_assignment(out, out.graph.subgraph(res.opt_edges))
        assert inst.satisfied_by(a)

    def test_tunnel_spanner_is_rejected(self):
        # both clauses are 2-literal over adjacent gadgets: a threshold-weight
        # spanner may serve the below clause through the above clause's cycle,
        # encoding the non-satisfying all-true choice; the reader refuses it
        out = reduce_sat(TWO_VAR, EPS)
        res = exact_opt_spanner(out.graph, EPS, max_edges=60)
        assert res.opt_weight == out.W  # the decision-level threshold still holds
        monster = out.graph.subgraph(res.opt_edges)
        with pytest.raises(ValueError):
            spanner_to_assignment(out, monster)

    def test_round_trip_over_satisfiable_catalogue(self):
        catalogue = [
            TWO_VAR,
            THREE_LIT,
            SatInstance(2, (Clause(ABOVE, (0,)), Clause(BELOW, (0, 1)), Clause(ABOVE, (1, 0)))),
            SatInstance(
                2,
                (
                    Clause(BELOW, (0,)),
                    Clause(ABOVE, (0, 1)),
                    Clause(BELOW, (1, 0)),
                ),
            ),
        ]
        for inst in catalogue:
            a = sat_brute_force(inst)
            assert a is not None
            out = reduce_sat(inst, EPS)
            h = assignment_to_spanner(out, a)
            back = spanner_to_assignment(out, h)
            assert inst.satisfied_by(back)
            assert assignment_to_spanner(out, back).total_weight == out.W


class TestSatFormat:
    def test_round_trip(self):
        text = format_sat(THREE_LIT)
        assert parse_sat(text) == THREE_LIT

    def test_explicit_orders(self):
        text = "vars 2\nclause above 0\nclause above 0 1\nclause below 1 0\norder+ 0 1 0\n"
        inst = parse_sat(text)
        assert inst.pos_order[0] == (1, 0)
        assert inst.neg_order[0] == (2,)

    def test_a_variable_mentioned_nowhere_is_refused(self):
        # checked by count before anything is allocated per variable
        with pytest.raises(ValueError, match="^vars 3 exceeds the 2 literal occurrences and order lines$"):
            parse_sat("vars 3\nclause above 0\nclause below 0\n")
        with pytest.raises(ValueError, match="vars 99999999999 exceeds"):
            parse_sat("vars 99999999999\nclause above 0\n")
        # a variable in no clause is still valid, and its order lines name it
        inst = SatInstance(25, ())
        assert parse_sat(format_sat(inst)) == inst

    def test_unusable_order_lines_are_refused(self):
        # checked before the order lines count as mentions of a variable, so
        # the last text does not pass the count guard with its unusable line
        bad = ("vars 1\norder+ 5 0 1 2\n", "vars 1\norder+ -1 0\n", "vars 2\nclause below 0 1\norder- 2\n",
               "vars 2\nclause above 0\norder+ 5\n")
        for text in bad:
            with pytest.raises(ValueError, match="^order line: variable -?[0-9]+ out of range$"):
                parse_sat(text)
        for side in ("order+", "order-"):
            with pytest.raises(ValueError, match=f"^second {re.escape(side)} line for variable 0$"):
                parse_sat(f"vars 1\nclause above 0\n{side} 0 0\n{side} 0\n")
        # one line per side is still fine
        assert parse_sat("vars 1\norder+ 0\norder- 0\n") == SatInstance(1, ())

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_sat("clause above 0\n")
        with pytest.raises(ValueError):
            parse_sat("vars 1\nfrobnicate\n")
        for text in ("vars\n", "vars 1\nclause\n", "vars 1\norder+\n", "vars 1\norder-\n"):
            with pytest.raises(ValueError, match="bad"):
                parse_sat(text)
