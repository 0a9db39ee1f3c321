"""Monotone rectilinear SAT instances and their spanner-threshold reduction.

A formula is encoded as clauses that sit above the variable axis (positive
literals only) or below it (negative literals only), each listing its
variables in left-to-right drawing order. The reduction builds a planar
weighted graph and a threshold weight W such that a (1+eps)-spanner of
weight at most W exists exactly when the formula is satisfiable; converters
turn assignments into spanners of weight exactly W and back.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .graphs import EdgeKey, Frozen, WeightedGraph, _positive_eps, content_lines, edge_key, format_rational, stretch

ABOVE = "above"
BELOW = "below"


class Clause(Frozen):
    """One monotone clause: an immutable value of its side and literals."""

    _fields = ("side", "literals")
    side: str  # ABOVE clauses hold positive literals, BELOW negative ones
    literals: tuple[int, ...]  # variable indices in left-to-right drawing order

    def __init__(self, side: str, literals: tuple[int, ...]):
        if side not in (ABOVE, BELOW):
            raise ValueError(f"clause side must be above/below, got {side!r}")
        if not 1 <= len(literals) <= 3:
            raise ValueError("clauses carry 1 to 3 literals")
        if len(set(literals)) != len(literals):
            raise ValueError("repeated variable inside a clause")
        self._set(side=side, literals=literals)


class SatInstance(Frozen):
    """Monotone formula plus the layout orders the gadgets follow: an
    immutable value, validated on construction.

    `pos_order[i]` / `neg_order[i]` list the indices of the above/below
    clauses touching variable i in left-to-right order; they default to
    clause order and must be permutations of the actual incidences.
    """

    _fields = ("num_vars", "clauses", "pos_order", "neg_order")

    def __init__(self, num_vars: int, clauses: tuple[Clause, ...],
                 pos_order: tuple[tuple[int, ...], ...] = (), neg_order: tuple[tuple[int, ...], ...] = ()):
        for c in clauses:
            for v in c.literals:
                if not 0 <= v < num_vars:
                    raise ValueError(f"variable {v} out of range")
        pos = [[] for _ in range(num_vars)]
        neg = [[] for _ in range(num_vars)]
        for j, c in enumerate(clauses):
            target = pos if c.side == ABOVE else neg
            for v in c.literals:
                target[v].append(j)
        pos_order = pos_order or tuple(tuple(p) for p in pos)
        neg_order = neg_order or tuple(tuple(p) for p in neg)
        for name, declared, actual in (
            ("order+", pos_order, pos),
            ("order-", neg_order, neg),
        ):
            if len(declared) != num_vars:
                raise ValueError(f"{name} must cover every variable")
            for i, order in enumerate(declared):
                if sorted(order) != sorted(actual[i]):
                    raise ValueError(
                        f"{name} for variable {i} is not a permutation of its clauses"
                    )
        self._set(num_vars=num_vars, clauses=clauses, pos_order=pos_order, neg_order=neg_order)

    def h(self, i: int) -> int:
        return max(len(self.pos_order[i]), len(self.neg_order[i]))

    def is_preprocessed(self) -> bool:
        return all(self.pos_order[i] and self.neg_order[i] for i in range(self.num_vars))

    def satisfied_by(self, assignment) -> bool:
        if len(assignment) != self.num_vars:
            raise ValueError("assignment length mismatch")
        for c in self.clauses:
            if c.side == ABOVE:
                if not any(assignment[v] for v in c.literals):
                    return False
            else:
                if not any(not assignment[v] for v in c.literals):
                    return False
        return True


class VariableGadget(NamedTuple):
    chord: EdgeKey
    true_edges: tuple[EdgeKey, ...]  # upper-path crossing edges, left to right
    false_edges: tuple[EdgeKey, ...]  # lower-path crossing edges
    apex_edges: tuple[EdgeKey, ...]
    terminal_edges: tuple[EdgeKey, ...]


class ClauseGadget(NamedTuple):
    spine: EdgeKey  # the (e_j, f_j) edge
    connector_edges: tuple[EdgeKey, ...]


class ReductionOutput(NamedTuple):
    graph: WeightedGraph
    W: Fraction
    labels: dict[str, int]
    h: tuple[int, ...]
    instance: SatInstance
    eps: Fraction
    variables: tuple[VariableGadget, ...]
    clause_gadgets: tuple[ClauseGadget, ...]

    def sidecar(self) -> dict:
        return {
            "W": format_rational(self.W),
            "eps": format_rational(self.eps),
            "labels": dict(sorted(self.labels.items())),
            "h": list(self.h),
        }


def _spine_weight(k: int, eps: Fraction) -> Fraction:
    # detour budget of a clause with k segments: one direct crossing (2+2e)
    # plus k-1 apex detours (2+4e each), divided by 1 + eps
    return (2 * k + (4 * k - 2) * eps) / (1 + eps)


def reduce_sat(inst: SatInstance, eps) -> ReductionOutput:
    """Build the threshold graph of a preprocessed monotone instance.

    Thresholds: W = 2*eps*sum(|c_j|) + 2*(5+2*eps)*sum(h_i) where
    h_i = max(#positive, #negative clauses of variable i). Structural edges
    carry weight zero.
    """
    eps = _positive_eps(eps)
    if not inst.is_preprocessed():
        raise ValueError(
            "instance not preprocessed: every variable must occur in at least "
            "one above clause and one below clause"
        )

    labels: dict[str, int] = {}

    def vertex(label: str) -> int:  # every label is new, so the count numbers it
        labels[label] = len(labels)
        return labels[label]

    edges: list[tuple[int, int, Fraction]] = []

    def add(u: int, v: int, w: Fraction) -> EdgeKey:
        edges.append((u, v, w))
        return edge_key(u, v)

    zero = Fraction(0)
    # crossing endpoints of clause j at variable i, filled by the variable
    # gadgets and consumed by the clause connectors
    crossing: dict[tuple[int, int], tuple[int, int]] = {}

    variables = []
    h_values = []
    for i in range(inst.num_vars):
        hi = inst.h(i)
        h_values.append(hi)
        s = vertex(f"s[{i}]")
        t = vertex(f"t[{i}]")
        sides = (
            (inst.pos_order[i], "u", True),
            (inst.neg_order[i], "v", False),
        )
        true_edges: tuple[EdgeKey, ...] = ()
        false_edges: tuple[EdgeKey, ...] = ()
        apexes: list[EdgeKey] = []
        terminals: list[EdgeKey] = []
        for order, tag, upper in sides:
            cross: list[EdgeKey] = []
            prev = s
            for slot in range(hi):
                if slot < len(order):
                    j = order[slot]
                    a = vertex(f"a[{j},{i}]")
                    b = vertex(f"b[{j},{i}]")
                    gmid = vertex(f"g[{j},{i}]")
                    crossing[(j, i)] = (a, b)
                else:
                    side_tag = "p" if upper else "q"
                    a = vertex(f"pad_a{side_tag}[{i},{slot}]")
                    b = vertex(f"pad_b{side_tag}[{i},{slot}]")
                    gmid = vertex(f"pad_g{side_tag}[{i},{slot}]")
                add(prev, a, zero)
                cross.append(add(a, b, Fraction(2)))
                apexes.append(add(a, gmid, 1 + eps))
                apexes.append(add(b, gmid, 1 + eps))
                prev = b
            end = vertex(f"{tag}[{i}]")
            end2 = vertex(f"{tag}'[{i}]")
            add(prev, end, zero)
            terminals.append(add(end, end2, Fraction(2 * hi)))
            add(end2, t, zero)
            if upper:
                true_edges = tuple(cross)
            else:
                false_edges = tuple(cross)
        chord = add(s, t, Fraction(4 * hi) / (1 + eps))
        variables.append(
            VariableGadget(chord, true_edges, false_edges, tuple(apexes), tuple(terminals))
        )

    clause_gadgets = []
    for j, clause in enumerate(inst.clauses):
        k = len(clause.literals)
        e = vertex(f"e[{j}]")
        f = vertex(f"f[{j}]")
        prev = e
        connectors: list[EdgeKey] = []
        for pos, i in enumerate(clause.literals, start=1):
            l = vertex(f"l[{j},{pos}]")
            r = vertex(f"r[{j},{pos}]")
            add(prev, l, zero)
            add(l, r, 2 + 2 * eps)
            a, b = crossing[(j, i)]
            connectors.append(add(l, a, eps))
            connectors.append(add(r, b, eps))
            prev = r
        add(prev, f, zero)
        spine = add(e, f, _spine_weight(k, eps))
        clause_gadgets.append(ClauseGadget(spine, tuple(connectors)))

    total_literals = sum(len(c.literals) for c in inst.clauses)
    W = 2 * eps * total_literals + 2 * (5 + 2 * eps) * sum(h_values)
    graph = WeightedGraph(len(labels), tuple(edges), declared_planar=True)
    return ReductionOutput(
        graph=graph,
        W=W,
        labels=labels,
        h=tuple(h_values),
        instance=inst,
        eps=eps,
        variables=tuple(variables),
        clause_gadgets=tuple(clause_gadgets),
    )


def assignment_to_spanner(out: ReductionOutput, assignment) -> WeightedGraph:
    """Spanner of weight exactly W encoding a satisfying assignment.

    Takes all structural zero-weight edges, every apex and terminal edge,
    every connector, and per variable the crossing edges of the side its
    value selects. Rejects assignments that do not satisfy the instance.
    (A weight/stretch check alone cannot catch them: routes may tunnel
    between adjacent variable gadgets through a clause cycle's zero-weight
    edges and land exactly on the stretch budget.)
    """
    if len(assignment) != out.instance.num_vars:
        raise ValueError("assignment length mismatch")
    if not out.instance.satisfied_by(assignment):
        raise ValueError("assignment does not satisfy the instance")
    keys = {k for k, w in out.graph.int_weights.items() if w == 0}
    for i, gadget in enumerate(out.variables):
        keys.update(gadget.apex_edges)
        keys.update(gadget.terminal_edges)
        keys.update(gadget.true_edges if assignment[i] else gadget.false_edges)
    for gadget in out.clause_gadgets:
        keys.update(gadget.connector_edges)
    h = out.graph.subgraph(keys)
    if h.total_weight != out.W:
        raise AssertionError("constructed subgraph misses the threshold weight")
    if stretch(out.graph, h) > 1 + out.eps:
        raise AssertionError("constructed subgraph breaks the stretch budget")
    return h


def spanner_to_assignment(out: ReductionOutput, h: WeightedGraph) -> tuple[bool, ...]:
    """Read an assignment off a (1+eps)-spanner of weight at most W.

    Variable i is true exactly when the spanner keeps its full run of
    upper-path crossing edges. Rejects inputs that are not spanners within
    threshold weight. Spanners produced by `assignment_to_spanner` always
    round-trip; an adversarial threshold-weight spanner can instead serve an
    unsatisfied clause by tunnelling through a neighbouring clause cycle, in
    which case the side reading fails the formula and is rejected too.
    """
    if not h.is_subgraph_of(out.graph):
        raise ValueError("h is not a subgraph of the reduction graph")
    if h.total_weight > out.W:
        raise ValueError(f"weight {h.total_weight} exceeds the threshold {out.W}")
    if stretch(out.graph, h) > 1 + out.eps:
        raise ValueError("h is not a spanner within the required stretch")
    keys = h.edge_keys
    assignment = tuple(
        all(k in keys for k in gadget.true_edges) for gadget in out.variables
    )
    if not out.instance.satisfied_by(assignment):
        raise ValueError(
            "spanner does not decompose into per-variable sides of a "
            "satisfying assignment"
        )
    return assignment


# --- text formats -----------------------------------------------------------
#
# formula file: `vars k`, then `clause above|below v1 [v2 [v3]]` per clause in
# drawing order; optional `order+ i c...` / `order- i c...` lines fix the
# left-to-right clause order at variable i (defaults to clause file order).
# Variable and clause indices are 0-based. '#' starts a comment.

def parse_sat(text: str) -> SatInstance:
    num_vars = None
    clauses: list[Clause] = []
    pos_over: dict[int, tuple[int, ...]] = {}
    neg_over: dict[int, tuple[int, ...]] = {}
    for line in content_lines(text):
        parts = line.split()
        if len(parts) < 2 and parts[0] in ("vars", "clause", "order+", "order-"):
            raise ValueError(f"bad {parts[0]} line {line!r}: missing fields")
        if parts[0] == "vars":
            num_vars = int(parts[1])
        elif parts[0] == "clause":
            clauses.append(Clause(parts[1], tuple(int(p) for p in parts[2:])))
        elif parts[0] in ("order+", "order-"):
            store = pos_over if parts[0] == "order+" else neg_over
            var = int(parts[1])
            if var in store:
                raise ValueError(f"second {parts[0]} line for variable {var}")
            store[var] = tuple(int(p) for p in parts[2:])
        else:
            raise ValueError(f"unrecognised line {line!r}")
    if num_vars is None:
        raise ValueError("missing 'vars' line")
    for var in (*pos_over, *neg_over):
        if not 0 <= var < num_vars:
            raise ValueError(f"order line: variable {var} out of range")
    # a formula mentions each variable it declares, in a clause or an order
    # line; checked by count before anything is allocated per variable
    mentions = sum(len(c.literals) for c in clauses) + len(pos_over) + len(neg_over)
    if num_vars > mentions:
        raise ValueError(f"vars {num_vars} exceeds the {mentions} literal occurrences and order lines")
    base = SatInstance(num_vars, tuple(clauses))
    if not pos_over and not neg_over:
        return base
    pos_order = tuple(pos_over.get(i, base.pos_order[i]) for i in range(num_vars))
    neg_order = tuple(neg_over.get(i, base.neg_order[i]) for i in range(num_vars))
    return SatInstance(num_vars, tuple(clauses), pos_order, neg_order)


def read_sat(path: str | Path) -> SatInstance:
    return parse_sat(Path(path).read_text())


def write_sidecar(out: ReductionOutput, path: str | Path) -> None:
    Path(path).write_text(json.dumps(out.sidecar(), indent=2) + "\n")
