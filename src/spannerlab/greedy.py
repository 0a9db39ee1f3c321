"""Greedy multiplicative-stretch spanner construction."""
from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .graphs import Search, WeightedGraph, _find, is_connected


def greedy_spanner(g: WeightedGraph, t) -> WeightedGraph:
    """Classic greedy t-spanner: scan edges by nondecreasing weight and keep
    an edge only when the spanner built so far stretches its endpoints by
    more than t.

    Ties between equal-weight edges are broken by ascending (min endpoint,
    max endpoint), so the result is independent of input edge order. An
    edge joining two components of the spanner so far (a union-find) is
    kept at once; any other runs one bounded `Search` on the spanner, in
    integer weights: an integer distance is at most t*w exactly when it is
    at most floor(t*w). A zero-weight edge is kept exactly when the spanner
    does not yet join its ends by zero-weight edges.
    """
    t = Fraction(t)
    if t <= 1:
        raise ValueError(f"stretch target must exceed 1, got {t}")
    if not is_connected(g):
        raise ValueError("greedy_spanner requires a connected graph")

    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    search = Search(adj)
    parent = list(range(g.n))
    chosen = []
    for (u, v), w in sorted(g.int_weights.items(), key=itemgetter(1, 0)):
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
        elif search.run(u, (v,), t.numerator * w // t.denominator):
            continue
        chosen.append((u, v))
        adj[u].append((v, w))
        adj[v].append((u, w))
    return g.subgraph(chosen)
