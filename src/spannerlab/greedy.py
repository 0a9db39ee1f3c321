"""Greedy multiplicative-stretch spanner construction."""
from __future__ import annotations

from fractions import Fraction

from .graphs import WeightedGraph, dijkstra, is_connected


def greedy_spanner(g: WeightedGraph, t) -> WeightedGraph:
    """Classic greedy t-spanner: scan edges by nondecreasing weight and keep
    an edge only when the spanner built so far stretches its endpoints by
    more than t.

    Ties between equal-weight edges are broken by ascending (min endpoint,
    max endpoint), so the result is independent of input edge order. Each
    distance query runs a fresh bounded Dijkstra on the current spanner, in
    integer weights: an integer distance is at most t*w exactly when it is
    at most floor(t*w). A zero-weight edge is kept exactly when the spanner
    does not yet join its ends by zero-weight edges.
    """
    t = Fraction(t)
    if t <= 1:
        raise ValueError(f"stretch target must exceed 1, got {t}")
    if not is_connected(g):
        raise ValueError("greedy_spanner requires a connected graph")

    order = sorted(g.int_weights.items(), key=lambda kw: (kw[1], kw[0]))
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    chosen = []
    for (u, v), w in order:
        if v not in dijkstra(adj, u, {v}, t.numerator * w // t.denominator):
            chosen.append((u, v))
            adj[u].append((v, w))
            adj[v].append((u, w))
    return g.subgraph(chosen)
