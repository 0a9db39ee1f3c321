"""Ground truth: exact minimum-weight spanners by branch and bound, the
spanner predicate, and a tiny brute-force SAT solver for reduction checks."""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graphs import INF, EdgeKey, WeightedGraph, _find, apsp, components, dijkstra, edge_key, is_connected, quotient, stretch
from .hardness import SatInstance

DEFAULT_MAX_EDGES = 24
# the oracle runs no APSP, but the benchmark's tracer test rebinds `oracle.apsp`
_TRACED = (apsp,)


class OracleCapError(RuntimeError):
    """Instance exceeds the configured exhaustive-search budget."""


def is_spanner(g: WeightedGraph, h: WeightedGraph, eps) -> bool:
    """Exact check that h stretches no g-distance beyond 1 + eps."""
    s = stretch(g, h)
    return s is not INF and s <= 1 + Fraction(eps)


class OracleResult(NamedTuple):
    opt_weight: Fraction
    opt_edges: frozenset[EdgeKey]
    nodes_explored: int


def _path(adj, done: dict[int, int], v: int, bit: dict[EdgeKey, int]) -> int:
    """The bitset (edge k is bit[k]) of a shortest path from the source of
    the search that settled `done` (vertex -> distance) to its vertex v,
    over the positive adjacency `adj` it searched: each step goes back to a
    settled neighbour whose distance plus the edge weight is the current
    one (an unsettled one reads as the current one, which no positive
    weight keeps), and only the source is at distance 0."""
    path = 0
    x = v
    while dx := done[x]:
        for y, w in adj[x]:
            if done.get(y, dx) + w == dx:
                break
        path |= bit[edge_key(x, y)]
        x = y
    return path


class _Checks:
    """The threshold checks of one `exact_opt_spanner` search on a graph
    with positive weights (the zero-weight quotient).

    The edges are numbered once, and every edge set below is an int bitset
    in which the edge k is the bit `bit[k]`. `available` holds the edges
    not excluded so far and `adj` is always their adjacency; the excluded
    edges form the stack `excluded`, edited by `exclude` and `restore`. A
    check asks whether dist(u, v) <= limit for an edge k = (u, v) over the
    available edges, with `limit` its entry in `thresholds`. Two memos,
    each holding per edge everything its searches found, answer most
    checks without a search:

    - `witness[k]` holds the u-v paths within the limit that searches
      found. While one of them is wholly available the answer is yes.
    - `cert[k]` holds the certificates of the searches for k that failed:
      the edges then excluded that leave the settled ball within the limit,
      (a, b) with a settled and dist(u, a) + w(a, b) + dist(b, v) <= limit
      or the same from b. While none of a certificate's edges is available
      the answer is no: on any u-v path within the limit, the first edge
      that was excluded at that search leaves the ball that way.

    Both stay valid for any later available set. Each excluded edge j
    holds a witness `held[j]` that lies wholly in the available edges, so
    only the held paths that contain e need a new path when e is excluded.

    A search prunes toward v with v's row in `rows`, the whole graph's
    distances capped one above every limit toward v: a consistent lower
    bound on the distance to v over any subset of edges, which no such
    limit tells apart from the true distances.
    """

    __slots__ = ("weights", "adj", "bit", "available", "excluded", "thresholds", "rows", "witness", "cert", "held")

    def __init__(self, g: WeightedGraph, adj, thresholds: dict[EdgeKey, int], rows: dict[int, list[int]]):
        self.weights = g.int_weights
        self.adj = adj
        self.bit = {k: 1 << i for i, k in enumerate(self.weights)}
        self.available = (1 << g.m) - 1
        self.excluded: list[EdgeKey] = []
        self.thresholds, self.rows = thresholds, rows
        self.witness: dict[EdgeKey, list[int]] = {k: [] for k in self.weights}
        self.cert: dict[EdgeKey, list[int]] = {k: [] for k in self.weights}
        self.held: dict[EdgeKey, int] = {}

    def exclude(self, k: EdgeKey) -> bool:
        """Exclude the edge k, and tell whether every excluded edge is
        still within its threshold: k is checked, then only the excluded
        edges whose held path has k, in the order they were excluded, and
        each holds the path it got. The caller calls `restore` either way."""
        u, v = k
        w, b = self.weights[k], self.bit[k]
        self.available ^= b
        self.excluded.append(k)
        self.adj[u].remove((v, w))
        self.adj[v].remove((u, w))
        held = self.held
        for j in (k, *[j for j, path in held.items() if path & b]):
            path = self.within(j)
            if path is None:
                return False
            held[j] = path
        return True

    def restore(self) -> None:
        """Make the edge excluded last available again, dropping its hold.
        The paths that others took while it was excluded avoid it."""
        k = self.excluded.pop()
        self.held.pop(k, None)
        u, v = k
        w = self.weights[k]
        self.available |= self.bit[k]
        self.adj[u].append((v, w))
        self.adj[v].append((u, w))

    def within(self, k: EdgeKey) -> int | None:
        """The bitset of a path within the edge k's threshold over the
        available edges; None when there is none."""
        available = self.available
        for path in self.witness[k]:
            if path & available == path:
                return path
        for cert in self.cert[k]:
            if not cert & available:
                return None
        u, v = k
        limit = self.thresholds[k]
        rest = self.rows[v]
        done = dijkstra(self.adj, u, {v}, limit, rest)
        if v in done:
            path = _path(self.adj, done, v, self.bit)
            self.witness[k].append(path)
            return path
        weights, bit = self.weights, self.bit
        cert = 0
        for a, b in self.excluded:
            w = weights[a, b]
            if (a in done and done[a] + w + rest[b] <= limit) or (b in done and done[b] + w + rest[a] <= limit):
                cert |= bit[a, b]
        self.cert[k].append(cert)
        return None


def _completion_bound(parent: list[int], comps: int, label: list[int], free, idx: int) -> int | None:
    """Cheapest extra weight from the undecided edges free[idx:], (weight,
    edge) pairs heaviest first, that connects the base components (vertex x
    lies in component label[x]) once the chosen edges are added; None when
    even all of them cannot connect. `parent` is the union-find of the
    chosen edges over the base components, with `comps` classes left; it
    is copied, not changed. The bound is a minimum spanning forest's
    weight, so reading the edges backwards, by ascending weight, gives it
    whatever the order of equal weights."""
    if comps == 1:
        return 0
    parent = parent.copy()
    extra = 0
    for i in range(len(free) - 1, idx - 1, -1):
        w, (u, v) = free[i]
        ru, rv = _find(parent, label[u]), _find(parent, label[v])
        if ru != rv:
            parent[ru] = rv
            comps -= 1
            extra += w
            if comps == 1:
                return extra
    return None


def exact_opt_spanner(g: WeightedGraph, eps, max_edges: int = DEFAULT_MAX_EDGES) -> OracleResult:
    """Exact minimum-weight (1+eps)-spanner by exhaustive branch and bound.

    Weight-zero edges can only help and are always included, so the cap
    `max_edges` counts positive-weight edges only. The search runs on the
    quotient q of g by its zero-weight edges (`graphs.quotient`), whose
    weights are positive, in units of 1/g.scale. A q-spanner lifts to a
    g-spanner of the same weight: the g-edge each q-edge stands for, plus
    every zero-weight edge. Edges with no alternative route within stretch
    are forced up front; the remaining edges are decided heaviest-first,
    exclusion branch first, pruning on a spanning-completion lower bound
    against the incumbent. Among equal-weight optima the one whose lift is
    the lexicographically smallest g-edge set is returned. With eps = p/q
    an integer distance d' meets the threshold (1+eps)*d exactly when
    d' <= (p+q)*d // q. The forced edges are contracted into components
    once for the completion bound, and the chosen edges' union-find over
    them is carried down the search: an exclusion child shares its parent's
    union-find and bound, and an inclusion child copies the union-find only
    when its edge joins two classes. An exclusion child is searched only
    when every excluded edge is still within its threshold. `_Checks.exclude`
    decides that by checking the new edge and re-checking only the excluded
    edges whose held path has it, so every leaf reached is feasible. A
    check answers from the edge's stored witness paths and failure
    certificates where it can, and otherwise runs a Dijkstra pruned toward
    v by v's row: no APSP runs, but one Dijkstra from each v ending a q-edge
    (u, v), u < v, bounded by the largest (1+eps)*w of those edges, reads
    the row up to that bound. eps must be >= 0 (ValueError otherwise).
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError(f"exact_opt_spanner needs eps >= 0, got {eps}")
    if not is_connected(g):
        raise ValueError("exact_opt_spanner requires a connected graph")
    zeros = [k for k, w in g.int_weights.items() if w == 0]
    if g.m - len(zeros) > max_edges:
        raise OracleCapError(f"{g.m - len(zeros)} positive-weight edges exceed the cap {max_edges}")
    q, _, back = quotient(g, zeros)
    weights = q.int_weights

    def lift(keys) -> tuple[EdgeKey, ...]:
        return tuple(sorted([*map(back.__getitem__, keys), *zeros]))

    num, den = eps.numerator, eps.denominator
    lims: dict[int, int] = {}
    for (_, v), w in weights.items():
        lims[v] = max(lims.get(v, 0), (num + den) * w // den)
    adj = q.int_adjacency()
    rows = {}
    for v, lim in lims.items():
        rows[v] = row = [lim + 1] * q.n
        for x, d in dijkstra(adj, v, None, lim).items():
            row[x] = d
    thresholds = {(u, v): (num + den) * rows[v][u] // den for u, v in weights}

    nodes = 0
    checks = _Checks(q, adj, thresholds, rows)
    forced = set()
    for k in weights:
        nodes += 1
        if not checks.exclude(k):
            forced.add(k)
        checks.restore()
    free = sorted(((w, k) for k, w in weights.items() if k not in forced), key=lambda e: (-e[0], e[1]))
    label, comps = components(q.n, forced)
    base_weight = sum(weights[k] for k in forced)

    # full edge set is always feasible, giving the starting incumbent
    best_weight = sum((w for w, _ in free), base_weight)
    best_edges = lift(weights)

    def search(idx: int, parent: list[int], comps: int, chosen_weight: int, bound: int | None = None):
        nonlocal nodes, best_weight, best_edges
        nodes += 1
        if bound is None:
            bound = _completion_bound(parent, comps, label, free, idx)
        if bound is None or base_weight + chosen_weight + bound > best_weight:
            return
        if idx == len(free):
            # every excluded edge holds a path: available == base | chosen is feasible
            total = base_weight + chosen_weight
            cand = lift(k for k, b in checks.bit.items() if checks.available & b)
            if total < best_weight or (total == best_weight and cand < best_edges):
                best_weight = total
                best_edges = cand
            return
        w, k = free[idx]
        # exclusion first so light incumbents appear early
        if checks.exclude(k):
            # the child keeps the chosen edges and loses free[idx], which the
            # bound's pass reads last: its bound is this one unless the rest
            # cannot connect, and then k's endpoints are apart and exclude fails
            search(idx + 1, parent, comps, chosen_weight, bound)
        checks.restore()
        ru, rv = _find(parent, label[k[0]]), _find(parent, label[k[1]])
        if ru != rv:
            parent = parent.copy()
            parent[ru] = rv
            comps -= 1
        search(idx + 1, parent, comps, chosen_weight + w)

    try:
        search(0, list(range(comps)), comps, 0)
    finally:
        # search's closure holds search itself; unbinding it breaks that
        # cycle, so reference counting frees the search state on return
        del search
    return OracleResult(Fraction(best_weight, g.scale), frozenset(best_edges), nodes)


def sat_brute_force(inst: SatInstance, max_vars: int = 20) -> tuple[bool, ...] | None:
    """Satisfying assignment by enumeration (first in bitmask order), or None."""
    if inst.num_vars > max_vars:
        raise OracleCapError(f"{inst.num_vars} variables exceed the cap {max_vars}")
    for mask in range(1 << inst.num_vars):
        assignment = tuple(bool(mask >> i & 1) for i in range(inst.num_vars))
        if inst.satisfied_by(assignment):
            return assignment
    return None
