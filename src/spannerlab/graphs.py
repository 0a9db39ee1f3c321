"""Exact-arithmetic weighted graphs, shortest paths, and edge-list I/O.

Weights enter and leave as `fractions.Fraction` (file I/O and the public
API); nothing rounds through floats. Inside, each graph is scaled once: its
`scale` is the LCM of the weight denominators, and `int_weights` holds every
weight times `scale` as a Python int. Shortest paths, greedy scans, oracle
searches and pruning tables all run on these ints, so each stretch test is
an integer comparison. Distances of disconnected pairs use the ``INF``
sentinel; it compares above every int, so a sum containing it fails every
bound check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from pathlib import Path
from typing import Iterable

INF = math.inf

EdgeKey = tuple[int, int]
Edge = tuple[int, int, Fraction]


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical unordered key for the edge between u and v."""
    return (u, v) if u < v else (v, u)


def _as_fraction(w) -> Fraction:
    if isinstance(w, float):
        raise TypeError(f"float weight {w!r} rejected; pass Fraction, int or 'p/q'")
    return Fraction(w)


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable undirected graph with exact nonnegative rational weights.

    Vertices are ``0..n-1``. Edges are stored canonically (``u < v``, sorted),
    so two graphs built from permuted edge lists compare equal. Setting
    ``declared_planar`` asserts the caller knows the graph is planar; only the
    edge-count sanity bound m <= 3n - 6 is checked, never planarity itself.
    """

    n: int
    edges: tuple[Edge, ...] = ()
    declared_planar: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: dict[EdgeKey, Fraction] = {}
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = edge_key(u, v)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            if not isinstance(w, Fraction):
                w = _as_fraction(w)
            if w < 0:
                raise ValueError(f"negative weight on edge {key}")
            seen[key] = w
        norm = tuple((u, v, seen[(u, v)]) for u, v in sorted(seen))
        object.__setattr__(self, "edges", norm)
        if self.declared_planar and self.n >= 3 and len(norm) > 3 * self.n - 6:
            raise ValueError(
                f"declared planar but m={len(norm)} exceeds 3n-6={3 * self.n - 6}"
            )

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def weights(self) -> dict[EdgeKey, Fraction]:
        return {(u, v): w for u, v, w in self.edges}

    @cached_property
    def edge_keys(self) -> frozenset[EdgeKey]:
        return frozenset(self.weights)

    @cached_property
    def scale(self) -> int:
        """LCM of the weight denominators: every weight times it is an int."""
        return math.lcm(*(w.denominator for _, _, w in self.edges))

    @cached_property
    def int_weights(self) -> dict[EdgeKey, int]:
        """Edge weights in units of 1/scale, as ints."""
        return {k: w.numerator * (self.scale // w.denominator) for k, w in self.weights.items()}

    def int_adjacency(self, keys: Iterable[EdgeKey] | None = None) -> list[list[tuple[int, int]]]:
        """Adjacency lists over `keys` (default: every edge) with weights in
        units of 1/scale, the input of `dijkstra`."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        weights = self.int_weights
        for k in weights if keys is None else keys:
            u, v = k
            w = weights[k]
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    @cached_property
    def _oracle(self) -> "DistanceOracle":
        return DistanceOracle(self)

    @property
    def total_weight(self) -> Fraction:
        return sum((w for _, _, w in self.edges), Fraction(0))

    def subgraph(self, keys: Iterable[EdgeKey]) -> "WeightedGraph":
        """Same vertex set, edges restricted to `keys` (all must exist)."""
        keys = set(keys)
        missing = keys - self.edge_keys
        if missing:
            shown = ", ".join(map(str, sorted(missing)[:3])) + (", ..." if len(missing) > 3 else "")
            raise ValueError(f"{len(missing)} edges not in graph: {shown}")
        kept = tuple(e for e in self.edges if (e[0], e[1]) in keys)
        return WeightedGraph(self.n, kept, self.declared_planar)

    def is_subgraph_of(self, g: "WeightedGraph") -> bool:
        if self.n != g.n:
            return False
        return all(g.weights.get(k) == w for k, w in self.weights.items())


def _find(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def components(n: int, keys) -> tuple[list[int], int]:
    """Component labels 0..c-1 of the vertices under the edge set `keys`, and c."""
    parent = list(range(n))
    for u, v in keys:
        parent[_find(parent, u)] = _find(parent, v)
    roots: dict[int, int] = {}
    label = [roots.setdefault(_find(parent, x), len(roots)) for x in range(n)]
    return label, len(roots)


def is_connected(g: WeightedGraph) -> bool:
    return components(g.n, g.weights)[1] <= 1


def dijkstra(
    adj, source: int, targets: Iterable[int] | None = None, limit: int | None = None
) -> dict[int, int]:
    """Exact shortest distances from `source` over int adjacency lists.

    Returns {vertex: distance} for every settled vertex, each exact. The
    search stops once every vertex of the set `targets` is settled (None:
    it settles all it can reach; an empty set stops at the source) and
    never settles a vertex farther than `limit`, so
    ``t in dijkstra(adj, s, targets, limit)`` holds for a target t exactly
    when dist(s, t) <= limit.
    """
    dist = {source: 0}
    done: dict[int, int] = {}
    heap = [(0, source)]
    pending = None if targets is None else set(targets)
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        done[u] = d
        if pending is not None:
            pending.discard(u)
            if not pending:
                break
        for v, w in adj[u]:
            nd = d + w
            if (limit is None or nd <= limit) and (v not in dist or nd < dist[v]):
                dist[v] = nd
                heappush(heap, (nd, v))
    return done


class DistanceOracle:
    """All-pairs exact shortest-path distances with canonical paths.

    Distances are stored as ints in units of 1/scale of the graph; they are
    sums of the graph's `int_weights`, which the oracle shares. The
    canonical path between two vertices is the lexicographically smallest
    vertex sequence among all minimum-weight paths; it is materialised lazily
    (one next-hop column per target) and requires strictly positive weights,
    which `all_positive` records.
    `memo` holds tables other modules derive from these distances (pruning
    keeps its walk plans there); they live as long as the oracle. The oracle
    keeps no reference to g, so g can hold its own oracle (see `apsp`)
    without a reference cycle that only the cyclic collector would free.
    """

    def __init__(self, g: WeightedGraph):
        self.n = g.n
        self.scale = g.scale
        self.int_weights = g.int_weights
        self._adj = g.int_adjacency()
        self._dist = []
        for s in range(g.n):
            row = [INF] * g.n
            for v, d in dijkstra(self._adj, s).items():
                row[v] = d
            self._dist.append(row)
        self._next_hop: dict[int, list] = {}
        self.memo: dict = {}
        self.all_positive = all(w > 0 for _, _, w in g.edges)

    def dist(self, u: int, v: int):
        """Exact distance as a Fraction, or the INF sentinel when disconnected."""
        d = self._dist[u][v]
        return d if d is INF else Fraction(d, self.scale)

    def row(self, u: int):
        """The distance row of u as ints in units of 1/scale, INF where
        disconnected (read-only by convention)."""
        return self._dist[u]

    def _column(self, t: int) -> list:
        col = self._next_hop.get(t)
        if col is not None:
            return col
        col = [None] * self.n
        dist_t = self._dist[t]
        for u in range(self.n):
            if u == t or dist_t[u] is INF:
                continue
            # smallest neighbour lying on some shortest u-t path; choosing it
            # greedily yields the lex-min vertex sequence
            best = None
            for v, w in self._adj[u]:
                if w + dist_t[v] == dist_t[u]:
                    best = v if best is None else min(best, v)
            col[u] = best
        self._next_hop[t] = col
        return col

    def path(self, s: int, t: int) -> tuple[int, ...]:
        """The canonical shortest s-t path as its vertex sequence, s first."""
        if not self.all_positive:
            raise ValueError("canonical paths require strictly positive weights")
        if self._dist[s][t] is INF:
            raise ValueError(f"vertices {s} and {t} are disconnected")
        col = self._column(t)
        verts = [s]
        while verts[-1] != t:
            verts.append(col[verts[-1]])
        return tuple(verts)


def apsp(g: WeightedGraph) -> DistanceOracle:
    """Exact all-pairs shortest paths with deterministic tie-breaking.

    Computed once per graph object: later calls return the same oracle, so
    every pruning pass over g shares its distances and what is memoised on
    them.
    """
    return g._oracle


def stretch(g: WeightedGraph, h: WeightedGraph):
    """Worst distance blow-up of h relative to g, as an exact Fraction.

    Computed as the maximum over edges (u,v) of g of dist_h(u,v) / w(u,v),
    which equals the maximum over all vertex pairs of dist_h / dist_g: along
    a shortest g-path every edge contributes exactly its weight, so a bound
    per edge lifts to every pair. Returns INF when h disconnects a pair that
    g connects, or leaves a zero-weight edge's endpoints apart, and exactly
    1 for h = g. An edge that h keeps has ratio at most 1, so only the edges
    h drops are checked: one Dijkstra in h per smaller endpoint of a dropped
    edge, stopping once that vertex's dropped neighbours are settled. h = g
    runs none, and each distance map is dropped once used, so memory stays
    linear.
    """
    if not h.is_subgraph_of(g):
        raise ValueError("h is not a subgraph of g")
    dropped_from: dict[int, dict[int, int]] = {}
    for (u, v), w in g.int_weights.items():
        if (u, v) not in h.weights:
            dropped_from.setdefault(u, {})[v] = w
    adj = h.int_adjacency()
    # h's weights are a subset of g's, so h.scale divides g.scale and
    # d * factor is dist_h in units of 1/g.scale
    factor = g.scale // h.scale
    # the worst ratio so far is num / den; it starts at 1, the ratio of
    # every edge h keeps (h = g has no other)
    num = den = 1
    for u, dropped in dropped_from.items():
        dist_u = dijkstra(adj, u, dropped.keys())
        for v, w in dropped.items():
            d = dist_u.get(v)
            if d is None:
                return INF
            if w == 0:
                if d > 0:
                    return INF
                continue
            if d * factor * den > num * w:
                num, den = d * factor, w
    return Fraction(num, den)


def scale_to_integers(g: WeightedGraph) -> tuple[WeightedGraph, Fraction]:
    """Uniformly rescale so every weight is an integer; returns (graph, scale).

    The scale is `g.scale`, the LCM of the weight denominators. Uniform
    scaling keeps every distance ratio, hence the stretch of any subgraph,
    unchanged.
    """
    scaled = tuple((u, v, w) for (u, v), w in g.int_weights.items())
    return WeightedGraph(g.n, scaled, g.declared_planar), Fraction(g.scale)


# --- edge-list text format ------------------------------------------------
#
# header:  n m planar:{0|1}
# then m lines:  u v w     (w an exact rational like 5 or 3/2)
# '#' starts a comment; blank lines are ignored.

def format_graph(g: WeightedGraph) -> str:
    lines = [f"{g.n} {g.m} planar:{1 if g.declared_planar else 0}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> WeightedGraph:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty graph file")
    head = rows[0].split()
    if len(head) != 3 or not head[2].startswith("planar:"):
        raise ValueError(f"bad header {rows[0]!r}; expected 'n m planar:0|1'")
    n, m = int(head[0]), int(head[1])
    planar = head[2] == "planar:1"
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, file has {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line {line!r}")
        try:
            w = Fraction(parts[2])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in edge line {line!r}") from None
        edges.append((int(parts[0]), int(parts[1]), w))
    return WeightedGraph(n, tuple(edges), planar)


def write_graph(g: WeightedGraph, path: str | Path) -> None:
    Path(path).write_text(format_graph(g))


def read_graph(path: str | Path) -> WeightedGraph:
    return parse_graph(Path(path).read_text())
