"""Exact-arithmetic weighted graphs, shortest paths, and edge-list I/O.

Weights enter and leave as `fractions.Fraction` (file I/O and the public
API); nothing rounds through floats. A graph is built on its ints: its
`scale` is the LCM of the weight denominators, and `int_weights` holds every
weight times `scale` as a Python int. Parsing makes one int per distinct
weight text; subgraphs and quotients reuse their parent's ints, and the
Fraction view is derived on demand. Every per-edge test (signs,
positivity, totals, subgraph checks) and the shortest paths, greedy scans,
oracle searches and pruning tables all run on these ints, so each stretch
test is an integer comparison. Distances of disconnected pairs use the ``INF``
sentinel; it compares above every int, so a sum containing it fails every
bound check.
"""
from __future__ import annotations

import math
import sys
from fractions import _RATIONAL_FORMAT, Fraction
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
    if isinstance(w, Fraction):
        return w
    if isinstance(w, float):
        raise TypeError(f"float weight {w!r} rejected; pass Fraction, int or 'p/q'")
    return Fraction(w)


def _checked_edges(n, edges, weight, declared_planar):
    """{key: weight(w)} of the (u, v, w) in `edges`, keys ascending;
    ValueError on a negative n, the first bad edge (endpoint, self-loop,
    duplicate, negative weight) or m > 3n - 6 for a declared graph."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    seen = {}
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = edge_key(u, v)
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        w = seen[key] = weight(w)
        if w.numerator < 0:  # an int or a Fraction, whose denominator is positive
            raise ValueError(f"negative weight on edge {key}")
    if declared_planar and n >= 3 and len(seen) > 3 * n - 6:
        raise ValueError(f"declared planar but m={len(seen)} exceeds 3n-6={3 * n - 6}")
    return {k: seen[k] for k in sorted(seen)}


def _graph(n, ints, scale=1, declared_planar=False):
    """The graph of `ints` (valid, keys ascending) in units of 1/scale, not
    re-validated, at its own scale: scale / gcd(scale, ints), the LCM of
    its reduced weight denominators."""
    if scale > 1 and (d := math.gcd(scale, *ints.values())) > 1:
        scale //= d
        ints = {k: w // d for k, w in ints.items()}
    g = object.__new__(WeightedGraph)
    g._set(n=n, int_weights=ints, scale=scale, declared_planar=declared_planar)
    return g


class Frozen:
    """Base of the immutable validated values. A subclass names its fields
    in `_fields`; its `__init__` validates them and stores them with `_set`,
    unless a field is a `cached_property` derived from what `_set` stored.
    Instances compare equal only to instances of the same class with equal
    fields, hash as the field tuple, print as ``Name(field=value, ...)`` and
    raise AttributeError on assignment or deletion. A `cached_property`
    still caches: it writes the instance dict directly."""

    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class WeightedGraph(Frozen):
    """Immutable undirected graph with exact nonnegative rational weights.

    Vertices are ``0..n-1``. Setting ``declared_planar`` asserts the caller
    knows the graph is planar; only the edge-count sanity bound m <= 3n - 6
    is checked, never planarity itself. Weights may be given as Fraction,
    int or 'p/q' text, never float. A graph holds its ints: `scale`, the LCM
    of the weight denominators, and `int_weights` (weight times scale, keys
    ``u < v`` ascending), which parsing, subgraphs and quotients build
    directly. `edges` (sorted, so permuted edge lists give equal graphs) and
    `weights` are their Fraction view, derived on demand.
    """

    _fields = ("n", "edges", "declared_planar")

    def __init__(self, n: int, edges: Iterable[Edge] = (), declared_planar: bool = False):
        seen = _checked_edges(n, edges, _as_fraction, declared_planar)
        scale = math.lcm(*{w.denominator for w in seen.values()})
        ints = {k: w.numerator * (scale // w.denominator) for k, w in seen.items()}
        self._set(n=n, int_weights=ints, scale=scale, declared_planar=declared_planar)

    @property
    def m(self) -> int:
        return len(self.int_weights)

    @cached_property
    def weights(self) -> dict[EdgeKey, Fraction]:
        return {k: Fraction(a, self.scale) for k, a in self.int_weights.items()}

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(k + (w,) for k, w in self.weights.items())

    @cached_property
    def edge_keys(self) -> frozenset[EdgeKey]:
        return frozenset(self.int_weights)

    def int_adjacency(self, keys: Iterable[EdgeKey] | None = None) -> list[list[tuple[int, int]]]:
        """Adjacency lists over `keys` (default: every edge) with weights in
        units of 1/scale, the input of a `Search`."""
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
        """Sum of the edge weights, as one Fraction built from the int sum."""
        return Fraction(sum(self.int_weights.values()), self.scale)

    def subgraph(self, keys: Iterable[EdgeKey]) -> "WeightedGraph":
        """Same vertex set, edges restricted to `keys` (all must exist)."""
        keys = set(keys)
        missing = keys - self.int_weights.keys()
        if missing:
            shown = ", ".join(map(str, sorted(missing)[:3])) + (", ..." if len(missing) > 3 else "")
            raise ValueError(f"{len(missing)} edges not in graph: {shown}")
        kept = {k: w for k, w in self.int_weights.items() if k in keys}
        return _graph(self.n, kept, self.scale, self.declared_planar)

    def is_subgraph_of(self, g: "WeightedGraph") -> bool:
        """Same vertex count, and every edge of self is a g-edge of the same
        weight. Compared on ints: a weight whose reduced denominator does
        not divide g.scale is no g-weight, so self.scale must divide it."""
        if self.n != g.n or g.scale % self.scale:
            return False
        factor = g.scale // self.scale
        weights = g.int_weights
        return all(weights.get(k) == w * factor for k, w in self.int_weights.items())


def _positive_eps(eps) -> Fraction:
    """eps as a Fraction; ValueError unless it is positive."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps


def _find(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def components(n: int, keys) -> tuple[list[int], int]:
    """Component labels 0..c-1 of the vertices under the edge set `keys`,
    numbered in ascending order of their union-find roots, and c."""
    parent = list(range(n))
    for u, v in keys:
        parent[_find(parent, u)] = _find(parent, v)
    roots = [x for x in range(n) if _find(parent, x) == x]
    index = dict(zip(roots, range(len(roots))))
    return [index[_find(parent, x)] for x in range(n)], len(roots)


def quotient(g: WeightedGraph, keys) -> tuple[WeightedGraph, list[int], dict[EdgeKey, EdgeKey]]:
    """g with each component of the edge set `keys` contracted to one vertex.

    Returns the quotient q, the label of every vertex of g (its component,
    numbered as `components` numbers them, so q's vertex) and the back-map
    from each edge of q to the g-edge it stands for: the lightest g-edge
    between its two components, ties broken by the smaller key. q's weights
    are that edge's `int_weights` (q.scale is 1), not re-validated. q is never
    declared planar: only m <= 3n - 6 is checked for a declared graph, and a
    declared graph that is not planar can break that bound once contracted.
    With `keys` empty, q is g's vertex set with g's int weights.
    """
    label, c = components(g.n, keys)
    best: dict[EdgeKey, tuple[int, EdgeKey]] = {}
    for k, w in g.int_weights.items():
        qk = edge_key(label[k[0]], label[k[1]])
        if qk[0] != qk[1] and (w, k) < best.get(qk, (INF,)):
            best[qk] = (w, k)
    q = _graph(c, dict(sorted((qk, w) for qk, (w, _) in best.items())))
    return q, label, {qk: k for qk, (_, k) in best.items()}


def is_connected(g: WeightedGraph) -> bool:
    # fewer than n - 1 edges cannot connect n vertices; answering first
    # keeps a huge declared vertex count from allocating per vertex
    return g.m >= g.n - 1 and components(g.n, g.int_weights)[1] <= 1


class Search:
    """Exact shortest distances from one source at a time over the int
    adjacency lists `adj`, which may change between runs but not in length.
    The workspace is allocated once: `mark` holds `stamp` - 1 for each vertex
    the last run reached and `stamp` for each it settled, at the exact
    distance `dist[x]`, so a run touches only the vertices it reaches."""

    __slots__ = ("adj", "dist", "mark", "stamp")

    def __init__(self, adj):
        self.adj, self.dist, self.mark, self.stamp = adj, [0] * len(adj), [0] * len(adj), 0

    def row(self, far) -> list:
        """The last run's distances, `far` for every vertex it did not settle."""
        done = self.stamp
        return [d if m == done else far for d, m in zip(self.dist, self.mark)]

    def run(self, source: int, targets=None, limit=INF, rest=None) -> bool:
        """Settle the vertices nearest to `source`, at their exact distances;
        True when the run stopped with every vertex of `targets` settled.

        The run stops once every vertex of `targets` is settled (None: it
        settles all it can reach; empty: it stops at the source), testing
        only the one it waits for, and never settles a vertex farther than
        `limit`: a target t is settled exactly when dist(s, t) <= limit.
        The optional row `rest` prunes toward one target t; it must be a
        consistent nonnegative lower bound on the distance to t, rest[t] ==
        0 and rest[x] <= w + rest[y] for every edge (x, y, w), as is t's
        row in a supergraph, capped at any value or not. A vertex x is then
        reached only when its distance plus rest[x] is within `limit`, and
        a run that misses t settles s and exactly the x with dist(s, x) +
        rest[x] <= limit. Settled distances stay exact either way.
        """
        adj, dist, mark = self.adj, self.dist, self.mark
        seen = self.stamp + 1
        self.stamp = done = seen + 1
        pending = [-1] if targets is None else [source, *targets]
        target = pending.pop()
        dist[source], mark[source] = 0, seen
        heap = [(0, source)]
        while heap:
            d, u = heappop(heap)
            if mark[u] == done:
                continue
            mark[u] = done
            if u == target:
                while pending and mark[target] == done:
                    target = pending.pop()
                if mark[target] == done:
                    return True
            for v, w in adj[u]:
                nd = d + w
                # the row is tested last, so only for a distance it would lower
                if nd <= limit and (mark[v] < seen or nd < dist[v]) and (rest is None or nd + rest[v] <= limit):
                    dist[v], mark[v] = nd, seen
                    heappush(heap, (nd, v))
        return False


class DistanceOracle:
    """All-pairs exact shortest-path distances with canonical paths.

    Distances are stored as ints in units of 1/scale of the graph; they are
    sums of the graph's `int_weights`, which the oracle shares, and come
    from one run per vertex of a single `Search`. Zero weights give exact
    distances too, but pruning contracts them first (see `quotient`). The
    canonical path between two vertices is the lexicographically smallest
    vertex sequence among all minimum-weight paths; it is materialised
    lazily (one next-hop column per target) and requires strictly positive
    weights, which `all_positive` records.
    `memo` holds tables other modules derive from these distances: pruning
    keeps one walk plan per eps there, which holds all its per-eps state;
    they live as long as the oracle. The oracle keeps no reference to g, so
    g can hold its own oracle (see `apsp`) without a reference cycle that
    only the cyclic collector would free.
    """

    def __init__(self, g: WeightedGraph):
        self.n = g.n
        self.scale = g.scale
        self.int_weights = g.int_weights
        self._adj = g.int_adjacency()
        search = Search(self._adj)
        far = sum(self.int_weights.values())  # bounds every distance; an int compares faster than INF
        self._dist = []
        for s in range(g.n):
            search.run(s, None, far)
            self._dist.append(search.row(INF))
        self._next_hop: dict[int, list] = {}
        self.memo: dict = {}
        self.all_positive = 0 not in self.int_weights.values()

    def dist(self, u: int, v: int):
        """Exact distance as a Fraction, or the INF sentinel when disconnected."""
        d = self._dist[u][v]
        return d if d is INF else Fraction(d, self.scale)

    def row(self, u: int):
        """The distance row of u as ints in units of 1/scale, INF where
        disconnected. Read-only."""
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

    Computed once per graph object, with one search per vertex: later
    calls return the same oracle, so every pruning pass over g shares its
    distances and what is memoised on them.
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
    h drops are checked, on h's zero-weight quotient (`quotient`; h itself
    if h has no zero weight): one inside a component has distance 0, a zero
    one between two gives INF, and of the rest the lightest per quotient
    pair has the worst ratio. One `Search` runs from each smaller quotient
    endpoint, stopping once its checked neighbours are settled. h = g runs
    none and builds no adjacency or workspace, so it allocates nothing per
    vertex; memory stays linear.
    """
    if not h.is_subgraph_of(g):
        raise ValueError("h is not a subgraph of g")
    kept = h.int_weights
    zeros = [k for k, w in kept.items() if not w]
    q, label, _ = quotient(h, zeros) if zeros else (h, range(h.n), None)
    dropped_from: dict[int, dict[int, int]] = {}
    for k, w in g.int_weights.items():
        if k not in kept:
            a, b = edge_key(label[k[0]], label[k[1]])
            if a == b:
                continue
            if not w:
                return INF
            dropped = dropped_from.setdefault(a, {})
            dropped[b] = min(w, dropped.get(b, w))
    if not dropped_from:  # before the adjacency, which is per vertex
        return Fraction(1)
    search = Search(q.int_adjacency())
    far = sum(q.int_weights.values())  # no distance exceeds it; see DistanceOracle
    # h's weights are a subset of g's, so h.scale divides g.scale and
    # d * factor is dist_h in units of 1/g.scale
    factor = g.scale // h.scale
    # the worst ratio so far is num / den; it starts at 1, the ratio of
    # every edge h keeps
    num = den = 1
    for a, dropped in dropped_from.items():
        if not search.run(a, dropped, far):
            return INF
        for b, w in dropped.items():
            d = search.dist[b] * factor
            if d * den > num * w:
                num, den = d, w
    return Fraction(num, den)


def scale_to_integers(g: WeightedGraph) -> tuple[WeightedGraph, Fraction]:
    """Uniformly rescale so every weight is an integer; returns (graph, scale).

    The scale is `g.scale`, the LCM of the weight denominators; the graph
    is `g.int_weights`. Uniform scaling keeps every distance ratio, hence
    the stretch of any subgraph, unchanged.
    """
    return _graph(g.n, dict(g.int_weights), 1, g.declared_planar), Fraction(g.scale)


# --- edge-list text format ------------------------------------------------
#
# header:  n m planar:{0|1}
# then m lines:  u v w     (w an exact rational like 5 or 3/2)
# '#' starts a comment; blank lines are ignored.

def content_lines(text: str) -> list[str]:
    """The stripped non-blank lines of `text`, where '#' starts a comment."""
    return [line for raw in text.splitlines() if (line := raw.split("#", 1)[0].strip())]


def format_rational(x) -> str:
    """Report text of a rational: ``p/q`` in lowest terms, or ``inf`` for INF."""
    if x is INF:
        return "inf"
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """`Fraction(text)`, or OverflowError if its exact numerator or
    denominator has more digits than Python prints
    (`sys.get_int_max_str_digits()`); a huge exponent is refused unbuilt."""
    limit = sys.get_int_max_str_digits()
    m = limit and "e" in text.lower() and _RATIONAL_FORMAT.match(text)
    if m and m["exp"] and abs(int(m["exp"])) > limit + 2 * len(text):
        # the value is M * 10**(exp - f), with M and f (the digits after
        # the point) under 10**len(text) and len(text): too long unless M is 0
        if not Fraction(text[: m.start("exp")] + "0"):
            return Fraction(0)
        raise OverflowError(f"more than {limit} digits")
    x = Fraction(text)
    # without an exponent, neither has more digits than the text
    if limit and (m or len(text) > limit) and max(abs(x.numerator), x.denominator) >= 10**limit:
        raise OverflowError(f"more than {limit} digits")
    return x


def format_graph(g: WeightedGraph) -> str:
    """The edge-list text of g; one ``str(Fraction)`` per distinct int."""
    text = {a: str(Fraction(a, g.scale)) for a in set(g.int_weights.values())}
    lines = [f"{g.n} {g.m} planar:{1 if g.declared_planar else 0}"]
    lines.extend(f"{u} {v} {text[a]}" for (u, v), a in g.int_weights.items())
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> WeightedGraph:
    """The graph of an edge-list text; ValueError on any malformed line.

    Weight tokens follow `Fraction`'s grammar (``3/2``, ``1.5``, ``1e2``).
    Each distinct token goes once through `parse_rational` and becomes one
    int at the graph's scale, which the graph is built from."""
    rows = content_lines(text)
    if not rows:
        raise ValueError("empty graph file")
    head = rows[0].split()
    if len(head) != 3 or head[2] not in ("planar:0", "planar:1"):
        raise ValueError(f"bad header {rows[0]!r}; expected 'n m planar:0|1'")
    n, m = int(head[0]), int(head[1])
    planar = head[2] == "planar:1"
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, file has {len(rows) - 1}")
    edges = []
    units: dict[str, Fraction | int] = {}  # token -> its value, then its int
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line {line!r}")
        token = parts[2]
        if token not in units:
            try:
                units[token] = parse_rational(token)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in edge line {line!r}") from None
            except OverflowError as exc:
                raise ValueError(f"{exc} in edge line {line!r}") from None
        edges.append((int(parts[0]), int(parts[1]), token))
    scale = math.lcm(*(w.denominator for w in units.values()))
    for token, w in units.items():
        units[token] = w.numerator * (scale // w.denominator)
    return _graph(n, _checked_edges(n, edges, units.__getitem__, planar), scale, planar)


def write_graph(g: WeightedGraph, path: str | Path) -> None:
    Path(path).write_text(format_graph(g))


def read_graph(path: str | Path) -> WeightedGraph:
    return parse_graph(Path(path).read_text())
