"""Ground truth: exact minimum-weight spanners by branch and bound, the
spanner predicate, and a tiny brute-force SAT solver for reduction checks."""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graphs import INF, DistanceOracle, EdgeKey, WeightedGraph, _find, apsp, components, dijkstra, edge_key, is_connected, stretch
from .hardness import SatInstance

DEFAULT_MAX_EDGES = 24


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


def _path(adj, done: dict[int, int], v: int) -> tuple[EdgeKey, ...]:
    """The edges of a shortest path from the source of the search that
    settled `done` (vertex -> distance, in settle order) to its vertex v,
    over the adjacency `adj` it searched, listed from v back to the
    source. Each step goes back to a neighbour settled earlier whose
    distance plus the edge weight is the current one, so zero-weight ties
    cannot loop."""
    order = {x: i for i, x in enumerate(done)}
    path = []
    x = v
    while order[x]:
        ix, dx = order[x], done[x]
        for y, w in adj[x]:
            if order.get(y, ix) < ix and done[y] + w == dx:
                break
        path.append(edge_key(x, y))
        x = y
    return tuple(path)


class _Checks:
    """The threshold checks of one `exact_opt_spanner` call on g.

    `available` holds the g-edges not excluded so far and `adj` is always
    their adjacency; the excluded edges form the stack `excluded`, edited
    by `exclude` and `restore`. A check asks whether dist(u, v) <= limit
    for a g-edge k = (u, v) over the available edges, with `limit` its
    entry in `thresholds`. Two memos, each holding per g-edge everything
    its searches found, answer most checks without a search:

    - `witness[k]` holds the u-v paths within the limit that searches
      found. While one of them is wholly available the answer is yes.
    - `cert[k]` holds the certificates of the searches for k that failed:
      the edges then excluded that leave the settled ball within the limit,
      (a, b) with a settled and dist(u, a) + w(a, b) + dist_g(b, v) <= limit
      or the same from b. While none of a certificate's edges is available
      the answer is no: on any u-v path within the limit, the first edge
      that was excluded at that search leaves the ball that way.

    Both stay valid for any later available set. Each excluded edge j
    holds a witness `held[j]` that lies wholly in the available edges, and
    `users[e]` is the set of excluded edges whose held path uses the g-edge
    e, so only they need a new path when e is excluded.

    A search prunes toward v with the g-distance row of v (`rows`), a lower
    bound on the distance to v over any subset of g's edges.
    """

    __slots__ = ("weights", "adj", "available", "excluded", "thresholds", "rows", "witness", "cert", "held", "users")

    def __init__(self, g: WeightedGraph, thresholds: dict[EdgeKey, int], rows: DistanceOracle):
        self.weights = g.int_weights
        self.adj = g.int_adjacency()
        self.available = set(self.weights)
        self.excluded: list[EdgeKey] = []
        self.thresholds = thresholds
        self.rows = rows
        self.witness: dict[EdgeKey, list[tuple[EdgeKey, ...]]] = {k: [] for k in self.weights}
        self.cert: dict[EdgeKey, list[list[EdgeKey]]] = {k: [] for k in self.weights}
        self.held: dict[EdgeKey, tuple[EdgeKey, ...]] = {}
        self.users: dict[EdgeKey, set[EdgeKey]] = {k: set() for k in self.weights}

    def exclude(self, k: EdgeKey) -> bool:
        """Exclude the g-edge k, and tell whether every excluded edge is
        still within its threshold: k is checked, then only the excluded
        edges whose held path used k, and each holds the path it got.
        The caller calls `restore` either way."""
        u, v = k
        w = self.weights[k]
        self.available.discard(k)
        self.excluded.append(k)
        self.adj[u].remove((v, w))
        self.adj[v].remove((u, w))
        users, held = self.users, self.held
        for j in (k, *users[k]):
            path = self.within(j)
            if path is None:
                return False
            for e in held.get(j, ()):
                users[e].discard(j)
            held[j] = path
            for e in path:
                users[e].add(j)
        return True

    def restore(self) -> None:
        """Make the edge excluded last available again, dropping its hold.
        The paths that others took while it was excluded avoid it."""
        k = self.excluded.pop()
        users = self.users
        for e in self.held.pop(k, ()):
            users[e].discard(k)
        u, v = k
        w = self.weights[k]
        self.available.add(k)
        self.adj[u].append((v, w))
        self.adj[v].append((u, w))

    def within(self, k: EdgeKey) -> tuple[EdgeKey, ...] | None:
        """A path within the g-edge k's threshold over the available edges,
        listed from v back to u; None when there is none."""
        available = self.available
        for path in self.witness[k]:
            if available.issuperset(path):
                return path
        for cert in self.cert[k]:
            if available.isdisjoint(cert):
                return None
        u, v = k
        limit = self.thresholds[k]
        rest = self.rows.row(v)
        done = dijkstra(self.adj, u, {v}, limit, rest)
        if v in done:
            path = _path(self.adj, done, v)
            self.witness[k].append(path)
            return path
        weights = self.weights
        self.cert[k].append([
            (a, b)
            for a, b in self.excluded
            if (a in done and done[a] + weights[a, b] + rest[b] <= limit)
            or (b in done and done[b] + weights[a, b] + rest[a] <= limit)
        ])
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
    `max_edges` counts positive-weight edges only. Edges with no alternative
    route within stretch are forced up front; the remaining edges are decided
    heaviest-first, exclusion branch first, pruning on a spanning-completion
    lower bound against the incumbent. Among equal-weight optima the
    lexicographically smallest edge set is returned. The search runs on the
    int weights of `g`; with eps = p/q an integer distance d' meets the
    threshold (1+eps)*d exactly when d' <= (p+q)*d // q. The zero-weight and
    forced edges are contracted into components once for the completion
    bound, and the chosen edges' union-find over them is carried down the
    search: an exclusion child shares its parent's union-find and bound, and
    an inclusion child copies the union-find only when its edge joins two
    classes. An exclusion child is searched only when every excluded edge is
    still within its threshold. `_Checks.exclude` decides that by checking
    the new edge and re-checking only the excluded edges whose held path
    uses it, so every leaf reached is feasible. A check answers from the
    edge's stored witness paths and failure certificates where it can, and
    otherwise runs a Dijkstra pruned toward v by g's distance row of v.
    eps must be >= 0 (ValueError otherwise).
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError(f"exact_opt_spanner needs eps >= 0, got {eps}")
    if not is_connected(g):
        raise ValueError("exact_opt_spanner requires a connected graph")
    weights = g.int_weights
    zeros = frozenset(k for k, w in weights.items() if w == 0)
    candidates = [k for k, w in weights.items() if w > 0]
    if len(candidates) > max_edges:
        raise OracleCapError(
            f"{len(candidates)} positive-weight edges exceed the cap {max_edges}"
        )

    oracle = apsp(g)
    p, q = eps.numerator, eps.denominator
    thresholds = {(u, v): (p + q) * oracle.row(u)[v] // q for u, v in weights}

    nodes = 0
    all_keys = frozenset(weights)
    checks = _Checks(g, thresholds, oracle)
    forced = set()
    for k in candidates:
        nodes += 1
        if not checks.exclude(k):
            forced.add(k)
        checks.restore()
    free = sorted(((weights[k], k) for k in candidates if k not in forced), key=lambda e: (-e[0], e[1]))
    label, comps = components(g.n, zeros | forced)
    base_weight = sum(weights[k] for k in forced)

    # full edge set is always feasible, giving the starting incumbent
    best_weight = sum((w for w, _ in free), base_weight)
    best_edges = tuple(sorted(all_keys))

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
            cand = tuple(sorted(checks.available))
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

    search(0, list(range(comps)), comps, 0)
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
