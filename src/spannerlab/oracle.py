"""Ground truth: exact minimum-weight spanners by branch and bound, the
spanner predicate, and a tiny brute-force SAT solver for reduction checks."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import INF, EdgeKey, WeightedGraph, _find, apsp, components, dijkstra, edge_key, is_connected, stretch
from .hardness import SatInstance


class OracleCapError(RuntimeError):
    """Instance exceeds the configured exhaustive-search budget."""


def is_spanner(g: WeightedGraph, h: WeightedGraph, eps) -> bool:
    """Exact check that h stretches no g-distance beyond 1 + eps."""
    s = stretch(g, h)
    return s is not INF and s <= 1 + Fraction(eps)


@dataclass(frozen=True)
class OracleResult:
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


def _within(adj, keys, witness, k: EdgeKey, limit: int) -> bool:
    """Is dist(u, v) <= limit for the g-edge k = (u, v) over the edge set
    `keys`, with adjacency `adj`? `witness` maps g-edges to a path within
    their limit found earlier: when all its edges are in `keys` the answer
    is yes without a search, and a search that answers yes stores its path."""
    path = witness.get(k)
    if path is not None and keys.issuperset(path):
        return True
    u, v = k
    done = dijkstra(adj, u, {v}, limit)
    if v not in done:
        return False
    witness[k] = _path(adj, done, v)
    return True


def _feasible(adj, keys, thresholds, witness) -> bool:
    """Does the edge set `keys`, with adjacency `adj`, keep every g-edge
    within its threshold?"""
    for k, limit in thresholds.items():
        if k not in keys and not _within(adj, keys, witness, k, limit):
            return False
    return True


def _local_ok(neighbours, adj, keys, thresholds, witness, around: EdgeKey) -> bool:
    """Cheap necessary check after dropping `around` from the edge set `keys`
    (adjacency `adj`): every g-edge touching one of its endpoints (g's
    neighbour lists are `neighbours`) must still be within threshold. The
    dropped edge touches both endpoints and is checked once, first."""
    if not _within(adj, keys, witness, around, thresholds[around]):
        return False
    for x in around:
        for y in neighbours[x]:
            k = edge_key(x, y)
            if k != around and k not in keys and not _within(adj, keys, witness, k, thresholds[k]):
                return False
    return True


def _drop(adj, k: EdgeKey, w: int) -> None:
    u, v = k
    adj[u].remove((v, w))
    adj[v].remove((u, w))


def _restore(adj, k: EdgeKey, w: int) -> None:
    u, v = k
    adj[u].append((v, w))
    adj[v].append((u, w))


def _completion_bound(label: list[int], comps: int, chosen, free_rest) -> int | None:
    """Cheapest extra weight from `free_rest` that connects the `comps` base
    components (vertex x lies in component label[x]) once the edges `chosen`
    are added; None when even all of them cannot connect."""
    parent = list(range(comps))
    for u, v in chosen:
        ru, rv = _find(parent, label[u]), _find(parent, label[v])
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    if comps == 1:
        return 0
    extra = 0
    for w, (u, v) in free_rest:
        ru, rv = _find(parent, label[u]), _find(parent, label[v])
        if ru != rv:
            parent[ru] = rv
            comps -= 1
            extra += w
            if comps == 1:
                return extra
    return None


def exact_opt_spanner(g: WeightedGraph, eps, max_edges: int = 24) -> OracleResult:
    """Exact minimum-weight (1+eps)-spanner by exhaustive branch and bound.

    Weight-zero edges can only help and are always included, so the cap
    `max_edges` counts positive-weight edges only. Edges with no alternative
    route within stretch are forced up front; the remaining edges are decided
    heaviest-first, exclusion branch first, pruning on a spanning-completion
    lower bound against the incumbent. Among equal-weight optima the
    lexicographically smallest edge set is returned. The search runs on the
    int weights of `g`; with eps = p/q an integer distance d' meets the
    threshold (1+eps)*d exactly when d' <= (p+q)*d // q. One adjacency of
    the edges still available is built once and edited in place as edges
    are excluded and restored, and the zero-weight and forced edges are
    contracted into components once for the completion bound. Each
    threshold check that passes keeps the path it found as a witness; a
    later check of the same g-edge whose witness is still wholly available
    answers yes without a search, so Dijkstra runs mostly for checks that
    fail. eps must be >= 0 (ValueError otherwise).
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
    adj = g.int_adjacency()
    neighbours: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in weights:
        neighbours[u].append(v)
        neighbours[v].append(u)
    # the edges not excluded so far; `adj` is always their adjacency
    available = set(all_keys)
    # g-edge -> a path within its threshold, reused while all its edges are available
    witness: dict[EdgeKey, tuple[EdgeKey, ...]] = {}
    forced = set()
    for k in candidates:
        nodes += 1
        available.discard(k)
        _drop(adj, k, weights[k])
        if not _within(adj, available, witness, k, thresholds[k]):
            forced.add(k)
        _restore(adj, k, weights[k])
        available.add(k)
    free = sorted((k for k in candidates if k not in forced), key=lambda k: (-weights[k], k))
    free_weights = [weights[k] for k in free]
    label, comps = components(g.n, zeros | forced)
    base_weight = sum(weights[k] for k in forced)

    # full edge set is always feasible, giving the starting incumbent
    best_weight = sum(free_weights, base_weight)
    best_edges = tuple(sorted(all_keys))

    suffix: list[list[tuple[int, EdgeKey]]] = [[] for _ in range(len(free) + 1)]
    for i in range(len(free) - 1, -1, -1):
        suffix[i] = sorted(suffix[i + 1] + [(free_weights[i], free[i])])

    def search(idx: int, chosen: set[EdgeKey], chosen_weight: int):
        nonlocal nodes, best_weight, best_edges
        nodes += 1
        bound = _completion_bound(label, comps, chosen, suffix[idx])
        if bound is None or base_weight + chosen_weight + bound > best_weight:
            return
        if idx == len(free):
            # each free edge is now chosen or excluded: available == base | chosen
            if _feasible(adj, available, thresholds, witness):
                total = base_weight + chosen_weight
                cand = tuple(sorted(available))
                if total < best_weight or (total == best_weight and cand < best_edges):
                    best_weight = total
                    best_edges = cand
            return
        k, w = free[idx], free_weights[idx]
        # exclusion first so light incumbents appear early
        available.discard(k)
        _drop(adj, k, w)
        if _local_ok(neighbours, adj, available, thresholds, witness, k):
            search(idx + 1, chosen, chosen_weight)
        _restore(adj, k, w)
        available.add(k)
        chosen.add(k)
        search(idx + 1, chosen, chosen_weight + w)
        chosen.discard(k)

    search(0, set(), 0)
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
