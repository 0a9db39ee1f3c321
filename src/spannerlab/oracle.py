"""Ground truth: exact minimum-weight spanners by branch and bound, the
spanner predicate, and a tiny brute-force SAT solver for reduction checks."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import INF, EdgeKey, WeightedGraph, apsp, dijkstra, edge_key, is_connected, stretch
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


def _feasible(adj, keys, thresholds) -> bool:
    """Does the edge set `keys`, with adjacency `adj`, keep every g-edge
    within its threshold?"""
    for (u, v), limit in thresholds.items():
        if (u, v) in keys:
            continue
        if v not in dijkstra(adj, u, {v}, limit):
            return False
    return True


def _local_ok(g: WeightedGraph, adj, keys, thresholds, around: EdgeKey) -> bool:
    """Cheap necessary check after dropping `around` from the edge set `keys`
    (adjacency `adj`): every g-edge touching one of its endpoints must still
    be within threshold."""
    for x in around:
        for y, _ in g.adjacency[x]:
            k = edge_key(x, y)
            if k in keys:
                continue
            if y not in dijkstra(adj, x, {y}, thresholds[k]):
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


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _components(n: int, keys) -> tuple[list[int], int]:
    """Component labels 0..c-1 of the vertices under the edge set `keys`, and c."""
    parent = list(range(n))
    for u, v in keys:
        parent[_find(parent, u)] = _find(parent, v)
    roots: dict[int, int] = {}
    label = [roots.setdefault(_find(parent, x), len(roots)) for x in range(n)]
    return label, len(roots)


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
    contracted into components once for the completion bound.
    """
    eps = Fraction(eps)
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
    forced = set()
    for k in candidates:
        nodes += 1
        _drop(adj, k, weights[k])
        if k[1] not in dijkstra(adj, k[0], {k[1]}, thresholds[k]):
            forced.add(k)
        _restore(adj, k, weights[k])
    free = sorted((k for k in candidates if k not in forced), key=lambda k: (-weights[k], k))
    free_weights = [weights[k] for k in free]
    label, comps = _components(g.n, zeros | forced)
    base_weight = sum(weights[k] for k in forced)

    # full edge set is always feasible, giving the starting incumbent
    best_weight = sum(free_weights, base_weight)
    best_edges = tuple(sorted(all_keys))

    suffix: list[list[tuple[int, EdgeKey]]] = [[] for _ in range(len(free) + 1)]
    for i in range(len(free) - 1, -1, -1):
        suffix[i] = sorted(suffix[i + 1] + [(free_weights[i], free[i])])

    # the edges not excluded so far; `adj` is always their adjacency
    available = set(all_keys)

    def search(idx: int, chosen: set[EdgeKey], chosen_weight: int):
        nonlocal nodes, best_weight, best_edges
        nodes += 1
        bound = _completion_bound(label, comps, chosen, suffix[idx])
        if bound is None or base_weight + chosen_weight + bound > best_weight:
            return
        if idx == len(free):
            # each free edge is now chosen or excluded: available == base | chosen
            if _feasible(adj, available, thresholds):
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
        if _local_ok(g, adj, available, thresholds, k):
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
