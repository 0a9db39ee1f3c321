"""Independent brute-force oracles used to validate the library.

Everything here enumerates: simple paths for distances, edge subsets for
spanning structures and optimum spanners. Nothing imports algorithmic code
from the package beyond the graph container itself.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from spannerlab.graphs import INF, WeightedGraph, edge_key


def all_simple_paths(g: WeightedGraph, s: int, t: int):
    """Yield (weight, vertex tuple) of every simple s-t path."""
    path = [s]
    seen = {s}

    def walk(u, acc):
        if u == t:
            yield acc, tuple(path)
            return
        for v, w in g.adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            path.append(v)
            yield from walk(v, acc + w)
            path.pop()
            seen.remove(v)

    if s == t:
        yield Fraction(0), (s,)
    else:
        yield from walk(s, Fraction(0))


def brute_shortest(g: WeightedGraph, s: int, t: int):
    """(distance, lexicographically smallest optimal path) or (INF, None)."""
    best = None
    for w, verts in all_simple_paths(g, s, t):
        if best is None or (w, verts) < best:
            best = (w, verts)
    return best if best is not None else (INF, None)


def brute_all_distances(g: WeightedGraph):
    return {
        (s, t): brute_shortest(g, s, t)[0] for s in range(g.n) for t in range(g.n)
    }


def brute_greedy(g: WeightedGraph, t) -> frozenset:
    """Greedy t-spanner edge keys straight from the definition: scan edges by
    (w, u, v) and keep an edge iff the shortest path over the edges kept so
    far, found by simple-path enumeration, is longer than t * w."""
    t = Fraction(t)
    kept = []
    for u, v, w in sorted(g.edges, key=lambda e: (e[2], e[0], e[1])):
        if brute_shortest(WeightedGraph(g.n, tuple(kept)), u, v)[0] > t * w:
            kept.append((u, v, w))
    return frozenset((u, v) for u, v, _ in kept)


def brute_stretch_over_pairs(g: WeightedGraph, h: WeightedGraph):
    """max over vertex pairs of dist_h / dist_g, straight from the definition."""
    dg = brute_all_distances(g)
    dh = brute_all_distances(h)
    worst = Fraction(1)
    for pair, d in dg.items():
        if pair[0] == pair[1] or d is INF:
            continue
        dhp = dh[pair]
        if dhp is INF:
            return INF
        if d == 0:
            if dhp > 0:
                return INF
            continue
        worst = max(worst, dhp / d)
    return worst


def _components(n: int, keys) -> list[int]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in keys:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return [find(v) for v in range(n)]


def brute_msf_weight(g: WeightedGraph) -> Fraction:
    """Minimum weight of an edge subset with the same components as g,
    by enumerating subsets of every cardinality up to n - 1 per component."""
    target = _components(g.n, g.edge_keys)
    norm = lambda comps: tuple(comps.index(c) for c in comps)
    goal = norm(target)
    keys = sorted(g.edge_keys)
    best = None
    for size in range(len(keys) + 1):
        for subset in combinations(keys, size):
            if norm(_components(g.n, subset)) == goal:
                w = sum((g.weights[k] for k in subset), Fraction(0))
                if best is None or w < best:
                    best = w
        if best is not None:
            return best
    return Fraction(0)


def brute_opt_spanner(g: WeightedGraph, eps):
    """Exact minimum-weight (1+eps)-spanner by full enumeration over the
    positive-weight edges, distances checked with the brute shortest paths."""
    eps = Fraction(eps)
    zeros = sorted(k for k, w in g.weights.items() if w == 0)
    cands = sorted(k for k, w in g.weights.items() if w > 0)
    dg = brute_all_distances(g)
    best = None
    for size in range(len(cands) + 1):
        for subset in combinations(cands, size):
            keys = list(zeros) + list(subset)
            h = g.subgraph(keys)
            dh = brute_all_distances(h)
            ok = True
            for pair, d in dg.items():
                if d is INF or pair[0] == pair[1]:
                    continue
                if dh[pair] is INF or dh[pair] > (1 + eps) * d:
                    ok = False
                    break
            if ok:
                w = sum((g.weights[k] for k in subset), Fraction(0))
                cand = (w, tuple(sorted(keys)))
                if best is None or cand < best:
                    best = cand
    return best  # (weight, edge keys) or None


def brute_endpoint_hanging_sets(g: WeightedGraph, pool, eps):
    """Endpoint hanging sets straight from their definition, in Fractions:
    (a, b) of weight w hangs at (s, t) when d(s, t) >= w / (3 (1 + eps)) and
    d(a, s) + d(s, t) + d(t, b) <= (1 + eps) w in one of the orientations."""
    eps = Fraction(eps)
    d = brute_all_distances(g)
    out = {}
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if d[(s, t)] is INF:
                continue
            members = set()
            for a, b in pool:
                w = g.weights[(a, b)]
                if d[(s, t)] < w / (3 * (1 + eps)):
                    continue
                for x, y in ((a, b), (b, a)):
                    if INF not in (d[(x, s)], d[(t, y)]):
                        if d[(x, s)] + d[(s, t)] + d[(t, y)] <= (1 + eps) * w:
                            members.add((a, b))
            out[(s, t)] = out[(t, s)] = frozenset(members)
    return out


def brute_walk_tables(g: WeightedGraph, pool, dist, eps, floor_pow2, anchored_weight):
    """Reference for the length-table recurrence, enumerated directly:
    a cell (s, t, L) is realizable iff L equals the pair distance or some via
    vertex z and split 0 < L' < L have both halves realizable; its value is
    the maximum of left + right plus the endpoint bonus when
    max(L', L - L') < floor_pow2(L)."""
    from fractions import Fraction

    n = g.n
    bound = {}
    for s in range(n):
        for t in range(n):
            if s != t and dist.dist(s, t) is not INF:
                bound[(s, t)] = int((1 + Fraction(eps)) * dist.dist(s, t))
    values: dict[tuple[int, int, int], int] = {}
    for level in range(1, max(bound.values(), default=0) + 1):
        for (s, t), b in bound.items():
            if level > b:
                continue
            best = None
            if int(dist.dist(s, t)) == level:
                best = anchored_weight[(s, t)]
            for z in range(n):
                for left in range(1, level):
                    a = values.get((s, z, left))
                    c = values.get((z, t, level - left))
                    if a is None or c is None:
                        continue
                    bonus = (
                        anchored_weight[(s, t)]
                        if max(left, level - left) < floor_pow2(level)
                        else 0
                    )
                    if best is None or a + c + bonus > best:
                        best = a + c + bonus
            if best is not None:
                values[(s, t, level)] = best
    return values


def random_connected_graph(
    rng: random.Random,
    max_n: int = 10,
    max_extra: int = 5,
    max_w: int = 8,
    integer: bool = True,
) -> WeightedGraph:
    """Random spanning tree plus a few extra edges; weights in 1..max_w."""
    n = rng.randint(2, max_n)

    def weight():
        if integer:
            return Fraction(rng.randint(1, max_w))
        return Fraction(rng.randint(1, max_w), rng.randint(1, 4))

    keys = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        keys.add(edge_key(order[i], order[rng.randrange(i)]))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(all_pairs)
    for pair in all_pairs[: rng.randint(0, max_extra)]:
        keys.add(pair)
    return WeightedGraph(n, tuple((u, v, weight()) for u, v in sorted(keys)))
