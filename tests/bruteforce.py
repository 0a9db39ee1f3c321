"""Independent brute-force oracles used to validate the library.

Everything here enumerates: simple paths for distances, edge subsets for
spanning structures and optimum spanners. Nothing imports algorithmic code
from the package beyond the graph container itself, except the definitional
references in the middle (walks with step weights built from vertex lists,
hanging witnesses on a walk, edge normalization, floor_pow2), which read the
package's distance oracle, and the `previous_*` reference copies at the end,
which keep replaced table, round-loop, exact-check and graph-boundary code
for differential tests and use the package's small helpers.
"""
from __future__ import annotations

import random
import warnings
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from types import SimpleNamespace
from typing import Iterable, Sequence

from hypothesis import strategies as st

from spannerlab.graphs import (
    INF,
    DistanceOracle,
    Edge,
    EdgeKey,
    Frozen,
    WeightedGraph,
    _find,
    apsp,
    edge_key,
    is_connected,
    stretch,
)
from spannerlab.greedy import greedy_spanner
from spannerlab.oracle import OracleCapError, OracleResult
from spannerlab.prune import (
    DEFAULT_CELL_CAP,
    CellCapError,
    IterationLog,
    PruneState,
    RoundLog,
    _UNPICKED,
    _positive_eps,
    log_star_ceil,
)


def _require_positive(g: WeightedGraph) -> None:
    """The positivity refusal of the pruning entries the `previous_*`
    references reproduce."""
    if 0 in g.int_weights.values():
        raise ValueError("pruning requires strictly positive weights")


def adjacency(g: WeightedGraph) -> list[list[tuple[int, Fraction]]]:
    """Neighbour lists of g with Fraction weights, each sorted by neighbour."""
    adj: list[list[tuple[int, Fraction]]] = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return [sorted(a) for a in adj]


def weight_of(g: WeightedGraph, u: int, v: int) -> Fraction:
    return g.weights[edge_key(u, v)]


def oracle_dist(dist: DistanceOracle, u: int, v: int):
    """The oracle's u-v distance as an exact Fraction, or INF when disconnected."""
    d = dist.row(u)[v]
    return d if d is INF else Fraction(d, dist.scale)


def int_adjacency(g: WeightedGraph, keys: Iterable[EdgeKey]) -> list[list[tuple[int, int]]]:
    """Adjacency lists of g over the edges `keys`, weights in units of
    1/g.scale: the input of a `Search` over part of g."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for k in keys:
        u, v = k
        w = g.int_weights[k]
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def hanging_kappa(eps: Fraction) -> Fraction:
    """Cover fraction used when collecting hanging edges: 1 / (3 (1 + eps))."""
    return Fraction(1, 3) / (1 + eps)


def all_simple_paths(g: WeightedGraph, s: int, t: int, bound=INF):
    """Yield (weight, vertex tuple) of every simple s-t path of weight at
    most `bound` (default: every one); a prefix heavier than `bound` is
    not extended, since no weight is negative."""
    path = [s]
    seen = {s}
    adj = adjacency(g)

    def walk(u, acc):
        if u == t:
            yield acc, tuple(path)
            return
        for v, w in adj[u]:
            if v in seen or acc + w > bound:
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
    far is longer than t * w, that is, iff simple-path enumeration finds no
    path of weight at most t * w (heavier prefixes are cut, so that chains
    and grids of a few hundred vertices stay cheap)."""
    t = Fraction(t)
    kept = []
    for u, v, w in sorted(g.edges, key=lambda e: (e[2], e[0], e[1])):
        if next(all_simple_paths(WeightedGraph(g.n, tuple(kept)), u, v, t * w), None) is None:
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


def hanging_sets(plan, pool) -> dict:
    """Each ordered connected pair of `plan` -> the frozenset of `pool`
    edges hanging at its endpoints, read from `plan.hung` at the pair's
    slot: the sets whose weights `prune.endpoint_hanging_sets` sums into
    slots. Call that first for a pool that has edges it has not met."""
    out, hung = {}, plan.hung
    for i, (s, t) in enumerate(plan.pairs, 1):
        out[(s, t)] = out[(t, s)] = frozenset(k for k in hung[i] if k in pool)
    return out


def brute_walk_tables(g: WeightedGraph, pool, dist, eps, anchored_weight):
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
            if s != t and oracle_dist(dist, s, t) is not INF:
                bound[(s, t)] = int((1 + Fraction(eps)) * oracle_dist(dist, s, t))
    values: dict[tuple[int, int, int], int] = {}
    for level in range(1, max(bound.values(), default=0) + 1):
        for (s, t), b in bound.items():
            if level > b:
                continue
            best = None
            if int(oracle_dist(dist, s, t)) == level:
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


def zero_weighted(rng: random.Random, g: WeightedGraph, zero_prob: float) -> WeightedGraph:
    """g with each weight zeroed at probability zero_prob and, on three or
    more vertices, a cycle of zero-weight edges added or zeroed."""
    weights = {k: Fraction(0) if rng.random() < zero_prob else w for k, w in g.weights.items()}
    if g.n >= 3:
        cycle = rng.sample(range(g.n), rng.randint(3, min(g.n, 5)))
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            weights[edge_key(x, y)] = Fraction(0)
    return WeightedGraph(g.n, tuple((u, v, w) for (u, v), w in sorted(weights.items())))


@st.composite
def small_graphs(draw, max_n=6, positive=True):
    """A hypothesis strategy: a graph on 1..max_n vertices, not always
    connected, with weights p/q for p up to 12 (0 allowed unless
    `positive`) and q up to 5."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    lo = 1 if positive else 0
    edges = []
    for u, v in chosen:
        num = draw(st.integers(min_value=lo, max_value=12))
        den = draw(st.integers(min_value=1, max_value=5))
        edges.append((u, v, Fraction(num, den)))
    return WeightedGraph(n, tuple(edges))


def k44_declared_planar(w04) -> WeightedGraph:
    """K4,4 on {0..3} x {4..7} plus the edges (0, 1) and (2, 3): 18 = 3n - 6
    edges on 8 vertices, declared planar though it is not. Every weight is
    10^6 except w04 on (0, 4); contracting (0, 4) leaves 16 edges on 7
    vertices, one more than 3n - 6."""
    keys = [(a, b) for a in range(4) for b in range(4, 8)] + [(0, 1), (2, 3)]
    edges = tuple((u, v, Fraction(w04 if (u, v) == (0, 4) else 10**6)) for u, v in keys)
    return WeightedGraph(8, edges, declared_planar=True)


def seeded_grid(k: int, seed: int) -> WeightedGraph:
    """A planar k x k grid: each unit square gets its down-right diagonal
    with probability 1/2, every edge an integer weight uniform in 1..4."""
    rng = random.Random(seed)
    keys = []
    for i in range(k):
        for j in range(k):
            v = i * k + j
            if j + 1 < k:
                keys.append((v, v + 1))
            if i + 1 < k:
                keys.append((v, v + k))
            if i + 1 < k and j + 1 < k and rng.random() < 0.5:
                keys.append((v, v + k + 1))
    return WeightedGraph(k * k, tuple((u, v, Fraction(rng.randint(1, 4))) for u, v in keys), True)


# --- definitional references ------------------------------------------------
#
# Walks with Fraction step weights, walks from vertex lists, hanging
# witnesses searched along a whole walk, edge normalization and floor_pow2:
# straight from their definitions, in Fractions. The package needs none of
# them (its walks are vertex sequences); tests check its results against
# them.


@dataclass(frozen=True)
class Walk:
    """A walk (repeats allowed) with per-step weights from its host graph."""

    vertices: tuple[int, ...]
    step_weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("walk needs at least one vertex")
        if len(self.step_weights) != len(self.vertices) - 1:
            raise ValueError("step weight count must be len(vertices) - 1")

    @property
    def weight(self) -> Fraction:
        return sum(self.step_weights, Fraction(0))

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    def edge_keys(self) -> frozenset[EdgeKey]:
        return frozenset(edge_key(a, b) for a, b in zip(self.vertices, self.vertices[1:]))


def concat(a: Walk, b: Walk) -> Walk:
    """Join two walks sharing an endpoint; weight is additive."""
    if a.last != b.first:
        raise ValueError(f"cannot concatenate: {a.last} != {b.first}")
    return Walk(a.vertices + b.vertices[1:], a.step_weights + b.step_weights)


def walk_from_vertices(g: WeightedGraph, vertices: Sequence[int]) -> Walk:
    """The walk through `vertices`, each step an edge of g."""
    verts = tuple(vertices)
    steps = []
    for a, b in zip(verts, verts[1:]):
        if edge_key(a, b) not in g.weights:
            raise ValueError(f"({a},{b}) is not an edge of the host graph")
        steps.append(weight_of(g, a, b))
    return Walk(verts, tuple(steps))


def int_walk_weight(g: WeightedGraph, vertices: Sequence[int]) -> int:
    """Weight of the walk through `vertices` in units of 1/g.scale."""
    return sum(g.int_weights[edge_key(a, b)] for a, b in zip(vertices, vertices[1:]))


def prefix_weights(walk: Walk) -> list[Fraction]:
    """prefix_weights(walk)[i] = weight of the walk up to vertex i."""
    acc = Fraction(0)
    out = [acc]
    for w in walk.step_weights:
        acc += w
        out.append(acc)
    return out


@dataclass(frozen=True)
class HangingWitness:
    """Positions (i, j) on a walk witnessing that `edge` hangs on it."""

    edge: EdgeKey
    i: int
    j: int
    kappa: Fraction


def is_hanging(dist: DistanceOracle, edge, walk: Walk, kappa, eps) -> HangingWitness | None:
    """Search a walk for hanging positions of an edge (a, b, w).

    A pair of positions i < j is a witness when the sub-walk between them
    weighs at least kappa * w and, in the better of the two edge
    orientations, dist(a, v_i) + subwalk + dist(v_j, b) <= (1 + eps) * w.
    Returns the lexicographically smallest witness, or None.
    """
    a, b, w = edge
    kappa = Fraction(kappa)
    eps = Fraction(eps)
    need = kappa * w
    budget = (1 + eps) * w
    pre = prefix_weights(walk)
    verts = walk.vertices
    k = len(verts)
    for i in range(k - 1):
        vi = verts[i]
        da_vi = oracle_dist(dist, a, vi)
        db_vi = oracle_dist(dist, b, vi)
        if da_vi is INF and db_vi is INF:
            continue
        for j in range(i + 1, k):
            seg = pre[j] - pre[i]
            if seg < need:
                continue
            vj = verts[j]
            if da_vi is not INF:
                d_tail = oracle_dist(dist, vj, b)
                if d_tail is not INF and da_vi + seg + d_tail <= budget:
                    return HangingWitness(edge_key(a, b), i, j, kappa)
            if db_vi is not INF:
                d_tail = oracle_dist(dist, vj, a)
                if d_tail is not INF and db_vi + seg + d_tail <= budget:
                    return HangingWitness(edge_key(a, b), i, j, kappa)
    return None


def floor_pow2(x: int) -> int:
    """Largest power of two not exceeding x (x must be a positive integer)."""
    if not isinstance(x, int) or isinstance(x, bool) or x < 1:
        raise ValueError(f"floor_pow2 needs a positive integer, got {x!r}")
    return 1 << (x.bit_length() - 1)


def normalize_edges(g: WeightedGraph) -> WeightedGraph:
    """Drop every edge that is strictly heavier than the distance it spans.

    Such edges lie on no shortest path, so removal changes no distance;
    afterwards every remaining edge is its own shortest path. Idempotent.
    """
    oracle = apsp(g)
    kept = tuple(e for e in g.edges if g.int_weights[e[:2]] <= oracle.row(e[0])[e[1]])
    return WeightedGraph(g.n, kept, g.declared_planar)


# --- the pruning table code that the plan and value pass replaced ------------
#
# Verbatim copies (renamed with a `previous_` prefix) of endpoint_hanging_sets,
# WalkTables, fill_tables, select_best_triple and reconstruct as they were
# before the pruning tables were split into a pool-independent plan and a
# per-round value pass, with the DpEntry cells they stored; the one change is
# that previous_reconstruct builds each base walk from the oracle's vertex
# path, now that the package's paths carry no step weights. The differential
# tests require the new code to produce the same cells, backpointers, best
# triples, walks and round logs; `table_cells` reads the package's tables
# as such cells. The integer-weight precondition below is a copy too, since
# the package's pruning now takes rational weights.


def _require_positive_integers(g: WeightedGraph) -> None:
    for u, v, w in g.edges:
        if w.denominator != 1 or w <= 0:
            raise ValueError(f"edge ({u},{v}) weight {w} is not a positive integer")


def previous_endpoint_hanging_sets(
    g: WeightedGraph, pool: frozenset[EdgeKey], dist: DistanceOracle, eps
) -> dict[tuple[int, int], frozenset[EdgeKey]]:
    """For every ordered pair (s, t), the pool edges hanging at exactly the
    endpoints of the canonical shortest s-t path.

    An edge (a, b) of weight w qualifies when dist(s, t) >= kappa * w and the
    better orientation satisfies dist(a, s) + dist(s, t) + dist(t, b)
    <= (1 + eps) * w. The result is symmetric in (s, t).
    """
    eps = Fraction(eps)
    kappa = hanging_kappa(eps)
    stretch_bound = 1 + eps
    # distances are ints in units of 1/scale, so d >= kappa*w holds exactly
    # when d >= ceil(kappa*w) and lhs <= (1+eps)*w when lhs <= floor((1+eps)*w)
    pool_edges = []
    for k in sorted(pool):
        w = g.int_weights[k]
        need = -(-kappa.numerator * w // kappa.denominator)
        budget = stretch_bound.numerator * w // stretch_bound.denominator
        pool_edges.append((k[0], k[1], need, budget))
    rows = [dist.row(s) for s in range(g.n)]
    out: dict[tuple[int, int], frozenset[EdgeKey]] = {}
    for s in range(g.n):
        dist_s = rows[s]
        for t in range(s + 1, g.n):
            d = dist_s[t]
            if d is INF:
                continue
            dist_t = rows[t]
            members = []
            for a, b, need, budget in pool_edges:
                if d < need:
                    continue
                # an INF term makes the sum INF, which fails the budget
                if dist_s[a] + d + dist_t[b] <= budget or dist_s[b] + d + dist_t[a] <= budget:
                    members.append((a, b))
            fs = frozenset(members)
            out[(s, t)] = fs
            out[(t, s)] = fs
    return out


@dataclass(frozen=True)
class DpEntry:
    """One realizable (source, target, length) cell.

    `back` is None for a base cell (the walk is the canonical shortest path)
    and (via, left_length, collected_anchor) for a cell built by joining two
    sub-cells at `via`; `collected_anchor` records whether the endpoint
    hanging set of the pair was added on top of the two sub-values.
    """

    value: int
    back: tuple[int, int, bool] | None


def table_cells(tables) -> dict[tuple[int, int, int], DpEntry]:
    """Every cell of the package's walk tables, the diagonal included, in
    (s, t, L) order: {(s, t, L): DpEntry}, built from the plan's numbered
    cells and the round's values and picks (read through `tables.pick`)."""
    plan, values = tables.plan, tables.values
    out = {}
    for (s, t), cells in sorted(plan.cells_of.items()):
        for length, c in cells.items():
            j = tables.pick(c)
            back = None
            if j >= 0:
                left = plan.halves(c, j)[0] - plan.offset
                back = (plan.cell_t[left], plan.cell_len[left], plan.join_bonus[j] != 0)
            out[(s, t, length)] = DpEntry(values[plan.offset + c], back)
    return out


class PreviousWalkTables:
    """Length-indexed tables of realizable walks and their hanging weight.

    For a pair (s, t), cells exist for integer lengths L up to
    (1+eps) * dist(s, t); a cell is realizable when a walk of weight exactly
    L exists that is derivable from shortest paths by concatenation. Each
    realizable cell stores the heaviest multiset weight of pool edges
    hanging on its walk that the join rule can certify.
    """

    def __init__(self, g, dist, eps, pool, anchored, anchored_weight, bounds, entries, max_level):
        self.graph = g
        self.dist = dist
        self.eps = eps
        self.pool = pool
        self.anchored = anchored
        self.anchored_weight = anchored_weight
        self.bounds = bounds
        self.entries = entries
        self.max_level = max_level

    def entry(self, s: int, t: int, length: int) -> DpEntry | None:
        return self.entries.get((s, t), {}).get(length)

    def levels(self, s: int, t: int) -> list[int]:
        return sorted(self.entries.get((s, t), {}))

    def iter_entries(self):
        """Yield (s, t, L, entry) for every realizable off-diagonal cell."""
        for pair in sorted(self.entries):
            if pair[0] == pair[1]:
                continue
            cells = self.entries[pair]
            for length in sorted(cells):
                yield pair[0], pair[1], length, cells[length]


def _previous_back_rank(back):
    return (0,) if back is None else (1, back[0], back[1])


def _previous_offer(cands: dict, pair, value: int, back) -> None:
    cur = cands.get(pair)
    if cur is None or value > cur[0] or (value == cur[0] and _previous_back_rank(back) < _previous_back_rank(cur[1])):
        cands[pair] = (value, back)


def previous_fill_tables(
    g: WeightedGraph,
    pool: frozenset[EdgeKey],
    dist: DistanceOracle,
    eps,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> PreviousWalkTables:
    """Fill the (source, target, length) tables for one pruning round.

    Base cells sit at L = dist(s, t) with value equal to the weight of the
    endpoint hanging set. A cell (s, t, L) is realizable through a join when
    some via vertex z and split 0 < L' < L have both sub-cells realizable;
    its value maximises left + right, plus the endpoint hanging weight of
    (s, t) whenever max(L', L - L') < floor_pow2(L). Levels are processed in
    ascending order, so every join reads only finalised cells.
    """
    _require_positive_integers(g)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    cap = cell_cap
    n = g.n
    p, q = eps.numerator, eps.denominator

    # integer weights give scale 1, so the rows hold the distances themselves
    rows = [dist.row(s) for s in range(n)]
    bounds: dict[tuple[int, int], int] = {}
    max_level = 0
    for s in range(n):
        for t in range(s + 1, n):
            d = rows[s][t]
            if d is INF:
                continue
            b = (p + q) * d // q
            bounds[(s, t)] = bounds[(t, s)] = b
            max_level = max(max_level, b)
    if max_level + 1 > cap:
        raise CellCapError(
            f"length range {max_level + 1} exceeds the per-pair cell cap {cap}; "
            "pass cell_cap (--cell-cap) to override"
        )

    anchored = previous_endpoint_hanging_sets(g, pool, dist, eps)
    anchored_weight = {
        pair: sum(g.int_weights[k] for k in edges) for pair, edges in anchored.items()
    }

    entries: dict[tuple[int, int], dict[int, DpEntry]] = {}
    for s in range(n):
        entries[(s, s)] = {0: DpEntry(0, None)}

    base_at: dict[int, list[tuple[int, int]]] = {}
    for s, t in bounds:
        base_at.setdefault(rows[s][t], []).append((s, t))

    starts: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]  # s -> (t, L, value)
    ends: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]  # t -> (s, L, value)
    pending: dict[int, dict[tuple[int, int], tuple[int, tuple]]] = {}

    bounds_get = bounds.get
    for level in range(1, max_level + 1):
        cands: dict[tuple[int, int], tuple[int, tuple | None]] = {}
        for pair in base_at.get(level, ()):
            _previous_offer(cands, pair, anchored_weight[pair], None)
        for pair, (value, back) in pending.pop(level, {}).items():
            _previous_offer(cands, pair, value, back)
        for s, t in sorted(cands):
            value, back = cands[(s, t)]
            entries.setdefault((s, t), {})[level] = DpEntry(value, back)
            # join with already finalised cells; both orders are generated
            # exactly once because the later cell of a pair does the pairing.
            # pending slots hold only join candidates, so ties compare the
            # (via, left_length) key directly
            for x, l_left, v_left in ends[s]:
                pair2 = (x, t)
                bound2 = bounds_get(pair2)
                if bound2 is None:
                    continue
                total = l_left + level
                if total > bound2:
                    continue
                mx = l_left if l_left > level else level
                if mx < 1 << (total.bit_length() - 1):
                    cand = (v_left + value + anchored_weight[pair2], (s, l_left, True))
                else:
                    cand = (v_left + value, (s, l_left, False))
                slot = pending.setdefault(total, {})
                cur = slot.get(pair2)
                if (
                    cur is None
                    or cand[0] > cur[0]
                    or (cand[0] == cur[0] and (s, l_left) < cur[1][:2])
                ):
                    slot[pair2] = cand
            for y, l_right, v_right in starts[t]:
                pair2 = (s, y)
                bound2 = bounds_get(pair2)
                if bound2 is None:
                    continue
                total = level + l_right
                if total > bound2:
                    continue
                mx = level if level > l_right else l_right
                if mx < 1 << (total.bit_length() - 1):
                    cand = (value + v_right + anchored_weight[pair2], (t, level, True))
                else:
                    cand = (value + v_right, (t, level, False))
                slot = pending.setdefault(total, {})
                cur = slot.get(pair2)
                if (
                    cur is None
                    or cand[0] > cur[0]
                    or (cand[0] == cur[0] and (t, level) < cur[1][:2])
                ):
                    slot[pair2] = cand
            starts[s].append((t, level, value))
            ends[t].append((s, level, value))

    return PreviousWalkTables(g, dist, eps, pool, anchored, anchored_weight, bounds, entries, max_level)


def previous_select_best_triple(tables: PreviousWalkTables):
    """Realizable (s, t, L) with L >= 1 maximising value / L.

    Ties take the lexicographically smallest (s, t, L); at ratio exactly 1
    this drains the pool through the cheapest self-exchanges first instead of
    letting a longer walk trade structure away for no weight gain. Returns
    (s, t, L, ratio) or None when every value is zero.
    """
    best = None
    for s, t, length, entry in tables.iter_entries():
        if length < 1 or entry.value == 0:
            continue
        ratio = Fraction(entry.value, length)
        if best is None or ratio > best[0] or (ratio == best[0] and (s, t, length) < best[1]):
            best = (ratio, (s, t, length))
    if best is None:
        return None
    ratio, (s, t, length) = best
    return s, t, length, ratio


def previous_reconstruct(tables: PreviousWalkTables, s: int, t: int, length: int) -> tuple[Walk, Counter]:
    """Extract the walk and hanging multiset (edge key -> multiplicity) of a
    realizable cell.

    The walk weighs exactly `length` in units of 1/scale of the oracle, and
    the multiset weight equals the cell value; shared sub-cells are expanded
    once.
    """
    root = (s, t, length)
    if tables.entry(*root) is None:
        raise ValueError(f"cell {root} is not realizable")
    done: dict[tuple[int, int, int], tuple[Walk, Counter]] = {}
    stack: list[tuple[tuple[int, int, int], bool]] = [(root, False)]
    while stack:
        key, expanded = stack.pop()
        if key in done:
            continue
        ks, kt, kl = key
        entry = tables.entry(ks, kt, kl)
        if entry is None:
            raise ValueError(f"cell {key} is not realizable")
        if entry.back is None:
            if ks == kt:
                walk = Walk((ks,), ())
                mset = Counter()
            else:
                walk = walk_from_vertices(tables.graph, tables.dist.path(ks, kt))
                mset = Counter(tables.anchored[(ks, kt)])
            if walk.weight * tables.dist.scale != kl:
                raise AssertionError(f"base walk weight {walk.weight} != level {kl}/{tables.dist.scale}")
            done[key] = (walk, mset)
            continue
        via, l_left, collected = entry.back
        left = (ks, via, l_left)
        right = (via, kt, kl - l_left)
        if not expanded:
            stack.append((key, True))
            stack.append((right, False))
            stack.append((left, False))
            continue
        lw, lm = done[left]
        rw, rm = done[right]
        # a fresh sum, so updating it leaves the shared sub-results alone
        mset = lm + rm
        if collected:
            mset.update(tables.anchored[(ks, kt)])
        done[key] = (concat(lw, rw), mset)
    return done[root]


# --- the pruning round loop before the ratio-1 tail ---------------------------
#
# Copies (renamed with a `previous_` prefix) of prune_round, prune and
# iterate_prune as they were when every round ran a full value pass, verbatim
# except that they call previous_fill_tables, previous_select_best_triple and
# previous_reconstruct above, so no part of the reference runs the package's
# tables. Those need integer weights: run the copies on the scaled graph. The
# log types are the package's, which that change left as they were. The
# differential tests require equal round logs, edge sets and iteration logs.


def previous_prune_round(
    g: WeightedGraph,
    h: WeightedGraph,
    state: PruneState,
    eps,
    dist: DistanceOracle | None = None,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> bool:
    """Run one round: evaluate the tables for the remaining pool, take the
    best ratio, and exchange walk for multiset when the ratio reaches 1.

    Returns True when an exchange happened; False leaves the state untouched.
    """
    pool = frozenset(h.edge_keys - state.added - state.removed)
    if not pool:
        return False
    if dist is None:
        dist = apsp(g)
    tables = previous_fill_tables(g, pool, dist, eps, cell_cap)
    best = previous_select_best_triple(tables)
    if best is None:
        return False
    s, t, length, beta = best
    if beta < 1:
        return False
    walk, mset = previous_reconstruct(tables, s, t, length)
    support = frozenset(mset)
    state.added |= walk.edge_keys()
    state.removed |= support
    weight = g.int_weights.__getitem__
    state.rounds.append(
        RoundLog(
            source=s,
            target=t,
            length=length,
            beta=beta,
            multiset_weight=sum(c * weight(k) for k, c in mset.items()),
            pruned_weight=sum(map(weight, support)),
            pool_weight_remaining=sum(map(weight, pool - support)),
        )
    )
    return True


def previous_prune(
    g: WeightedGraph, h: WeightedGraph, eps, cell_cap: int = DEFAULT_CELL_CAP
) -> tuple[WeightedGraph, PruneState]:
    """One full pruning pass over spanner h of g.

    Rounds repeat until no exchange with ratio >= 1 exists; the result is
    added | (h - removed), a subgraph of g. Requires g connected with
    positive rational weights; h must be a subgraph of g. The round logs
    give lengths and weights as ints in units of 1/g.scale.
    """
    eps = Fraction(eps)
    _require_positive(g)
    if not is_connected(g):
        raise ValueError("prune requires a connected graph")
    if not h.is_subgraph_of(g):
        raise ValueError("h must be a subgraph of g")
    if eps > Fraction(1, 100):
        warnings.warn(
            f"eps={eps} is above 1/100; the pruning guarantees are calibrated "
            "for smaller values",
            stacklevel=2,
        )
    dist = apsp(g)
    state = PruneState()
    max_rounds = h.m + 1
    for _ in range(max_rounds):
        before = len(state.removed)
        if not previous_prune_round(g, h, state, eps, dist=dist, cell_cap=cell_cap):
            break
        if len(state.removed) <= before:
            raise AssertionError("no progress recorded despite an exchange")
    else:
        raise AssertionError("pruning failed to terminate within |E(h)| rounds")
    keys = state.added | (h.edge_keys - state.removed)
    return g.subgraph(keys), state


def previous_iterate_prune(
    g: WeightedGraph,
    eps,
    initial_spanner: WeightedGraph | None = None,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> tuple[WeightedGraph, list[IterationLog], list[PruneState]]:
    """Driver: start from a greedy (1+eps)-spanner (or a caller-provided one)
    and run pruning passes until a pass changes nothing, capped at
    log*(1/eps) + 2 passes.

    g may carry any positive rational weights. Returns the final spanner (a
    subgraph of g), a weight/stretch log (entry 0 describes the starting
    spanner; weights in units of 1/g.scale), and the per-pass states.
    """
    eps = Fraction(eps)
    _require_positive(g)
    if not is_connected(g):
        raise ValueError("iterate_prune requires a connected graph")
    if initial_spanner is None:
        h = greedy_spanner(g, 1 + eps)
    else:
        if not initial_spanner.is_subgraph_of(g):
            raise ValueError("initial spanner must be a subgraph of g")
        h = initial_spanner
    weight = g.int_weights.__getitem__
    logs = [IterationLog(stretch(g, h), sum(map(weight, h.edge_keys)))]
    states: list[PruneState] = []
    passes = log_star_ceil(1 / eps) + 2
    for _ in range(passes):
        h1, state = previous_prune(g, h, eps, cell_cap=cell_cap)
        states.append(state)
        logs.append(IterationLog(stretch(g, h1), sum(map(weight, h1.edge_keys))))
        if h1.edge_keys == h.edge_keys:
            break
        h = h1
    return h, logs, states


# --- the plan builder before per-partner length lists ------------------------
#
# A verbatim copy of `_WalkPlan.__init__` as it was when every finalised cell
# scanned every finalised cell it could extend, with `self` a namespace, and
# of `_length_bounds`, which computed its bounds before the plan derived them
# itself. The differential test requires every field of the package's plan,
# its bound rows read as a dict, to equal them.


def previous_length_bounds(dist: DistanceOracle, eps: Fraction) -> tuple[dict[tuple[int, int], int], int]:
    """floor((1+eps) * dist(s, t)) for every connected pair s != t, and the largest of them."""
    p, q = eps.numerator, eps.denominator
    n = dist.n
    bounds: dict[tuple[int, int], int] = {}
    max_level = 0
    for s in range(n):
        row = dist.row(s)
        for t in range(s + 1, n):
            d = row[t]
            if d is INF:
                continue
            b = (p + q) * d // q
            bounds[(s, t)] = bounds[(t, s)] = b
            max_level = max(max_level, b)
    return bounds, max_level


def previous_walk_plan(dist: DistanceOracle, bounds: dict[tuple[int, int], int], max_level: int):
    """The fields of the previous `_WalkPlan` of (dist, bounds, max_level)."""
    self = SimpleNamespace()
    n = dist.n
    rows = [dist.row(s) for s in range(n)]
    self.bounds = bounds
    self.max_level = max_level
    self.pairs = sorted(pair for pair in bounds if pair[0] < pair[1])
    slot = {}
    for i, (s, t) in enumerate(self.pairs, 1):
        slot[(s, t)] = slot[(t, s)] = i
    self.offset = offset = 1 + len(self.pairs)
    # pair -> {length: cell}, lengths ascending
    self.cells_of = cells_of = {(s, s): {0: s} for s in range(n)}
    self.cell_s = cell_s = list(range(n))
    self.cell_t = cell_t = list(range(n))
    self.cell_len = cell_len = [0] * n
    self.base = base = [0] * n  # value index of a base cell's value, -1 for a join-only cell
    self.join_start = join_start = array("i", [0] * (n + 1))  # cell c: joins join_start[c]:join_start[c+1]
    self.join_left, self.join_right, self.join_bonus = array("i"), array("i"), array("i")
    join_left, join_right, join_bonus = self.join_left, self.join_right, self.join_bonus

    base_at: dict[int, list[tuple[int, int]]] = {}
    for s, t in bounds:
        base_at.setdefault(rows[s][t], []).append((s, t))
    # only occupied levels are visited: base lengths, plus each length a
    # join first reaches. A pending join is packed as via << 32 | left
    # cell (a plan of 2**32 cells would not fit in memory), so sorting
    # the codes sorts the joins by (via, left length).
    levels = list(base_at)
    heapify(levels)
    pending: dict[int, dict[tuple[int, int], array]] = {}
    starts: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]  # s -> (t, L, cell)
    ends: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]  # t -> (s, L, cell)

    def offer(total: int, pair: tuple[int, int], code: int) -> None:
        slots = pending.get(total)
        if slots is None:
            slots = pending[total] = {}
            if total not in base_at:
                heappush(levels, total)
        codes = slots.get(pair)
        if codes is None:
            codes = slots[pair] = array("q")
        codes.append(code)

    while levels:
        level = heappop(levels)
        joins_at = pending.pop(level, {})
        top = 1 << (level.bit_length() - 1)
        for pair in sorted(joins_at.keys() | base_at.get(level, ())):
            s, t = pair
            c = len(cell_len)
            cells_of.setdefault(pair, {})[level] = c
            cell_s.append(s)
            cell_t.append(t)
            cell_len.append(level)
            base.append(slot[pair] if rows[s][t] == level else -1)
            for code in sorted(joins_at.get(pair, ())):
                via, left = code >> 32, code & 0xFFFFFFFF
                l_left = cell_len[left]
                join_left.append(offset + left)
                join_right.append(offset + cells_of[(via, t)][level - l_left])
                join_bonus.append(slot[pair] if max(l_left, level - l_left) < top else 0)
            join_start.append(len(join_left))
            # pair the new cell with every finalised cell it extends; each
            # pair of cells is joined once, by the later of the two
            for x, l_left, left in ends[s]:
                bound = bounds.get((x, t))
                if bound is not None and l_left + level <= bound:
                    offer(l_left + level, (x, t), s << 32 | left)
            for y, l_right, _ in starts[t]:
                bound = bounds.get((s, y))
                if bound is not None and level + l_right <= bound:
                    offer(level + l_right, (s, y), t << 32 | c)
            starts[s].append((t, level, c))
            ends[t].append((s, level, c))

    # off-diagonal cells in (s, t, L) order, the order of iter_entries
    self.by_pair = [c for pair in sorted(cells_of) if pair[0] != pair[1] for c in cells_of[pair].values()]
    return self


# --- the exact checks that the target-set searches replaced -----------------
#
# Verbatim copies (renamed with a `previous_` prefix) of dijkstra, stretch and
# exact_opt_spanner with its three helpers, as they were before stretch
# checked only the edges h drops and the branch and bound edited one
# adjacency in place. The oracle's exclusion check became a parameter,
# `_previous_local_ok` by default, so that `feasible_exclusion_opt_spanner`
# can search the same way with the whole feasibility check. The differential
# tests require equal results, down to the node count of the oracle that
# searches the same tree. The graph's Fraction adjacency has since left the
# package, so neighbour lookups read `adjacency` above.


def _previous_dijkstra(adj, source: int, target: int | None = None, limit: int | None = None) -> dict[int, int]:
    """Exact shortest distances from `source` over int adjacency lists.

    Returns {vertex: distance} for every settled vertex. The search stops
    once `target` is settled and never settles a vertex farther than
    `limit`, so ``target in dijkstra(adj, s, target, limit)`` holds exactly
    when dist(s, target) <= limit.
    """
    dist = {source: 0}
    done: dict[int, int] = {}
    heap = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        done[u] = d
        if u == target:
            break
        for v, w in adj[u]:
            nd = d + w
            if (limit is None or nd <= limit) and (v not in dist or nd < dist[v]):
                dist[v] = nd
                heappush(heap, (nd, v))
    return done


def previous_stretch(g: WeightedGraph, h: WeightedGraph):
    """Worst distance blow-up of h relative to g, as an exact Fraction.

    Computed as the maximum over edges (u,v) of g of dist_h(u,v) / w(u,v),
    which equals the maximum over all vertex pairs of dist_h / dist_g: along
    a shortest g-path every edge contributes exactly its weight, so a bound
    per edge lifts to every pair. Returns INF when h disconnects a pair that
    g connects, and exactly 1 for h = g. One Dijkstra in h runs per vertex
    that is the smaller endpoint of an edge of g, and each distance map is
    dropped once that vertex's edges are checked, so memory stays linear.
    """
    if not h.is_subgraph_of(g):
        raise ValueError("h is not a subgraph of g")
    edges_from: dict[int, list[tuple[int, int]]] = {}
    for (u, v), w in g.int_weights.items():
        edges_from.setdefault(u, []).append((v, w))
    adj = h.int_adjacency()
    # h's weights are a subset of g's, so h.scale divides g.scale and
    # d * factor is dist_h in units of 1/g.scale
    factor = g.scale // h.scale
    # the worst ratio so far is num / den; it starts at 1 because the
    # lightest edge of g is always its own shortest path in h = g
    num = den = 1
    for u, edges in edges_from.items():
        dist_u = _previous_dijkstra(adj, u)
        for v, w in edges:
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


def _previous_feasible(g: WeightedGraph, keys, thresholds) -> bool:
    """Does the edge set `keys` keep every g-edge within its threshold?"""
    adj = int_adjacency(g, keys)
    for (u, v), limit in thresholds.items():
        if edge_key(u, v) in keys:
            continue
        if v not in _previous_dijkstra(adj, u, v, limit):
            return False
    return True


def _previous_local_ok(g: WeightedGraph, keys, thresholds, around: EdgeKey) -> bool:
    """Cheap necessary check after dropping `around`: every g-edge touching
    one of its endpoints must still be within threshold."""
    adj = int_adjacency(g, keys)
    for x in around:
        for y, _ in adjacency(g)[x]:
            k = edge_key(x, y)
            if k in keys:
                continue
            if y not in _previous_dijkstra(adj, x, y, thresholds[k]):
                return False
    return True


def _previous_completion_bound(g: WeightedGraph, fixed_keys, free_rest) -> int | None:
    """Cheapest extra weight connecting the components of `fixed_keys` using
    edges from `free_rest`; None when even all of them cannot connect."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = g.n
    for u, v in fixed_keys:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    if comps == 1:
        return 0
    extra = 0
    for w, (u, v) in free_rest:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
            extra += w
            if comps == 1:
                return extra
    return None


def previous_exact_opt_spanner(g: WeightedGraph, eps, max_edges: int = 24, local_ok=_previous_local_ok) -> OracleResult:
    """Exact minimum-weight (1+eps)-spanner by exhaustive branch and bound.

    Weight-zero edges can only help and are always included, so the cap
    `max_edges` counts positive-weight edges only. Edges with no alternative
    route within stretch are forced up front; the remaining edges are decided
    heaviest-first, exclusion branch first, pruning on a spanning-completion
    lower bound against the incumbent. Among equal-weight optima the
    lexicographically smallest edge set is returned. The search runs on the
    int weights of `g`; with eps = p/q an integer distance d' meets the
    threshold (1+eps)*d exactly when d' <= (p+q)*d // q.
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
    forced = set()
    for k in candidates:
        nodes += 1
        if k[1] not in _previous_dijkstra(int_adjacency(g, all_keys - {k}), k[0], k[1], thresholds[k]):
            forced.add(k)
    free = sorted((k for k in candidates if k not in forced), key=lambda k: (-weights[k], k))
    free_weights = [weights[k] for k in free]
    base = zeros | forced
    base_weight = sum(weights[k] for k in forced)

    # full edge set is always feasible, giving the starting incumbent
    best_weight = sum(free_weights, base_weight)
    best_edges = tuple(sorted(all_keys))

    suffix: list[list[tuple[int, EdgeKey]]] = [[] for _ in range(len(free) + 1)]
    for i in range(len(free) - 1, -1, -1):
        suffix[i] = sorted(suffix[i + 1] + [(free_weights[i], free[i])])

    def search(idx: int, chosen: set[EdgeKey], chosen_weight: int, available: set[EdgeKey]):
        nonlocal nodes, best_weight, best_edges
        nodes += 1
        bound = _previous_completion_bound(g, base | chosen, suffix[idx])
        if bound is None or base_weight + chosen_weight + bound > best_weight:
            return
        if idx == len(free):
            keys = base | chosen
            if _previous_feasible(g, keys, thresholds):
                total = base_weight + chosen_weight
                cand = tuple(sorted(keys))
                if total < best_weight or (total == best_weight and cand < best_edges):
                    best_weight = total
                    best_edges = cand
            return
        k = free[idx]
        # exclusion first so light incumbents appear early
        available.discard(k)
        if local_ok(g, available, thresholds, k):
            search(idx + 1, chosen, chosen_weight, available)
        available.add(k)
        chosen.add(k)
        search(idx + 1, chosen, chosen_weight + free_weights[idx], available)
        chosen.discard(k)

    search(0, set(), 0, set(all_keys))
    return OracleResult(Fraction(best_weight, g.scale), frozenset(best_edges), nodes)


def feasible_exclusion_opt_spanner(g: WeightedGraph, eps, max_edges: int = 24) -> OracleResult:
    """Slow reference for a search that cuts an exclusion as soon as it
    leaves some g-edge beyond its threshold: `previous_exact_opt_spanner`
    with the whole `_previous_feasible` check over the available edges at
    each exclusion, in place of `_previous_local_ok`. It visits the same
    tree, so its result, node count included, is the one to match."""
    return previous_exact_opt_spanner(
        g, eps, max_edges, lambda g, keys, thresholds, around: _previous_feasible(g, keys, thresholds)
    )


# --- the hanging-pair scan before it fetched the distance rows once ---------
#
# Verbatim copy (renamed with a `previous_` prefix) of prune._hanging_pairs as
# it was when it fetched both distance rows once per pair. The differential
# test requires identical tuples, order included.


def previous_hanging_pairs(edge: EdgeKey, w: int, pairs, dist: DistanceOracle, eps: Fraction) -> tuple:
    """The pairs (s, t) of `pairs` at whose endpoints `edge`, of int weight w, hangs."""
    a, b = edge
    kappa = hanging_kappa(eps)
    stretch_bound = 1 + eps
    need = -(-kappa.numerator * w // kappa.denominator)
    budget = stretch_bound.numerator * w // stretch_bound.denominator
    out = []
    for s, t in pairs:
        dist_s = dist.row(s)
        d = dist_s[t]
        if d < need:
            continue
        dist_t = dist.row(t)
        if dist_s[a] + d + dist_t[b] <= budget or dist_s[b] + d + dist_t[a] <= budget:
            out.append((s, t))
    return tuple(out)


# --- the graph boundary before it worked on ints -----------------------------
#
# Verbatim copies (renamed with a `previous_` prefix) of the edge-list parser,
# `WeightedGraph.is_subgraph_of`, `WeightedGraph.total_weight`,
# `DistanceOracle.all_positive`, the `WeightedGraph` constructor,
# `format_graph` and `prune.contract_and_round` as they were when each
# worked one Fraction per edge. The parser still accepts any
# `planar:` suffix (only `planar:1` meant planar), so differential tests feed
# it `planar:0|1` headers only.


def previous_parse_graph(text: str) -> WeightedGraph:
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


def previous_is_subgraph_of(h: WeightedGraph, g: WeightedGraph) -> bool:
    if h.n != g.n:
        return False
    return all(g.weights.get(k) == w for k, w in h.weights.items())


def previous_total_weight(g: WeightedGraph) -> Fraction:
    return sum((w for _, _, w in g.edges), Fraction(0))


def previous_all_positive(g: WeightedGraph) -> bool:
    return all(w > 0 for _, _, w in g.edges)


def _previous_as_fraction(w) -> Fraction:
    if isinstance(w, float):
        raise TypeError(f"float weight {w!r} rejected; pass Fraction, int or 'p/q'")
    return Fraction(w)


class PreviousWeightedGraph(Frozen):
    """`WeightedGraph` as it was when it stored its Fraction edges and
    derived its ints; only its constructor is kept."""

    _fields = ("n", "edges", "declared_planar")

    def __init__(self, n: int, edges: Iterable[Edge] = (), declared_planar: bool = False):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: dict[EdgeKey, Fraction] = {}
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = edge_key(u, v)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            if not isinstance(w, Fraction):
                w = _previous_as_fraction(w)
            if w.numerator < 0:  # a Fraction's denominator is positive
                raise ValueError(f"negative weight on edge {key}")
            seen[key] = w
        norm = tuple((u, v, seen[(u, v)]) for u, v in sorted(seen))
        if declared_planar and n >= 3 and len(norm) > 3 * n - 6:
            raise ValueError(
                f"declared planar but m={len(norm)} exceeds 3n-6={3 * n - 6}"
            )
        self._set(n=n, edges=norm, declared_planar=declared_planar)


def previous_format_graph(g: WeightedGraph) -> str:
    lines = [f"{g.n} {g.m} planar:{1 if g.declared_planar else 0}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in g.edges)
    return "\n".join(lines) + "\n"


def previous_contract_and_round(g: WeightedGraph, eps) -> tuple[WeightedGraph, dict[EdgeKey, EdgeKey]]:
    """Contract components spanned by edges lighter than eps*W/n^2 and round
    the surviving weights to floor(w * n^2 / (W * eps)).

    Weights w and W are g's ints in units of 1/g.scale. Returns the
    contracted graph and a map from its edge keys back to the original edge
    chosen to represent each contracted pair (the one with the smallest
    rounded weight, ties by original weight then key). Contracted vertices
    are numbered in the order of their union-find roots.
    """
    eps = _positive_eps(eps)
    _require_positive(g)
    n = g.n
    weights = g.int_weights
    if not weights:  # nothing to contract or round
        return WeightedGraph(n, (), g.declared_planar), {}
    w_max = max(weights.values())
    threshold = eps * w_max / (n * n)
    parent = list(range(n))
    for (u, v), w in weights.items():
        if w < threshold:
            parent[_find(parent, u)] = _find(parent, v)

    roots = sorted({_find(parent, v) for v in range(n)})
    comp = {r: i for i, r in enumerate(roots)}
    factor = Fraction(n * n) / (w_max * eps)
    best: dict[EdgeKey, tuple[int, int, EdgeKey]] = {}
    for (u, v), w in weights.items():
        cu, cv = comp[_find(parent, u)], comp[_find(parent, v)]
        if cu == cv:
            continue
        key = edge_key(cu, cv)
        rounded = int(w * factor)
        cand = (rounded, w, (u, v))
        if key not in best or cand < best[key]:
            best[key] = cand
    contracted = WeightedGraph(
        len(roots),
        tuple((k[0], k[1], Fraction(v[0])) for k, v in best.items()),
        g.declared_planar,
    )
    back = {k: v[2] for k, v in best.items()}
    return contracted, back


def previous_evaluate(self, hanging: list[int]) -> tuple[list[int], array]:
    """`_WalkPlan.evaluate` as it was when it also chose each canonical
    cell's join eagerly; call it with the plan as `self`.

    The round's value list (see the class docstring) for the endpoint
    hanging weights of `pairs`, and each canonical cell's chosen join
    (-1: base; a reversed cell's is left to `WalkTables.pick`).

    A canonical cell starts from its base value and takes each join
    whose sum is strictly larger, so ties go to the base cell, then to
    the smallest (via, left length). A reversed cell copies its twin's
    value: the same base slot, mirrored halves, and a bonus test
    symmetric in the split."""
    offset, base, start, mirror = self.offset, self.base, self.join_start, self.mirror
    jl, jr, jb = self.join_left, self.join_right, self.join_bonus
    n_cells = len(base)
    values = [0, *hanging, *[0] * n_cells]
    picks = array("q", [-1]) * n_cells
    for c in range(n_cells):
        twin = mirror[c]
        if twin < c:
            values[offset + c] = values[offset + twin]
            picks[c] = _UNPICKED
            continue
        b = base[c]
        best = values[b] if b >= 0 else -1
        for j in range(start[c], start[c + 1]):
            v = values[jl[j]] + values[jr[j]] + values[jb[j]]
            if v > best:
                best = v
                picks[c] = j
        values[offset + c] = best
    return values, picks


# --- reconstruct before it read the hanging sets through the plan -----------
#
# A copy (renamed with a `previous_` prefix, its realizability check
# dropped) of `prune.reconstruct` as it was when it read each endpoint
# hanging set from the tables' full `anchored` mapping, not from the pool
# edges among `plan.hung`; that mapping is now rebuilt by `hanging_sets`.


def previous_reconstruct_from_anchored(tables, s: int, t: int, length: int) -> tuple[tuple[int, ...], Counter]:
    plan, dist, anchored = tables.plan, tables.dist, hanging_sets(tables.plan, tables.pool)
    offset, cell_s, cell_t = plan.offset, plan.cell_s, plan.cell_t
    walk, mset = [s], Counter()
    stack = [tables.entries[(s, t)][length]] if s != t else []
    while stack:
        c = stack.pop()
        cs, ct, j = cell_s[c], cell_t[c], tables.pick(c)
        if j >= 0:
            if plan.join_bonus[j]:
                mset.update(anchored[(cs, ct)])
            left, right = plan.halves(c, j)
            stack += (right - offset, left - offset)
        else:
            walk += dist.path(cs, ct)[1:]
            mset.update(anchored[(cs, ct)])
    return tuple(walk), mset


# --- the dict-based shortest-path search that `graphs.Search` replaced --------
#
# A verbatim copy (renamed with a `previous_` prefix) of `graphs.dijkstra` as
# it was before every caller moved to one `Search` that reuses an array
# workspace. Each run of a search must settle exactly the map it returns.


def previous_dijkstra(
    adj,
    source: int,
    targets: Iterable[int] | None = None,
    limit: int | None = None,
    rest: list | None = None,
) -> dict[int, int]:
    """Exact shortest distances from `source` over int adjacency lists.

    Returns {vertex: distance} for every settled vertex, each exact. The
    search stops once every vertex of the set `targets` is settled (None:
    it settles all it can reach; an empty set stops at the source) and
    never settles a vertex farther than `limit`, so
    ``t in previous_dijkstra(adj, s, targets, limit)`` holds for a target t exactly
    when dist(s, t) <= limit.

    With a `limit`, the optional row `rest` prunes toward one target t: it
    must be a consistent lower bound on the distance to t, rest[t] == 0 and
    rest[x] <= w + rest[y] for every edge (x, y, w) of `adj`, as is t's row
    in a supergraph, capped at any value or not. A vertex x is then reached
    only when its distance plus rest[x] is within `limit`. Settled distances
    stay exact, ``t in previous_dijkstra(adj, s, {t}, limit, rest)`` holds exactly when
    dist(s, t) <= limit, and a search that does not settle t has settled
    s and exactly the vertices x with dist(s, x) + rest[x] <= limit. Without
    `rest` a relaxation pays one extra test when a limit is given and none
    otherwise.
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
            if (limit is None or (nd if rest is None else nd + rest[v]) <= limit) and (v not in dist or nd < dist[v]):
                dist[v] = nd
                heappush(heap, (nd, v))
    return done


def settled_map(search, source: int, targets=None, limit=None, rest=None) -> dict[int, int]:
    """{x: dist[x]} for every x that one run of `search` settles, with
    `previous_dijkstra`'s arguments (a limit of None is no limit). The run's
    result must say whether it settled every target."""
    found = search.run(source, targets, INF if limit is None else limit, rest)
    done = {x: d for x, d in enumerate(search.row(None)) if d is not None}
    assert found == (targets is not None and all(t in done for t in targets))
    return done


def count_runs(monkeypatch, module) -> list[tuple]:
    """Rebind `module.Search` to a subclass that records every run as
    (source, targets, number of vertices settled, whether every target was
    settled); returns the list of records. Only the code that looks
    `Search` up in `module` counts."""
    runs = []

    class Counting(module.Search):
        __slots__ = ()

        def run(self, source, targets=None, *args):
            found = super().run(source, targets, *args)
            runs.append((source, targets, self.mark.count(self.stamp), found))
            return found

    monkeypatch.setattr(module, "Search", Counting)
    return runs
