"""Iterative pruning of a spanner: exchange heavy hanging edges for light walks.

One pruning pass repeatedly searches, over all vertex pairs (s, t) and every
integer length L up to (1+eps) times the s-t distance, for a walk of weight
exactly L on which a heavy multiset of current spanner edges "hangs" (each
edge admits a nearby detour through a sub-walk covering a constant fraction
of its weight). The best walk-to-multiset weight ratio is realised via a
table of entries indexed by (source, target, length) with backpointers, the
walk is added, and the hanging edges are dropped. Passes are repeated a
number of times governed by the iterated logarithm of 1/eps.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import (
    INF,
    DistanceOracle,
    EdgeKey,
    EdgeMultiset,
    Walk,
    WeightedGraph,
    apsp,
    concat,
    edge_key,
    is_connected,
    stretch,
)
from .greedy import greedy_spanner

DEFAULT_CELL_CAP = 2_000_000
CELL_CAP_ENV = "SPANNER_LAB_CELL_CAP"


class CellCapError(RuntimeError):
    """Raised when the (source, target) length-table would exceed the cell cap."""


def _resolve_cell_cap(cell_cap: int | None) -> int:
    if cell_cap is not None:
        return cell_cap
    env = os.environ.get(CELL_CAP_ENV)
    return int(env) if env else DEFAULT_CELL_CAP


def hanging_kappa(eps: Fraction) -> Fraction:
    """Cover fraction used when collecting hanging edges: 1 / (3 (1 + eps))."""
    return Fraction(1, 3) / (1 + eps)


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
    pre = walk.prefix_weights()
    verts = walk.vertices
    k = len(verts)
    for i in range(k - 1):
        vi = verts[i]
        da_vi = dist.dist(a, vi)
        db_vi = dist.dist(b, vi)
        if da_vi is INF and db_vi is INF:
            continue
        for j in range(i + 1, k):
            seg = pre[j] - pre[i]
            if seg < need:
                continue
            vj = verts[j]
            if da_vi is not INF:
                d_tail = dist.dist(vj, b)
                if d_tail is not INF and da_vi + seg + d_tail <= budget:
                    return HangingWitness(edge_key(a, b), i, j, kappa)
            if db_vi is not INF:
                d_tail = dist.dist(vj, a)
                if d_tail is not INF and db_vi + seg + d_tail <= budget:
                    return HangingWitness(edge_key(a, b), i, j, kappa)
    return None


def endpoint_hanging_sets(
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


class WalkTables:
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


def _require_positive_integers(g: WeightedGraph) -> None:
    for u, v, w in g.edges:
        if w.denominator != 1 or w <= 0:
            raise ValueError(f"edge ({u},{v}) weight {w} is not a positive integer")


def _back_rank(back):
    return (0,) if back is None else (1, back[0], back[1])


def _offer(cands: dict, pair, value: int, back) -> None:
    cur = cands.get(pair)
    if cur is None or value > cur[0] or (value == cur[0] and _back_rank(back) < _back_rank(cur[1])):
        cands[pair] = (value, back)


def fill_tables(
    g: WeightedGraph,
    pool: frozenset[EdgeKey],
    dist: DistanceOracle,
    eps,
    cell_cap: int | None = None,
) -> WalkTables:
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
    cap = _resolve_cell_cap(cell_cap)
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
            f"set {CELL_CAP_ENV} or pass cell_cap to override"
        )

    anchored = endpoint_hanging_sets(g, pool, dist, eps)
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
            _offer(cands, pair, anchored_weight[pair], None)
        for pair, (value, back) in pending.pop(level, {}).items():
            _offer(cands, pair, value, back)
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

    return WalkTables(g, dist, eps, pool, anchored, anchored_weight, bounds, entries, max_level)


def select_best_triple(tables: WalkTables):
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


def reconstruct(tables: WalkTables, s: int, t: int, length: int) -> tuple[Walk, EdgeMultiset]:
    """Extract the walk and hanging multiset of a realizable cell.

    The walk weighs exactly `length` and the multiset weight equals the cell
    value; shared sub-cells are expanded once.
    """
    root = (s, t, length)
    if tables.entry(*root) is None:
        raise ValueError(f"cell {root} is not realizable")
    done: dict[tuple[int, int, int], tuple[Walk, EdgeMultiset]] = {}
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
                mset = EdgeMultiset()
            else:
                walk = tables.dist.path(ks, kt)
                mset = EdgeMultiset.from_keys(sorted(tables.anchored[(ks, kt)]))
            if walk.weight != kl:
                raise AssertionError(f"base walk weight {walk.weight} != level {kl}")
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
        mset = lm.union(rm)
        if collected:
            mset = mset.union(EdgeMultiset.from_keys(sorted(tables.anchored[(ks, kt)])))
        done[key] = (concat(lw, rw), mset)
    return done[root]


@dataclass(frozen=True)
class RoundLog:
    source: int
    target: int
    length: int
    beta: Fraction
    walk_weight: int
    multiset_weight: int
    pruned_weight: int
    pool_weight_remaining: Fraction

    def as_dict(self) -> dict:
        return {
            "s": self.source,
            "t": self.target,
            "L": self.length,
            "beta": f"{self.beta.numerator}/{self.beta.denominator}",
            "rho_weight": self.walk_weight,
            "multiset_weight": self.multiset_weight,
            "pruned_weight": self.pruned_weight,
            "pool_weight_remaining": str(self.pool_weight_remaining),
        }


@dataclass
class PruneState:
    """Edge bookkeeping across the rounds of one pruning pass.

    `added` collects walk edges (a subset of the host graph's edges),
    `removed` collects pruned spanner edges; the pass result is
    added | (spanner - removed). `removed` grows strictly every round,
    which bounds the number of rounds by the spanner size.
    """

    added: set[EdgeKey] = field(default_factory=set)
    removed: set[EdgeKey] = field(default_factory=set)
    rounds: list[RoundLog] = field(default_factory=list)


def prune_round(
    g: WeightedGraph,
    h: WeightedGraph,
    state: PruneState,
    eps,
    dist: DistanceOracle | None = None,
    cell_cap: int | None = None,
) -> bool:
    """Run one round: rebuild tables over the remaining pool, take the best
    ratio, and exchange walk for multiset when the ratio reaches 1.

    Returns True when an exchange happened; False leaves the state untouched.
    """
    pool = frozenset(h.edge_keys - state.added - state.removed)
    if not pool:
        return False
    if dist is None:
        dist = apsp(g)
    tables = fill_tables(g, pool, dist, eps, cell_cap)
    best = select_best_triple(tables)
    if best is None:
        return False
    s, t, length, beta = best
    if beta < 1:
        return False
    walk, mset = reconstruct(tables, s, t, length)
    support = mset.support
    pruned_weight = int(sum(g.weights[k] for k in support))
    state.added |= walk.edge_keys()
    state.removed |= support
    remaining = sum((g.weights[k] for k in pool - support), Fraction(0))
    state.rounds.append(
        RoundLog(
            source=s,
            target=t,
            length=length,
            beta=beta,
            walk_weight=int(walk.weight),
            multiset_weight=int(mset.weight(g)),
            pruned_weight=pruned_weight,
            pool_weight_remaining=remaining,
        )
    )
    return True


def prune(
    g: WeightedGraph, h: WeightedGraph, eps, cell_cap: int | None = None
) -> tuple[WeightedGraph, PruneState]:
    """One full pruning pass over spanner h of g.

    Rounds repeat until no exchange with ratio >= 1 exists; the result is
    added | (h - removed). Requires g connected with positive integer
    weights; h must be a subgraph of g.
    """
    eps = Fraction(eps)
    _require_positive_integers(g)
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
        if not prune_round(g, h, state, eps, dist=dist, cell_cap=cell_cap):
            break
        if len(state.removed) <= before:
            raise AssertionError("no progress recorded despite an exchange")
    else:
        raise AssertionError("pruning failed to terminate within |E(h)| rounds")
    keys = state.added | (h.edge_keys - state.removed)
    return g.subgraph(keys), state


def log_star_ceil(x) -> int:
    """Iterations of ceil(log2) needed to drive ceil(x) down to 1."""
    x = Fraction(x)
    v = -(-x.numerator // x.denominator)
    count = 0
    while v > 1:
        v = (v - 1).bit_length()
        count += 1
    return count


@dataclass(frozen=True)
class IterationLog:
    stretch: Fraction
    total_weight: Fraction

    def as_dict(self) -> dict:
        if self.stretch is INF:
            s = "inf"
        else:
            s = f"{self.stretch.numerator}/{self.stretch.denominator}"
        return {"stretch": s, "total_weight": str(self.total_weight)}


def iterate_prune(
    g: WeightedGraph,
    eps,
    initial_spanner: WeightedGraph | None = None,
    cell_cap: int | None = None,
) -> tuple[WeightedGraph, list[IterationLog], list[PruneState]]:
    """Driver: start from a greedy (1+eps)-spanner (or a caller-provided one)
    and run pruning passes until a pass changes nothing, capped at
    log*(1/eps) + 2 passes.

    Returns the final spanner, a weight/stretch log (entry 0 describes the
    starting spanner), and the per-pass states.
    """
    eps = Fraction(eps)
    _require_positive_integers(g)
    if not is_connected(g):
        raise ValueError("iterate_prune requires a connected graph")
    if initial_spanner is None:
        h = greedy_spanner(g, 1 + eps)
    else:
        if not initial_spanner.is_subgraph_of(g):
            raise ValueError("initial spanner must be a subgraph of g")
        h = initial_spanner
    logs = [IterationLog(stretch(g, h), h.total_weight)]
    states: list[PruneState] = []
    passes = log_star_ceil(1 / eps) + 2
    for _ in range(passes):
        h1, state = prune(g, h, eps, cell_cap=cell_cap)
        states.append(state)
        logs.append(IterationLog(stretch(g, h1), h1.total_weight))
        if h1.edge_keys == h.edge_keys:
            break
        h = h1
    return h, logs, states


@dataclass(frozen=True)
class ScalingLog:
    scaled: bool
    iterations: list[IterationLog]
    inner_stretch: Fraction | None = None
    contracted_vertices: int | None = None
    small_edge_count: int | None = None


def contract_and_round(g: WeightedGraph, eps) -> tuple[WeightedGraph, dict[EdgeKey, EdgeKey]]:
    """Contract components spanned by edges lighter than eps*W/n^2 and round
    the surviving weights to floor(w * n^2 / (W * eps)).

    Returns the contracted graph and a map from its edge keys back to the
    original edge chosen to represent each contracted pair (the one with the
    smallest rounded weight, ties by original weight then key).
    """
    eps = Fraction(eps)
    _require_positive_integers(g)
    n = g.n
    w_max = max(w for _, _, w in g.edges)
    threshold = eps * w_max / (n * n)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, w in g.edges:
        if w < threshold:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv

    roots = sorted({find(v) for v in range(n)})
    comp = {r: i for i, r in enumerate(roots)}
    factor = Fraction(n * n) / (w_max * eps)
    best: dict[EdgeKey, tuple[int, Fraction, EdgeKey]] = {}
    for u, v, w in g.edges:
        cu, cv = comp[find(u)], comp[find(v)]
        if cu == cv:
            continue
        key = edge_key(cu, cv)
        rounded = int(w * factor)
        cand = (rounded, w, edge_key(u, v))
        if key not in best or cand < best[key]:
            best[key] = cand
    contracted = WeightedGraph(
        len(roots),
        tuple((k[0], k[1], Fraction(v[0])) for k, v in best.items()),
        g.declared_planar,
    )
    back = {k: v[2] for k, v in best.items()}
    return contracted, back


def prune_with_scaling(
    g: WeightedGraph, eps, cell_cap: int | None = None
) -> tuple[WeightedGraph, ScalingLog]:
    """Weight-range-robust driver.

    With W < n^2/eps this is exactly `iterate_prune`. Otherwise components
    spanned by tiny edges are contracted, weights are rounded down by
    n^2/(W*eps), pruning runs on the contracted graph, and the result is
    expanded and unioned with every original edge of weight at most W/n.
    """
    eps = Fraction(eps)
    _require_positive_integers(g)
    if not is_connected(g):
        raise ValueError("prune_with_scaling requires a connected graph")
    n = g.n
    w_max = max(w for _, _, w in g.edges)
    if w_max < Fraction(n * n) / eps:
        h, logs, _ = iterate_prune(g, eps, cell_cap=cell_cap)
        return h, ScalingLog(scaled=False, iterations=logs)

    contracted, back = contract_and_round(g, eps)
    inner, logs, _ = iterate_prune(contracted, eps, cell_cap=cell_cap)
    inner_stretch = stretch(contracted, inner)
    keep = {back[k] for k in inner.edge_keys}
    small = {edge_key(u, v) for u, v, w in g.edges if w * n <= w_max}
    keep |= small
    return g.subgraph(keep), ScalingLog(
        scaled=True,
        iterations=logs,
        inner_stretch=inner_stretch,
        contracted_vertices=contracted.n,
        small_edge_count=len(small),
    )
