"""Iterative pruning of a spanner: exchange heavy hanging edges for light walks.

One pruning pass repeatedly searches, over all vertex pairs (s, t) and every
integer length L up to (1+eps) times the s-t distance, for a walk of weight
exactly L on which a heavy multiset of current spanner edges "hangs" (each
edge admits a nearby detour through a sub-walk covering a constant fraction
of its weight). The best walk-to-multiset weight ratio is realised via a
table of entries indexed by (source, target, length) with backpointers, the
walk is added, and the hanging edges are dropped. Which cells exist and how
they join depends only on the distances and eps, so that plan is built once
per graph and eps; each round only recomputes the values. Passes are
repeated a number of times governed by the iterated logarithm of 1/eps.
"""
from __future__ import annotations

import warnings
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .graphs import (
    INF,
    DistanceOracle,
    EdgeKey,
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


class CellCapError(RuntimeError):
    """Raised when the (source, target) length-table would exceed the cell cap."""


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
    <= (1 + eps) * w. The result is symmetric in (s, t). `dist` must be the
    oracle of g: the pairs at which an edge hangs do not depend on the pool,
    so they are found once per edge and kept on the oracle per eps.
    """
    eps = Fraction(eps)
    memo = dist.memo.get(("hanging", eps))
    if memo is None:
        pairs = [(s, t) for s in range(g.n) for t in range(s + 1, g.n) if dist.row(s)[t] is not INF]
        none_hang = dict.fromkeys((pair for s, t in pairs for pair in ((s, t), (t, s))), frozenset())
        memo = dist.memo[("hanging", eps)] = (pairs, none_hang, {})
    pairs, none_hang, hangs_at = memo
    members: dict[tuple[int, int], list[EdgeKey]] = {}
    for k in pool:
        at = hangs_at.get(k)
        if at is None:
            at = hangs_at[k] = _hanging_pairs(k, g.int_weights[k], pairs, dist, eps)
        for pair in at:
            members.setdefault(pair, []).append(k)
    out = none_hang.copy()
    for (s, t), keys in members.items():
        out[(s, t)] = out[(t, s)] = frozenset(keys)
    return out


def _hanging_pairs(edge: EdgeKey, w: int, pairs, dist: DistanceOracle, eps: Fraction) -> tuple:
    """The pairs (s, t) of `pairs` at whose endpoints `edge`, of int weight w, hangs."""
    a, b = edge
    kappa = hanging_kappa(eps)
    stretch_bound = 1 + eps
    # distances are ints in units of 1/scale, so d >= kappa*w holds exactly
    # when d >= ceil(kappa*w) and lhs <= (1+eps)*w when lhs <= floor((1+eps)*w)
    need = -(-kappa.numerator * w // kappa.denominator)
    budget = stretch_bound.numerator * w // stretch_bound.denominator
    out = []
    for s, t in pairs:
        dist_s = dist.row(s)
        d = dist_s[t]
        if d < need:
            continue
        dist_t = dist.row(t)
        # an INF term makes the sum INF, which fails the budget
        if dist_s[a] + d + dist_t[b] <= budget or dist_s[b] + d + dist_t[a] <= budget:
            out.append((s, t))
    return tuple(out)


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


def _length_bounds(dist: DistanceOracle, eps: Fraction) -> tuple[dict[tuple[int, int], int], int]:
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


def _check_cap(max_level: int, cap: int) -> None:
    if max_level + 1 > cap:
        raise CellCapError(
            f"length range {max_level + 1} exceeds the per-pair cell cap {cap}; "
            "pass cell_cap (--cell-cap) to override"
        )


class _WalkPlan:
    """The pool-independent half of the walk tables of one (distances, eps).

    Which cells are realizable, and through which joins, depends only on
    the distances and eps, so the plan is built once and re-evaluated for
    every pool. Cells are numbered in the order they are finalised: the
    empty walk at each vertex first, then by ascending length and pair.
    A round's values live in one list: index 0 holds 0, index 1 + i the
    endpoint hanging weight of `pairs[i]` (in both orders), and index
    `offset + c` the value of cell c. Join j of a cell adds the values at
    `join_left[j]` and `join_right[j]` (its two halves) and at
    `join_bonus[j]` (the cell's pair when the join collects its endpoint
    hanging set, else 0); each cell's joins are sorted by (via, left length).
    """

    def __init__(self, dist: DistanceOracle, bounds: dict[tuple[int, int], int], max_level: int):
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

    def evaluate(self, hanging: list[int]) -> tuple[list[int], array]:
        """The round's value list (see the class docstring) for the endpoint
        hanging weights of `pairs`, and each cell's chosen join (-1: base).

        A cell starts from its base value and takes each join whose sum is
        strictly larger, so ties go to the base cell, then to the smallest
        (via, left length)."""
        offset, base, start = self.offset, self.base, self.join_start
        jl, jr, jb = self.join_left, self.join_right, self.join_bonus
        n_cells = len(base)
        values = [0, *hanging, *[0] * n_cells]
        picks = array("q", [-1]) * n_cells
        for c in range(n_cells):
            b = base[c]
            best = values[b] if b >= 0 else -1
            for j in range(start[c], start[c + 1]):
                v = values[jl[j]] + values[jr[j]] + values[jb[j]]
                if v > best:
                    best = v
                    picks[c] = j
            values[offset + c] = best
        return values, picks


def _walk_plan(dist: DistanceOracle, eps: Fraction, cap: int) -> _WalkPlan:
    """The plan of (dist, eps), built on first use and kept on the oracle;
    the cap is checked before any plan is built."""
    plan = dist.memo.get(("walk-plan", eps))
    if plan is None:
        bounds, max_level = _length_bounds(dist, eps)
        _check_cap(max_level, cap)
        plan = dist.memo[("walk-plan", eps)] = _WalkPlan(dist, bounds, max_level)
    _check_cap(plan.max_level, cap)
    return plan


class WalkTables:
    """Length-indexed tables of realizable walks and their hanging weight.

    For a pair (s, t), cells exist for integer lengths L up to
    (1+eps) * dist(s, t); a cell is realizable when a walk of weight exactly
    L exists that is derivable from shortest paths by concatenation. Each
    realizable cell stores the heaviest multiset weight of pool edges
    hanging on its walk that the join rule can certify. `entries` maps each
    pair to its cells (length -> cell number of the plan); `entry`, `levels`
    and `iter_entries` build DpEntry values on access.
    """

    def __init__(self, dist, pool, anchored, anchored_weight, plan: _WalkPlan, values, picks):
        self.dist = dist
        self.pool = pool
        self.anchored = anchored
        self.anchored_weight = anchored_weight
        self.bounds = plan.bounds
        self.max_level = plan.max_level
        self.entries = plan.cells_of
        self._plan = plan
        self._values = values
        self._picks = picks

    def _entry(self, c: int) -> DpEntry:
        plan = self._plan
        value = self._values[plan.offset + c]
        j = self._picks[c]
        if j < 0:
            return DpEntry(value, None)
        left = plan.join_left[j] - plan.offset
        return DpEntry(value, (plan.cell_t[left], plan.cell_len[left], plan.join_bonus[j] != 0))

    def entry(self, s: int, t: int, length: int) -> DpEntry | None:
        c = self.entries.get((s, t), {}).get(length)
        return None if c is None else self._entry(c)

    def levels(self, s: int, t: int) -> list[int]:
        return list(self.entries.get((s, t), {}))

    def iter_entries(self):
        """Yield (s, t, L, entry) for every realizable off-diagonal cell."""
        plan = self._plan
        for c in plan.by_pair:
            yield plan.cell_s[c], plan.cell_t[c], plan.cell_len[c], self._entry(c)


def _require_positive_integers(g: WeightedGraph) -> None:
    for u, v, w in g.edges:
        if w.denominator != 1 or w <= 0:
            raise ValueError(f"edge ({u},{v}) weight {w} is not a positive integer")


def fill_tables(
    g: WeightedGraph,
    pool: frozenset[EdgeKey],
    dist: DistanceOracle,
    eps,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> WalkTables:
    """Fill the (source, target, length) tables for one pruning round.

    Base cells sit at L = dist(s, t) with value equal to the weight of the
    endpoint hanging set. A cell (s, t, L) is realizable through a join when
    some via vertex z and split 0 < L' < L have both sub-cells realizable;
    its value maximises left + right, plus the endpoint hanging weight of
    (s, t) whenever max(L', L - L') < floor_pow2(L). Which cells exist and
    how they join is planned once per (dist, eps), where `dist` is the
    oracle of g; each round only re-evaluates the plan, in ascending length
    order, for the pool's hanging weights.
    """
    _require_positive_integers(g)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    plan = _walk_plan(dist, eps, cell_cap)
    anchored = endpoint_hanging_sets(g, pool, dist, eps)
    weight = g.int_weights.__getitem__
    hanging = [sum(map(weight, anchored[pair])) for pair in plan.pairs]
    anchored_weight = {}
    for (s, t), w in zip(plan.pairs, hanging):
        anchored_weight[(s, t)] = anchored_weight[(t, s)] = w
    values, picks = plan.evaluate(hanging)
    return WalkTables(dist, pool, anchored, anchored_weight, plan, values, picks)


def select_best_triple(tables: WalkTables):
    """Realizable (s, t, L) with L >= 1 maximising value / L.

    Ties take the lexicographically smallest (s, t, L); at ratio exactly 1
    this drains the pool through the cheapest self-exchanges first instead of
    letting a longer walk trade structure away for no weight gain. Returns
    (s, t, L, ratio) or None when every value is zero.
    """
    plan, values = tables._plan, tables._values
    offset, cell_len = plan.offset, plan.cell_len
    # value / L > best_value / best_length, compared as ints; the first cell
    # (in (s, t, L) order) reaching the maximum keeps it
    best, best_value, best_length = None, 0, 1
    for c in plan.by_pair:
        value, length = values[offset + c], cell_len[c]
        if value * best_length > best_value * length:
            best, best_value, best_length = c, value, length
    if best is None:
        return None
    return plan.cell_s[best], plan.cell_t[best], best_length, Fraction(best_value, best_length)


def reconstruct(tables: WalkTables, s: int, t: int, length: int) -> tuple[Walk, Counter]:
    """Extract the walk and hanging multiset (edge key -> multiplicity) of a
    realizable cell.

    The walk weighs exactly `length` and the multiset weight equals the cell
    value; shared sub-cells are expanded once.
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
                walk = tables.dist.path(ks, kt)
                mset = Counter(tables.anchored[(ks, kt)])
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
        # a fresh sum, so updating it leaves the shared sub-results alone
        mset = lm + rm
        if collected:
            mset.update(tables.anchored[(ks, kt)])
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
    tables = fill_tables(g, pool, dist, eps, cell_cap)
    best = select_best_triple(tables)
    if best is None:
        return False
    s, t, length, beta = best
    if beta < 1:
        return False
    walk, mset = reconstruct(tables, s, t, length)
    support = frozenset(mset)
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
            multiset_weight=int(sum(c * g.weights[k] for k, c in mset.items())),
            pruned_weight=pruned_weight,
            pool_weight_remaining=remaining,
        )
    )
    return True


def prune(
    g: WeightedGraph, h: WeightedGraph, eps, cell_cap: int = DEFAULT_CELL_CAP
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
    cell_cap: int = DEFAULT_CELL_CAP,
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
    g: WeightedGraph, eps, cell_cap: int = DEFAULT_CELL_CAP
) -> tuple[WeightedGraph, ScalingLog]:
    """Weight-range-robust driver.

    With W < n^2/eps this is exactly `iterate_prune`. Otherwise components
    spanned by tiny edges are contracted, weights are rounded down by
    n^2/(W*eps), pruning runs on the contracted graph, and the result is
    expanded and unioned with every original edge of weight at most W/n.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
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
