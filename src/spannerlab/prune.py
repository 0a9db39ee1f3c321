"""Iterative pruning of a spanner: exchange heavy hanging edges for light walks.

One pruning pass repeatedly searches, over all vertex pairs (s, t) and every
length L up to (1+eps) times the s-t distance, for a walk of weight exactly L
on which a heavy multiset of current spanner edges "hangs" (each edge admits
a nearby detour through a sub-walk covering a constant fraction of its
weight). The best walk-to-multiset weight ratio is realised via a table
of numbered (source, target, length) cells, each with the join it picked;
the walk is added, and the hanging edges are dropped. Which cells exist and
how they join depends only on the distances and eps, so that plan is built
once per graph and eps; each round only recomputes the values. Passes are
repeated a number of times governed by the iterated logarithm of 1/eps.
Weights may be any positive rationals: lengths, distances and the weights in
the logs are the graph's ints, in units of 1/scale (see `graphs`).
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
    WeightedGraph,
    _find,
    apsp,
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
    rows = [dist.row(x) for x in range(dist.n)]
    out = []
    for s, t in pairs:
        dist_s = rows[s]
        d = dist_s[t]
        if d < need:
            continue
        dist_t = rows[t]
        # an INF term makes the sum INF, which fails the budget
        if dist_s[a] + d + dist_t[b] <= budget or dist_s[b] + d + dist_t[a] <= budget:
            out.append((s, t))
    return tuple(out)


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


_NOT_POSITIVE = "pruning requires strictly positive weights"


def _require_positive(g: WeightedGraph) -> None:
    if 0 in g.int_weights.values():
        raise ValueError(_NOT_POSITIVE)


def _positive_eps(eps) -> Fraction:
    """eps as a Fraction; ValueError unless it is positive."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps


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
    endpoint hanging weight of `pairs[i]` (in both orders; the pair (s, t)
    has key s*n + t, and `slot[key]` is its 1 + i), and index `offset + c`
    the value of cell c. Join j of a cell adds the values at `join_left[j]`
    and `join_right[j]` (its two halves) and at `join_bonus[j]` (the cell's
    pair when the join collects its endpoint hanging set, else 0); each
    cell's joins are sorted by (via, left length). A new cell is joined
    with each partner pair's finalised cells in ascending length, up to the
    first whose sum passes the bound.
    """

    def __init__(self, dist: DistanceOracle, bounds: dict[tuple[int, int], int], max_level: int):
        n = dist.n
        rows = [dist.row(s) for s in range(n)]
        self.bounds = bounds
        self.max_level = max_level
        self.pairs = sorted(pair for pair in bounds if pair[0] < pair[1])
        self.slot = slot = [0] * (n * n)  # key -> index of the pair's hanging weight
        for i, (s, t) in enumerate(self.pairs, 1):
            slot[s * n + t] = slot[t * n + s] = i
        self.offset = offset = 1 + len(self.pairs)
        # pair -> {length: cell}, lengths ascending
        self.cells_of = cells_of = {(s, s): {0: s} for s in range(n)}
        self.cell_s = cell_s = list(range(n))
        self.cell_t = cell_t = list(range(n))
        self.cell_len = cell_len = [0] * n
        self.base = base = [0] * n  # value index of a base cell's value, -1 for a join-only cell
        self.join_start = join_start = array("i", [0] * (n + 1))  # cell c: joins join_start[c]:join_start[c+1]
        self.join_left, self.join_right, self.join_bonus = array("i"), array("i"), array("i")
        add_left, add_right, add_bonus = self.join_left.append, self.join_right.append, self.join_bonus.append
        at = [None] * (n * n)  # key -> the pair's dict in cells_of, the diagonal's set now
        at[:: n + 1] = cells_of.values()

        bound = [[-1] * n for _ in range(n)]  # bound[s][t]; -1 when t == s or t is unreachable
        base_at: dict[int, list[int]] = {}
        for (s, t), b in bounds.items():
            bound[s][t] = b
            base_at.setdefault(rows[s][t], []).append(s * n + t)
        # only occupied levels are visited: base lengths, plus each length a
        # join first reaches. A pending join is packed as via << 32 | left
        # cell (a plan of 2**32 cells would not fit in memory), so sorting
        # the codes sorts the joins by (via, left length).
        levels = list(base_at)
        heapify(levels)
        pending: dict[int, dict[int, list[int]]] = {}  # length -> key -> codes
        # partners of finalised cells: ends[t] holds each s with a cell from s
        # to t, starts[s] each such t; the first cell of a pair is its base
        ends: list[list[int]] = [[] for _ in range(n)]
        starts: list[list[int]] = [[] for _ in range(n)]
        while levels:
            level = heappop(levels)
            joins_at = pending.pop(level, {})
            top = 1 << (level.bit_length() - 1)
            for key in sorted(joins_at.keys() | base_at.get(level, ())):
                s, t = pair = divmod(key, n)
                c = len(cell_len)
                if at[key] is None:
                    at[key] = cells_of[pair] = {}
                    starts[s].append(t)
                    ends[t].append(s)
                at[key][level] = c
                cell_s.append(s)
                cell_t.append(t)
                cell_len.append(level)
                base.append(slot[key] if rows[s][t] == level else -1)
                for code in sorted(joins_at.get(key, ())):
                    left = code & 0xFFFFFFFF
                    l_left = cell_len[left]
                    add_left(offset + left)
                    add_right(offset + at[(code >> 32) * n + t][level - l_left])
                    add_bonus(slot[key] if level - top < l_left < top else 0)
                join_start.append(len(self.join_left))
                # pair the new cell with every finalised cell it extends, up
                # to the bound; a partner's lengths ascend from its distance.
                # Each pair of cells is joined once, by the later of the two
                for x in ends[s]:
                    lim = bound[t][x] - level
                    if rows[s][x] > lim:
                        continue
                    out = x * n + t
                    for l, left in at[x * n + s].items():
                        if l > lim:
                            break
                        slots = pending.get(l + level)
                        if slots is None:
                            slots = pending[l + level] = {}
                            if l + level not in base_at:
                                heappush(levels, l + level)
                        slots.setdefault(out, []).append(s << 32 | left)
                for y in starts[t]:
                    lim = bound[s][y] - level
                    if rows[t][y] > lim:
                        continue
                    out = s * n + y
                    for l in at[t * n + y]:
                        if l > lim:
                            break
                        slots = pending.get(level + l)
                        if slots is None:
                            slots = pending[level + l] = {}
                            if level + l not in base_at:
                                heappush(levels, level + l)
                        slots.setdefault(out, []).append(t << 32 | c)

        # off-diagonal cells in (s, t, L) order
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
    the weights are checked positive and the cap is checked before any plan
    is built."""
    plan = dist.memo.get(("walk-plan", eps))
    if plan is None:
        if not dist.all_positive:
            raise ValueError(_NOT_POSITIVE)
        bounds, max_level = _length_bounds(dist, eps)
        _check_cap(max_level, cap)
        plan = dist.memo[("walk-plan", eps)] = _WalkPlan(dist, bounds, max_level)
    _check_cap(plan.max_level, cap)
    return plan


class WalkTables:
    """The walk tables of one round: the plan's numbered cells, the round's
    `values` (indexed as in `_WalkPlan`) and each cell's picked join in
    `picks` (-1: the base cell, whose walk is the canonical shortest path).

    For a pair (s, t), cells exist for integer lengths L up to
    (1+eps) * dist(s, t); a cell is realizable when a walk of weight exactly
    L exists that is derivable from shortest paths by concatenation. Each
    realizable cell's value is the heaviest multiset weight of pool edges
    hanging on its walk that the join rule can certify. `entries` maps each
    pair to its cells (length -> cell number).
    """

    def __init__(self, dist, pool, anchored, plan: _WalkPlan, values, picks):
        self.dist, self.pool, self.anchored = dist, pool, anchored
        self.plan, self.values, self.picks = plan, values, picks
        self.entries, self.max_level = plan.cells_of, plan.max_level


def fill_tables(
    g: WeightedGraph,
    pool: frozenset[EdgeKey],
    dist: DistanceOracle,
    eps,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> WalkTables:
    """Fill the (source, target, length) tables for one pruning round.

    Lengths, distances and values are ints in units of 1/g.scale, so g may
    carry any positive rational weights; a zero weight raises ValueError
    when the plan is built. Base cells sit at L = dist(s, t) with value
    equal to the weight of the endpoint hanging set. A cell (s, t, L) is
    realizable through a join when some via vertex z and split 0 < L' < L
    have both sub-cells realizable; its value maximises left + right, plus
    the endpoint hanging weight of (s, t) whenever max(L', L - L') is below
    the largest power of two not above L. Which cells exist and how they
    join is planned once per (dist, eps), where `dist` is the oracle of g;
    each round only re-evaluates the plan, in ascending length order, for
    the pool's hanging weights.
    """
    eps = _positive_eps(eps)
    plan = _walk_plan(dist, eps, cell_cap)
    anchored = endpoint_hanging_sets(g, pool, dist, eps)
    weight = g.int_weights.__getitem__
    values, picks = plan.evaluate([sum(map(weight, anchored[pair])) for pair in plan.pairs])
    return WalkTables(dist, pool, anchored, plan, values, picks)


def select_best_triple(tables: WalkTables):
    """Realizable (s, t, L) with L >= 1 maximising value / L.

    Ties take the lexicographically smallest (s, t, L); at ratio exactly 1
    this drains the pool through the cheapest self-exchanges first instead of
    letting a longer walk trade structure away for no weight gain. Returns
    (s, t, L, ratio) or None when every value is zero.
    """
    plan, values = tables.plan, tables.values
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


def reconstruct(tables: WalkTables, s: int, t: int, length: int) -> tuple[tuple[int, ...], Counter]:
    """The walk (vertex sequence) and hanging multiset (edge key ->
    multiplicity) of a realizable cell, in one in-order pass over its picks:
    a join adds the pair's endpoint hanging set when it collects it, then
    its left and right halves; a base cell appends its canonical path and
    adds its endpoint hanging set. A sub-cell met twice is expanded twice,
    once per place on the walk. The walk weighs exactly `length` in units of
    1/scale of the oracle; the multiset weight is the cell value.
    """
    root = tables.entries.get((s, t), {}).get(length)
    if root is None:
        raise ValueError(f"cell {(s, t, length)} is not realizable")
    plan, picks, dist, anchored = tables.plan, tables.picks, tables.dist, tables.anchored
    offset, cell_s, cell_t = plan.offset, plan.cell_s, plan.cell_t
    walk, mset = [s], Counter()
    # a diagonal cell is the walk at s alone; no join reaches one, so every
    # other leaf is a base cell with s != t
    stack = [root] if s != t else []
    while stack:
        c = stack.pop()
        cs, ct, j = cell_s[c], cell_t[c], picks[c]
        if j >= 0:
            if plan.join_bonus[j]:
                mset.update(anchored[(cs, ct)])
            stack += (plan.join_right[j] - offset, plan.join_left[j] - offset)
        else:
            walk += dist.path(cs, ct)[1:]
            mset.update(anchored[(cs, ct)])
    weight = dist.int_weights
    if sum(weight[edge_key(a, b)] for a, b in zip(walk, walk[1:])) != length:
        raise AssertionError(f"walk of cell {(s, t, length)} does not weigh {length}")
    return tuple(walk), mset


@dataclass(frozen=True)
class RoundLog:
    """One exchange; its length and weights are ints in units of 1/g.scale."""

    source: int
    target: int
    length: int
    beta: Fraction
    walk_weight: int
    multiset_weight: int
    pruned_weight: int
    pool_weight_remaining: int

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


class _Tail:
    """The rounds of a pass after one of best ratio exactly 1, answered from
    that round's values v0. The pool only shrinks, so values only fall: the
    best cell is the first, in (s, t, L) order, with v0 = L whose value is
    still v0 (intact). That holds when some contributor tight in v0 (the
    base, then the joins in stored order) has all terms intact, and the
    first such is the value pass's pick. Weights are positive, so a pair's
    hanging weight leaves v0 exactly when a departed pool edge hangs there;
    the other pairs keep the reference round's `anchored` sets. A broken
    cell stays broken for the pass. Valid for the same g, oracle and eps
    and a pool within the last. The reference round's `tables` answer the
    walks: their picks are rewritten for the cells found intact.
    """

    def __init__(self, g: WeightedGraph, eps: Fraction, tables: WalkTables):
        plan, values = tables.plan, tables.values
        self.g, self.dist, self.eps, self.pool = g, tables.dist, eps, tables.pool
        self.tables, self.plan, self.values, self.picks = tables, plan, values, tables.picks
        self.cands = [c for c in plan.by_pair if values[plan.offset + c] == plan.cell_len[c]]
        self.cursor = 0  # cands before it are broken
        self.broken = bytearray(len(values))  # by value index

    def best(self, pool: frozenset) -> int | None:
        """The cell the value pass would select for `pool`, or None when no
        cell keeps ratio 1."""
        broken, slot, n = self.broken, self.plan.slot, self.dist.n
        hangs_at = self.dist.memo[("hanging", self.eps)][2]  # filled by the reference round
        for k in self.pool - pool:
            for s, t in hangs_at[k]:
                broken[slot[s * n + t]] = 1
        self.pool = pool
        intact: set[int] = set()
        while self.cursor < len(self.cands):
            c = self.cands[self.cursor]
            x = self.plan.offset + c
            if not broken[x] and self._intact(x, intact):
                return c
            self.cursor += 1
        return None

    def _intact(self, root: int, intact: set[int]) -> bool:
        """Whether the cell at value index `root` is intact; every cell
        decided on the way joins `intact` (with its pick) or `broken`."""
        plan, v0, broken, picks = self.plan, self.values, self.broken, self.picks
        offset, base, start = plan.offset, plan.base, plan.join_start
        jl, jr, jb = plan.join_left, plan.join_right, plan.join_bonus
        stack = [[root, -1]]  # value index, contributor to resume at (-1: the base)
        while stack:
            frame = stack[-1]
            x, j = frame
            c, target = x - offset, v0[x]
            if j < 0:
                b = base[c]
                if b >= 0 and v0[b] == target and not broken[b]:
                    picks[c] = -1
                    intact.add(x)
                    stack.pop()
                    continue
                j = start[c]
            for j in range(j, start[c + 1]):
                left, right, bonus = jl[j], jr[j], jb[j]
                if v0[left] + v0[right] + v0[bonus] != target or broken[left] or broken[right] or broken[bonus]:
                    continue
                if left in intact and right in intact:
                    picks[c] = j
                    intact.add(x)
                    stack.pop()
                else:  # decide the undecided half first, then resume at this join
                    frame[1] = j
                    stack.append([right if left in intact else left, -1])
                break
            else:
                broken[x] = 1
                stack.pop()
        return root in intact


@dataclass
class PruneState:
    """Edge bookkeeping across the rounds of one pruning pass.

    `added` collects walk edges (a subset of the host graph's edges),
    `removed` collects pruned spanner edges; the pass result is
    added | (spanner - removed). `removed` grows strictly every round,
    which bounds the number of rounds by the spanner size. `tail` carries
    the values of the pass's last ratio-1 round that needed a value pass.
    """

    added: set[EdgeKey] = field(default_factory=set)
    removed: set[EdgeKey] = field(default_factory=set)
    rounds: list[RoundLog] = field(default_factory=list)
    tail: _Tail | None = field(default=None, init=False, repr=False, compare=False)


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
    Rounds after one of ratio exactly 1 are answered by the state's `_Tail`.

    Returns True when an exchange happened; False leaves the state's edges
    and logs untouched.
    """
    pool = frozenset(h.edge_keys - state.added - state.removed)
    if not pool:
        return False
    if dist is None:
        dist = apsp(g)
    eps = Fraction(eps)
    tail = state.tail
    if tail and tail.g is g and tail.dist is dist and tail.eps == eps and pool <= tail.pool:
        plan, tables = tail.plan, tail.tables
        _check_cap(plan.max_level, cell_cap)
        cell = tail.best(pool)
        if cell is None:
            return False
        s, t, length, beta = plan.cell_s[cell], plan.cell_t[cell], plan.cell_len[cell], Fraction(1)
    else:
        tables = fill_tables(g, pool, dist, eps, cell_cap)
        best = select_best_triple(tables)
        if best is None:
            return False
        s, t, length, beta = best
        if beta < 1:
            return False
        state.tail = _Tail(g, eps, tables) if beta == 1 else None
    walk, mset = reconstruct(tables, s, t, length)
    support = frozenset(mset)
    state.added.update(map(edge_key, walk, walk[1:]))
    state.removed |= support
    weight = g.int_weights.__getitem__
    state.rounds.append(
        RoundLog(
            source=s,
            target=t,
            length=length,
            beta=beta,
            walk_weight=length,
            multiset_weight=sum(c * weight(k) for k, c in mset.items()),
            pruned_weight=sum(map(weight, support)),
            pool_weight_remaining=sum(map(weight, pool - support)),
        )
    )
    return True


def prune(
    g: WeightedGraph, h: WeightedGraph, eps, cell_cap: int = DEFAULT_CELL_CAP
) -> tuple[WeightedGraph, PruneState]:
    """One full pruning pass over spanner h of g.

    Rounds repeat until no exchange with ratio >= 1 exists; the result is
    added | (h - removed), a subgraph of g. Requires eps > 0 and g connected
    with positive rational weights; h must be a subgraph of g. The round logs
    give lengths and weights as ints in units of 1/g.scale.
    """
    eps = _positive_eps(eps)
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
        if not prune_round(g, h, state, eps, dist=dist, cell_cap=cell_cap):
            break
        if len(state.removed) <= before:
            raise AssertionError("no progress recorded despite an exchange")
    else:
        raise AssertionError("pruning failed to terminate within |E(h)| rounds")
    state.tail = None  # its values serve only this pass
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
    """Stretch and total weight of one spanner, the weight in units of 1/g.scale."""

    stretch: Fraction
    total_weight: int

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

    Requires eps > 0 and positive rational weights. Returns the final
    spanner (a subgraph of g), a weight/stretch log (entry 0 describes the
    starting spanner; weights in units of 1/g.scale), and the per-pass states.
    """
    eps = _positive_eps(eps)
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
        h1, state = prune(g, h, eps, cell_cap=cell_cap)
        states.append(state)
        logs.append(IterationLog(stretch(g, h1), sum(map(weight, h1.edge_keys))))
        if h1.edge_keys == h.edge_keys:
            break
        h = h1
    return h, logs, states


@dataclass(frozen=True)
class ScalingLog:
    scaled: bool
    iterations: list[IterationLog]
    inner_stretch: Fraction | None = None


def contract_and_round(g: WeightedGraph, eps) -> tuple[WeightedGraph, dict[EdgeKey, EdgeKey]]:
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


def prune_with_scaling(
    g: WeightedGraph, eps, cell_cap: int = DEFAULT_CELL_CAP
) -> tuple[WeightedGraph, ScalingLog]:
    """Weight-range-robust driver.

    With W < n^2/eps this is exactly `iterate_prune`. Otherwise components
    spanned by tiny edges are contracted, weights are rounded down by
    n^2/(W*eps), pruning runs on the contracted graph, and the result is
    expanded and unioned with every original edge of weight at most W/n.
    W and the weights are g's ints in units of 1/g.scale.
    """
    eps = _positive_eps(eps)
    _require_positive(g)
    if not is_connected(g):
        raise ValueError("prune_with_scaling requires a connected graph")
    n = g.n
    weights = g.int_weights
    w_max = max(weights.values(), default=0)
    if w_max < Fraction(n * n) / eps:
        h, logs, _ = iterate_prune(g, eps, cell_cap=cell_cap)
        return h, ScalingLog(scaled=False, iterations=logs)

    contracted, back = contract_and_round(g, eps)
    inner, logs, _ = iterate_prune(contracted, eps, cell_cap=cell_cap)
    inner_stretch = stretch(contracted, inner)
    keep = {back[k] for k in inner.edge_keys}
    keep |= {k for k, w in weights.items() if w * n <= w_max}
    return g.subgraph(keep), ScalingLog(scaled=True, iterations=logs, inner_stretch=inner_stretch)
