"""Iterative pruning of a spanner: exchange heavy hanging edges for light walks.

One pruning pass repeatedly searches, over all vertex pairs (s, t) and every
length L up to (1+eps) times the s-t distance, for a walk of weight exactly L
on which a heavy multiset of current spanner edges "hangs" (each edge admits
a nearby detour through a sub-walk covering a constant fraction of its
weight). The best walk-to-multiset weight ratio is realised via a table
of numbered (source, target, length) cells, each with the join it picked;
the walk is added, and the hanging edges are dropped. Which cells exist and
how they join depends only on the distances and eps, so that plan is built
once per distance oracle and eps; each round only recomputes the values.
Passes are repeated a number of times governed by the iterated logarithm of
1/eps.
Weights may be any nonnegative rationals: lengths, distances and the weights
in the logs are the graph's ints, in units of 1/scale (see `graphs`). The
public entries prune over the zero-weight quotient (see `_zero_quotient`).
"""
from __future__ import annotations

import warnings
from bisect import insort
from collections import Counter, defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .graphs import (
    INF,
    DistanceOracle,
    EdgeKey,
    WeightedGraph,
    _positive_eps,
    apsp,
    edge_key,
    format_rational,
    is_connected,
    quotient,
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
    pool: frozenset[EdgeKey], dist: DistanceOracle, eps
) -> dict[tuple[int, int], frozenset[EdgeKey]]:
    """For every ordered pair (s, t), the pool edges hanging at exactly the
    endpoints of the canonical shortest s-t path.

    An edge (a, b) of weight w qualifies when dist(s, t) >= kappa * w and the
    better orientation satisfies dist(a, s) + dist(s, t) + dist(t, b)
    <= (1 + eps) * w. The result is symmetric in (s, t). `dist` is the
    oracle of the graph, whose int weights it carries: the pairs at which an
    edge hangs do not depend on the pool, so they are found once per edge
    and kept on the plan of (dist, eps). No join of the plan is built here.
    """
    eps = Fraction(eps)
    plan = _plan(dist, eps)
    hangs_at = plan.hangs_at
    members: dict[tuple[int, int], list[EdgeKey]] = {}
    for k in pool:
        at = hangs_at.get(k)
        if at is None:
            at = hangs_at[k] = _hanging_pairs(k, dist.int_weights[k], dist, eps)
        for pair in at:
            members.setdefault(pair, []).append(k)
    out = plan.none_hang.copy()
    for (s, t), keys in members.items():
        out[(s, t)] = out[(t, s)] = frozenset(keys)
    return out


def _hanging_pairs(edge: EdgeKey, w: int, dist: DistanceOracle, eps: Fraction) -> tuple:
    """The pairs (s, t), s < t, at whose endpoints `edge`, of int weight w,
    hangs; ascending."""
    a, b = edge
    kappa = hanging_kappa(eps)
    stretch_bound = 1 + eps
    # distances are ints in units of 1/scale, so d >= kappa*w holds exactly
    # when d >= ceil(kappa*w) and lhs <= (1+eps)*w when lhs <= floor((1+eps)*w)
    need = -(-kappa.numerator * w // kappa.denominator)
    budget = stretch_bound.numerator * w // stretch_bound.denominator
    # a pair with d >= need and a detour within budget has both endpoints
    # within budget - need of a or of b, so in one component with the edge
    reach = budget - need
    row_a, row_b = dist.row(a), dist.row(b)
    near = [v for v in range(dist.n) if row_a[v] <= reach or row_b[v] <= reach]
    out = []
    for i, s in enumerate(near):
        dist_s = dist.row(s)
        for t in near[i + 1 :]:
            d = dist_s[t]
            if d < need:
                continue
            dist_t = dist.row(t)
            if dist_s[a] + d + dist_t[b] <= budget or dist_s[b] + d + dist_t[a] <= budget:
                out.append((s, t))
    return tuple(out)


def _zero_quotient(g: WeightedGraph, h: WeightedGraph):
    """None when g has no zero weight. Else the quotient q of g by its
    zero-weight edges (`graphs.quotient`), the image of h in q (each h-edge
    between two components becomes q's edge between them) and the lift of
    a spanner of q to g: the g-edge each of its edges stands for, plus
    every zero-weight edge. Zero edges weigh nothing and keep every
    distance, so the lift has the spanner's weight and its stretch in q."""
    zeros = [k for k, w in g.int_weights.items() if w == 0]
    if not zeros:
        return None
    q, label, back = quotient(g, zeros)
    image = q.subgraph({edge_key(label[u], label[v]) for u, v in h.edge_keys if label[u] != label[v]})
    return q, image, lambda hq: g.subgraph({back[k] for k in hq.edge_keys}.union(zeros))


def _warn_if_large(eps: Fraction, warned: bool) -> None:
    """Unless `warned`, warn at the caller of the public entry calling this when eps > 1/100."""
    if eps > Fraction(1, 100) and not warned:
        msg = f"eps={eps} is above 1/100; the pruning guarantees are calibrated for smaller values"
        warnings.warn(msg, stacklevel=3)


_UNPICKED = -2  # a cell's pick, until it is requested


class _WalkPlan:
    """All that pruning derives from one (oracle, eps); the oracle keeps it
    (see `_plan`). `pairs` lists the connected pairs s < t, ascending;
    `bound[s][t]` is floor((1+eps) * dist(s, t)), -1 when t == s or t is
    unreachable, and `max_level` the largest. `hangs_at` maps each edge met
    so far to the pairs at which it hangs, and `none_hang` every ordered
    pair to the empty set. Which cells are realizable, and through which
    joins, depends only on the distances and eps, so `join` builds them
    once (`cells_of` is None until then) and every pool re-evaluates them.
    Cells are numbered in the order they are finalised: the empty walk at
    each vertex first, then by ascending length and pair. A round's values
    live in one list: index 0 holds 0, index 1 + i the endpoint hanging
    weight of `pairs[i]` (in both orders; the pair (s, t) has key s*n + t,
    and `slot[key]` is its 1 + i), and index `offset + c` the value of cell
    c. Join j of a cell adds the values at `join_left[j]` and `join_right[j]`
    (its two halves) and at `join_bonus[j]` (the cell's pair when the join
    collects its endpoint hanging set, else 0); each cell's joins are in
    (via, left length) order. The join fields and `join_start` are lists,
    not `array`s: every value pass reads every join, and reading an array
    entry builds a new int each time, where a list returns the one it
    holds. All joins that use a cell share one int for its value index.
    It picks no join: `WalkTables.pick` finds each on request.

    Only canonical cells (s < t) store joins. `mirror[c]` is the twin
    (t, s, L) of cell c (a diagonal cell is its own); a reversed cell's
    join range is empty, and its joins are its twin's read backwards (see
    `joins` and `halves`), so it has its twin's value under every pool.
    """

    def __init__(self, dist: DistanceOracle, eps: Fraction):
        self.n = n = dist.n
        p, q = eps.numerator, eps.denominator
        self.pairs = pairs = []
        self.bound = bound = [[-1] * n for _ in range(n)]
        for s in range(n):
            row = dist.row(s)
            for t in range(s + 1, n):
                if row[t] is not INF:
                    pairs.append((s, t))
                    bound[s][t] = bound[t][s] = (p + q) * row[t] // q
        self.max_level = max(0, max(map(max, bound), default=0))
        self.slot = slot = [0] * (n * n)  # key -> index of the pair's hanging weight
        for i, (s, t) in enumerate(pairs, 1):
            slot[s * n + t] = slot[t * n + s] = i
        self.offset = 1 + len(pairs)
        self.none_hang = dict.fromkeys((pair for s, t in pairs for pair in ((s, t), (t, s))), frozenset())
        self.hangs_at: dict[EdgeKey, tuple] = {}
        self.cells_of = None

    def join(self, dist: DistanceOracle) -> None:
        """Number the realizable cells and build the joins of the canonical
        ones; weights must be positive. A canonical cell (s, t, L) writes
        its joins as it is numbered, by via z and then length l of (s, z),
        both ascending, wherever (z, t) has a cell of length L - l: both
        halves are shorter, so already numbered, and need no sort."""
        n, slot, offset, bound = self.n, self.slot, self.offset, self.bound
        rows = [dist.row(s) for s in range(n)]
        # pair -> {length: cell}, lengths ascending
        self.cells_of = cells_of = {(s, s): {0: s} for s in range(n)}
        self.cell_s = cell_s = list(range(n))
        self.cell_t = cell_t = list(range(n))
        self.cell_len = cell_len = [0] * n
        self.base = base = [0] * n  # value index of a base cell's value, -1 for a join-only cell
        self.mirror = mirror = list(range(n))
        self.join_start = join_start = [0] * (n + 1)  # cell c: joins join_start[c]:join_start[c+1]
        self.join_left, self.join_right, self.join_bonus = join_left, join_right, join_bonus = [], [], []
        add_left, add_right, add_bonus = join_left.append, join_right.append, join_bonus.append
        index = [offset + c for c in range(n)]  # cell -> its value index, one int shared by its joins
        at = [None] * (n * n)  # key -> the pair's dict in cells_of, the diagonal's set now
        at[:: n + 1] = cells_of.values()

        # only occupied levels are visited: base lengths, plus each length
        # that some new cell reaches with a finalised one
        reach: dict[int, set[int]] = defaultdict(set)  # length -> canonical keys with a cell there
        for s, t in self.pairs:
            reach[rows[s][t]].add(s * n + t)
        levels = list(reach)
        heapify(levels)
        # partners of finalised cells, ascending: ends[t] holds each s with a
        # cell from s to t, starts[s] each such t; a pair's first cell is its base
        ends: list[list[int]] = [[] for _ in range(n)]
        starts: list[list[int]] = [[] for _ in range(n)]
        while levels:
            level = heappop(levels)
            top = 1 << (level.bit_length() - 1)
            canonical = reach.pop(level)
            # a cell's twin is realizable at the same length, and numbered
            # after it: its key t*n + s is the larger
            for key in sorted([*canonical, *[k % n * n + k // n for k in canonical]]):
                s, t = pair = divmod(key, n)
                c = len(cell_len)
                if at[key] is None:
                    at[key] = cells_of[pair] = {}
                    insort(starts[s], t)
                    insort(ends[t], s)
                at[key][level] = c
                cell_s.append(s)
                cell_t.append(t)
                cell_len.append(level)
                row_s, row_t = rows[s], rows[t]
                base.append(slot[key] if row_s[t] == level else -1)
                index.append(offset + c)
                if s < t:
                    mirror.append(c)  # until its twin is numbered
                    bonus, low = slot[key], level - top
                    for z in starts[s]:
                        right_at = at[z * n + t]
                        if right_at is None or z == t or row_s[z] + row_t[z] > level:
                            continue
                        lim = level - row_t[z]
                        for l, left in at[key - t + z].items():
                            if l > lim:
                                break
                            right = right_at.get(level - l)
                            if right is not None:
                                add_left(index[left])
                                add_right(index[right])
                                add_bonus(bonus if low < l < top else 0)
                else:
                    twin = at[t * n + s][level]
                    mirror.append(twin)
                    mirror[twin] = c
                join_start.append(len(join_left))
                # record the canonical cells the new cell reaches with the
                # finalised cells of each partner pair, up to the bound; a
                # partner's lengths ascend from its distance
                for x in ends[s]:
                    if x >= t:
                        break
                    lim = bound[t][x] - level
                    if row_s[x] > lim:
                        continue
                    out = x * n + t
                    for l in at[x * n + s]:
                        if l > lim:
                            break
                        keys = reach[l + level]
                        if not keys:  # a length first reached
                            heappush(levels, l + level)
                        keys.add(out)
                for y in reversed(starts[t]):
                    if y <= s:
                        break
                    lim = bound[s][y] - level
                    if row_t[y] > lim:
                        continue
                    out = s * n + y
                    for l in at[t * n + y]:
                        if l > lim:
                            break
                        keys = reach[l + level]
                        if not keys:  # a length first reached
                            heappush(levels, l + level)
                        keys.add(out)

        # canonical cells in (s, t, L) order; a reversed cell ties its twin
        # and comes after it, so no selection picks it
        self.by_pair = [c for pair in sorted(cells_of) if pair[0] < pair[1] for c in cells_of[pair].values()]

    def joins(self, c: int):
        """The joins of cell c in its order: its own, or for a reversed cell
        its twin's with via ascending and, within each via, from last to
        first (its own left length ascending). Read them through `halves`."""
        start, twin = self.join_start, self.mirror[c]
        if twin >= c:
            return range(start[c], start[c + 1])
        jl, cell_t, offset = self.join_left, self.cell_t, self.offset
        return sorted(range(start[twin], start[twin + 1]), key=lambda j: (cell_t[jl[j] - offset], -j))

    def halves(self, c: int, j: int) -> tuple[int, int]:
        """The value indices of the left and right halves of join j of cell
        c; a reversed cell swaps its twin's halves and mirrors them."""
        left, right = self.join_left[j], self.join_right[j]
        if self.mirror[c] >= c:
            return left, right
        offset, mirror = self.offset, self.mirror
        return offset + mirror[right - offset], offset + mirror[left - offset]

    def evaluate(self, hanging: list[int]) -> list[int]:
        """The round's value list (see the class docstring) for the endpoint
        hanging weights of `pairs`. It picks no join: `WalkTables.pick`
        finds a cell's pick from these values when a walk needs it.

        A canonical cell's value is the largest of its base value and its
        join sums. A reversed cell copies its twin's value: the same base
        slot, mirrored halves, and a bonus test symmetric in the split."""
        offset, base, start, mirror = self.offset, self.base, self.join_start, self.mirror
        jl, jr, jb = self.join_left, self.join_right, self.join_bonus
        n_cells = len(base)
        values = [0, *hanging, *[0] * n_cells]
        for c in range(n_cells):
            twin = mirror[c]
            if twin < c:
                values[offset + c] = values[offset + twin]
                continue
            b = base[c]
            best = values[b] if b >= 0 else -1
            for j in range(start[c], start[c + 1]):
                v = values[jl[j]] + values[jr[j]] + values[jb[j]]
                if v > best:
                    best = v
            values[offset + c] = best
        return values


def _plan(dist: DistanceOracle, eps: Fraction) -> _WalkPlan:
    """The plan of (dist, eps), made on first use and kept on the oracle."""
    plan = dist.memo.get(("walk-plan", eps))
    if plan is None:
        plan = dist.memo[("walk-plan", eps)] = _WalkPlan(dist, eps)
    return plan


def _joined_plan(dist: DistanceOracle, eps: Fraction, cap: int) -> _WalkPlan:
    """The plan of (dist, eps) with its joins, built on first use. Every use
    checks that the weights are positive and that the length range fits the
    per-pair cell cap, so no join is built unless both hold."""
    if not dist.all_positive:
        raise ValueError("pruning requires strictly positive weights")
    plan = _plan(dist, eps)
    if plan.max_level + 1 > cap:
        raise CellCapError(
            f"length range {plan.max_level + 1} exceeds the per-pair cell cap {cap}; "
            "pass cell_cap (--cell-cap) to override"
        )
    if plan.cells_of is None:
        plan.join(dist)
    return plan


class WalkTables:
    """The walk tables of one round: the plan's numbered cells, the round's
    `values` (indexed as in `_WalkPlan`) and each cell's picked join, read
    through `pick`, which caches them in the list `picks` (`_UNPICKED`
    until found; a ratio-1 `_Tail` writes the picks of the cells it finds
    intact there).

    For a pair (s, t), cells exist for integer lengths L up to
    (1+eps) * dist(s, t); a cell is realizable when a walk of weight exactly
    L exists that is derivable from shortest paths by concatenation. Each
    realizable cell's value is the heaviest multiset weight of pool edges
    hanging on its walk that the join rule can certify. `entries` maps each
    pair to its cells (length -> cell number).
    """

    def __init__(self, dist, pool, anchored, plan: _WalkPlan, values):
        self.dist, self.pool, self.anchored = dist, pool, anchored
        self.plan, self.values = plan, values
        self.picks = [_UNPICKED] * len(plan.base)
        self.entries, self.max_level = plan.cells_of, plan.max_level

    def pick(self, c: int) -> int:
        """The join cell c picked (-1: the base cell, whose walk is the
        canonical shortest path); read its halves with `plan.halves`. It is
        found on first request, for canonical and reversed cells alike: the
        first of the cell's contributors, the base and then `plan.joins(c)`,
        that reaches its value. So ties go to the base cell, then to the
        smallest (via, left length) of the cell's own joins."""
        j = self.picks[c]
        if j == _UNPICKED:
            plan, values = self.plan, self.values
            jl, jr, jb = plan.join_left, plan.join_right, plan.join_bonus
            target, b = values[plan.offset + c], plan.base[c]
            if b >= 0 and values[b] == target:
                j = -1
            else:
                j = next(j for j in plan.joins(c) if values[jl[j]] + values[jr[j]] + values[jb[j]] == target)
            self.picks[c] = j
        return j


def fill_tables(
    pool: frozenset[EdgeKey],
    dist: DistanceOracle,
    eps,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> WalkTables:
    """Fill the (source, target, length) tables for one pruning round.

    `dist` is the oracle of the graph, and the tables read its int weights
    only. Lengths, distances and values are ints in units of 1/scale, so the
    graph may carry any positive rational weights; a zero weight raises
    ValueError before any join is built. Base cells sit at L = dist(s, t)
    with value equal to the weight of the endpoint hanging set. A cell
    (s, t, L) is realizable through a join when some via vertex z and split
    0 < L' < L have both sub-cells realizable; its value maximises
    left + right, plus the endpoint hanging weight of (s, t) whenever
    max(L', L - L') is below the largest power of two not above L. Which
    cells exist and how they join is planned once per (dist, eps); each
    round only re-evaluates the plan, in ascending length order, for the
    pool's hanging weights. Only the canonical cells (s < t) are evaluated:
    (t, s, L) joins the mirrored halves of (s, t, L) under the same bonus
    test, so it takes its twin's value. Every pick is found on request.
    """
    eps = _positive_eps(eps)
    plan = _joined_plan(dist, eps, cell_cap)
    anchored = endpoint_hanging_sets(pool, dist, eps)
    weight = dist.int_weights.__getitem__
    values = plan.evaluate([sum(map(weight, anchored[pair])) for pair in plan.pairs])
    return WalkTables(dist, pool, anchored, plan, values)


def select_best_triple(tables: WalkTables):
    """Realizable (s, t, L) with L >= 1 maximising value / L.

    Ties take the lexicographically smallest (s, t, L); at ratio exactly 1
    this drains the pool through the cheapest self-exchanges first instead of
    letting a longer walk trade structure away for no weight gain. Only the
    canonical cells are scanned: (t, s, L) has the value of (s, t, L) and
    comes after it, so it never wins. Returns (s, t, L, ratio) with s < t,
    or None when every value is zero.
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
    multiplicity) of a realizable cell, in one in-order pass over its picks
    (`tables.pick`, which finds each on first request): a join
    adds the pair's endpoint hanging set when it collects it, then its left
    and right halves (`plan.halves`); a base cell appends its canonical path and
    adds its endpoint hanging set. A sub-cell met twice is expanded twice,
    once per place on the walk. The walk weighs exactly `length` in units of
    1/scale of the oracle; the multiset weight is the cell value.
    """
    root = tables.entries.get((s, t), {}).get(length)
    if root is None:
        raise ValueError(f"cell {(s, t, length)} is not realizable")
    plan, dist, anchored = tables.plan, tables.dist, tables.anchored
    offset, cell_s, cell_t = plan.offset, plan.cell_s, plan.cell_t
    walk, mset = [s], Counter()
    # a diagonal cell is the walk at s alone; no join reaches one, so every
    # other leaf is a base cell with s != t
    stack = [root] if s != t else []
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
    weight = dist.int_weights
    if sum(weight[edge_key(a, b)] for a, b in zip(walk, walk[1:])) != length:
        raise AssertionError(f"walk of cell {(s, t, length)} does not weigh {length}")
    return tuple(walk), mset


class RoundLog(NamedTuple):
    """One exchange; its length and weights are ints in units of 1/g.scale."""

    source: int
    target: int
    length: int
    beta: Fraction
    multiset_weight: int
    pruned_weight: int
    pool_weight_remaining: int

    def as_dict(self) -> dict:
        return {
            "s": self.source,
            "t": self.target,
            "L": self.length,
            "beta": format_rational(self.beta),
            "rho_weight": self.length,  # the walk weighs its cell's length
            "multiset_weight": self.multiset_weight,
            "pruned_weight": self.pruned_weight,
            "pool_weight_remaining": str(self.pool_weight_remaining),
        }


class _Tail:
    """The rounds of a pass after one of best ratio exactly 1, answered from
    that round's values v0. The pool only shrinks, so values only fall: the
    best cell is the first canonical cell, in (s, t, L) order, with v0 = L
    whose value is still v0 (intact). That holds when some contributor tight
    in v0 (the base, then `plan.joins(c)`) has all terms intact, and the
    first such is the value pass's pick; a reversed cell met on the way is
    decided over its own contributors. Weights are positive, so a pair's
    hanging weight leaves v0 exactly when a departed pool edge hangs there;
    the other pairs keep the reference round's `anchored` sets. A broken
    cell stays broken for the pass. Valid for the same plan, which is one
    per (oracle, eps), and a pool within the last. The reference round's
    `tables` answer the walks: the tail writes the pick of each cell it
    finds intact into their pick cache, over any pick found before.
    """

    def __init__(self, tables: WalkTables):
        plan, values = tables.plan, tables.values
        self.tables, self.plan, self.pool = tables, plan, tables.pool
        self.values, self.picks = values, tables.picks
        self.cands = [c for c in plan.by_pair if values[plan.offset + c] == plan.cell_len[c]]
        self.cursor = 0  # cands before it are broken
        self.broken = bytearray(len(values))  # by value index

    def best(self, pool: frozenset) -> int | None:
        """The cell the value pass would select for `pool`, or None when no
        cell keeps ratio 1."""
        broken, slot, n = self.broken, self.plan.slot, self.plan.n
        hangs_at = self.plan.hangs_at  # filled by the reference round
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
        offset, base, mirror = plan.offset, plan.base, plan.mirror
        jl, jr, jb = plan.join_left, plan.join_right, plan.join_bonus
        stack = [[root, None, 0]]  # value index, its joins once the base failed, position to resume at
        while stack:
            frame = stack[-1]
            x, joins, i = frame
            c, target = x - offset, v0[x]
            if joins is None:
                b = base[c]
                if b >= 0 and v0[b] == target and not broken[b]:
                    picks[c] = -1
                    intact.add(x)
                    stack.pop()
                    continue
                joins = frame[1] = plan.joins(c)
            for i in range(i, len(joins)):
                j = joins[i]
                left, right, bonus = jl[j], jr[j], jb[j]
                if v0[left] + v0[right] + v0[bonus] != target:
                    continue
                if mirror[c] < c:
                    left, right = plan.halves(c, j)
                if broken[left] or broken[right] or broken[bonus]:
                    continue
                if left in intact and right in intact:
                    picks[c] = j
                    intact.add(x)
                    stack.pop()
                else:  # decide the undecided half first, then resume at this join
                    frame[2] = i
                    stack.append([right if left in intact else left, None, 0])
                break
            else:
                broken[x] = 1
                stack.pop()
        return root in intact


class PruneState:
    """Edge bookkeeping across the rounds of one pruning pass.

    `added` collects walk edges (a subset of the host graph's edges),
    `removed` collects pruned spanner edges; the pass result is
    added | (spanner - removed). `removed` grows strictly every round,
    which bounds the number of rounds by the spanner size. `tail` carries
    the values of the pass's last ratio-1 round that needed a value pass.
    A mutable value: two states are equal when their `added`, `removed`
    and `rounds` are; `tail` is set by the rounds only, and is left out of
    equality and the repr.
    """

    def __init__(self):
        self.added: set[EdgeKey] = set()
        self.removed: set[EdgeKey] = set()
        self.rounds: list[RoundLog] = []
        self.tail: _Tail | None = None

    def __eq__(self, other):  # defining it leaves the state unhashable, as it is mutable
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.added, self.removed, self.rounds) == (other.added, other.removed, other.rounds)

    def __repr__(self):
        return f"PruneState(added={self.added!r}, removed={self.removed!r}, rounds={self.rounds!r})"


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
    eps = _positive_eps(eps)
    tail = state.tail
    if tail and tail.plan is _plan(dist, eps) and pool <= tail.pool:
        plan, tables = _joined_plan(dist, eps, cell_cap), tail.tables
        cell = tail.best(pool)
        if cell is None:
            return False
        s, t, length, beta = plan.cell_s[cell], plan.cell_t[cell], plan.cell_len[cell], Fraction(1)
    else:
        tables = fill_tables(pool, dist, eps, cell_cap)
        best = select_best_triple(tables)
        if best is None:
            return False
        s, t, length, beta = best
        if beta < 1:
            return False
        state.tail = _Tail(tables) if beta == 1 else None
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
            multiset_weight=sum(c * weight(k) for k, c in mset.items()),
            pruned_weight=sum(map(weight, support)),
            pool_weight_remaining=sum(map(weight, pool - support)),
        )
    )
    return True


def prune(
    g: WeightedGraph, h: WeightedGraph, eps, cell_cap: int = DEFAULT_CELL_CAP, *, _warned: bool = False
) -> tuple[WeightedGraph, PruneState]:
    """One full pruning pass over spanner h of g.

    Rounds repeat until no exchange with ratio >= 1 exists; the result is
    added | (h - removed), a subgraph of g. Requires eps > 0 and g connected
    with nonnegative rational weights; h must be a subgraph of g. When g has
    zero-weight edges, the pass runs on the image of h in g's zero-weight
    quotient and returns its lift (see `_zero_quotient`): the state's edges
    and the logs' vertices are the quotient's. The round logs give lengths
    and weights as ints in units of 1/g.scale. `iterate_prune` passes `_warned`.
    """
    eps = _positive_eps(eps)
    if not is_connected(g):
        raise ValueError("prune requires a connected graph")
    if not h.is_subgraph_of(g):
        raise ValueError("h must be a subgraph of g")
    _warn_if_large(eps, _warned)
    g, h, lift = _zero_quotient(g, h) or (g, h, None)
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
    h1 = g.subgraph(state.added | (h.edge_keys - state.removed))
    return (lift(h1) if lift else h1), state


def log_star_ceil(x) -> int:
    """Iterations of ceil(log2) needed to drive ceil(x) down to 1."""
    x = Fraction(x)
    v = -(-x.numerator // x.denominator)
    count = 0
    while v > 1:
        v = (v - 1).bit_length()
        count += 1
    return count


class IterationLog(NamedTuple):
    """Stretch and total weight of one spanner, the weight in units of 1/g.scale."""

    stretch: Fraction
    total_weight: int

    def as_dict(self) -> dict:
        return {"stretch": format_rational(self.stretch), "total_weight": str(self.total_weight)}


def iterate_prune(
    g: WeightedGraph,
    eps,
    initial_spanner: WeightedGraph | None = None,
    cell_cap: int = DEFAULT_CELL_CAP,
    *,
    _warned: bool = False,
) -> tuple[WeightedGraph, list[IterationLog], list[PruneState]]:
    """Driver: start from a greedy (1+eps)-spanner (or a caller-provided one)
    and run pruning passes until a pass changes nothing, capped at
    log*(1/eps) + 2 passes.

    Requires eps > 0 and nonnegative rational weights; with zero weights,
    all passes run on one zero-weight quotient, as in `prune`. Returns the
    final spanner (a subgraph of g), a weight/stretch log (entry 0 describes
    the starting spanner, or its image in the quotient; weights in units of
    1/g.scale), and the per-pass states. `prune_with_scaling` passes `_warned`.
    """
    eps = _positive_eps(eps)
    if not is_connected(g):
        raise ValueError("iterate_prune requires a connected graph")
    if initial_spanner is None:
        h = greedy_spanner(g, 1 + eps)
    else:
        if not initial_spanner.is_subgraph_of(g):
            raise ValueError("initial spanner must be a subgraph of g")
        h = initial_spanner
    _warn_if_large(eps, _warned)
    g, h, lift = _zero_quotient(g, h) or (g, h, None)
    weight = g.int_weights.__getitem__
    logs = [IterationLog(stretch(g, h), sum(map(weight, h.edge_keys)))]
    states: list[PruneState] = []
    passes = log_star_ceil(1 / eps) + 2
    for _ in range(passes):
        h1, state = prune(g, h, eps, cell_cap=cell_cap, _warned=True)
        states.append(state)
        if h1.edge_keys == h.edge_keys:
            logs.append(logs[-1])  # the same spanner: no stretch to recompute
            break
        logs.append(IterationLog(stretch(g, h1), sum(map(weight, h1.edge_keys))))
        h = h1
    return (lift(h) if lift else h), logs, states


class ScalingLog(NamedTuple):
    iterations: list[IterationLog]
    inner_stretch: Fraction | None = None  # None: the weights needed no contraction


def contract_and_round(g: WeightedGraph, eps) -> tuple[WeightedGraph, dict[EdgeKey, EdgeKey]]:
    """Contract components spanned by edges lighter than eps*W/n^2 (and by
    zero-weight ones, when W = 0) and round the surviving weights to
    floor(w * n^2 / (W * eps)).

    Weights w and W are g's ints in units of 1/g.scale; with eps = p/q the
    test and the rounding are on ints too. The contraction is
    `graphs.quotient`: it numbers the contracted vertices, and its back-map,
    returned with the rounded graph, names the lightest original edge (ties
    by key) for each contracted pair. Rounding never decreases as w grows,
    so that edge also has the smallest rounded weight.
    """
    eps = _positive_eps(eps)
    n = g.n
    weights = g.int_weights
    w_max = max(weights.values(), default=0)
    # w < eps*W/n^2 is w*num < den, and floor(w*n^2/(W*eps)) is w*num // den
    num, den = eps.denominator * n * n, w_max * eps.numerator
    q, _, back = quotient(g, [k for k, w in weights.items() if not w or w * num < den])
    rounded = tuple((a, b, w * num // den) for (a, b), w in q.int_weights.items())
    return WeightedGraph(q.n, rounded), back


def prune_with_scaling(
    g: WeightedGraph, eps, cell_cap: int = DEFAULT_CELL_CAP
) -> tuple[WeightedGraph, ScalingLog]:
    """Weight-range-robust driver.

    With W < n^2/eps this is exactly `iterate_prune`. Otherwise components
    spanned by tiny or zero-weight edges are contracted
    (`contract_and_round`), weights are rounded down by
    n^2/(W*eps), pruning runs on the contracted graph, and the result is
    expanded and unioned with every original edge of weight at most W/n.
    W and the weights are g's ints in units of 1/g.scale.
    """
    eps = _positive_eps(eps)
    if not is_connected(g):
        raise ValueError("prune_with_scaling requires a connected graph")
    _warn_if_large(eps, False)
    n = g.n
    weights = g.int_weights
    w_max = max(weights.values(), default=0)
    if w_max * eps.numerator < n * n * eps.denominator:
        h, logs, _ = iterate_prune(g, eps, cell_cap=cell_cap, _warned=True)
        return h, ScalingLog(iterations=logs)

    contracted, back = contract_and_round(g, eps)
    inner, logs, _ = iterate_prune(contracted, eps, cell_cap=cell_cap, _warned=True)
    # the last log entry is the stretch of the spanner iterate_prune returns
    keep = {back[k] for k in inner.edge_keys}
    keep |= {k for k, w in weights.items() if w * n <= w_max}
    return g.subgraph(keep), ScalingLog(iterations=logs, inner_stretch=logs[-1].stretch)
