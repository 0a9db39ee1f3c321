"""Generators for the benchmark families: ladders, chained ladders, and the
instance on which the greedy algorithm overpays by an unbounded factor."""
from __future__ import annotations

from fractions import Fraction

from .graphs import WeightedGraph, _positive_eps


def ladder_u(i: int) -> int:
    """Vertex index of the i-th left post of a ladder."""
    return i


def ladder_v(n: int, i: int) -> int:
    """Vertex index of the i-th right post of a ladder."""
    return n + 1 + i


def _rung_weights(n: int, eps: Fraction, perturb: bool, scale_index=None):
    """Rung weights, optionally nudged so a weight-ordered scan meets rung 0
    last and still keeps every rung.

    Rung 0 gets 1 - delta and rung i >= 1 gets 1 - delta * (1 + r_i) with
    0 < r_i < eps distinct, so rung 0 is the heaviest, and every detour over
    an already-kept rung exceeds the (1+eps) budget of the rung under
    consideration by an exact positive margin, forcing the scan to keep it.
    Magnitudes stay below eps / (8 n^2).
    """
    if not perturb:
        return [Fraction(1)] * (n + 1)
    delta = eps / (16 * n * n)
    weights = [1 - delta]
    for i in range(1, n + 1):
        r = (scale_index(i) if scale_index else Fraction(i, 2 * n)) * eps
        weights.append(1 - delta * (1 + r))
    return weights


def gen_ladder(n: int, eps, perturb: bool = False) -> WeightedGraph:
    """Two stars of 2n spokes (weight eps/2) joined by n+1 unit rungs.

    The lightest valid spanner keeps the spokes plus the single rung between
    the star centers; a weight-ordered greedy scan can be driven into keeping
    every rung, which `perturb=True` forces deterministically.
    """
    eps = _positive_eps(eps)
    if n < 1:
        raise ValueError("n must be at least 1")
    rungs = _rung_weights(n, eps, perturb)
    spoke = eps / 2
    edges = [(ladder_u(i), ladder_v(n, i), rungs[i]) for i in range(n + 1)]
    for j in range(1, n + 1):
        edges.append((ladder_u(0), ladder_u(j), spoke))
        edges.append((ladder_v(n, 0), ladder_v(n, j), spoke))
    return WeightedGraph(2 * n + 2, tuple(edges), declared_planar=True)


def gen_multiladder(k: int, n: int, eps, perturb: bool = False) -> WeightedGraph:
    """k ladder blocks chained along a unit-weight path s -> ... -> t.

    The path enters each block at its left star center and leaves at its
    right star center; block internals match `gen_ladder`. Vertex count is
    k * (2n + 2) + 2.
    """
    eps = _positive_eps(eps)
    if k < 1 or n < 1:
        raise ValueError("k and n must be at least 1")
    spoke = eps / 2
    s = 0
    t = 1 + k * (2 * n + 2)
    edges: list[tuple[int, int, Fraction]] = []

    def offset(b: int) -> int:
        return 1 + b * (2 * n + 2)

    for b in range(k):
        base = offset(b)
        u = lambda i: base + i
        v = lambda i: base + n + 1 + i
        rungs = _rung_weights(
            n, eps, perturb, scale_index=lambda i, b=b: Fraction(b * (n + 1) + i, 2 * k * (n + 1))
        )
        for i in range(n + 1):
            edges.append((u(i), v(i), rungs[i]))
        for j in range(1, n + 1):
            edges.append((u(0), u(j), spoke))
            edges.append((v(0), v(j), spoke))
    edges.append((s, offset(0), Fraction(1)))
    for b in range(k - 1):
        edges.append((offset(b) + n + 1, offset(b + 1), Fraction(1)))
    edges.append((offset(k - 1) + n + 1, t, Fraction(1)))
    return WeightedGraph(t + 1, tuple(edges), declared_planar=True)


def gen_greedy_hard(eps, x) -> WeightedGraph:
    """Instance on which a greedy (1 + x*eps)-spanner outweighs the best
    (1 + eps)-spanner by more than 1/(8 x^2 eps).

    Two columns of n crossing unit edges, column posts chained by steps of
    weight x*eps, closed by a near-unit shortcut whose two-hop bypass costs
    exactly (1 + x*eps) times the shortcut: the scan drops the shortcut and
    then must pay for every unit crossing. Requires 0 < eps < 1/4 and
    1 <= x <= sqrt(1/eps) / 2.
    """
    eps = Fraction(eps)
    x = Fraction(x)
    if not 0 < eps < Fraction(1, 4):
        raise ValueError("eps must lie in (0, 1/4)")
    if x < 1 or 4 * x * x * eps > 1:
        raise ValueError("x must satisfy 1 <= x <= sqrt(1/eps)/2")
    inv = 1 / x + 1 / (2 * x * x * eps)
    n = 1 + -(-inv.numerator // inv.denominator)  # 1 + ceil(inv)
    step = x * eps
    shortcut = 1 + eps - (n - 1) * step
    if shortcut <= 0:
        raise AssertionError("shortcut weight must be positive in the valid range")
    # x_i -> i-1, y_i -> n+i-1 (1-based i), hub -> 2n
    xs = lambda i: i - 1
    ys = lambda i: n + i - 1
    hub = 2 * n
    edges = [(xs(i), ys(i), Fraction(1)) for i in range(1, n + 1)]
    for i in range(1, n):
        edges.append((xs(i), xs(i + 1), step))
        edges.append((ys(i), ys(i + 1), step))
    half = (1 + step) * shortcut / 2
    edges.append((xs(n), hub, half))
    edges.append((hub, ys(1), half))
    edges.append((xs(n), ys(1), shortcut))
    return WeightedGraph(2 * n + 1, tuple(edges), declared_planar=True)
