"""Exact desk-scale combinatorial solvers.

These serve two roles: subroutines run on sampled or quotient instances
(find a minimum cover of the sample, a maximum packing, a maximum t-cut over
class assignments) and trusted ground truth on hidden instances in tests. No
heuristic ever substitutes silently; every solver either returns a certified
optimum or raises BudgetExceeded.

Tie-breaking: among equal-size optima the covers and packings returned are
the lexicographically smallest (comparing sorted vertex / edge tuples);
max_t_cut returns the first optimum in a fixed canonical enumeration order.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass, fields

from .hypergraph import Edge, Hypergraph, require_integer, require_integers


class BudgetExceeded(Exception):
    """Search exceeded its node or time budget; no answer is implied."""


@dataclass(frozen=True)
class SolverLimits:
    max_branch_nodes: int = 5_000_000
    time_budget_ms: int = 120_000

    def __post_init__(self) -> None:
        for f in fields(self):
            require_integer(f.name, getattr(self, f.name), 0)


DEFAULT_LIMITS = SolverLimits()


class _Search:
    """Node/time accounting shared by one solver call."""

    __slots__ = ("nodes", "limits", "deadline")

    def __init__(self, limits: SolverLimits) -> None:
        self.nodes = 0
        self.limits = limits
        self.deadline = time.monotonic() + limits.time_budget_ms / 1000.0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limits.max_branch_nodes:
            raise BudgetExceeded(f"branch node budget {self.limits.max_branch_nodes} exceeded")
        if self.nodes % 4096 == 0:
            self.check_deadline()

    def check_deadline(self) -> None:
        if time.monotonic() > self.deadline:
            raise BudgetExceeded(f"time budget {self.limits.time_budget_ms} ms exceeded")


def _greedy_disjoint_count(edges: list[Edge]) -> int:
    # maximal set of pairwise-disjoint edges; lower-bounds any hitting set
    used: set[int] = set()
    count = 0
    for e in edges:
        if used.isdisjoint(e):
            used.update(e)
            count += 1
    return count


def _hs_within(edges: list[Edge], budget: int, search: _Search) -> bool:
    """Whether some set of at most `budget` vertices hits every edge.

    Depth-first over the d ways to hit the first edge, with an explicit
    stack: an entry (edges, budget, v) is the child that takes v into the
    set, with the parent's edges and the child's budget.
    """
    stack: list[tuple[list[Edge], int, int]] = []
    while True:
        if not edges:
            return True
        search.tick()
        if budget > 0 and _greedy_disjoint_count(edges) <= budget:
            stack.extend((edges, budget - 1, v) for v in reversed(edges[0]))
        if not stack:
            return False
        parent, budget, v = stack.pop()
        edges = [f for f in parent if v not in f]


def _min_hs(edges: list[Edge], search: _Search) -> tuple[int, ...]:
    if not edges:
        return ()
    # the first feasible size from lb up: the vertices of lb's disjoint edges hit every edge
    lb = _greedy_disjoint_count(edges)
    size = next(s for s in itertools.count(lb) if _hs_within(edges, s, search))
    # lexicographically smallest optimum: extend vertex by vertex
    chosen: list[int] = []
    rem = edges
    budget = size
    prev = -1
    while rem:
        degree: dict[int, int] = {}
        for e in rem:
            for v in e:
                degree[v] = degree.get(v, 0) + 1
        # budget - 1 vertices hit at most (budget - 1) * max degree edges
        reach = (budget - 1) * max(degree.values())
        for v in sorted(degree):
            if v <= prev or len(rem) - degree[v] > reach:
                continue
            rest = [f for f in rem if v not in f]
            if _hs_within(rest, budget - 1, search):
                chosen.append(v)
                rem = rest
                budget -= 1
                prev = v
                break
        else:
            raise AssertionError("lex extension failed; solver bug")
    return tuple(chosen)


def min_hitting_set(h: Hypergraph, limits: SolverLimits = DEFAULT_LIMITS) -> tuple[int, ...]:
    """Minimum-cardinality vertex set meeting every hyperedge."""
    return _min_hs(list(h.edges), _Search(limits))


def has_hitting_set(h: Hypergraph, k: int, limits: SolverLimits = DEFAULT_LIMITS) -> bool:
    """Whether some set of at most k vertices meets every hyperedge."""
    require_integer("k", k, 0)
    return _hs_within(list(h.edges), k, _Search(limits))


def min_vertex_cover(g: Hypergraph, limits: SolverLimits = DEFAULT_LIMITS) -> tuple[int, ...]:
    """Minimum vertex cover of a graph; the d=2 hitting set."""
    if g.d != 2:
        raise ValueError(f"vertex cover needs a graph (d=2), got d={g.d}")
    return _min_hs(list(g.edges), _Search(limits))


def _max_packing(edges: tuple[Edge, ...], search: _Search) -> tuple[Edge, ...]:
    # each edge becomes an int mask over its vertices, relabelled densely in
    # first-seen order; a stack entry (compat, size) is a node whose partial
    # packing is cur[:size], with the indices of the edges compatible with it
    # in canonical order. The include child is pushed last, so it is visited
    # before the exclude child.
    ids: dict[int, int] = {}
    masks = [sum(1 << ids.setdefault(v, len(ids)) for v in e) for e in edges]
    mask_of = masks.__getitem__
    best: list[Edge] = []
    cur: list[Edge] = []
    stack = [(list(range(len(edges))), 0)] if edges else []
    pop, push, tick = stack.pop, stack.append, search.tick
    while stack:
        compat, size = pop()
        del cur[size:]
        tick()
        if not compat:
            continue
        free = functools.reduce(operator.or_, map(mask_of, compat))
        if size + min(len(compat), free.bit_count() // len(edges[0])) <= len(best):
            continue
        j = compat[0]
        rest = compat[1:]
        push((rest, size))
        cur.append(edges[j])
        if len(cur) > len(best):
            best[:] = cur
        mj = masks[j]
        push(([i for i in rest if not masks[i] & mj], size + 1))
    return tuple(best)


def max_set_packing(h: Hypergraph, limits: SolverLimits = DEFAULT_LIMITS) -> tuple[Edge, ...]:
    """Maximum-cardinality family of pairwise-disjoint hyperedges."""
    return _max_packing(h.edges, _Search(limits))


def max_matching(g: Hypergraph, limits: SolverLimits = DEFAULT_LIMITS) -> tuple[Edge, ...]:
    """Maximum matching of a graph; the d=2 packing."""
    if g.d != 2:
        raise ValueError(f"matching needs a graph (d=2), got d={g.d}")
    return _max_packing(g.edges, _Search(limits))


def max_t_cut(
    g: Hypergraph, t: int, limits: SolverLimits = DEFAULT_LIMITS
) -> tuple[tuple[int, ...], int]:
    """Partition of the vertices into at most t parts maximizing crossing edges.

    Exact search over the non-isolated vertices with canonical part labels
    (part ids appear in first-use order); isolated vertices go to part 0.
    Splitting a part never hurts, so "at most t parts" is the right objective.
    """
    if g.d != 2:
        raise ValueError(f"t-cut needs a graph (d=2), got d={g.d}")
    require_integers(t=t)
    if t < 2:
        raise ValueError("need at least two parts")
    edges = g.edges
    if not edges:
        return tuple([0] * g.n), 0
    active = sorted({v for e in edges for v in e})
    pos = {v: i for i, v in enumerate(active)}
    na = len(active)
    back = [[] for _ in range(na)]  # neighbors at smaller position
    for u, v in edges:
        i, j = pos[u], pos[v]
        back[max(i, j)].append(min(i, j))
    suffix = [0] * (na + 1)
    for i in range(na - 1, -1, -1):
        suffix[i] = suffix[i + 1] + len(back[i])

    search = _Search(limits)
    assign = [0] * na
    best_cut = -1
    best_assign: list[int] | None = None
    # depth-first with an explicit stack, parts in increasing order: an entry
    # (i, used, cut, part) is the node at position i below the assignment
    # `part` of position i - 1, with `used` parts and `cut` crossing edges
    stack = [(0, 0, 0, 0)]
    pop, push, tick = stack.pop, stack.append, search.tick
    while stack:
        i, used, cut, part = pop()
        if i:
            assign[i - 1] = part
        tick()
        if cut + suffix[i] <= best_cut:
            continue
        if i == na:
            best_cut = cut
            best_assign = assign.copy()
            continue
        # positions below i keep their parts until every child here is visited
        near = [assign[j] for j in back[i]]
        for part in range(min(used + 1, t) - 1, -1, -1):
            push((i + 1, used + (part == used), cut + len(near) - near.count(part), part))
    assert best_assign is not None
    parts = [0] * g.n
    for v, i in pos.items():
        parts[v] = best_assign[i]
    return tuple(parts), best_cut


@dataclass(frozen=True)
class DegreeProfile:
    """Vertices split at degree 20k, and the edges avoiding the high side."""

    k: int
    high_threshold: int
    v_high: tuple[int, ...]
    v_low: tuple[int, ...]
    e_low: tuple[Edge, ...]


def degree_profile(g: Hypergraph, k: int) -> DegreeProfile:
    if g.d != 2:
        raise ValueError(f"degree profile needs a graph (d=2), got d={g.d}")
    require_integer("k", k, 0)
    threshold = 20 * k
    deg = g.degrees()
    v_high = tuple(v for v in range(g.n) if deg[v] >= threshold)
    high = set(v_high)
    v_low = tuple(v for v in range(g.n) if v not in high)
    e_low = tuple(e for e in g.edges if e[0] not in high and e[1] not in high)
    return DegreeProfile(
        k=k, high_threshold=threshold, v_high=v_high, v_low=v_low, e_low=e_low
    )


def representative_family(
    h: Hypergraph, k: int, limits: SolverLimits = DEFAULT_LIMITS
) -> tuple[Edge, ...]:
    """Sub-family preserving, for every vertex set X with |X| <= k, the
    existence of an edge avoiding X.

    Greedy deletion over the canonical edge order: an edge e stays only when
    some X of at most k vertices, disjoint from e, hits every other kept edge,
    that is when the petals f - e of the other kept edges f have a hitting set
    of size <= k. So every X keeps an avoider at every step, and the surviving
    family is irredundant, which caps its size at C(k+d, d). The petal search
    counts its nodes against the limits, and the time budget is also checked
    once per edge.
    """
    require_integer("k", k, 0)
    search = _Search(limits)
    kept = list(h.edges)
    for e in h.edges:
        search.check_deadline()
        petals = [tuple(v for v in f if v not in e) for f in kept if f != e]
        if not _hs_within(petals, k, search):
            kept.remove(e)
    return tuple(kept)
