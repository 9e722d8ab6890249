"""Independent brute-force references used as test oracles.

Everything here enumerates; nothing shares code with the solvers under test.
"""

from __future__ import annotations

import itertools
import math

from qclab.coloring import classes
from qclab.hypergraph import Hypergraph
from qclab.sampler import QuotientInstance, SampledSubgraph


def brute_min_cover(h: Hypergraph) -> tuple[int, ...]:
    """Smallest vertex set meeting every edge, by subset enumeration."""
    for size in range(0, h.n + 1):
        for cand in itertools.combinations(range(h.n), size):
            s = set(cand)
            if all(s.intersection(e) for e in h.edges):
                return cand
    raise AssertionError("unreachable: the full vertex set always covers")


def brute_max_packing(h: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Largest family of pairwise-disjoint edges, by edge-subset enumeration."""
    best: tuple = ()
    m = h.m
    for size in range(m, 0, -1):
        if size <= len(best):
            break
        for cand in itertools.combinations(h.edges, size):
            seen: set[int] = set()
            ok = True
            for e in cand:
                if seen.intersection(e):
                    ok = False
                    break
                seen.update(e)
            if ok:
                return cand
    return best


def brute_max_disjoint_sets(sets) -> int:
    """Largest pairwise-disjoint subfamily of arbitrary vertex sets."""
    sets = [frozenset(s) for s in sets]
    best = 0
    for size in range(len(sets), 0, -1):
        if size <= best:
            break
        for cand in itertools.combinations(sets, size):
            seen: set[int] = set()
            ok = True
            for s in cand:
                if seen & s:
                    ok = False
                    break
                seen |= s
            if ok:
                return size
    return best


def brute_max_t_cut(h: Hypergraph, t: int) -> int:
    """Maximum crossing-edge count over all assignments of vertices to t parts."""
    active = sorted({v for e in h.edges for v in e})
    if not active:
        return 0
    best = 0
    for assign in itertools.product(range(t), repeat=len(active)):
        part = dict(zip(active, assign))
        cut = sum(1 for u, v in h.edges if part[u] != part[v])
        best = max(best, cut)
    return best


def brute_crossing_edge_exists(h: Hypergraph, parts) -> bool:
    """Cross-product test: is there an edge with one vertex in each part?"""
    for tup in itertools.product(*parts):
        if len(set(tup)) == h.d and tuple(sorted(tup)) in set(h.edges):
            return True
    return False


def brute_qualifying_edges(h: Hypergraph, parts) -> list[tuple[int, ...]]:
    found = set()
    edge_set = set(h.edges)
    for tup in itertools.product(*parts):
        if len(set(tup)) == h.d:
            key = tuple(sorted(tup))
            if key in edge_set:
                found.add(key)
    return sorted(found)


def random_disjoint_parts(rng, n: int, d: int, max_size: int = 4):
    """d pairwise-disjoint non-empty vertex subsets of [0, n), or None."""
    sizes = rng.integers(1, max_size + 1, size=d)
    if int(sizes.sum()) > n:
        return None
    perm = rng.permutation(n)
    parts = []
    at = 0
    for s in sizes:
        parts.append(tuple(int(v) for v in perm[at : at + int(s)]))
        at += int(s)
    return tuple(parts)


def frozenset_representative_family(h: Hypergraph, k: int) -> tuple[tuple[int, ...], ...]:
    """Greedy representative family by per-X frozenset scans, in canonical
    edge order: an edge is deleted when every X it avoids keeps another avoider."""
    edges = list(h.edges)
    fsets = [frozenset(e) for e in edges]
    edge_to_xs: list[list[int]] = [[] for _ in edges]
    counts: list[int] = []
    for size in range(k + 1):
        for xs in itertools.combinations(range(h.n), size):
            x = frozenset(xs)
            avoiders = [i for i, fs in enumerate(fsets) if not (fs & x)]
            if avoiders:
                xi = len(counts)
                counts.append(len(avoiders))
                for i in avoiders:
                    edge_to_xs[i].append(xi)
    keep = [True] * len(edges)
    for i in range(len(edges)):
        if all(counts[xi] >= 2 for xi in edge_to_xs[i]):
            keep[i] = False
            for xi in edge_to_xs[i]:
                counts[xi] -= 1
    assert all(c >= 1 for c in counts)
    return tuple(e for i, e in enumerate(edges) if keep[i])


class NodeBudget(Exception):
    """The reference packing search visited more nodes than allowed."""


def frozenset_max_packing(edges, max_nodes=None):
    """(maximum packing, search nodes) of the branch-and-bound packing search
    with frozenset state: branch on the first compatible edge, include before
    exclude, prune when the partial packing plus min(#compatible edges,
    #free vertices // edge size) cannot beat the best. Raises NodeBudget on
    node max_nodes + 1."""
    m = len(edges)
    fsets = [frozenset(e) for e in edges]
    best: list = []
    nodes = 0

    def rec(pos, used, cur):
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise NodeBudget(nodes)
        compat = [j for j in range(pos, m) if used.isdisjoint(fsets[j])]
        free = len({v for j in compat for v in fsets[j]})
        bound = len(cur) + min(len(compat), free // len(edges[0]) if edges else 0)
        if bound <= len(best):
            return
        if not compat:
            return
        j = compat[0]
        cur.append(edges[j])
        if len(cur) > len(best):
            best[:] = cur
        rec(j + 1, used | fsets[j], cur)
        cur.pop()
        rec(j + 1, used, cur)

    if m:
        rec(0, frozenset(), [])
    return tuple(best), nodes


def used_color_cut_round(sampled: Hypergraph, color, solve):
    """(size, lifted partition) of one cut round by contracting only the colors
    that sampled edges use, in ascending order. `solve(contracted)` returns the
    exact max t-cut of the contracted graph as (class parts, size). Vertices of
    unused colors go to part 0; an empty sample is the all-zero partition of
    size 0."""
    used_colors = sorted({color[v] for e in sampled.edges for v in e})
    if not used_colors:
        return 0, tuple([0] * len(color))
    index = {col: i for i, col in enumerate(used_colors)}
    contracted = Hypergraph(
        n=len(used_colors),
        d=2,
        edges=tuple(
            sorted(tuple(sorted((index[color[u]], index[color[v]]))) for u, v in sampled.edges)
        ),
    )
    class_parts, size = solve(contracted)
    lifted = tuple(class_parts[index[col]] if col in index else 0 for col in color)
    return size, lifted


def greedy_bound_min_hs(edges):
    """(minimum hitting set, search nodes) of the cover search that tries each
    size from the disjoint-edge lower bound up to a greedy cover's size, then
    extends the lex smallest optimum vertex by vertex, skipping vertices the
    degree bound rules out. A node is one call of the size-bounded search on
    a non-empty edge list."""
    nodes = 0

    def disjoint_count(es):
        used: set[int] = set()
        count = 0
        for e in es:
            if used.isdisjoint(e):
                used.update(e)
                count += 1
        return count

    def within(es, budget):
        nonlocal nodes
        if not es:
            return []
        nodes += 1
        if budget <= 0 or disjoint_count(es) > budget:
            return None
        for v in es[0]:
            sub = within([f for f in es if v not in f], budget - 1)
            if sub is not None:
                return [v] + sub
        return None

    def greedy_cover_size(es):
        size = 0
        while es:
            counts: dict[int, int] = {}
            for e in es:
                for v in e:
                    counts[v] = counts.get(v, 0) + 1
            best = min(sorted(counts), key=lambda v: -counts[v])
            es = [e for e in es if best not in e]
            size += 1
        return size

    if not edges:
        return (), 0
    ub = greedy_cover_size(edges)
    size = ub
    for s in range(disjoint_count(edges), ub + 1):
        if within(edges, s) is not None:
            size = s
            break
    chosen: list[int] = []
    rem = edges
    budget = size
    prev = -1
    while rem:
        degree: dict[int, int] = {}
        for e in rem:
            for v in e:
                degree[v] = degree.get(v, 0) + 1
        reach = (budget - 1) * max(degree.values())
        for v in sorted(degree):
            if v <= prev or len(rem) - degree[v] > reach:
                continue
            rest = [f for f in rem if v not in f]
            if within(rest, budget - 1) is not None:
                chosen.append(v)
                rem = rest
                budget -= 1
                prev = v
                break
        else:
            raise AssertionError("lex extension failed")
    return tuple(chosen), nodes


def one_coloring_rounds(session, colorings, solve, existence=False):
    """The round driver asked one coloring at a time: each coloring's queries
    go through `ask_all` over its classes, and its sample (the witness edges
    on the original vertices) or class quotient is built from the answers
    before `solve` sees it."""
    for c in colorings:
        sets = classes(c).vertex_sets()
        answers = session.ask_all(not existence, sets)
        if existence:
            class_of = {v: i for i, vs in enumerate(sets) for v in vs}
            graph = Hypergraph(n=len(sets), d=session.d, edges=tuple(sorted(answers)))
            probe = QuotientInstance(graph, tuple(class_of[v] for v in range(c.n)))
        else:
            graph = Hypergraph(n=session.n, d=session.d, edges=tuple(sorted(answers.values())))
            probe = SampledSubgraph(graph, (c,), math.comb(len(sets), session.d))
        yield solve(probe, c)
