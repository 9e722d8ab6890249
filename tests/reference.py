"""Independent brute-force references used as test oracles.

Everything here enumerates; nothing shares code with the solvers under test.
"""

from __future__ import annotations

import itertools

from qclab.hypergraph import Hypergraph


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
