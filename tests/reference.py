"""Independent brute-force references used as test oracles.

Everything here enumerates or keeps an earlier, simpler form of the code
under test; nothing shares code with the solvers under test.
"""

from __future__ import annotations

import itertools
import math

from qclab.coloring import classes
from qclab.hypergraph import Hypergraph, PlantedTruth
from qclab.rng import rng_from
from qclab.sampler import QuotientInstance, SampledSubgraph
from qclab.sunflowers import CoreInfo, CoreReport, Sunflower


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


def ask_one(session, witness, parts):
    """One query through the endpoint for the session's arity: bise / bis on
    graphs, gpise / gpis otherwise."""
    if session.d == 2:
        return (session.bise if witness else session.bis)(*parts)
    return (session.gpise if witness else session.gpis)(parts)


def one_coloring_rounds(session, colorings, solve, existence=False):
    """The round driver asked one query at a time: each coloring's class
    tuples go through the endpoints in itertools.combinations order, and its
    sample (the witness edges on the original vertices) or class quotient is
    built from the answers before `solve` sees it."""
    for c in colorings:
        sets = classes(c).vertex_sets()
        answers = {}
        for t in itertools.combinations(range(len(sets)), session.d):
            answer = ask_one(session, not existence, [sets[i] for i in t])
            if answer:
                answers[t] = answer
        if existence:
            class_of = {v: i for i, vs in enumerate(sets) for v in vs}
            graph = Hypergraph(n=len(sets), d=session.d, edges=tuple(sorted(answers)))
            probe = QuotientInstance(graph, tuple(class_of[v] for v in range(c.n)))
        else:
            graph = Hypergraph(n=session.n, d=session.d, edges=tuple(sorted(answers.values())))
            probe = SampledSubgraph(graph, (c,), math.comb(len(sets), session.d))
        yield solve(probe, c)


# -- generators drawing one numpy choice per edge ----------------------------


def per_edge_planted_hitting_set(n, d, k, m, seed):
    """`gen_planted_hitting_set` with one `rng.choice` call per drawn edge."""
    rng = rng_from(seed, "planted-hs", n, d, k, m)
    witness = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
    edges = set()
    while len(edges) < m:
        s = int(witness[rng.integers(k)])
        rest = rng.choice(n - 1, size=d - 1, replace=False)
        edges.add(tuple(sorted([s] + [int(v) if v < s else int(v) + 1 for v in rest])))
    return (
        Hypergraph(n=n, d=d, edges=tuple(sorted(edges))),
        PlantedTruth(kind="hitting-set", k=k, witness=witness),
    )


def per_edge_planted_packing(n, d, k, extra, seed):
    """`gen_planted_packing` with one `rng.choice` call per extra edge."""
    rng = rng_from(seed, "planted-packing", n, d, k, extra)
    perm = rng.permutation(n)
    planted = tuple(
        sorted(tuple(sorted(int(v) for v in perm[i * d : (i + 1) * d])) for i in range(k))
    )
    edges = set(planted)
    while len(edges) < k + extra:
        edges.add(tuple(sorted(int(v) for v in rng.choice(n, size=d, replace=False))))
    return (
        Hypergraph(n=n, d=d, edges=tuple(sorted(edges))),
        PlantedTruth(kind="packing", k=k, witness=planted),
    )


def per_edge_planted_cut(n, t, k, seed):
    """`gen_planted_cut` with one `rng.integers` call per randomly placed
    vertex and one `rng.choice` call per drawn vertex pair."""
    rng = rng_from(seed, "planted-cut", n, t, k)
    order = rng.permutation(n)
    parts = [0] * n
    for i, v in enumerate(order):
        parts[int(v)] = i % t if i < t else int(rng.integers(t))
    capacity = math.comb(n, 2) - sum(math.comb(parts.count(i), 2) for i in range(t))
    if k > capacity:
        raise ValueError(f"partition admits at most {capacity} crossing edges, need {k}")
    edges = set()
    while len(edges) < k:
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        if parts[u] != parts[v]:
            edges.add((u, v) if u < v else (v, u))
    return (
        Hypergraph(n=n, d=2, edges=tuple(sorted(edges))),
        PlantedTruth(kind="cut", k=k, witness=tuple(parts)),
    )


# -- the recursive max t-cut search -------------------------------------------


def recursive_max_t_cut(g: Hypergraph, t: int):
    """(parts, size, search nodes) of the max t-cut search written as one
    recursive call per position: the non-isolated vertices in increasing
    order, parts tried in increasing order up to one new part, pruned when
    the cut so far plus the edges still to place cannot beat the best."""
    if not g.edges:
        return tuple([0] * g.n), 0, 0
    active = sorted({v for e in g.edges for v in e})
    pos = {v: i for i, v in enumerate(active)}
    na = len(active)
    back = [[] for _ in range(na)]
    for u, v in g.edges:
        i, j = pos[u], pos[v]
        back[max(i, j)].append(min(i, j))
    suffix = [0] * (na + 1)
    for i in range(na - 1, -1, -1):
        suffix[i] = suffix[i + 1] + len(back[i])
    assign = [-1] * na
    best = [-1, None]
    nodes = 0

    def rec(i, used, cut):
        nonlocal nodes
        nodes += 1
        if cut + suffix[i] <= best[0]:
            return
        if i == na:
            best[:] = [cut, assign.copy()]
            return
        for part in range(min(used + 1, t)):
            assign[i] = part
            gained = sum(1 for j in back[i] if assign[j] != part)
            rec(i + 1, used + (part == used), cut + gained)
        assign[i] = -1

    rec(0, 0, 0)
    parts = [0] * g.n
    for v, i in pos.items():
        parts[v] = best[1][i]
    return tuple(parts), best[0], nodes


# -- sunflowers, one edge scan per candidate core ------------------------------


def rescan_petals(h: Hypergraph, core) -> tuple[tuple[int, ...], ...]:
    """The edges of h that contain `core`, with the core removed, sorted."""
    cs = frozenset(core)
    return tuple(sorted(tuple(v for v in e if v not in cs) for e in h.edges if cs <= frozenset(e)))


def rescan_candidate_cores(h: Hypergraph, include_empty: bool = False) -> list[tuple[int, ...]]:
    """Non-empty proper subsets of edges, by size then lexicographically,
    after the empty core when `include_empty`."""
    cands: set[tuple[int, ...]] = set()
    for e in h.edges:
        for size in range(1, h.d):
            cands.update(itertools.combinations(e, size))
    out = sorted(cands, key=lambda c: (len(c), c))
    if include_empty:
        out.insert(0, ())
    return out


def rescan_find_sunflower(h: Hypergraph, t: int):
    """The first t-sunflower over the candidate cores, empty core first, each
    core's petals packed by the frozenset packing search."""
    for core in rescan_candidate_cores(h, include_empty=True):
        petals = rescan_petals(h, core)
        if len(petals) < t:
            continue
        packing, _ = frozenset_max_packing(petals)
        if len(packing) >= t:
            edges = tuple(sorted(tuple(sorted(core + p)) for p in packing[:t]))
            return Sunflower(core=tuple(sorted(core)), edges=edges)
    return None


def rescan_classify_cores(h: Hypergraph, k: int) -> CoreReport:
    """Sunflower numbers of every candidate core (the degree at d = 2, a
    petal packing otherwise) with the large (> 10dk) and significant (> k)
    thresholds, the edges holding no large core, and the large cores with no
    significant non-empty proper sub-core."""
    d = h.d
    threshold = 10 * d * k
    number: dict[tuple[int, ...], int] = {}
    if d == 2:
        deg = h.degrees()
        for core in rescan_candidate_cores(h):
            number[core] = deg[core[0]]
    else:
        for core in rescan_candidate_cores(h):
            number[core] = len(frozenset_max_packing(rescan_petals(h, core))[0])
    infos = [
        CoreInfo(core=core, number=num, large=num > threshold, significant=num > k)
        for core, num in number.items()
    ]
    large = tuple(c.core for c in infos if c.large)
    large_set = {frozenset(c) for c in large}
    significant_set = {frozenset(c.core) for c in infos if c.significant}
    no_large = tuple(
        e
        for e in h.edges
        if not any(
            frozenset(sub) in large_set
            for size in range(1, d)
            for sub in itertools.combinations(e, size)
        )
    )
    minimal = tuple(
        c
        for c in large
        if not any(
            frozenset(sub) in significant_set
            for size in range(1, len(c))
            for sub in itertools.combinations(c, size)
        )
    )
    return CoreReport(
        k=k, d=d, large_threshold=threshold, cores=tuple(infos), large_cores=large,
        edges_without_large_core=no_large, minimal_large_cores=minimal,
    )
