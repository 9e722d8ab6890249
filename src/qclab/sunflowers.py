"""Sunflower structure of a hypergraph.

A t-sunflower is a family of t edges whose pairwise intersections all equal
one common core C; the petals (edges minus the core) are pairwise disjoint.
For a candidate core C, its sunflower number is the largest t such that C is
the core of a t-sunflower: exactly a maximum set packing over the petals of
the edges containing C. Cores here are proper subsets of an edge (petals
must be non-empty); the empty core is allowed and its sunflower number is
the maximum packing of the whole edge family.

Relative to a parameter k, a core is "large" when its sunflower number
exceeds 10*d*k and "significant" when it exceeds k (strict inequalities).
classify_cores reports the large cores, the edges containing no large core,
and the large cores with no significant proper sub-core.

One pass over the edges groups the petals of every core. A core of d - 1
vertices has distinct single-vertex petals, so its sunflower number is its
petal count and no search runs (at d = 2, the degree). classify_cores and
find_sunflower count all their packing searches against one budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .hypergraph import Edge, Hypergraph, require_integer
from .solvers import DEFAULT_LIMITS, SolverLimits, _max_packing, _Search


@dataclass(frozen=True)
class Sunflower:
    core: tuple[int, ...]
    edges: tuple[Edge, ...]

    def is_valid(self) -> bool:
        core = set(self.core)
        for a, b in itertools.combinations(self.edges, 2):
            if set(a) & set(b) != core:
                return False
        return all(core <= set(e) for e in self.edges) and len(self.edges) >= 1


@dataclass(frozen=True)
class CoreInfo:
    core: tuple[int, ...]
    number: int
    large: bool
    significant: bool


@dataclass(frozen=True)
class CoreReport:
    k: int
    d: int
    large_threshold: int
    cores: tuple[CoreInfo, ...]
    large_cores: tuple[tuple[int, ...], ...]
    edges_without_large_core: tuple[Edge, ...]
    minimal_large_cores: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "d": self.d,
            "large_threshold": self.large_threshold,
            "cores": [
                {
                    "core": list(c.core),
                    "number": c.number,
                    "large": c.large,
                    "significant": c.significant,
                }
                for c in self.cores
            ],
            "large_cores": [list(c) for c in self.large_cores],
            "edges_without_large_core": [list(e) for e in self.edges_without_large_core],
            "minimal_large_cores": [list(c) for c in self.minimal_large_cores],
        }


def _subsets(e: tuple[int, ...], sizes) -> itertools.chain:
    """The subsets of e of the given sizes, as sorted tuples when e is sorted."""
    return itertools.chain.from_iterable(itertools.combinations(e, s) for s in sizes)


def _petal_groups(h: Hypergraph, sizes) -> dict[tuple[int, ...], list[Edge]]:
    """The petals of every core of the given sizes, in one pass over the edges.

    Each core maps to the edges containing it with the core removed; cores
    come smallest first, then lexicographically. Removing a common core keeps
    canonical edge order, so every list of petals is sorted.
    """
    groups: dict[tuple[int, ...], list[Edge]] = {}
    for e in h.edges:
        for core in _subsets(e, sizes):
            groups.setdefault(core, []).append(tuple(v for v in e if v not in core))
    return dict(sorted(groups.items(), key=lambda item: (len(item[0]), item[0])))


def _packing(petals: Sequence[Edge], search: _Search) -> Sequence[Edge]:
    """A maximum packing of one core's petals. Single-vertex petals are
    distinct vertices, so they all pack and no search runs."""
    if petals and len(petals[0]) > 1:
        return _max_packing(petals, search)
    return petals


def sunflower_number(
    h: Hypergraph, core: tuple[int, ...] | frozenset[int], limits: SolverLimits = DEFAULT_LIMITS
) -> int:
    """Largest t such that `core` is the core of a t-sunflower in h."""
    cs = tuple(sorted(set(core)))
    if len(cs) >= h.d:
        raise ValueError("a core must be a proper subset of an edge")
    return len(_packing(_petal_groups(h, (len(cs),)).get(cs, []), _Search(limits)))


def candidate_cores(h: Hypergraph, include_empty: bool = False) -> list[tuple[int, ...]]:
    """Non-empty proper subsets of edges (plus optionally the empty core).

    Any core of a sunflower in h is a subset of each of its edges, so this
    list is exhaustive for sunflower search.
    """
    out = list(_petal_groups(h, range(1, h.d)))
    if include_empty:
        out.insert(0, ())
    return out


def find_sunflower(
    h: Hypergraph, t: int, limits: SolverLimits = DEFAULT_LIMITS
) -> Optional[Sunflower]:
    """A t-sunflower if one exists, searching all candidate cores, smallest
    first, under one budget for the whole call.

    Guaranteed to find one whenever the edge count exceeds d! * (t-1)^d.
    """
    require_integer("t", t, 1)
    search = _Search(limits)
    for core, petals in _petal_groups(h, range(h.d)).items():
        if len(petals) < t:
            continue
        packing = _packing(petals, search)
        if len(packing) >= t:
            edges = tuple(sorted(tuple(sorted(core + p)) for p in packing[:t]))
            return Sunflower(core=core, edges=edges)
    return None


def erdos_rado_bound(d: int, t: int) -> int:
    """Edge count above which a t-sunflower must exist in a d-uniform family."""
    if t < 1:
        raise ValueError("t must be positive")
    return math.factorial(d) * (t - 1) ** d


def classify_cores(h: Hypergraph, k: int, limits: SolverLimits = DEFAULT_LIMITS) -> CoreReport:
    """Compute sunflower numbers for every candidate core, under one budget
    for the whole call, and apply the large (>10dk) and significant (>k)
    thresholds.

    The significant-subcore test for minimal large cores considers non-empty
    proper subsets only: a large core is always significant itself, and on
    instances with a hitting set of size at most k the empty core never is.
    """
    require_integer("k", k, 0)
    d = h.d
    threshold = 10 * d * k
    search = _Search(limits)
    infos: list[CoreInfo] = []
    for core, petals in _petal_groups(h, range(1, d)).items():
        num = len(_packing(petals, search))
        infos.append(CoreInfo(core=core, number=num, large=num > threshold, significant=num > k))
    large = tuple(c.core for c in infos if c.large)
    large_set = set(large)
    significant = {c.core for c in infos if c.significant}
    no_large = tuple(e for e in h.edges if large_set.isdisjoint(_subsets(e, range(1, d))))
    minimal = tuple(c for c in large if significant.isdisjoint(_subsets(c, range(1, len(c)))))
    return CoreReport(
        k=k,
        d=d,
        large_threshold=threshold,
        cores=tuple(infos),
        large_cores=large,
        edges_without_large_core=no_large,
        minimal_large_cores=minimal,
    )
