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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

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


def sunflower_number(
    h: Hypergraph, core: tuple[int, ...] | frozenset[int], limits: SolverLimits = DEFAULT_LIMITS
) -> int:
    """Largest t such that `core` is the core of a t-sunflower in h."""
    if len(set(core)) >= h.d:
        raise ValueError("a core must be a proper subset of an edge")
    return len(_max_packing(_petals(h, core), _Search(limits)))


def _petals(h: Hypergraph, core: tuple[int, ...] | frozenset[int]) -> tuple[Edge, ...]:
    """The edges of h that contain `core`, with the core removed, sorted."""
    cs = frozenset(core)
    return tuple(sorted(tuple(v for v in e if v not in cs) for e in h.edges if cs <= frozenset(e)))


def candidate_cores(h: Hypergraph, include_empty: bool = False) -> list[tuple[int, ...]]:
    """Non-empty proper subsets of edges (plus optionally the empty core).

    Any core of a sunflower in h is a subset of each of its edges, so this
    list is exhaustive for sunflower search.
    """
    cands: set[tuple[int, ...]] = set()
    for e in h.edges:
        for size in range(1, h.d):
            cands.update(itertools.combinations(e, size))
    out = sorted(cands, key=lambda c: (len(c), c))
    if include_empty:
        out.insert(0, ())
    return out


def find_sunflower(
    h: Hypergraph, t: int, limits: SolverLimits = DEFAULT_LIMITS
) -> Optional[Sunflower]:
    """A t-sunflower if one exists, searching all candidate cores.

    Guaranteed to find one whenever the edge count exceeds d! * (t-1)^d.
    """
    require_integer("t", t, 1)
    for core in candidate_cores(h, include_empty=True):
        petals = _petals(h, core)
        if len(petals) < t:
            continue
        packing = _max_packing(petals, _Search(limits))
        if len(packing) >= t:
            edges = tuple(sorted(tuple(sorted(core + p)) for p in packing[:t]))
            return Sunflower(core=tuple(sorted(core)), edges=edges)
    return None


def erdos_rado_bound(d: int, t: int) -> int:
    """Edge count above which a t-sunflower must exist in a d-uniform family."""
    if t < 1:
        raise ValueError("t must be positive")
    return math.factorial(d) * (t - 1) ** d


def classify_cores(h: Hypergraph, k: int, limits: SolverLimits = DEFAULT_LIMITS) -> CoreReport:
    """Compute sunflower numbers for every candidate core and apply the
    large (>10dk) and significant (>k) thresholds.

    The significant-subcore test for minimal large cores considers non-empty
    proper subsets only: a large core is always significant itself, and on
    instances with a hitting set of size at most k the empty core never is.
    """
    require_integer("k", k, 0)
    d = h.d
    threshold = 10 * d * k
    infos: list[CoreInfo] = []
    number: dict[tuple[int, ...], int] = {}
    if d == 2:
        # cores are singletons and the sunflower number is the degree
        deg = h.degrees()
        for core in candidate_cores(h):
            number[core] = deg[core[0]]
    else:
        for core in candidate_cores(h):
            number[core] = sunflower_number(h, core, limits)
    for core, num in number.items():
        infos.append(
            CoreInfo(core=core, number=num, large=num > threshold, significant=num > k)
        )
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
        k=k,
        d=d,
        large_threshold=threshold,
        cores=tuple(infos),
        large_cores=large,
        edges_without_large_core=no_large,
        minimal_large_cores=minimal,
    )
