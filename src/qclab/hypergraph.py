"""Uniform hypergraphs on vertex set [0, n).

Graphs are the d=2 case. Edges are stored canonically: each edge is a
strictly increasing tuple of d vertex ids, the edge list is lexicographically
sorted and duplicate-free. All iteration orders downstream are therefore
deterministic, which is what makes oracle answers replayable.

The module also provides seeded instance generators (random, and "planted"
instances whose optimum is controlled by construction) and a plain text file
format: optional '#' comment lines, a header line "n d m", then m lines of d
space-separated vertex ids.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .rng import choice_rows, is_integer, rng_from

Edge = tuple[int, ...]


def all_integers(values: Iterable[object]) -> bool:
    """Whether every value is an integer by `is_integer`'s rule, judged once per type."""
    return all(
        issubclass(t, numbers.Integral) and not issubclass(t, bool) for t in set(map(type, values))
    )


def require_integers(**values: object) -> None:
    """Raise a ValueError naming the first of `values` that is not an integer."""
    for name, value in values.items():
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def require_integer(name: str, value: object, least: int) -> None:
    """Raise a ValueError naming `name` unless `value` is an integer >= `least`."""
    if not is_integer(value) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


@dataclass(frozen=True)
class Hypergraph:
    """Immutable d-uniform hypergraph; safe to share across threads."""

    n: int
    d: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one vertex, got n={self.n}")
        if self.d < 2:
            raise ValueError(f"edge arity must be at least 2, got d={self.d}")
        # whole-list checks at C speed; the per-edge loop runs only to name
        # the first bad edge
        edges = self.edges
        if not edges:
            return
        if set(map(len, edges)) != {self.d} or not all_integers(
            itertools.chain.from_iterable(edges)
        ):
            self._raise_first_fault()
        columns = tuple(zip(*edges))
        if not (
            all(all(map(operator.lt, a, b)) for a, b in itertools.pairwise(columns))
            and min(columns[0]) >= 0
            and max(columns[-1]) < self.n
            and all(map(operator.lt, edges, edges[1:]))
        ):
            self._raise_first_fault()

    def _raise_first_fault(self) -> None:
        prev = None
        for e in self.edges:
            if len(e) != self.d:
                raise ValueError(f"edge {e} has arity {len(e)}, expected {self.d}")
            if not all_integers(e):
                raise ValueError(f"edge {e} has a non-integer vertex")
            if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
                raise ValueError(f"edge {e} is not strictly increasing")
            if e[0] < 0 or e[-1] >= self.n:
                raise ValueError(f"edge {e} has a vertex outside [0, {self.n})")
            if prev is not None and e <= prev:
                raise ValueError("edge list is not sorted and duplicate-free")
            prev = e

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg


def new_hypergraph(n: int, d: int, edges: Iterable[Sequence[int]]) -> Hypergraph:
    """Build a hypergraph, canonicalizing the edge list.

    Each listed edge must consist of d distinct vertices below n; edges are
    sorted internally and globally and duplicates are dropped.
    """
    canon = set()
    for raw in edges:
        if not all_integers(raw):
            raise ValueError(f"edge {tuple(raw)} has a non-integer vertex")
        e = tuple(sorted(map(int, raw)))
        if len(e) != d:
            raise ValueError(f"edge {tuple(raw)} has arity {len(raw)}, expected {d}")
        if len(set(e)) != d:
            raise ValueError(f"edge {tuple(raw)} repeats a vertex")
        if e[0] < 0 or e[-1] >= n:
            raise ValueError(f"edge {tuple(raw)} has a vertex outside [0, {n})")
        canon.add(e)
    return Hypergraph(n=n, d=d, edges=tuple(sorted(canon)))


def union(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    """Edge-set union of two hypergraphs on the same vertex set."""
    if a.n != b.n:
        raise ValueError(f"vertex count mismatch: {a.n} != {b.n}")
    if a.d != b.d:
        raise ValueError(f"arity mismatch: {a.d} != {b.d}")
    return Hypergraph(n=a.n, d=a.d, edges=tuple(sorted(set(a.edges) | set(b.edges))))


def hits_every_edge(vertices: Iterable[int], h: Hypergraph) -> bool:
    """Whether the vertex set meets every edge (a hitting set / vertex cover)."""
    s = set(vertices)
    return all(s.intersection(e) for e in h.edges)


def is_packing(edges: Iterable[Sequence[int]], h: Hypergraph) -> bool:
    """Whether the given edges are pairwise-disjoint edges of h."""
    seen: set[int] = set()
    edge_set = set(h.edges)
    for e in edges:
        if tuple(e) not in edge_set or seen.intersection(e):
            return False
        seen.update(e)
    return True


def crossing_edges(parts: Sequence[int], g: Hypergraph) -> int:
    """Edges of a graph whose endpoints lie in different parts (parts[v] is v's part)."""
    return sum(1 for u, v in g.edges if parts[u] != parts[v])


@dataclass(frozen=True)
class PlantedTruth:
    """Ground-truth bookkeeping attached to a planted instance.

    kind is one of "hitting-set", "packing", "cut". The witness is a lower
    bound / feasibility certificate, never trusted as the optimum: a vertex
    tuple hit by every edge, a tuple of pairwise-disjoint edges, or a
    per-vertex part assignment.
    """

    kind: str
    k: int
    witness: tuple

    def validate(self, h: Hypergraph) -> bool:
        if self.kind == "hitting-set":
            return hits_every_edge(self.witness, h)
        if self.kind == "packing":
            return is_packing(self.witness, h) and len(self.witness) >= self.k
        if self.kind == "cut":
            return len(self.witness) == h.n and crossing_edges(self.witness, h) >= self.k
        raise ValueError(f"unknown planted kind {self.kind!r}")

    def to_json(self) -> dict:
        witness: object
        if self.kind == "packing":
            witness = [list(e) for e in self.witness]
        else:
            witness = list(self.witness)
        return {"kind": self.kind, "k": self.k, "witness": witness}

    @staticmethod
    def from_json(obj: dict) -> "PlantedTruth":
        if obj["kind"] == "packing":
            witness = tuple(tuple(e) for e in obj["witness"])
        else:
            witness = tuple(obj["witness"])
        return PlantedTruth(kind=obj["kind"], k=int(obj["k"]), witness=witness)


def gen_gnp(n: int, d: int, p: float, seed: int) -> Hypergraph:
    """Include each of the C(n, d) potential edges independently with probability p."""
    require_integers(n=n, d=d)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if p == 0.0:
        return new_hypergraph(n, d, [])
    rng = rng_from(seed, "gnp", n, d)
    keep = rng.random(math.comb(n, d)) < p
    edges = [c for c, k in zip(itertools.combinations(range(n), d), keep) if k]
    return Hypergraph(n=n, d=d, edges=tuple(edges))


def gen_planted_hitting_set(
    n: int, d: int, k: int, m: int, seed: int
) -> tuple[Hypergraph, PlantedTruth]:
    """Instance whose minimum hitting set has size at most k.

    A hidden k-set S is drawn; every generated edge meets S, so S witnesses
    feasibility (the true optimum can be smaller and is recomputed by exact
    solvers where needed).
    """
    require_integers(n=n, d=d, k=k, m=m)
    if k < 1:
        raise ValueError("k must be positive")
    if n < d:
        raise ValueError("need n >= d")
    if k > n:
        raise ValueError(f"cannot plant a {k}-set in {n} vertices")
    if m < 0:
        raise ValueError("m must be non-negative")
    feasible = math.comb(n, d) - math.comb(max(n - k, 0), d)
    if m > feasible:
        raise ValueError(f"cannot place {m} distinct edges meeting a {k}-set (max {feasible})")
    rng = rng_from(seed, "planted-hs", n, d, k, m)
    witness = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
    edges: set[Edge] = set()
    # each round draws a witness vertex s, then d-1 companions from
    # [0, n) \ {s} by skipping s; a round adds at most one edge, so the
    # rounds still missing are all drawn
    while len(edges) < m:
        lead, rest = choice_rows(rng, n - 1, d - 1, m - len(edges), lead=(k,))
        s = np.array(witness)[lead]
        rest += rest >= s
        edges.update(map(tuple, np.sort(np.hstack([s, rest]), axis=1).tolist()))
    return (
        Hypergraph(n=n, d=d, edges=tuple(sorted(edges))),
        PlantedTruth(kind="hitting-set", k=k, witness=witness),
    )


def gen_planted_packing(
    n: int, d: int, k: int, extra: int, seed: int
) -> tuple[Hypergraph, PlantedTruth]:
    """Instance containing k pairwise-disjoint planted edges plus extra random edges.

    The witness records the planted packing, a lower bound on the maximum;
    with extra=0 the maximum is exactly k.
    """
    require_integers(n=n, d=d, k=k, extra=extra)
    if k < 1:
        raise ValueError("k must be positive")
    if d * k > n:
        raise ValueError(f"cannot pack {k} disjoint {d}-edges into {n} vertices")
    if extra < 0:
        raise ValueError("extra must be non-negative")
    if k + extra > math.comb(n, d):
        raise ValueError(f"cannot place {k + extra} distinct edges (max {math.comb(n, d)})")
    rng = rng_from(seed, "planted-packing", n, d, k, extra)
    perm = rng.permutation(n)
    planted = tuple(
        sorted(tuple(sorted(int(v) for v in perm[i * d : (i + 1) * d])) for i in range(k))
    )
    edges: set[Edge] = set(planted)
    while len(edges) < k + extra:
        _, picks = choice_rows(rng, n, d, k + extra - len(edges))
        edges.update(map(tuple, np.sort(picks, axis=1).tolist()))
    return (
        Hypergraph(n=n, d=d, edges=tuple(sorted(edges))),
        PlantedTruth(kind="packing", k=k, witness=planted),
    )


def gen_planted_cut(n: int, t: int, k: int, seed: int) -> tuple[Hypergraph, PlantedTruth]:
    """Graph (d=2) with a planted t-partition crossed by at least k edges."""
    require_integers(n=n, t=t, k=k)
    if t < 2:
        raise ValueError("t must be at least 2")
    if k < 1:
        raise ValueError("k must be positive")
    if n < t:
        raise ValueError("need n >= t so every part can be non-empty")
    rng = rng_from(seed, "planted-cut", n, t, k)
    order = rng.permutation(n)
    # the i-th vertex of `order` goes to part i, the rest to random parts
    part = np.empty(n, dtype=np.int64)
    part[order] = np.concatenate([np.arange(t), rng.integers(t, size=n - t)])
    parts = part.tolist()
    sizes = [parts.count(i) for i in range(t)]
    capacity = math.comb(n, 2) - sum(math.comb(s, 2) for s in sizes)
    if k > capacity:
        raise ValueError(f"partition admits at most {capacity} crossing edges, need {k}")
    edges: set[Edge] = set()
    while len(edges) < k:
        _, uv = choice_rows(rng, n, 2, k - len(edges))
        uv = uv[part[uv[:, 0]] != part[uv[:, 1]]]
        edges.update(map(tuple, np.sort(uv, axis=1).tolist()))
    return (
        Hypergraph(n=n, d=2, edges=tuple(sorted(edges))),
        PlantedTruth(kind="cut", k=k, witness=tuple(parts)),
    )


def serialize_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.d} {h.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the text format; inverse of serialize_hypergraph on canonical form."""
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty hypergraph file")
    header = rows[0].split()
    if len(header) != 3:
        raise ValueError(f"malformed header {rows[0]!r}, expected 'n d m'")
    try:
        n, d, m = (int(x) for x in header)
    except ValueError as exc:
        raise ValueError(f"malformed header {rows[0]!r}") from exc
    body = rows[1:]
    if len(body) != m:
        raise ValueError(f"header claims {m} edges but file has {len(body)} edge lines")
    edges = []
    for ln in body:
        try:
            e = [int(x) for x in ln.split()]
        except ValueError as exc:
            raise ValueError(f"malformed edge line {ln!r}") from exc
        edges.append(e)
    return new_hypergraph(n, d, edges)


def save_hypergraph(h: Hypergraph, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_hypergraph(h))


def load_hypergraph(path: str) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())
