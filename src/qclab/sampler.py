"""Sampling primitives built on the witness and existence oracles.

A single sample fixes a coloring, then asks one witness query per d-tuple of
non-empty color classes (ascending color order) and collects the returned
edges into a sub-hypergraph on the original vertex set. Only non-empty
classes are queried, so a sample costs exactly C(q, d) queries where q is
the number of non-empty classes -- never more than min(b, n). The oracle
answers all tuples of a coloring in one `ask_all` call, counted as bise/bis
on graphs (d=2) and gpise/gpis above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coloring import HashColoring, classes, random_coloring
from .hypergraph import Edge, Hypergraph
from .oracle import OracleSession
from .rng import rng_from


@dataclass(frozen=True)
class SampledSubgraph:
    """Union of oracle-returned edges, with the colorings that produced it."""

    graph: Hypergraph
    provenance: tuple[HashColoring, ...]
    queries_spent: int


@dataclass(frozen=True)
class QuotientInstance:
    """Existence-query image of the hidden instance on non-empty classes.

    Quotient vertex i is the i-th non-empty class; a quotient edge is present
    exactly when the oracle confirmed an edge across that class tuple.
    class_map sends each original vertex to its quotient vertex.
    """

    graph: Hypergraph
    class_map: tuple[int, ...]


def sample_subhypergraph(session: OracleSession, c: HashColoring) -> SampledSubgraph:
    """One sample: C(q, d) witness queries over the coloring's class tuples."""
    if c.n != session.n:
        raise ValueError(f"coloring is over {c.n} vertices, hidden instance has {session.n}")
    sets = classes(c).vertex_sets()
    # each edge answers at most one class tuple, so the witnesses are distinct
    found = sorted(session.ask_all(True, sets).values())
    graph = Hypergraph(n=session.n, d=session.d, edges=tuple(found))
    return SampledSubgraph(
        graph=graph, provenance=(c,), queries_spent=math.comb(len(sets), session.d)
    )


def sample_union(session: OracleSession, b: int, t: int, seed: int) -> SampledSubgraph:
    """Union of t independent samples, each under a fresh random coloring into [b].

    Repetition i draws its coloring from the child stream (seed, "sample", i),
    so the first samples of a longer run reproduce a shorter one exactly.
    """
    if t < 1:
        raise ValueError("need at least one repetition")
    edges: set[Edge] = set()
    provenance: list[HashColoring] = []
    spent = 0
    for i in range(t):
        c = random_coloring(session.n, b, rng_from(seed, "sample", i))
        part = sample_subhypergraph(session, c)
        edges.update(part.graph.edges)
        provenance.append(c)
        spent += part.queries_spent
    graph = Hypergraph(n=session.n, d=session.d, edges=tuple(sorted(edges)))
    return SampledSubgraph(graph=graph, provenance=tuple(provenance), queries_spent=spent)


def quotient_existence(session: OracleSession, c: HashColoring) -> QuotientInstance:
    """Existence-query quotient: C(q, d) yes/no queries over class tuples."""
    if c.n != session.n:
        raise ValueError(f"coloring is over {c.n} vertices, hidden instance has {session.n}")
    cls = classes(c)
    edges = sorted(session.ask_all(False, cls.vertex_sets()))
    # quotient on at least one vertex even if the coloring is degenerate
    graph = Hypergraph(n=max(len(cls), 1), d=session.d, edges=tuple(edges))
    position = {col: idx for idx, (col, _) in enumerate(cls.classes)}
    class_map = tuple(position[col] for col in c.color)
    return QuotientInstance(graph=graph, class_map=class_map)
