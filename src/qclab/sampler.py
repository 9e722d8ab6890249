"""Sampling primitives built on the witness and existence oracles.

A single sample fixes a coloring, then asks one witness query per d-tuple of
non-empty color classes (ascending color order) and collects the returned
edges into a sub-hypergraph on the original vertex set. Only non-empty
classes are queried, so a sample costs exactly C(q, d) queries where q is
the number of non-empty classes -- never more than min(b, n). The oracle
answers all tuples of a coloring in one `ask_coloring` call, and a union's
colorings in blocks through `witness_union`; queries are counted as bise/bis
on graphs (d=2) and gpise/gpis above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# `classes` is no longer called here; perfbench's tracer looks it up by this name
from .coloring import HashColoring, class_labels, classes, random_coloring  # noqa: F401
from .hypergraph import Hypergraph
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
    before = session.stats().total
    # each edge answers at most one class tuple, so the witnesses are distinct
    found = sorted(session.ask_coloring(True, c.color).values())
    graph = Hypergraph(n=session.n, d=session.d, edges=tuple(found))
    return SampledSubgraph(
        graph=graph, provenance=(c,), queries_spent=session.stats().total - before
    )


def sample_union(session: OracleSession, b: int, t: int, seed: int) -> SampledSubgraph:
    """Union of t independent samples, each under a fresh random coloring into [b].

    Repetition i draws its coloring from the child stream (seed, "sample", i),
    so the first samples of a longer run reproduce a shorter one exactly. The
    oracle evaluates the colorings in blocks; queries, witnesses and log lines
    are those of t calls to `sample_subhypergraph` in turn.
    """
    if t < 1:
        raise ValueError("need at least one repetition")
    provenance = tuple(random_coloring(session.n, b, rng_from(seed, "sample", i)) for i in range(t))
    before = session.stats().total
    edges = session.witness_union(c.color for c in provenance)
    graph = Hypergraph(n=session.n, d=session.d, edges=edges)
    return SampledSubgraph(
        graph=graph, provenance=provenance, queries_spent=session.stats().total - before
    )


def quotient_existence(session: OracleSession, c: HashColoring) -> QuotientInstance:
    """Existence-query quotient: C(q, d) yes/no queries over class tuples."""
    labels = class_labels(np.array([c.color]))[0]
    edges = sorted(session.ask_coloring(False, labels))
    graph = Hypergraph(n=int(labels.max()) + 1, d=session.d, edges=tuple(edges))
    return QuotientInstance(graph=graph, class_map=tuple(labels.tolist()))
