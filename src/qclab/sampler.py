"""Sampling primitives built on the witness and existence oracles.

A single sample fixes a coloring, then asks one witness query per d-tuple of
non-empty color classes (ascending color order) and collects the returned
edges into a sub-hypergraph on the original vertex set. Only non-empty
classes are queried, so a sample costs exactly C(q, d) queries where q is
the number of non-empty classes -- never more than min(b, n). Samples,
unions and quotients are read off the rows of `OracleSession.ask_colorings`;
queries count as bise/bis on graphs (d=2) and gpise/gpis above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

# `classes` is no longer called here; perfbench's tracer looks it up by this name
from .coloring import HashColoring, classes, random_coloring  # noqa: F401
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


def samples(
    session: OracleSession, colorings: Sequence[HashColoring]
) -> Iterator[SampledSubgraph]:
    """One sample per coloring, in order: C(q, d) witness queries over the
    coloring's class tuples."""
    rows = session.ask_colorings(True, [c.color for c in colorings])
    for c, (labels, _, picks) in zip(colorings, rows):
        # each edge answers at most one class tuple, so the witnesses are distinct
        graph = Hypergraph(session.n, session.d, session.witnesses(sorted(picks.tolist())))
        yield SampledSubgraph(graph, (c,), math.comb(int(labels.max()) + 1, session.d))


def quotients(
    session: OracleSession, colorings: Sequence[HashColoring]
) -> Iterator[QuotientInstance]:
    """One existence-query quotient per coloring, in order: C(q, d) yes/no
    queries over the coloring's class tuples."""
    for labels, tuples, _ in session.ask_colorings(False, [c.color for c in colorings]):
        edges = tuple(map(tuple, tuples.tolist()))
        graph = Hypergraph(n=int(labels.max()) + 1, d=session.d, edges=edges)
        yield QuotientInstance(graph=graph, class_map=tuple(labels.tolist()))


def sample_subhypergraph(session: OracleSession, c: HashColoring) -> SampledSubgraph:
    """One sample: C(q, d) witness queries over the coloring's class tuples."""
    return next(samples(session, [c]))


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
    picked: set[int] = set()
    for _, _, picks in session.ask_colorings(True, [c.color for c in provenance]):
        picked.update(picks.tolist())
    graph = Hypergraph(n=session.n, d=session.d, edges=session.witnesses(sorted(picked)))
    return SampledSubgraph(graph, provenance, session.stats().total - before)


def quotient_existence(session: OracleSession, c: HashColoring) -> QuotientInstance:
    """Existence-query quotient: C(q, d) yes/no queries over class tuples."""
    return next(quotients(session, [c]))
