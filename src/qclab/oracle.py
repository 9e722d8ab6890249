"""Query oracles over a hidden hypergraph, with exact per-kind accounting.

A session wraps a hypergraph whose edge set is never exposed directly; the
only access is through four query kinds, each with its own counter:

- ``gpis(parts)``  -> does some hidden edge pick one vertex from each part?
- ``gpise(parts)`` -> such an edge, or None;
- ``bis(a, b)`` / ``bise(a, b)`` -> the two-set specializations, valid only
  when the hidden arity is 2.

Parts must be pairwise disjoint, non-empty, integer-valued and in range;
invalid calls are rejected before any counter moves. An edge qualifies when
its vertices can be matched one-to-one onto the parts; because parts are
disjoint each vertex lies in at most one part, so the matching test reduces
to "the d vertices cover all d parts exactly once".

``ask_all(witness, sets)`` asks one query per d-tuple of q disjoint sets (a
coloring's classes) at once. Every edge qualifies for at most one tuple, the
tuple of the classes its vertices lie in, so a single numpy pass over the
edge matrix answers all C(q, d) of them. That pass takes label rows: each
vertex's class index, or -1 for a vertex in no set. The four endpoints and
``ask_all`` are one row; ``ask_colorings(witness, colorings)`` turns
colorings into rows and evaluates them lazily in blocks, and
``ask_coloring`` is its one-row view. Counters, witnesses, random-policy call
indices and log lines are the same however the queries are grouped.

Which qualifying edge a witness query returns is a policy: ``LEXICOGRAPHIC``
(the globally smallest in canonical order, the reproducible default) or
``UNIFORM_RANDOM`` (keyed by the session's policy seed and call index).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass
from enum import Enum
from typing import IO, Iterable, Iterator, Optional, Sequence

import numpy as np

from .coloring import class_labels
from .hypergraph import Edge, Hypergraph, require_integers
from .rng import mix_choice

# query kinds in counter order
_KINDS = ("bis", "bise", "gpis", "gpise")

# cap on a block of colorings evaluated together, in rows x max(n, m*d)
# elements: bounds the gathered label array and its sorted copies
_BLOCK_ELEMENTS = 1 << 14


class EdgeSelectionPolicy(Enum):
    LEXICOGRAPHIC = "lex"
    UNIFORM_RANDOM = "random"


@dataclass(frozen=True)
class QueryStats:
    bis: int = 0
    bise: int = 0
    gpis: int = 0
    gpise: int = 0

    @property
    def total(self) -> int:
        return self.bis + self.bise + self.gpis + self.gpise

    def __sub__(self, other: "QueryStats") -> "QueryStats":
        return QueryStats(*(a - b for a, b in zip(astuple(self), astuple(other))))


class OracleSession:
    """Single-owner handle on a hidden hypergraph.

    Mutable state is limited to the query counters and the optional log;
    move a session between threads, never share one concurrently.
    """

    def __init__(
        self,
        hidden: Hypergraph,
        policy: EdgeSelectionPolicy = EdgeSelectionPolicy.LEXICOGRAPHIC,
        policy_seed: int = 0,
        log_path: str | None = None,
    ) -> None:
        if not isinstance(policy, EdgeSelectionPolicy):
            raise ValueError(f"policy must be an EdgeSelectionPolicy, got {policy!r}")
        self._hidden = hidden
        self._n = hidden.n
        self._d = hidden.d
        self.policy = policy
        require_integers(policy_seed=policy_seed)
        self.policy_seed = int(policy_seed)
        self._counts = [0, 0, 0, 0]  # bis, bise, gpis, gpise
        self._edge_mat = np.asarray(hidden.edges, dtype=np.intp).reshape(-1, hidden.d)
        # opened for append, and emptied at the first query (see `_run`), so a
        # call rejected before any query leaves an existing log as it was
        self._log: Optional[IO[str]] = open(log_path, "a", encoding="utf-8") if log_path else None

    @property
    def n(self) -> int:
        return self._n

    @property
    def d(self) -> int:
        return self._d

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "OracleSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> QueryStats:
        return QueryStats(*self._counts)

    # -- query kinds ---------------------------------------------------

    def bis(self, a: Iterable[int], b: Iterable[int]) -> bool:
        return self._ask(0, (a, b), 2)

    def bise(self, a: Iterable[int], b: Iterable[int]) -> Optional[Edge]:
        return self._ask(1, (a, b), 2)

    def gpis(self, parts: Sequence[Iterable[int]]) -> bool:
        return self._ask(2, parts, self._d)

    def gpise(self, parts: Sequence[Iterable[int]]) -> Optional[Edge]:
        return self._ask(3, parts, self._d)

    def ask_all(self, witness: bool, sets: Sequence[Iterable[int]]) -> dict:
        """One query per d-tuple of the pairwise-disjoint `sets`, in
        itertools.combinations order: witness queries (bise, or gpise when
        d > 2) or existence queries (bis / gpis). Costs C(len(sets), d) on
        that kind's counter. Returns the non-empty answers keyed by the
        tuple of set indices: the witness edge, or True."""
        return self._as_dict(witness, *self._run(self._kind(witness), self._set_labels(sets))[1:])

    def ask_coloring(self, witness: bool, color: Sequence[int]) -> dict:
        """`ask_all` over the non-empty classes of `color` (one integer color
        per vertex), classes in ascending color order."""
        _, tuples, picks = next(self.ask_colorings(witness, [color]))
        return self._as_dict(witness, tuples, picks)

    def ask_colorings(self, witness: bool, colorings: Iterable[Sequence[int]]) -> Iterator[tuple]:
        """`ask_coloring`'s queries for each coloring in turn, evaluated in
        blocks of bounded size when the block's first row is taken. Yields per
        coloring its label row, its answered class tuples (combinations order)
        and the indices of the answering edges (see `witnesses`)."""
        kind = self._kind(witness)
        rows = max(1, _BLOCK_ELEMENTS // max(self._n, self._edge_mat.size))
        colorings = iter(colorings)
        while block := list(itertools.islice(colorings, rows)):
            colors = np.asarray(block)
            if colors.ndim != 2 or colors.shape[1] != self._n or colors.dtype.kind not in "iu":
                raise ValueError(f"a coloring gives each of the {self._n} vertices an integer")
            labels = class_labels(colors)
            row_of, tuples, picks = self._run(kind, labels)
            bounds = np.searchsorted(row_of, np.arange(len(block) + 1)).tolist()
            for row, (lo, hi) in zip(labels, itertools.pairwise(bounds)):
                yield row, tuples[lo:hi], picks[lo:hi]

    def witnesses(self, picks: Iterable[int]) -> tuple[Edge, ...]:
        """The hidden edges at the indices `picks` of witness answers."""
        edges = self._hidden.edges
        return tuple(edges[i] for i in picks)

    # -- internals -----------------------------------------------------

    def _kind(self, witness: bool) -> int:
        return (0 if self._d == 2 else 2) + bool(witness)

    def _ask(self, kind: int, parts: Sequence[Iterable[int]], d: int):
        """One query of `kind` (an index into _KINDS; odd kinds are witness
        queries, even kinds existence queries) on `d` parts."""
        if d != self._d:
            raise ValueError(f"{_KINDS[kind]} requires a hidden graph (d=2), have d={self._d}")
        if len(parts) != d:
            raise ValueError(f"expected {d} parts, got {len(parts)}")
        answers = self._as_dict(kind & 1, *self._run(kind, self._set_labels(parts))[1:])
        return answers.get(tuple(range(d)), None if kind & 1 else False)

    def _set_labels(self, sets: Sequence[Iterable[int]]) -> np.ndarray:
        """The label row of `sets` (see `_run`), rejecting malformed sets
        before any counter moves."""
        n = self._n
        row = [-1] * n
        for i, p in enumerate(sets):
            empty = True
            for v in p:
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise ValueError("part vertices must be integers")
                if not 0 <= v < n:
                    raise ValueError(f"part vertex outside [0, {n})")
                if row[v] >= 0:
                    raise ValueError("parts must be pairwise disjoint (and duplicate-free)")
                row[v], empty = i, False
            if empty:
                raise ValueError("parts must be non-empty")
        return np.array([row], dtype=np.int32)

    def _as_dict(self, witness: bool, tuples: np.ndarray, picks: np.ndarray) -> dict:
        """Non-empty answers of one row, keyed by class tuple."""
        keys = map(tuple, tuples.tolist())
        if not witness:
            return dict.fromkeys(keys, True)
        return dict(zip(keys, self.witnesses(picks.tolist())))

    def _run(self, kind: int, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one evaluation path. Each row of `labels` (t, n) gives every
        vertex its class, 0..q-1, or -1 for none, and asks one query of
        `kind` per d-tuple of its q classes; rows are asked in order, as if
        one call each. Counts and logs every query and returns the non-empty
        answers in (row, class tuple) order as three arrays: the row, the
        class tuple (one row of d labels) and the index of the answering
        edge in the hidden edge list."""
        d = self._d
        qs = (labels.max(axis=1) + 1).tolist()
        # call index of each row's first tuple
        base = list(itertools.accumulate((math.comb(q, d) for q in qs), initial=sum(self._counts)))
        self._counts[kind] += base[-1] - base[0]
        tuples = np.sort(labels[:, self._edge_mat], axis=2)
        # an edge qualifies for the tuple of its classes when they are d distinct classes
        keep = (tuples[:, :, 1:] > tuples[:, :, :-1]).all(axis=2)
        keep &= tuples[:, :, 0] >= 0
        rows, edges = keep.nonzero()
        tuples = tuples[rows, edges]
        # stable: edges stay in canonical order inside each (row, tuple) group
        order = np.lexsort((*tuples.T[::-1], rows))
        rows, edges, tuples = rows[order], edges[order], tuples[order]
        first = np.empty(len(rows), dtype=bool)
        first[:1] = True
        np.any(tuples[1:] != tuples[:-1], axis=1, out=first[1:])
        first[1:] |= rows[1:] != rows[:-1]
        starts = first.nonzero()[0]
        rows, tuples = rows[starts], tuples[starts]
        if kind & 1 and self.policy is EdgeSelectionPolicy.UNIFORM_RANDOM:
            sizes = np.diff(starts, append=len(edges)).tolist()
            starts = [
                s + mix_choice(self.policy_seed, base[r] + _rank(t, qs[r]), size)
                for s, r, t, size in zip(starts.tolist(), rows.tolist(), tuples.tolist(), sizes)
            ]
        picks = edges[starts]
        if self._log is not None:
            if not base[0]:  # nothing logged yet: drop what the file held before
                self._log.truncate(0)
            self._write_log(kind, labels, qs, rows, tuples, picks)
        return rows, tuples, picks

    def _write_log(self, kind, labels, qs, rows, tuples, picks) -> None:
        """One line per query of `_run`, rows in order, tuples in
        itertools.combinations order."""
        found = {(r, *t): i for r, t, i in zip(rows.tolist(), tuples.tolist(), picks.tolist())}
        edges = self._hidden.edges
        for r, q in enumerate(qs):
            members: list[list[str]] = [[] for _ in range(q)]
            for v, label in enumerate(labels[r].tolist()):
                if label >= 0:
                    members[label].append(str(v))
            texts = [",".join(m) for m in members]
            for t in itertools.combinations(range(q), self._d):
                i = found.get((r, *t))
                if kind & 1:
                    text = "null" if i is None else ",".join(map(str, edges[i]))
                else:
                    text = "no" if i is None else "yes"
                self._log.write(f"{_KINDS[kind]}|{';'.join(texts[j] for j in t)}|{text}\n")


def _rank(combo: tuple[int, ...], q: int) -> int:
    """Position of `combo` in itertools.combinations(range(q), len(combo))."""
    d = len(combo)
    return math.comb(q, d) - 1 - sum(math.comb(q - 1 - c, d - i) for i, c in enumerate(combo))
