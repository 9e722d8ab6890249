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
tuple of the sets its vertices lie in, so a single pass over the edges
answers all C(q, d) of them. The four endpoints are that same pass at q = d:
counters, witnesses, random-policy call indices and log lines are identical
whether the tuples are asked together or one by one.

Which qualifying edge a witness query returns is a policy: ``LEXICOGRAPHIC``
(the globally smallest in canonical order, the reproducible default) or
``UNIFORM_RANDOM`` (keyed by the session's policy seed and call index).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .hypergraph import Edge, Hypergraph
from .rng import mix_choice

# query kinds in counter order
_KINDS = ("bis", "bise", "gpis", "gpise")


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
        return QueryStats(
            bis=self.bis - other.bis,
            bise=self.bise - other.bise,
            gpis=self.gpis - other.gpis,
            gpise=self.gpise - other.gpise,
        )


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
        self._hidden = hidden
        self._n = hidden.n
        self._d = hidden.d
        self.policy = policy
        self.policy_seed = int(policy_seed)
        self._counts = [0, 0, 0, 0]  # bis, bise, gpis, gpise
        self._edge_mat = np.asarray(hidden.edges, dtype=np.int64).reshape(-1, hidden.d)
        self._log: Optional[IO[str]] = open(log_path, "w", encoding="utf-8") if log_path else None

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
        c = self._counts
        return QueryStats(bis=c[0], bise=c[1], gpis=c[2], gpise=c[3])

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
        self._validate(sets)
        return self._run((0 if self._d == 2 else 2) + bool(witness), sets)

    # -- internals -----------------------------------------------------

    def _ask(self, kind: int, parts: Sequence[Iterable[int]], d: int):
        """One query of `kind` (an index into _KINDS; odd kinds are witness
        queries, even kinds existence queries) on `d` parts."""
        if d != self._d:
            raise ValueError(f"{_KINDS[kind]} requires a hidden graph (d=2), have d={self._d}")
        if len(parts) != d:
            raise ValueError(f"expected {d} parts, got {len(parts)}")
        self._validate(parts)
        return self._run(kind, parts).get(tuple(range(d)), None if kind & 1 else False)

    def _validate(self, sets: Sequence[Iterable[int]]) -> None:
        """Reject malformed sets before any counter moves."""
        total = 0
        seen: set[int] = set()
        for p in sets:
            lp = len(p)  # type: ignore[arg-type]
            if not lp:
                raise ValueError("parts must be non-empty")
            total += lp
            seen.update(p)
        if len(seen) != total:
            raise ValueError("parts must be pairwise disjoint (and duplicate-free)")
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in seen):
            raise ValueError("part vertices must be integers")
        if seen and (min(seen) < 0 or max(seen) >= self._n):
            raise ValueError(f"part vertex outside [0, {self._n})")

    def _run(self, kind: int, sets: Sequence[Iterable[int]]) -> dict:
        """The one evaluation path: answer every d-tuple of the validated
        `sets` as a query of `kind`, count and log each, and return the
        non-empty answers keyed by index tuple."""
        d, q = self._d, len(sets)
        base = sum(self._counts)  # call index of the first tuple
        self._counts[kind] += math.comb(q, d)
        set_of = np.full(self._n, -1, dtype=np.int64)
        for i, s in enumerate(sets):
            set_of[list(s)] = i
        rows = np.sort(set_of[self._edge_mat], axis=1)
        # an edge qualifies for the tuple of its sets when they are d distinct sets
        keep = (rows[:, 0] >= 0) & (np.diff(rows, axis=1) > 0).all(axis=1)
        groups: dict[tuple[int, ...], list[Edge]] = {}
        edges = self._hidden.edges
        for i, row in zip(np.flatnonzero(keep).tolist(), rows[keep].tolist()):
            groups.setdefault(tuple(row), []).append(edges[i])
        witness = kind & 1
        if not witness:
            answers: dict = dict.fromkeys(groups, True)
        elif self.policy is EdgeSelectionPolicy.LEXICOGRAPHIC:
            answers = {t: found[0] for t, found in groups.items()}
        else:
            answers = {
                t: found[mix_choice(self.policy_seed, base + _rank(t, q), len(found))]
                for t, found in groups.items()
            }
        if self._log is not None:
            texts = [",".join(map(str, sorted(s))) for s in sets]
            for t in itertools.combinations(range(q), d):
                answer = answers.get(t)
                if witness:
                    text = "null" if answer is None else ",".join(map(str, answer))
                else:
                    text = "yes" if answer else "no"
                self._log.write(f"{_KINDS[kind]}|{';'.join(texts[i] for i in t)}|{text}\n")
        return answers


def _rank(combo: tuple[int, ...], q: int) -> int:
    """Position of `combo` in itertools.combinations(range(q), len(combo))."""
    d = len(combo)
    return math.comb(q, d) - 1 - sum(math.comb(q - 1 - c, d - i) for i, c in enumerate(combo))
