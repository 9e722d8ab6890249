"""Query oracles over a hidden hypergraph, with exact per-kind accounting.

A session wraps a hypergraph whose edge set is never exposed directly; the
only access is through four query kinds, each with its own counter:

- ``gpis(parts)``  -> does some hidden edge pick one vertex from each part?
- ``gpise(parts)`` -> such an edge, or None;
- ``bis(a, b)`` / ``bise(a, b)`` -> the two-set specializations, valid only
  when the hidden arity is 2.

Parts must be pairwise disjoint, non-empty, and in range; invalid calls are
rejected before any counter moves. An edge qualifies when its vertices can be
matched one-to-one onto the parts; because parts are disjoint each vertex
lies in at most one part, so the matching test reduces to "the d vertices
cover all d parts exactly once".

Which qualifying edge a witness query returns is a policy: ``LEXICOGRAPHIC``
(the globally smallest in canonical order, the reproducible default) or
``UNIFORM_RANDOM`` (keyed by the session's policy seed and call index).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .hypergraph import Edge, Hypergraph
from .rng import mix_choice

# below this many candidate assignments, enumerating the part cross product
# beats scanning the whole edge list
_PRODUCT_CUTOFF = 32

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
        self._edge_set = set(hidden.edges)
        self._edge_list = hidden.edges
        if hidden.m:
            self._edge_mat = np.asarray(hidden.edges, dtype=np.int64)
        else:
            self._edge_mat = None
        self._arange_d = np.arange(hidden.d, dtype=np.int64)
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

    # -- internals -----------------------------------------------------

    def _ask(self, kind: int, parts: Sequence[Iterable[int]], d: int):
        """The one query path: check, count, answer, log. `kind` indexes
        _KINDS; odd kinds are witness queries (an edge or None), even kinds
        existence queries (a bool). `d` is the number of parts the kind takes."""
        if d != self._d:
            raise ValueError(f"{_KINDS[kind]} requires a hidden graph (d=2), have d={self._d}")
        seen = self._validate(parts, d)
        self._counts[kind] += 1
        witness = kind & 1
        if len(seen) == d:  # all parts are singletons: one set lookup
            key = tuple(sorted(seen))
            answer = (key if key in self._edge_set else None) if witness else key in self._edge_set
        elif witness:
            answer = self._select(parts, sum(self._counts) - 1)
        else:
            answer = bool(self._candidates(parts))
        if self._log is not None:
            if witness:
                text = "null" if answer is None else ",".join(map(str, answer))
            else:
                text = "yes" if answer else "no"
            self._write_log(_KINDS[kind], parts, text)
        return answer

    def _validate(self, parts: Sequence[Iterable[int]], d: int) -> set[int]:
        """Reject malformed parts before any counter moves; return their union."""
        if len(parts) != d:
            raise ValueError(f"expected {d} parts, got {len(parts)}")
        total = 0
        seen: set[int] = set()
        for p in parts:
            lp = len(p)  # type: ignore[arg-type]
            if not lp:
                raise ValueError("parts must be non-empty")
            total += lp
            seen.update(p)
        if len(seen) != total:
            raise ValueError("parts must be pairwise disjoint (and duplicate-free)")
        if min(seen) < 0 or max(seen) >= self._n:
            raise ValueError(f"part vertex outside [0, {self._n})")
        return seen

    def _product_size(self, parts: Sequence[Iterable[int]]) -> int:
        size = 1
        for p in parts:
            size *= len(p)  # type: ignore[arg-type]
            if size > _PRODUCT_CUTOFF:
                return size
        return size

    def _candidates(self, parts: Sequence[Iterable[int]]) -> list[Edge]:
        """All hidden edges qualifying for the parts, in canonical order."""
        if not self._edge_set:
            return []
        if self._product_size(parts) <= _PRODUCT_CUTOFF:
            d = self._d
            edge_set = self._edge_set
            found = set()
            for tup in itertools.product(*parts):
                if len(set(tup)) == d:
                    key = tuple(sorted(tup))
                    if key in edge_set:
                        found.add(key)
            return sorted(found)
        mask = self._qualify_mask(parts)
        return [self._edge_list[i] for i in np.flatnonzero(mask)]

    def _qualify_mask(self, parts: Sequence[Iterable[int]]) -> np.ndarray:
        part_of = np.full(self._n, -1, dtype=np.int64)
        for i, p in enumerate(parts):
            part_of[list(p)] = i
        pid = part_of[self._edge_mat]
        # a row qualifies when its part ids are a permutation of 0..d-1
        return (pid >= 0).all(axis=1) & (np.sort(pid, axis=1) == self._arange_d).all(axis=1)

    def _select(self, parts: Sequence[Iterable[int]], call_index: int) -> Optional[Edge]:
        candidates = self._candidates(parts)
        if not candidates:
            return None
        if self.policy is EdgeSelectionPolicy.LEXICOGRAPHIC:
            return candidates[0]
        return candidates[mix_choice(self.policy_seed, call_index, len(candidates))]

    def _write_log(self, kind: str, parts: Sequence[Iterable[int]], answer: str) -> None:
        body = ";".join(",".join(map(str, sorted(p))) for p in parts)
        assert self._log is not None
        self._log.write(f"{kind}|{body}|{answer}\n")
