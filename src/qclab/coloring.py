"""Vertex colorings used to drive the sampling primitives.

Two flavours: uniform random colorings (each vertex gets one of b colors
independently), and an explicit family of modular colorings
x -> ((a*x) mod p) mod b for a = 1..p-1 with p the smallest prime above
max(n, b). For b >= 4*s^2 a counting argument over collisions shows that any
fixed s-subset of vertices is injectively colored by more than half the
family members, so exhausting the family derandomizes any algorithm that
only needs one injective coloring of an unknown s-subset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HashColoring:
    """A map from vertices [0, n) to colors [0, b)."""

    n: int
    b: int
    color: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.b < 1:
            raise ValueError("need at least one color")
        if len(self.color) != self.n:
            raise ValueError(f"coloring has {len(self.color)} entries, expected {self.n}")
        if not all(_is_int_type(t) for t in set(map(type, self.color))):
            raise ValueError("colors must be integers")
        if self.color and (min(self.color) < 0 or max(self.color) >= self.b):
            raise ValueError("color value outside [0, b)")


def _is_int_type(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and not issubclass(t, bool)


@dataclass(frozen=True)
class ColorClasses:
    """Non-empty color classes of a coloring, ascending by color."""

    classes: tuple[tuple[int, tuple[int, ...]], ...]

    def __len__(self) -> int:
        return len(self.classes)

    def vertex_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(vs for _, vs in self.classes)


@dataclass(frozen=True)
class PerfectFamily:
    """Colorings such that every s-subset is injective under some member."""

    s: int
    b: int
    p: int
    members: tuple[HashColoring, ...]


def random_coloring(n: int, b: int, rng: np.random.Generator) -> HashColoring:
    """Color each vertex uniformly and independently from [0, b)."""
    if b < 1:
        raise ValueError("need at least one color")
    return HashColoring(n=n, b=b, color=tuple(rng.integers(0, b, size=n).tolist()))


def classes(c: HashColoring) -> ColorClasses:
    by_color: dict[int, list[int]] = {}
    for v, col in enumerate(c.color):
        by_color.setdefault(col, []).append(v)
    return ColorClasses(
        classes=tuple((col, tuple(by_color[col])) for col in sorted(by_color))
    )


def class_labels(colors: np.ndarray) -> np.ndarray:
    """Per row of `colors` (t, n), the class index of every vertex: the rank
    of its color among the row's distinct colors, so that classes run in
    ascending color order as in `classes`."""
    colors = np.asarray(colors)
    rows = np.arange(len(colors))[:, None]
    order = colors.argsort(axis=1)
    ranked = colors[rows, order]
    step = np.zeros(colors.shape, dtype=np.int32)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=step[:, 1:])
    labels = np.empty_like(step)
    labels[rows, order] = step.cumsum(axis=1, dtype=np.int32)
    return labels


def next_prime(x: int) -> int:
    """Smallest prime strictly greater than x (trial division, desk scale)."""
    cand = max(x + 1, 2)
    while True:
        if cand == 2 or (cand % 2 and all(cand % f for f in range(3, math.isqrt(cand) + 1, 2))):
            return cand
        cand += 1


def perfect_family(n: int, s: int, range_b: int) -> PerfectFamily:
    """Explicit family of p-1 modular colorings, injective-family for s-subsets."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if s < 1:
        raise ValueError("subset size must be positive")
    if range_b < 4 * s * s:
        raise ValueError(f"need range_b >= 4*s^2 = {4 * s * s}, got {range_b}")
    p = next_prime(max(n, range_b))
    xs = np.arange(n, dtype=np.int64)
    members = tuple(
        HashColoring(n=n, b=range_b, color=tuple(((a * xs % p) % range_b).tolist()))
        for a in range(1, p)
    )
    return PerfectFamily(s=s, b=range_b, p=p, members=members)


def verify_perfect(f: PerfectFamily, n: int | None = None, guard: int = 10**6) -> bool:
    """Exhaustively check that every s-subset is injectively colored somewhere.

    Subsets of size exactly min(s, n) suffice: a member injective on a
    superset is injective on the subset.
    """
    if not f.members:
        return False
    if n is None:
        n = f.members[0].n
    size = min(f.s, n)
    if math.comb(n, size) > guard:
        raise ValueError(f"C({n},{size}) exceeds enumeration guard {guard}")
    colorings = [m.color for m in f.members]
    for subset in itertools.combinations(range(n), size):
        if not any(len({col[v] for v in subset}) == size for col in colorings):
            return False
    return True
