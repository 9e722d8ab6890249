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
from typing import Sequence

import numpy as np

from .hypergraph import all_integers, is_integer, require_integer
from .rng import block_integers


@dataclass(frozen=True, init=False, eq=False)
class HashColoring:
    """A map from vertices [0, n) to colors [0, b), held as one read-only
    int64 row. Colorings are equal when n, b and the colors are."""

    n: int
    b: int
    array: np.ndarray

    def __init__(self, n: int, b: int, color: Sequence[int] | np.ndarray) -> None:
        require_integer("n", n, 0)
        _require_colors(b)
        if not (
            color.dtype.kind in "iu" if isinstance(color, np.ndarray) else all_integers(color)
        ):
            raise ValueError("colors must be integers")
        try:
            array = np.array(color, dtype=np.int64)
        except OverflowError:
            raise ValueError("color value outside [0, b)") from None
        if array.shape != (n,):
            raise ValueError(f"coloring has {array.size} entries, expected {n}")
        _set(self, n, b, _read_only(array, b))

    @property
    def color(self) -> tuple[int, ...]:
        """The colors as a tuple of Python ints."""
        return tuple(self.array.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashColoring):
            return NotImplemented
        return (self.n, self.b, self.array.tobytes()) == (other.n, other.b, other.array.tobytes())

    def __hash__(self) -> int:
        return hash((self.n, self.b, self.array.tobytes()))


def _set(c: HashColoring, n: int, b: int, array: np.ndarray) -> HashColoring:
    # past the frozen __setattr__, once per coloring
    c.__dict__.update(n=n, b=b, array=array)
    return c


def _read_only(colors: np.ndarray, b: int) -> np.ndarray:
    """`colors` made read-only, once every value is checked to lie in [0, b)."""
    if colors.size and (colors.min() < 0 or colors.max() >= b):
        raise ValueError("color value outside [0, b)")
    colors.flags.writeable = False
    return colors


def _colorings(n: int, b: int, block: np.ndarray) -> list[HashColoring]:
    """One coloring per row of the (count, n) int64 `block`, each a read-only
    view of it: the block is checked once, not row by row."""
    block = _read_only(block, b)
    return [_set(object.__new__(HashColoring), n, b, row) for row in block]


def _require_colors(b: object) -> None:
    if is_integer(b) and b < 1:
        raise ValueError("need at least one color")
    require_integer("b", b, 1)


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
    require_integer("n", n, 0)
    _require_colors(b)
    return _colorings(n, b, rng.integers(0, b, size=(1, n)))[0]


def random_colorings(n: int, b: int, seed: int, tag: object, count: int) -> list[HashColoring]:
    """Colorings 0..count-1, the r-th equal to
    `random_coloring(n, b, rng_from(seed, tag, r))`, drawn as one block."""
    require_integer("n", n, 0)
    _require_colors(b)
    require_integer("count", count, 0)
    return _colorings(n, b, block_integers(seed, tag, count, b, n))


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
    require_integer("n", n, 1)
    require_integer("s", s, 1)
    require_integer("range_b", range_b, 1)
    if range_b < 4 * s * s:
        raise ValueError(f"need range_b >= 4*s^2 = {4 * s * s}, got {range_b}")
    p = next_prime(max(n, range_b))
    colors = np.arange(1, p)[:, None] * np.arange(n) % p % range_b  # row a-1 is member a
    return PerfectFamily(s=s, b=range_b, p=p, members=tuple(_colorings(n, range_b, colors)))


def verify_perfect(f: PerfectFamily, n: int | None = None, guard: int = 10**6) -> bool:
    """Exhaustively check that every s-subset is injectively colored somewhere.

    Subsets of size exactly min(s, n) suffice: a member injective on a
    superset is injective on the subset. The subsets are drawn from the first
    n vertices; n defaults to, and may not exceed, the vertices every member
    colors.
    """
    if not f.members:
        return False
    colored = min(m.n for m in f.members)
    n = colored if n is None else n
    require_integer("n", n, 0)
    if n > colored:
        raise ValueError(f"the members color {colored} vertices, cannot check n={n}")
    size = min(f.s, n)
    if math.comb(n, size) > guard:
        raise ValueError(f"C({n},{size}) exceeds enumeration guard {guard}")
    colorings = [m.color for m in f.members]
    for subset in itertools.combinations(range(n), size):
        if not any(len({col[v] for v in subset}) == size for col in colorings):
            return False
    return True
