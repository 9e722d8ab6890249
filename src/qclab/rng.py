"""Seeded, purpose-tagged randomness.

Every random decision in the package flows from a 64-bit user seed plus a
chain of purpose tags ("round", 3, ...). Tags are hashed with BLAKE2b, so
streams are stable across platforms and Python versions, and two purposes
never share a stream by accident. The bit generator is counter-based
(Philox), which keeps derived streams independent. `block_integers` draws
the streams (seed, tag, 0), (seed, tag, 1), ... as one block, with every
Philox key derived in one numpy pass, and `choice_rows` draws many rounds of
`choice(replace=False)` on one stream from one numpy call. Both mirror numpy
internals, which the numpy==2.4.6 pin covers.
"""

from __future__ import annotations

import hashlib
import numbers
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _tag_words(tag: object) -> list[int]:
    if isinstance(tag, (int, np.integer)):
        return [int(tag) & _MASK64, 0x746167]  # disambiguate int tags from raw seeds
    digest = hashlib.blake2b(str(tag).encode("utf-8"), digest_size=16).digest()
    return [
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:], "little"),
    ]


def is_integer(value: object) -> bool:
    """An integral number that is not a bool."""
    # a plain int skips the abstract-class check, many times slower
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def seed_words(seed: int, *tags: object) -> list[int]:
    """Entropy word list for (seed, tags), usable as a SeedSequence. The
    seed is any integer but a bool, taken mod 2**64."""
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    words = [int(seed) & _MASK64]
    for tag in tags:
        words.extend(_tag_words(tag))
    return words


def rng_from(seed: int, *tags: object) -> np.random.Generator:
    """Generator for the stream identified by (seed, tags)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_words(seed, *tags))))


def _hash_consts(h: int, mult: int, count: int) -> list[tuple[int, int]]:
    """(xor, multiplier) of `count` successive hash steps: each step xors in
    the running constant, advances it by `mult` and multiplies by the result."""
    out = []
    for _ in range(count):
        out.append((h, h := h * mult & _MASK32))
    return out


def _columns(consts: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    xor, mult = np.array(consts, dtype=np.uint32).T
    return xor[:, None], mult[:, None]


# numpy's SeedSequence (O'Neill's seed_seq design) with its default pool of 4
# uint32 words. The hash constants do not depend on the data. Filling and
# cross-mixing the pool takes the first 16 of the first sequence, and each
# later entropy word the next 4, one per pool word. A 64-bit seed, one tag
# and the row index make at most 2 + 4 + 3 = 9 entropy words.
_POOL = 4
_HASHMIX = _hash_consts(0x43B0D7E5, 0x931E8875, 36)
_CROSS = [(src, dst) for src in range(_POOL) for dst in range(_POOL) if src != dst]
_LATER = [_columns(_HASHMIX[i : i + _POOL]) for i in range(16, len(_HASHMIX), _POOL)]
_GENERATE = _columns(_hash_consts(0x8B51F9DD, 0x58F38DED, _POOL))
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, xor, mult):
    """SeedSequence's hash step, on ints in [0, 2**32) or on uint32 arrays;
    arrays wrap mod 2**32 silently, where numpy scalars would warn."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (x * _MIX_L & _MASK32) - (y * _MIX_R & _MASK32) & _MASK32
    return value ^ value >> 16


def _uint32_words(words: list[int]) -> list[int]:
    """numpy's `_coerce_to_uint32_array` on non-negative ints: 0 is [0],
    others split into 32-bit words, low half first."""
    out = []
    for w in words:
        out.append(w & _MASK32)
        while w := w >> 32:
            out.append(w & _MASK32)
    return out


def _philox_keys(seed: int, tag: object, count: int) -> list[list[int]]:
    """The Philox key of `rng_from(seed, tag, r)` for every r < count, as
    `SeedSequence(...).generate_state(2, np.uint64)` derives it.

    The entropy is the shared words of (seed, tag), then r, then the int-tag
    marker. The first 4 words fill and cross-mix the pool one pool word at a
    time, as ints while they are shared. Each later word mixes into all 4
    pool words at once, as a (4, 1) array while shared and a (4, count) one
    from r on."""
    rows = np.arange(count, dtype=np.uint32)
    words = [*_uint32_words(seed_words(seed, tag)), rows, 0x746167]
    consts = iter(_HASHMIX)
    pool = [_hashmix(w, *next(consts)) for w in words[:_POOL]]
    for src, dst in _CROSS:
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    # (4, 1), or (4, count) when r was among the first 4 words
    pool = np.array(pool, dtype=np.uint32).reshape(_POOL, -1)
    for w, (xor, mult) in zip(words[_POOL:], _LATER):
        # _mix(pool, _hashmix(w, xor, mult)) without the masks arrays do not need
        h = (w ^ xor) * mult
        h ^= h >> 16
        pool = pool * _MIX_L - h * _MIX_R
        pool ^= pool >> 16
    state = _hashmix(pool, *_GENERATE)
    # generate_state(2, uint64) pairs the uint32 words little-endian
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").tolist()


def block_integers(seed: int, tag: object, count: int, b: int, n: int) -> np.ndarray:
    """A (count, n) int64 array whose row r is
    `rng_from(seed, tag, r).integers(0, b, size=n)`.

    The Philox keys of all rows come from one numpy pass. One Philox is reset
    to each row's key with a zero counter and empty buffers, as a fresh one
    would be, and gives the row's raw 64-bit words. For 2 <= b < 2**32 numpy's
    `integers` splits each word into two 32-bit ones, low half first, and maps
    word w to (w * b) >> 32, drawing again when the low 32 bits of w * b are
    below (2**32 - b) % b (Lemire's method); that step runs once over the
    block. A row with a word the step would reject, and every row of any
    other b, is drawn by numpy's `integers` itself.
    """
    if not 0 <= count <= _MASK32 + 1:
        raise ValueError(f"need 0 <= count <= 2**32 rows, got {count}")
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    state = bits.state

    def reset(key: list[int]) -> None:
        state["state"]["key"] = key
        bits.state = state

    keys = _philox_keys(seed, tag, count)
    out = np.empty((count, n), dtype=np.int64)
    redraw = range(count)
    if 2 <= b <= _MASK32:
        words = np.empty((count, -(-n // 2)), dtype=np.uint64)
        for r, key in enumerate(keys):
            reset(key)
            words[r] = bits.random_raw(words.shape[1])
        halves = words.astype("<u8", copy=False).view("<u4")[:, :n]
        # uint32 arrays wrap: halves * b here is the low 32 bits of w * b
        redraw = (halves * np.uint32(b) < (_MASK32 + 1 - b) % b).any(axis=1).nonzero()[0]
        product = out.view(np.uint64)
        np.multiply(halves, np.uint64(b), out=product)
        product >>= np.uint64(32)
    for r in redraw:
        reset(keys[r])
        out[r] = gen.integers(0, b, size=n)
    return out


def choice_rows(
    rng: np.random.Generator, pop: int, size: int, rows: int, lead: Sequence[int] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """`rows` rounds of `[rng.integers(h) for h in lead]` followed by
    `rng.choice(pop, size, replace=False)`, from one numpy call on the same
    stream: the lead draws (rows, len(lead)) and the chosen sets (rows, size),
    each set in the order of Floyd's algorithm rather than choice's shuffle.

    numpy's choice takes Floyd's algorithm unless pop > 10_000 and
    size > pop // 50: for j = pop - size .. pop - 1 it draws integers(j + 1)
    and keeps the value, or j when the value is taken already, then shuffles
    with integers(i + 1) for i = size - 1 .. 1. `integers` of an array of
    bounds draws them one after another, as successive calls do.
    """
    if pop > 10_000 and size > pop // 50:
        raise ValueError(
            f"cannot draw {size} distinct vertices of {pop} per edge: above 10000, "
            f"at most {pop // 50}"
        )
    highs = [*lead, *range(pop - size + 1, pop + 1), *range(size, 1, -1)]
    draws = rng.integers(np.tile(np.array(highs, dtype=np.int64), rows)).reshape(rows, -1)
    picks = draws[:, len(lead) : len(lead) + size].copy()
    for i in range(1, size):
        taken = (picks[:, :i] == picks[:, i, None]).any(axis=1)
        picks[taken, i] = pop - size + i
    return draws[:, : len(lead)], picks


def derive_seed(seed: int, *tags: object) -> int:
    """Collapse (seed, tags) to a single 64-bit child seed."""
    payload = b"".join(w.to_bytes(8, "little") for w in seed_words(seed, *tags))
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def mix_index(seed: int, index: int) -> int:
    """Cheap stateless 64-bit mix of (seed, index), splitmix64 style.

    Used on hot paths where constructing a Generator per call would dominate.
    """
    z = (int(seed) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_choice(seed: int, index: int, n: int) -> int:
    """Deterministic near-uniform pick from range(n) keyed by (seed, index)."""
    return (mix_index(seed, index) * n) >> 64
