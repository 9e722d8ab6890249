import math
import tracemalloc

import numpy as np
import pytest

from qclab.coloring import (
    HashColoring,
    classes,
    next_prime,
    perfect_family,
    random_coloring,
    random_colorings,
    verify_perfect,
)
from qclab.rng import rng_from


def test_single_color_everything_zero():
    c = random_coloring(10, 1, rng_from(0))
    assert set(c.color) == {0}


def test_zero_colors_rejected():
    with pytest.raises(ValueError):
        random_coloring(5, 0, rng_from(0))


def test_multinomial_balance():
    c = random_coloring(10_000, 4, rng_from(123))
    sigma = math.sqrt(10_000 * 0.25 * 0.75)
    for col in range(4):
        count = sum(1 for x in c.color if x == col)
        assert abs(count - 2500) <= 5 * sigma


def test_different_seeds_differ():
    match = 0
    for seed in range(50):
        a = random_coloring(100, 100, rng_from(seed, "a"))
        b = random_coloring(100, 100, rng_from(seed, "b"))
        if a.color == b.color:
            match += 1
    assert match == 0  # probability 100^-100 per pair


def test_classes_single_and_singletons():
    all_zero = HashColoring(n=5, b=3, color=(0, 0, 0, 0, 0))
    cc = classes(all_zero)
    assert len(cc) == 1 and cc.classes[0] == (0, (0, 1, 2, 3, 4))
    identity = HashColoring(n=4, b=4, color=(0, 1, 2, 3))
    assert len(classes(identity)) == 4


def test_classes_partition_property():
    rng = rng_from(5)
    for _ in range(20):
        c = random_coloring(30, 7, rng)
        cc = classes(c)
        seen: list[int] = []
        for col, verts in cc.classes:
            assert verts  # no empty class listed
            assert all(c.color[v] == col for v in verts)
            seen.extend(verts)
        assert sorted(seen) == list(range(30))


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(30) == 31
    assert next_prime(36) == 37
    assert next_prime(1600) == 1601


def test_perfect_family_size_and_verifier():
    fam = perfect_family(20, 3, 36)
    assert len(fam.members) == fam.p - 1
    assert fam.p == next_prime(36)
    assert verify_perfect(fam, n=20)


def test_perfect_family_four_subsets():
    fam = perfect_family(20, 4, 64)
    assert verify_perfect(fam, n=20)


def test_perfect_family_majority_injective():
    # stronger than the verifier's "at least one member": more than half
    fam = perfect_family(12, 3, 36)
    import itertools

    for subset in itertools.combinations(range(12), 3):
        good = sum(1 for m in fam.members if len({m.color[v] for v in subset}) == 3)
        assert good * 2 > len(fam.members)


def test_perfect_family_rejects_small_range():
    with pytest.raises(ValueError):
        perfect_family(10, 3, 35)  # below 4 s^2


def test_verify_perfect_trivial_cases():
    fam = perfect_family(8, 1, 4)
    assert verify_perfect(fam, n=8)
    constant = HashColoring(n=4, b=4, color=(0, 0, 0, 0))
    from qclab.coloring import PerfectFamily

    fake = PerfectFamily(s=2, b=4, p=5, members=(constant,))
    assert not verify_perfect(fake, n=4)


@pytest.mark.parametrize("n", [9, 2.5, True, -1], ids=["above", "float", "bool", "negative"])
def test_verify_perfect_rejects_an_n_the_members_do_not_color(n):
    with pytest.raises(ValueError, match="^n must be an integer|^the members color 6 vertices"):
        verify_perfect(perfect_family(6, 1, 4), n=n)


def test_verify_perfect_guard():
    fam = perfect_family(8, 2, 16)
    with pytest.raises(ValueError):
        verify_perfect(fam, n=8, guard=5)


def test_random_injectivity_frequency():
    # with b >= 100 * |S|^2 a fixed set is injectively colored in well over
    # half the trials; assert 0.6 with sampling slack
    rng = rng_from(77)
    subset = (0, 5, 9)
    b = 100 * len(subset) ** 2
    hits = 0
    for _ in range(400):
        c = random_coloring(12, b, rng)
        if len({c.color[v] for v in subset}) == len(subset):
            hits += 1
    assert hits / 400 >= 0.6


def test_reconstruction_from_classes():
    rng = rng_from(8)
    c = random_coloring(25, 6, rng)
    cc = classes(c)
    rebuilt = [None] * 25
    for col, verts in cc.classes:
        for v in verts:
            rebuilt[v] = col
    assert tuple(rebuilt) == c.color


def test_non_integer_colors_rejected():
    for color in ((0.5, 1), (0, 1.0), (True, 1), (np.bool_(False), 1), ("0", 1)):
        with pytest.raises(ValueError):
            HashColoring(2, 2, color)
    assert HashColoring(2, 2, (np.int64(0), np.uint8(1))).color == (0, 1)


def test_numpy_draws_the_stream_the_stored_outputs_assume():
    # numpy does not promise Generator streams across versions (NEP 19); every
    # coloring, stored output and seed-0 digest rests on this one
    got = rng_from(0, "round", 0).integers(0, 1000, size=8).tolist()
    assert got == [141, 467, 793, 542, 894, 269, 218, 236], (
        f"numpy {np.__version__} draws a different stream than numpy==2.4.6, "
        "the version .github/workflows/tests.yml pins"
    )


@pytest.mark.parametrize(
    "fn, args",
    [
        (HashColoring, (2, 2.5, (0, 1))),
        (HashColoring, (2, True, (0, 0))),
        (HashColoring, (2.0, 2, (0, 1))),
        (HashColoring, (-1, 2, ())),
        (HashColoring, (1, 2, (2**64,))),
        (random_coloring, (3, 2.5, 0)),
        (random_colorings, (3, 2.5, 1, "round", 2)),
        (random_colorings, (3, 0, 1, "round", 2)),
        (random_colorings, (4, 4, 1, "round", 2.0)),
        (random_colorings, (4, 4, 1, "round", -1)),
        (random_colorings, (4.0, 4, 1, "round", 2)),
        (perfect_family, (5, 2, 16.5)),
        (perfect_family, (5, 2.0, 16)),
        (perfect_family, (5.0, 2, 16)),
        (perfect_family, (5, 0, 16)),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_coloring_parameters_must_be_integers_in_range(fn, args):
    if fn is random_coloring:
        args = (*args[:2], rng_from(args[2]))
    with pytest.raises(ValueError):
        fn(*args)


def test_colorings_are_read_only_rows_of_one_block():
    drawn = random_colorings(30, 900, 5, "round", 4)
    block = drawn[0].array.base
    assert block.shape == (4, 30) and block.dtype == np.int64
    for c in drawn + list(perfect_family(6, 1, 4).members) + [random_coloring(9, 3, rng_from(2))]:
        assert not c.array.flags.writeable
        with pytest.raises(ValueError):
            c.array[0] = 0
        with pytest.raises(ValueError):
            c.array.flags.writeable = True
    for i, c in enumerate(drawn):
        assert c.array.base is block and np.array_equal(c.array, block[i])
        assert all(type(v) is int for v in c.color)
        for built in (HashColoring(30, 900, c.color), HashColoring(30, 900, list(c.color))):
            assert built == c and hash(built) == hash(c)
            assert not built.array.flags.writeable
    assert HashColoring(30, 901, drawn[0].color) != drawn[0]
    assert drawn[0] != drawn[1]


def test_random_colorings_keep_one_int64_block():
    tracemalloc.start()
    try:
        drawn = random_colorings(20000, 2000, 1, "round", 100)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(drawn) == 100
    assert kept < 20 * 2**20, f"100 colorings of 20000 vertices keep {kept / 2**20:.1f} MB"
