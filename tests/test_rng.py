"""The block draw against the per-stream draw it replaces.

`block_integers(seed, tag, count, b, n)` derives every row's Philox key in
one numpy pass, mirroring numpy's `SeedSequence`, maps the rows' raw Philox
words to [0, b) with numpy's bounded step over the whole block, and lets
numpy's own `integers` draw the rows that step cannot. Row r must equal
`rng_from(seed, tag, r).integers(0, b, size=n)` exactly, whatever the seed,
tag, bound and length; every coloring, stored output and seed-0 digest rests
on that.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab.algorithms import _random_colorings
from qclab.coloring import HashColoring, next_prime, perfect_family, random_coloring
from qclab.coloring import random_colorings
from qclab.hypergraph import gen_planted_packing
from qclab.oracle import OracleSession
from qclab.harness import generate_instance, run_trial
from qclab.rng import block_integers, derive_seed, rng_from
from qclab.sampler import sample_union

SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, -7)  # a negative seed is masked to 64 bits
TAGS = ("round", "sample", 3)
# 3 * 2**30 rejects a quarter of the draws and 10**9 about 6.9 %, so a block
# mixes rows with and without a redraw; 691_200 is the d = 3 hitting-set
# palette at k = 1; 2**32 - 1 is the largest bound of the 32-bit step, and
# 2**32 and up leave it
BOUNDS = (1, 2, 7, 691_200, 10**9, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1, 2**40)


def assert_rows_equal(seed, tag, count, b, n):
    block = block_integers(seed, tag, count, b, n)
    assert block.shape == (count, n) and block.dtype == np.int64
    for r, row in enumerate(block):
        want = rng_from(seed, tag, r).integers(0, b, size=n)
        assert np.array_equal(row, want), (
            f"block_integers({seed}, {tag!r}, {count}, {b}, {n}) row {r} differs from "
            f"rng_from: numpy {np.__version__} may derive keys or draw differently than "
            "numpy==2.4.6, the version .github/workflows/tests.yml pins"
        )


@pytest.mark.parametrize("b", BOUNDS)
@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_block_rows_equal_the_per_stream_draws(seed, tag, b):
    for count, n in ((1, 1), (2, 50)):
        assert_rows_equal(seed, tag, count, b, n)


@pytest.mark.parametrize("b", BOUNDS)
def test_block_rows_equal_the_per_stream_draws_at_long_and_many_rows(b):
    assert_rows_equal(1, "round", 1, b, 10_001)
    assert_rows_equal(2**40 + 5, "sample", 2, b, 10_001)
    assert_rows_equal(3, "round", 900, b, 1)
    assert_rows_equal(2**63, 7, 900, b, 50)


@given(
    st.integers(-(2**65), 2**65),
    st.one_of(st.text(max_size=12), st.integers(-(2**65), 2**65)),
    st.integers(0, 6),
    st.one_of(st.sampled_from(BOUNDS), st.integers(1, 2**62)),
    st.integers(0, 70),
)
@settings(max_examples=300, deadline=None)
def test_block_rows_equal_the_per_stream_draws_anywhere(seed, tag, count, b, n):
    assert_rows_equal(seed, tag, count, b, n)


def test_block_rejects_a_count_past_the_row_index_words():
    for count in (-1, 2**32 + 1):
        with pytest.raises(ValueError, match="count"):
            block_integers(0, "round", count, 2, 0)


def test_round_colorings_equal_the_per_stream_colorings():
    for n, b, rounds, seed in ((12, 36, 900, 5), (50, 7, 4, 2**40), (1, 1, 3, 0), (9, 4, 0, 1)):
        want = [random_coloring(n, b, rng_from(seed, "round", r)) for r in range(rounds)]
        assert _random_colorings(n, b, rounds, seed) == want
        assert random_colorings(n, b, seed, "round", rounds) == want
    with pytest.raises(ValueError, match="at least one color"):
        random_colorings(5, 0, 1, "round", 2)


def test_sample_union_provenance_equals_the_per_stream_colorings():
    h, _ = gen_planted_packing(30, 2, 3, 10, seed=4)
    for b, t, seed in ((9, 1, 0), (9, 12, 7), (200, 30, 2**33)):
        with OracleSession(h) as session:
            got = sample_union(session, b, t, seed).provenance
        assert got == tuple(random_coloring(h.n, b, rng_from(seed, "sample", i)) for i in range(t))


def test_perfect_family_members_equal_the_per_member_construction():
    for n, s, range_b in ((14, 4, 1600), (5, 1, 4), (40, 2, 16), (1, 1, 4)):
        f = perfect_family(n, s, range_b)
        p = next_prime(max(n, range_b))
        xs = np.arange(n, dtype=np.int64)
        want = tuple(
            HashColoring(n=n, b=range_b, color=tuple(((a * xs % p) % range_b).tolist()))
            for a in range(1, p)
        )
        assert f.p == p and f.members == want


_H = gen_planted_packing(8, 2, 2, 3, seed=1)[0]


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: run_trial("packing", _H, 2, seed=1.5), "seed", id="trial-float"),
        pytest.param(lambda: run_trial("packing", _H, 2, seed="7"), "seed", id="trial-str"),
        pytest.param(lambda: run_trial("packing", _H, 2, seed=True), "seed", id="trial-bool"),
        pytest.param(lambda: run_trial("packing", _H, 2, seed=None), "seed", id="trial-none"),
        pytest.param(lambda: generate_instance("planted-hs", 8, 2, 2, 1.5, m=4), "seed",
                     id="generator"),
        pytest.param(lambda: rng_from(False, "round"), "seed", id="rng-from"),
        pytest.param(lambda: derive_seed(2.0, "algo"), "seed", id="derive-seed"),
        pytest.param(lambda: block_integers(np.float64(3), "round", 2, 5, 4), "seed", id="block"),
        pytest.param(lambda: OracleSession(_H, policy_seed=1.5), "policy_seed", id="policy-seed"),
    ],
)
def test_seeds_must_be_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()
