"""The planted generators draw a batch of edges per numpy call; their streams
and instances equal those of one `rng.choice` call per edge.

These tests lean on numpy's own sampling routines (Floyd's algorithm inside
`Generator.choice`, and `integers` of an array of bounds), which CI pins with
numpy==2.4.6; on a failure, the message names the numpy version in use.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab.hypergraph import gen_planted_cut, gen_planted_hitting_set, gen_planted_packing
from qclab.rng import choice_rows

from reference import per_edge_planted_cut, per_edge_planted_hitting_set, per_edge_planted_packing

NUMPY = f"numpy {np.__version__} (CI pins numpy==2.4.6)"

# (n, d, k, m): the trials, verify and ladder shapes, d up to 5, n = 20 000,
# and shapes where m is every edge that meets the planted set
HITTING_SET_SHAPES = (
    (30, 2, 2, 40), (24, 2, 2, 35), (12, 3, 2, 30), (10, 3, 2, 25), (36, 2, 2, 50),
    (16, 3, 2, 30), (20, 2, 3, 28), (22, 3, 4, 60), (100, 2, 2, 150), (50, 3, 2, 150),
    (1000, 2, 2, 500), (10000, 2, 2, 500), (2000, 3, 2, 500), (20000, 2, 2, 300),
    (20000, 5, 2, 50), (12, 5, 3, 100), (9, 4, 2, 60), (8, 3, 2, 36), (6, 5, 1, 5),
    (5, 2, 5, 10), (3, 3, 1, 1), (7, 2, 1, 0),
)
# (n, d, k, extra)
PACKING_SHAPES = (
    (30, 2, 2, 8), (25, 3, 2, 6), (24, 2, 2, 0), (14, 2, 2, 2), (24, 2, 4, 14),
    (24, 3, 5, 12), (10, 5, 2, 40), (20000, 3, 2, 100), (6, 2, 3, 12),
)
# (n, t, k)
CUT_SHAPES = (
    (24, 2, 4), (14, 2, 2), (10, 3, 20), (30, 2, 120), (20000, 2, 50), (4, 4, 6), (40, 5, 300),
)


@pytest.mark.parametrize("shape", HITTING_SET_SHAPES)
def test_planted_hitting_set_equals_one_choice_per_edge(shape):
    for seed in range(40):
        assert gen_planted_hitting_set(*shape, seed) == per_edge_planted_hitting_set(
            *shape, seed
        ), NUMPY


@pytest.mark.parametrize("shape", PACKING_SHAPES)
def test_planted_packing_equals_one_choice_per_edge(shape):
    for seed in range(40):
        assert gen_planted_packing(*shape, seed) == per_edge_planted_packing(*shape, seed), NUMPY


@pytest.mark.parametrize("shape", CUT_SHAPES)
def test_planted_cut_equals_one_choice_per_edge(shape):
    n, t, k = shape
    for seed in range(40):
        assert gen_planted_cut(n, t, k, seed) == per_edge_planted_cut(n, t, k, seed), NUMPY


@given(
    st.sampled_from(((2, 2), (3, 2), (4, 3), (5, 2))), st.integers(0, 40),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_generators_equal_one_choice_per_edge_at_any_seed(dk, extra, seed):
    d, k = dk
    n = d * k + 4
    extra = min(extra, math.comb(n, d) - k)
    assert gen_planted_packing(n, d, k, extra, seed) == per_edge_planted_packing(
        n, d, k, extra, seed
    ), NUMPY
    m = min(extra, math.comb(n, d) - math.comb(n - k, d))
    assert gen_planted_hitting_set(n, d, k, m, seed) == per_edge_planted_hitting_set(
        n, d, k, m, seed
    ), NUMPY
    # any 2-partition of n >= 8 vertices admits 7 crossing edges
    cut = (n, 2, 1 + extra % 7, seed)
    assert gen_planted_cut(*cut) == per_edge_planted_cut(*cut), NUMPY


def _sequential_rows(rng, pop, size, rows, lead):
    out = []
    for _ in range(rows):
        out.append(([int(rng.integers(h)) for h in lead], rng.choice(pop, size, replace=False)))
    return out


# numpy's choice switches from Floyd's algorithm to a tail shuffle above
# pop = 10 000 once size > pop // 50
@pytest.mark.parametrize(
    "pop, size",
    [(pop, size) for pop in (10_000, 10_001, 20_000) for size in (1, 2, 3, 4, 5, 200, 201)
     if not (pop == 10_001 and size == 201)],
)
@pytest.mark.parametrize("lead", [(), (1,), (3,), (7, 1, 2)])
def test_choice_rows_equal_successive_choice_calls(pop, size, lead):
    for seed in range(5):
        rows = 1 + seed
        batched = np.random.Generator(np.random.Philox(seed))
        sequential = np.random.Generator(np.random.Philox(seed))
        lead_draws, picks = choice_rows(batched, pop, size, rows, lead)
        expected = _sequential_rows(sequential, pop, size, rows, lead)
        assert lead_draws.tolist() == [drawn for drawn, _ in expected], NUMPY
        assert [sorted(p) for p in picks.tolist()] == [
            sorted(chosen.tolist()) for _, chosen in expected
        ], NUMPY
        # the picks are distinct and in range, and both streams stand at the same place
        assert all(len(set(p)) == size for p in picks.tolist())
        assert picks.min() >= 0 and picks.max() < pop
        assert batched.integers(2**62) == sequential.integers(2**62), NUMPY


def test_choice_rows_refuses_the_tail_shuffle_shapes():
    rng = np.random.Generator(np.random.Philox(0))
    with pytest.raises(ValueError, match="distinct vertices"):
        choice_rows(rng, 10_001, 201, 1)
    with pytest.raises(ValueError, match="distinct vertices"):
        gen_planted_hitting_set(10_003, 202, 1, 1, seed=0)
    with pytest.raises(ValueError, match="distinct vertices"):
        gen_planted_packing(10_001, 201, 1, 1, seed=0)
    # without an edge to draw, no shape is refused
    assert gen_planted_hitting_set(10_003, 202, 1, 0, seed=0)[0].m == 0
