import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab.hypergraph import (
    Hypergraph,
    gen_gnp,
    gen_planted_cut,
    gen_planted_hitting_set,
    gen_planted_packing,
    new_hypergraph,
    parse_hypergraph,
    serialize_hypergraph,
    union,
)
from qclab.harness import generate_instance
from qclab.solvers import max_set_packing, max_t_cut, min_hitting_set, min_vertex_cover


def test_new_hypergraph_dedups_and_sorts():
    h = new_hypergraph(3, 2, [(1, 0), (0, 1)])
    assert h.edges == ((0, 1),)
    assert h.m == 1


def test_new_hypergraph_three_uniform():
    h = new_hypergraph(4, 3, [(0, 1, 2)])
    assert h.d == 3 and h.edges == ((0, 1, 2),)


def test_new_hypergraph_rejects_repeated_vertex():
    with pytest.raises(ValueError):
        new_hypergraph(2, 2, [(0, 0)])


def test_new_hypergraph_rejects_out_of_range_and_bad_arity():
    with pytest.raises(ValueError):
        new_hypergraph(3, 2, [(0, 3)])
    with pytest.raises(ValueError):
        new_hypergraph(3, 2, [(0, 1, 2)])
    with pytest.raises(ValueError):
        new_hypergraph(3, 1, [])


@pytest.mark.parametrize(
    "build, bad, good",
    [
        (Hypergraph, ((0.5, 1.5),), ((np.int64(0), np.int64(1)),)),
        (Hypergraph, ((False, True),), ((np.uint8(0), np.int32(1)),)),
        (new_hypergraph, [(0.5, 1.7)], [(np.int64(1), np.uint16(0))]),
    ],
)
def test_vertex_ids_must_be_integers(build, bad, good):
    with pytest.raises(ValueError, match="non-integer vertex"):
        build(3, 2, bad)
    assert build(3, 2, good).edges == ((0, 1),)


def test_union_idempotent_and_merges():
    g = new_hypergraph(3, 2, [(0, 1)])
    assert union(g, g) == g
    g2 = new_hypergraph(3, 2, [(1, 2)])
    assert union(g, g2).edges == ((0, 1), (1, 2))


def test_union_rejects_mismatch():
    with pytest.raises(ValueError):
        union(new_hypergraph(3, 2, []), new_hypergraph(4, 2, []))
    with pytest.raises(ValueError):
        union(new_hypergraph(4, 2, []), new_hypergraph(4, 3, []))


@given(
    st.integers(4, 10),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20),
)
@settings(max_examples=40, deadline=None)
def test_union_bound_property(n, raw_a, raw_b):
    edges_a = [e for e in raw_a if e[0] != e[1] and max(e) < n]
    edges_b = [e for e in raw_b if e[0] != e[1] and max(e) < n]
    a = new_hypergraph(n, 2, edges_a)
    b = new_hypergraph(n, 2, edges_b)
    u = union(a, b)
    assert u.m <= a.m + b.m
    assert set(a.edges) <= set(u.edges)
    assert set(b.edges) <= set(u.edges)


def test_gnp_extremes():
    assert gen_gnp(6, 2, 0.0, seed=1).m == 0
    assert gen_gnp(4, 2, 1.0, seed=1).m == 6


def test_gnp_binomial_mean():
    # mean edge count over 200 seeds should sit within 5 sigma of the
    # binomial expectation for every single draw
    total_possible = math.comb(30, 2)
    mean = total_possible * 0.1
    sigma = math.sqrt(total_possible * 0.1 * 0.9)
    for seed in range(200):
        m = gen_gnp(30, 2, 0.1, seed=seed).m
        assert abs(m - mean) <= 5 * sigma


def test_gnp_reproducible():
    assert gen_gnp(20, 3, 0.2, seed=9) == gen_gnp(20, 3, 0.2, seed=9)


def test_planted_hitting_set_every_edge_hits_witness():
    h, truth = gen_planted_hitting_set(40, 2, 3, 100, seed=1)
    assert h.m == 100
    s = set(truth.witness)
    assert all(s.intersection(e) for e in h.edges)
    assert truth.validate(h)
    assert len(min_vertex_cover(h)) <= 3


def test_planted_hitting_set_k1_single_vertex():
    h, truth = gen_planted_hitting_set(10, 2, 1, 9, seed=3)
    (v,) = truth.witness
    assert all(v in e for e in h.edges)
    assert len(min_hitting_set(h)) == 1


def test_planted_hitting_set_optimum_at_most_k_over_seeds():
    # 100 seeded outputs across k <= 4, n <= 50: exact optimum never exceeds k
    for seed in range(100):
        k = 1 + seed % 4
        h, _ = gen_planted_hitting_set(20 + seed % 31, 2, k, 12 + 3 * k, seed=seed)
        assert len(min_vertex_cover(h)) <= k


def test_planted_hitting_set_infeasible_m():
    with pytest.raises(ValueError):
        gen_planted_hitting_set(10, 2, 1, 10, seed=0)  # only 9 edges touch one vertex


def test_planted_packing_exact_when_no_extra():
    h, truth = gen_planted_packing(20, 2, 4, 0, seed=5)
    assert h.m == 4
    assert len(max_set_packing(h)) == 4
    seen = set()
    for e in truth.witness:
        assert not seen.intersection(e)
        seen.update(e)


def test_planted_packing_with_extras_lower_bound():
    h, truth = gen_planted_packing(30, 3, 3, 20, seed=2)
    assert truth.validate(h)
    assert len(max_set_packing(h)) >= 3


def test_planted_packing_infeasible():
    with pytest.raises(ValueError):
        gen_planted_packing(5, 3, 2, 0, seed=0)


def test_planted_cut_minimal():
    h, truth = gen_planted_cut(2, 2, 1, seed=0)
    assert h.edges == ((0, 1),)
    assert truth.witness[0] != truth.witness[1]


def test_planted_cut_witness_achieves_k():
    h, truth = gen_planted_cut(24, 3, 10, seed=5)
    assert truth.validate(h)
    _, opt = max_t_cut(h, 3)
    assert opt >= 10


def test_planted_cut_infeasible():
    with pytest.raises(ValueError):
        gen_planted_cut(3, 3, 4, seed=0)  # at most 3 crossing pairs exist


def test_parse_basic_and_errors():
    h = parse_hypergraph("3 2 1\n0 1\n")
    assert h == new_hypergraph(3, 2, [(0, 1)])
    with pytest.raises(ValueError):
        parse_hypergraph("3 2 2\n0 1\n")  # header claims two edges
    with pytest.raises(ValueError):
        parse_hypergraph("3 2\n")
    with pytest.raises(ValueError):
        parse_hypergraph("3 2 1\n0 5\n")
    h2 = parse_hypergraph("# comment\n3 2 1\n# another\n0 1\n")
    assert h2 == h


def test_roundtrip_random_instances():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 20))
        d = 2 if n < 3 or trial % 2 == 0 else 3
        if n < d:
            continue
        h = gen_gnp(n, d, float(rng.random()) * 0.4, seed=trial)
        assert parse_hypergraph(serialize_hypergraph(h)) == h


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=20, deadline=None)
def test_generators_validate_invariants(seed):
    h, _ = gen_planted_hitting_set(15, 2, 2, 20, seed=seed)
    # construction re-checks invariants; just re-build to assert canonical form
    assert Hypergraph(n=h.n, d=h.d, edges=h.edges) == h


def test_planted_packing_rejects_more_edges_than_fit():
    with pytest.raises(ValueError, match="cannot place 101 distinct edges"):
        gen_planted_packing(4, 2, 1, 100, seed=0)
    h, _ = gen_planted_packing(4, 2, 1, 5, seed=0)  # every pair of 4 vertices
    assert h.m == 6


def test_planted_generators_reject_negative_counts():
    with pytest.raises(ValueError, match="extra must be non-negative"):
        gen_planted_packing(10, 2, 2, -1, seed=0)
    with pytest.raises(ValueError, match="m must be non-negative"):
        gen_planted_hitting_set(10, 2, 2, -1, seed=0)


def test_planted_hitting_set_rejects_a_set_larger_than_n():
    with pytest.raises(ValueError, match="cannot plant a 5-set in 4 vertices"):
        gen_planted_hitting_set(4, 2, 5, 3, seed=0)


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: generate_instance("planted-hs", 10.5, 2, 2, 0), "n", id="hs-n"),
        pytest.param(lambda: generate_instance("planted-hs", 10, 2, 2, 0, m=5.5), "m", id="hs-m"),
        pytest.param(lambda: gen_planted_hitting_set(10, 2.0, 2, 5, 0), "d", id="hs-d"),
        pytest.param(lambda: gen_planted_hitting_set(10, 2, True, 5, 0), "k", id="hs-k"),
        pytest.param(lambda: generate_instance("planted-packing", 10, 2, 2, 0, extra=2.5),
                     "extra", id="packing-extra"),
        pytest.param(lambda: gen_planted_packing(10, 2, 1.5, 0, 0), "k", id="packing-k"),
        pytest.param(lambda: gen_planted_cut(10, 2.5, 3, 0), "t", id="cut-t"),
        pytest.param(lambda: gen_planted_cut("10", 2, 3, 0), "n", id="cut-n"),
        pytest.param(lambda: generate_instance("gnp", 10.5, 2, 0, 0, m=5), "n", id="gnp-n"),
        pytest.param(lambda: generate_instance("gnp", 10, 2, 0, 0, m=5.5), "m", id="gnp-m"),
        pytest.param(lambda: gen_gnp(10, 2.0, 0.3, 0), "d", id="gnp-d"),
    ],
)
def test_generator_sizes_must_be_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()
