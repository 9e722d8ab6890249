import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qclab.hypergraph import gen_gnp, gen_planted_hitting_set, new_hypergraph, union
from qclab.oracle import OracleSession
from qclab.rng import rng_from
from qclab.sampler import sample_union
from qclab.solvers import BudgetExceeded, SolverLimits, min_hitting_set
from qclab.sunflowers import (
    candidate_cores,
    classify_cores,
    erdos_rado_bound,
    find_sunflower,
    sunflower_number,
)

from reference import (
    brute_max_disjoint_sets,
    rescan_candidate_cores,
    rescan_classify_cores,
    rescan_find_sunflower,
)


def test_sunflower_number_star():
    h = new_hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])
    assert sunflower_number(h, (0,)) == 3


def test_sunflower_number_empty_core_counts_disjoint_edges():
    h = new_hypergraph(4, 2, [(0, 1), (2, 3)])
    assert sunflower_number(h, ()) == 2


def test_sunflower_number_matches_exhaustive_petal_packing():
    rng = np.random.default_rng(4)
    h = gen_gnp(14, 3, 0.1, seed=2)
    cores = candidate_cores(h)
    picks = [cores[int(i)] for i in rng.integers(0, len(cores), size=min(20, len(cores)))]
    for core in picks:
        cs = set(core)
        petals = [tuple(v for v in e if v not in cs) for e in h.edges if cs <= set(e)]
        assert sunflower_number(h, core) == brute_max_disjoint_sets(petals)


def test_find_sunflower_on_disjoint_edges():
    h = new_hypergraph(12, 3, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)])
    s = find_sunflower(h, 4)
    assert s is not None and s.core == () and s.is_valid()
    assert len(s.edges) == 4


def test_find_sunflower_absent():
    h = new_hypergraph(4, 2, [(0, 1)])
    assert find_sunflower(h, 2) is None


def test_find_sunflower_guaranteed_above_bound():
    # d=2, t=3: any graph with more than 2! * 2^2 = 8 edges has a 3-sunflower
    assert erdos_rado_bound(2, 3) == 8
    rng = np.random.default_rng(8)
    for trial in range(20):
        g = gen_gnp(10, 2, 0.35, seed=trial)
        if g.m <= 8:
            continue
        s = find_sunflower(g, 3)
        assert s is not None and s.is_valid() and len(s.edges) == 3


def test_returned_sunflower_edges_are_instance_edges():
    h, _ = gen_planted_hitting_set(20, 3, 2, 40, seed=3)
    s = find_sunflower(h, 3)
    if s is not None:
        assert set(s.edges) <= set(h.edges)
        assert s.is_valid()


def test_monotone_under_edge_addition():
    rng = np.random.default_rng(9)
    base = gen_gnp(12, 2, 0.2, seed=5)
    more = union(base, gen_gnp(12, 2, 0.2, seed=6))
    for core in candidate_cores(base)[:15]:
        assert sunflower_number(more, core) >= sunflower_number(base, core)


def test_classify_star_large_core():
    d, k = 2, 1
    need = 10 * d * k + 1  # sunflower number must exceed 10dk
    edges = [(0, v) for v in range(1, need + 1)]
    h = new_hypergraph(need + 1, 2, edges)
    report = classify_cores(h, k)
    assert (0,) in report.large_cores
    assert report.edges_without_large_core == ()
    assert (0,) in report.minimal_large_cores


def test_classify_low_degree_graph_all_edges_sparse():
    g = new_hypergraph(8, 2, [(0, 1), (2, 3), (4, 5)])
    report = classify_cores(g, 2)
    assert report.large_cores == ()
    assert report.edges_without_large_core == g.edges


def test_classify_generic_agrees_with_degree_specialcase():
    g = gen_gnp(12, 2, 0.3, seed=11)
    report = classify_cores(g, 1)
    deg = g.degrees()
    for info in report.cores:
        (v,) = info.core
        assert info.number == deg[v]
        # generic path recomputation
        assert info.number == sunflower_number(g, info.core)


def test_every_edge_sparse_xor_contains_large_core():
    h, _ = gen_planted_hitting_set(25, 3, 2, 60, seed=12)
    report = classify_cores(h, 2)
    large = {frozenset(c) for c in report.large_cores}
    sparse = set(report.edges_without_large_core)
    for e in h.edges:
        has_large = any(
            frozenset(sub) in large
            for size in range(1, 3)
            for sub in itertools.combinations(e, size)
        )
        assert has_large != (e in sparse)


def test_minimal_large_cores_subset_of_large():
    h, _ = gen_planted_hitting_set(30, 3, 2, 80, seed=13)
    report = classify_cores(h, 2)
    assert set(report.minimal_large_cores) <= set(report.large_cores)


def test_structural_bounds_on_planted_instances():
    # with a verified hitting set <= k: few sparse edges, few minimal large cores
    for d, n, m in ((2, 30, 40), (3, 24, 50)):
        for seed in range(10):
            h, _ = gen_planted_hitting_set(n, d, 2, m, seed=seed)
            k = len(min_hitting_set(h))
            if k > 2:
                continue
            report = classify_cores(h, k)
            assert len(report.edges_without_large_core) <= math.factorial(d) * (10 * d * k) ** d
            assert len(report.minimal_large_cores) <= math.factorial(d - 1) * k ** (d - 1)


def _core_structure_instance():
    """Graph with one large core (deg 41 > 10dk), sparse edges at a second
    low-degree hub, and hitting set {0, 42}."""
    edges = [(0, v) for v in range(1, 42)] + [(42, v) for v in range(43, 48)]
    return new_hypergraph(48, 2, edges)


def test_union_of_samples_keeps_structure():
    # the union of alpha*log k samples keeps every sparse edge and keeps every
    # minimal large core significant, in nearly every seeded run
    h = _core_structure_instance()
    k = len(min_hitting_set(h))
    assert k == 2
    report = classify_cores(h, k)
    assert report.minimal_large_cores == ((0,),)
    sparse = set(report.edges_without_large_core)
    assert sparse
    d = 2
    alpha = 100 * d * d
    beta = 100 * d**3 * 2 ** (d + 5)
    ok = 0
    runs = 100
    for seed in range(runs):
        s = OracleSession(h)
        # log k = 1 for k = 2
        out = sample_union(s, beta * k, alpha, seed=seed)
        got = set(out.graph.edges)
        if not sparse <= got:
            continue
        if all(sunflower_number(out.graph, c) > k for c in report.minimal_large_cores):
            ok += 1
    assert ok >= 95


def test_erdos_rado_bound_rejects_t_below_one():
    with pytest.raises(ValueError, match="t must be positive"):
        erdos_rado_bound(2, 0)
    with pytest.raises(ValueError, match="t must be positive"):
        erdos_rado_bound(3, 0)
    assert erdos_rado_bound(3, 1) == 0


@st.composite
def uniform_hypergraphs(draw):
    """d = 2-4 over at most 9 vertices, possibly with no edges."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d, 9))
    subsets = list(itertools.combinations(range(n), d))
    edges = draw(st.lists(st.sampled_from(subsets), max_size=18, unique=True))
    return new_hypergraph(n, d, edges)


@settings(max_examples=150, deadline=None)
@given(uniform_hypergraphs(), st.integers(0, 3))
@example(new_hypergraph(6, 4, []), 1)
def test_cores_and_sunflowers_match_one_edge_scan_per_core(h, k):
    assert candidate_cores(h, include_empty=True) == rescan_candidate_cores(h, include_empty=True)
    assert classify_cores(h, k).to_json() == rescan_classify_cores(h, k).to_json()
    for t in range(1, h.m + 2):
        assert find_sunflower(h, t) == rescan_find_sunflower(h, t)


def test_classify_cores_budget_bounds_the_whole_call():
    # every core's own packing search fits 400 nodes; the 121 searches together do not
    h = new_hypergraph(121, 3, [(0, 2 * i + 1, 2 * i + 2) for i in range(60)])
    with pytest.raises(BudgetExceeded):
        classify_cores(h, 1, SolverLimits(max_branch_nodes=400))
    assert (0,) in classify_cores(h, 1).large_cores


def test_find_sunflower_budget_bounds_the_whole_call():
    # two disjoint copies of all 35 triples on 7 vertices hold no 6-sunflower;
    # each of the 15 cores with 6 or more petals packs them in at most 9
    # nodes, 107 in all
    h = new_hypergraph(14, 3, [
        tuple(7 * c + v for v in e) for c in range(2) for e in itertools.combinations(range(7), 3)
    ])
    with pytest.raises(BudgetExceeded):
        find_sunflower(h, 6, SolverLimits(max_branch_nodes=50))
    assert find_sunflower(h, 6) is None


def test_single_vertex_petals_need_no_search():
    # a core of d - 1 vertices: its petals are distinct vertices and all pack
    h = new_hypergraph(8, 3, [(0, 1, v) for v in range(2, 8)])
    assert sunflower_number(h, (1, 0), SolverLimits(max_branch_nodes=0)) == 6
    g = new_hypergraph(8, 2, [(0, v) for v in range(1, 8)])
    assert classify_cores(g, 0, SolverLimits(max_branch_nodes=0)).cores[0].number == 7
