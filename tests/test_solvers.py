import math

import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import qclab.solvers

from qclab.hypergraph import gen_gnp, gen_planted_hitting_set, new_hypergraph
from qclab.harness import verify_instance
from qclab.solvers import (
    BudgetExceeded,
    SolverLimits,
    _hs_within,
    _max_packing,
    _min_hs,
    _Search,
    degree_profile,
    has_hitting_set,
    max_matching,
    max_set_packing,
    max_t_cut,
    min_hitting_set,
    min_vertex_cover,
    representative_family,
)
from qclab.sunflowers import candidate_cores, classify_cores, find_sunflower

from reference import (
    NodeBudget,
    brute_max_packing,
    brute_max_t_cut,
    brute_min_cover,
    frozenset_max_packing,
    frozenset_representative_family,
    greedy_bound_min_hs,
    recursive_max_t_cut,
)


def test_star_cover_is_center():
    g = new_hypergraph(4, 2, [(1, 0), (1, 2), (1, 3)])
    assert min_vertex_cover(g) == (1,)


def test_triangle_cover_size_two():
    g = new_hypergraph(3, 2, [(0, 1), (1, 2), (0, 2)])
    cover = min_vertex_cover(g)
    assert len(cover) == len(brute_min_cover(g)) == 2
    assert cover == (0, 1)  # lexicographically smallest optimum


def test_empty_instances():
    g = new_hypergraph(5, 2, [])
    assert min_vertex_cover(g) == ()
    assert max_matching(g) == ()
    parts, size = max_t_cut(g, 2)
    assert size == 0 and parts == (0,) * 5


def test_hitting_set_shared_vertex():
    h = new_hypergraph(5, 3, [(0, 1, 2), (0, 3, 4)])
    assert min_hitting_set(h) == (0,)


def test_hitting_set_disjoint_edges():
    h = new_hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)])
    assert len(min_hitting_set(h)) == 2


def test_path_matching():
    g = new_hypergraph(3, 2, [(0, 1), (1, 2)])
    assert len(max_matching(g)) == 1


def test_five_cycle_matching():
    g = new_hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert len(max_matching(g)) == 2


def test_triangle_cuts():
    tri = new_hypergraph(3, 2, [(0, 1), (1, 2), (0, 2)])
    assert max_t_cut(tri, 2)[1] == 2
    assert max_t_cut(tri, 3)[1] == 3


def test_k4_two_cut():
    k4 = new_hypergraph(4, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert max_t_cut(k4, 2)[1] == 4


def test_t_cut_partition_achieves_reported_size():
    g = gen_gnp(10, 2, 0.4, seed=3)
    parts, size = max_t_cut(g, 3)
    crossing = sum(1 for u, v in g.edges if parts[u] != parts[v])
    assert crossing == size
    assert len(set(parts)) <= 3


def test_solvers_match_bruteforce_on_random_instances():
    rng = np.random.default_rng(1)
    for trial in range(40):
        n = int(rng.integers(5, 13))
        g = gen_gnp(n, 2, 0.3, seed=trial)
        assert len(min_vertex_cover(g)) == len(brute_min_cover(g))
        if g.m <= 12:
            assert len(max_matching(g)) == len(brute_max_packing(g))
        assert max_t_cut(g, 2)[1] == brute_max_t_cut(g, 2)


def test_hypergraph_solvers_match_bruteforce():
    rng = np.random.default_rng(2)
    for trial in range(25):
        n = int(rng.integers(6, 13))
        h = gen_gnp(n, 3, 0.08, seed=1000 + trial)
        assert len(min_hitting_set(h)) == len(brute_min_cover(h))
        if h.m <= 12:
            assert len(max_set_packing(h)) == len(brute_max_packing(h))


def test_duality_sandwiches():
    rng = np.random.default_rng(3)
    for trial in range(30):
        g = gen_gnp(int(rng.integers(5, 14)), 2, 0.3, seed=trial + 50)
        mm = len(max_matching(g))
        vc = len(min_vertex_cover(g))
        assert mm <= vc <= 2 * mm
        h = gen_gnp(int(rng.integers(6, 12)), 3, 0.1, seed=trial + 90)
        pk = len(max_set_packing(h))
        hs = len(min_hitting_set(h))
        assert pk <= hs <= 3 * pk


def test_matching_requires_graph():
    h = new_hypergraph(4, 3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        max_matching(h)
    with pytest.raises(ValueError):
        min_vertex_cover(h)
    with pytest.raises(ValueError):
        max_t_cut(h, 2)


def test_budget_exceeded_is_raised():
    g = gen_gnp(14, 2, 0.5, seed=9)
    with pytest.raises(BudgetExceeded):
        min_vertex_cover(g, SolverLimits(max_branch_nodes=3, time_budget_ms=60_000))


def test_lex_tiebreak_deterministic():
    g = gen_gnp(12, 2, 0.35, seed=4)
    assert min_vertex_cover(g) == min_vertex_cover(g)
    assert max_matching(g) == max_matching(g)
    # the cover should be the lexicographically smallest optimum
    cover = min_vertex_cover(g)
    import itertools

    opts = [
        c
        for c in itertools.combinations(range(12), len(cover))
        if all(set(c).intersection(e) for e in g.edges)
    ]
    assert cover == min(opts)


def test_hitting_set_is_the_lex_smallest_optimum():
    # brute_min_cover enumerates in lexicographic order, so any vertex the
    # lex extension wrongly skips shows up as a different cover
    for trial in range(60):
        d = 2 + trial % 2
        h = gen_gnp(9 + trial % 4, d, 0.3 if d == 2 else 0.08, seed=2000 + trial)
        assert min_hitting_set(h) == brute_min_cover(h)


def test_lex_extension_skips_vertices_the_degree_bound_rules_out():
    # the planted cover is (220, 260); without the degree bound, trying each
    # smaller vertex in turn takes 151 search nodes
    h, _ = gen_planted_hitting_set(300, 2, 2, 200, seed=0)
    limits = SolverLimits(max_branch_nodes=20, time_budget_ms=60_000)
    assert min_hitting_set(h, limits) == (220, 260)


def test_degree_profile_thresholds():
    g = new_hypergraph(60, 2, [(0, v) for v in range(1, 46)] + [(50, 51)])
    prof = degree_profile(g, 2)
    assert prof.high_threshold == 40
    assert prof.v_high == (0,)
    assert (50, 51) in prof.e_low
    assert all(e not in prof.e_low for e in g.edges if 0 in e)
    assert sorted(prof.v_high + prof.v_low) == list(range(60))


def test_degree_profile_all_low():
    g = new_hypergraph(10, 2, [(0, 1), (2, 3)])
    prof = degree_profile(g, 1)
    assert prof.v_high == ()
    assert prof.e_low == g.edges


def test_degree_profile_bounds_on_planted_instances():
    for seed in range(20):
        h, _ = gen_planted_hitting_set(50, 2, 2, 60, seed=seed)
        k = len(min_vertex_cover(h))
        assert k <= 2
        prof = degree_profile(h, k)
        assert len(prof.v_high) <= k
        assert len(prof.e_low) <= 20 * k * k


def test_representative_family_small_cases():
    h = new_hypergraph(6, 2, [(0, 1), (2, 3), (4, 5)])
    fam = representative_family(h, 0)
    assert len(fam) == 1
    empty = new_hypergraph(4, 2, [])
    assert representative_family(empty, 1) == ()


def test_representative_family_bound_and_property():
    rng = np.random.default_rng(6)
    for trial in range(15):
        h = gen_gnp(10, 2, 0.55, seed=trial + 7)
        k = 2
        fam = representative_family(h, k)
        assert len(fam) <= math.comb(k + 2, 2)
        # defining property versus the original family, all |X| <= k
        import itertools

        fam_sets = [set(e) for e in fam]
        for size in range(k + 1):
            for xs in itertools.combinations(range(10), size):
                x = set(xs)
                if any(not x.intersection(e) for e in h.edges):
                    assert any(not x.intersection(f) for f in fam_sets)


def test_representative_family_of_a_sparse_graph_on_200_vertices():
    # 1,333,501 sets X of at most 3 vertices; the deletion search visits 206 nodes
    g = gen_gnp(200, 2, 0.01, seed=1)
    assert len(representative_family(g, 3)) == 4
    out = verify_instance(g, 3, limits=SolverLimits(max_branch_nodes=1000))
    assert out["representative_family_size"] == 4


_P3 = new_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: representative_family(_P3, True), "k", id="representative-k-bool"),
        pytest.param(lambda: representative_family(_P3, 1.5), "k", id="representative-k-float"),
        pytest.param(lambda: has_hitting_set(_P3, True), "k", id="has-hitting-set-k-bool"),
        pytest.param(lambda: has_hitting_set(_P3, 1.5), "k", id="has-hitting-set-k-float"),
        pytest.param(lambda: has_hitting_set(_P3, -1), "k", id="has-hitting-set-k-negative"),
        pytest.param(lambda: max_t_cut(_P3, 2.5), "t", id="t-cut"),
        pytest.param(lambda: find_sunflower(_P3, 1.5), "t", id="sunflower-t"),
        pytest.param(lambda: classify_cores(_P3, -1), "k", id="classify-k"),
        pytest.param(lambda: degree_profile(_P3, -1), "k", id="degree-profile-k"),
        pytest.param(lambda: verify_instance(_P3, 1, t=2.5), "t", id="verify-t"),
        pytest.param(lambda: verify_instance(_P3, -1), "k", id="verify-k"),
        pytest.param(lambda: SolverLimits(time_budget_ms=-5), "time_budget_ms", id="time"),
        pytest.param(lambda: SolverLimits(max_branch_nodes=1.5), "max_branch_nodes", id="nodes"),
    ],
)
def test_solver_arguments_are_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


@st.composite
def cover_instances(draw):
    """d = 2 or 3, at most 8 vertices, possibly no edges."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(d, 8))
    edge = st.lists(st.integers(0, n - 1), min_size=d, max_size=d, unique=True)
    return new_hypergraph(n, d, draw(st.lists(edge, max_size=12)))


@given(cover_instances(), st.integers(0, 4))
@example(new_hypergraph(3, 2, []), 0)
@example(new_hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)]), 1)
@settings(max_examples=150, deadline=None)
def test_has_hitting_set_answers_whether_a_minimum_cover_fits(h, k):
    fits = has_hitting_set(h, k)
    assert fits == (len(min_hitting_set(h)) <= k) == (len(brute_min_cover(h)) <= k)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_cover_covers_and_packing_disjoint(seed):
    g = gen_gnp(10, 2, 0.3, seed=seed)
    cover = set(min_vertex_cover(g))
    assert all(cover.intersection(e) for e in g.edges)
    packing = max_set_packing(g)
    seen: set[int] = set()
    for e in packing:
        assert not seen.intersection(e)
        seen.update(e)


# -- differential tests against the frozenset references ------------------


@st.composite
def small_hypergraphs(draw, max_n=9, max_m=14):
    """d = 2-4, possibly no edges, possibly isolated vertices."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d, max_n))
    edge = st.lists(st.integers(0, n - 1), min_size=d, max_size=d, unique=True)
    edges = draw(st.lists(edge, max_size=max_m))
    return new_hypergraph(n + draw(st.integers(0, 3)), d, edges)


@st.composite
def edge_families(draw):
    """Sorted duplicate-free tuples of size d = 1-4 over sparse vertex ids."""
    d = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 60), min_size=d, max_size=12, unique=True))
    edge = st.lists(st.sampled_from(ids), min_size=d, max_size=d, unique=True)
    edges = draw(st.lists(edge.map(lambda e: tuple(sorted(e))), max_size=16, unique=True))
    return tuple(sorted(edges))


def _petal_families(h):
    # the petals sunflower_number packs, for every non-empty candidate core
    for core in candidate_cores(h):
        cs = frozenset(core)
        petals = tuple(
            tuple(v for v in e if v not in cs) for e in h.edges if cs <= frozenset(e)
        )
        if petals:
            yield tuple(sorted(petals))


def _packing_outcome(edges, max_nodes):
    search = _Search(SolverLimits(max_branch_nodes=max_nodes))
    try:
        return _max_packing(edges, search), search.nodes
    except BudgetExceeded:
        return "budget", search.nodes


def _reference_outcome(edges, max_nodes):
    try:
        return frozenset_max_packing(edges, max_nodes)
    except NodeBudget as exc:
        return "budget", exc.args[0]


@given(small_hypergraphs(), st.integers(0, 3))
@example(new_hypergraph(5, 2, []), 0)
@example(new_hypergraph(5, 2, []), 2)
@example(new_hypergraph(12, 3, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]), 0)
@example(new_hypergraph(12, 3, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]), 3)
@settings(max_examples=120, deadline=None)
def test_representative_family_matches_the_frozenset_reference(h, k):
    assert representative_family(h, k) == frozenset_representative_family(h, k)


@given(edge_families(), st.integers(1, 40))
@example((), 1)
@example(((3,), (7,), (40,)), 2)
@example(((0, 1, 2, 3), (4, 5, 6, 7), (0, 4, 8, 9)), 3)
@settings(max_examples=200, deadline=None)
def test_packing_and_node_count_match_the_frozenset_reference(edges, max_nodes):
    assert _packing_outcome(edges, 5_000_000) == _reference_outcome(edges, None)
    # a small node budget trips on the same inputs, at the same node
    assert _packing_outcome(edges, max_nodes) == _reference_outcome(edges, max_nodes)


@given(small_hypergraphs(max_m=20), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_petal_packings_match_the_frozenset_reference(h, max_nodes):
    for petals in [h.edges, *_petal_families(h)]:
        assert _packing_outcome(petals, 5_000_000) == _reference_outcome(petals, None)
        assert _packing_outcome(petals, max_nodes) == _reference_outcome(petals, max_nodes)


def test_packing_is_the_lex_smallest_optimum():
    # brute_max_packing returns the first maximum family in the order of
    # itertools.combinations over the canonical edge list
    for trial in range(60):
        d = 2 + trial % 3
        n = 8 + trial % 5
        h = gen_gnp(n, d, (0.3, 0.08, 0.02)[d - 2], seed=3000 + trial)
        if h.m > 14:
            continue
        assert max_set_packing(h) == brute_max_packing(h)


@given(
    st.sampled_from((3, 4)), st.integers(4, 5), st.integers(4, 12),
    st.sampled_from((0.05, 0.15, 0.3)), st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_representative_family_matches_the_frozenset_reference_at_verify_k(d, k, n, p, seed):
    # verify runs k = 4-5; dense draws make the greedy delete most edges
    h = gen_gnp(n, d, p, seed=seed)
    assert representative_family(h, k) == frozenset_representative_family(h, k)


def test_representative_family_counts_its_search_nodes():
    h = gen_gnp(10, 2, 0.55, seed=7)
    with pytest.raises(BudgetExceeded, match="branch node budget 1 exceeded"):
        representative_family(h, 2, SolverLimits(max_branch_nodes=1))


def test_representative_family_keeps_its_time_budget():
    # n = 24, k = 5: about 55,000 sets X
    h = gen_gnp(24, 3, 0.03, seed=1)
    assert h.m > 40
    with pytest.raises(BudgetExceeded):
        representative_family(h, 5, SolverLimits(time_budget_ms=0))


@given(small_hypergraphs(max_n=11, max_m=24))
@example(new_hypergraph(5, 2, []))
@example(new_hypergraph(9, 3, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7)]))
@settings(max_examples=150, deadline=None)
def test_cover_and_node_count_match_the_greedy_bound_reference(h):
    # the size search stops at the first feasible size with no greedy upper bound
    search = _Search(SolverLimits())
    assert (_min_hs(list(h.edges), search), search.nodes) == greedy_bound_min_hs(list(h.edges))


def test_packing_of_a_star_deeper_than_the_recursion_limit():
    # the search loops over excluded edges instead of recursing on them, so
    # its depth is the packing size, not the number of edges
    star = new_hypergraph(1501, 2, [(0, v) for v in range(1, 1501)])
    assert max_set_packing(star) == ((0, 1),)
    assert max_matching(star) == ((0, 1),)


def _matching(m, d):
    return new_hypergraph(m * d, d, [range(d * i, d * i + d) for i in range(m)])


def test_packing_of_a_matching_deeper_than_the_recursion_limit():
    # every one of the 1,500 edges is packed
    pairs = _matching(1500, 2)
    assert max_set_packing(pairs) == max_matching(pairs) == pairs.edges


def test_cover_search_of_a_matching_deeper_than_the_recursion_limit():
    # the first branch takes one vertex per edge; the disjoint edges prune budget 1,499 at the root
    edges = list(_matching(1500, 2).edges)
    for budget, found, nodes in ((1500, True, 1500), (1499, False, 1)):
        search = _Search(SolverLimits())
        assert (_hs_within(edges, budget, search), search.nodes) == (found, nodes)


def test_searches_run_under_a_shallow_recursion_limit(shallow_stack):
    # 60-edge inputs: a search that recursed once per edge, vertex or chosen
    # element would pass the limit
    pairs = _matching(60, 2)
    assert len(shallow_stack(min_hitting_set, pairs)) == 60
    assert shallow_stack(max_set_packing, pairs) == pairs.edges
    triples = _matching(60, 3)
    assert shallow_stack(max_set_packing, triples) == triples.edges
    assert len(shallow_stack(representative_family, pairs, 2)) == 3
    path = new_hypergraph(61, 2, [(v, v + 1) for v in range(60)])
    assert shallow_stack(max_t_cut, path, 2)[1] == 60
    sunflower = new_hypergraph(121, 3, [(0, 2 * i + 1, 2 * i + 2) for i in range(60)])
    assert (0,) in shallow_stack(classify_cores, sunflower, 1).large_cores


def _t_cut_outcome(g, t, max_nodes):
    searches = []

    class Counted(_Search):
        def __init__(self, limits):
            super().__init__(limits)
            searches.append(self)

    with mock.patch.object(qclab.solvers, "_Search", Counted):
        try:
            parts, size = max_t_cut(g, t, SolverLimits(max_branch_nodes=max_nodes))
        except BudgetExceeded:
            return "budget", searches[0].nodes
    return parts, size, searches[0].nodes if searches else 0


@st.composite
def small_graphs(draw, max_n=10, max_m=18):
    """Graphs on 2-10 vertices, possibly no edges, possibly isolated vertices."""
    n = draw(st.integers(2, max_n))
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    return new_hypergraph(n, 2, draw(st.lists(edge, max_size=max_m)))


@given(small_graphs(), st.integers(2, 4), st.integers(0, 60))
@example(new_hypergraph(5, 2, []), 2, 0)
@example(new_hypergraph(7, 2, [(0, 1), (1, 2), (2, 0), (4, 6)]), 3, 5)
@settings(max_examples=150, deadline=None)
def test_t_cut_and_node_count_match_the_recursive_reference(g, t, max_nodes):
    parts, size, nodes = recursive_max_t_cut(g, t)
    assert _t_cut_outcome(g, t, 5_000_000) == (parts, size, nodes)
    # a small node budget trips at the same node
    expected = (parts, size, nodes) if nodes <= max_nodes else ("budget", max_nodes + 1)
    assert _t_cut_outcome(g, t, max_nodes) == expected


def test_t_cut_of_a_path_deeper_than_the_recursion_limit():
    # the search keeps its own stack, so a path longer than Python's
    # recursion limit is searched like a short one
    path = new_hypergraph(1500, 2, [(v, v + 1) for v in range(1499)])
    parts, size = max_t_cut(path, 2)
    assert size == 1499
    assert parts == tuple(v % 2 for v in range(1500))
