import itertools
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclab.algorithms
import qclab.oracle
from qclab.algorithms import AlgorithmConstants, _random_colorings, packing
from qclab.coloring import HashColoring, classes, random_coloring
from qclab.harness import run_trial
from qclab.hypergraph import gen_gnp, gen_planted_hitting_set, gen_planted_packing, new_hypergraph
from qclab.oracle import EdgeSelectionPolicy, OracleSession, QueryStats
from qclab.rng import derive_seed, rng_from
from qclab.sampler import quotient_existence, sample_subhypergraph, sample_union
from qclab.solvers import BudgetExceeded, SolverLimits, degree_profile

from reference import one_coloring_rounds


def test_single_class_no_queries():
    g = gen_gnp(8, 2, 0.5, seed=1)
    s = OracleSession(g)
    c = HashColoring(n=8, b=1, color=(0,) * 8)
    out = sample_subhypergraph(s, c)
    assert out.graph.m == 0
    assert out.queries_spent == 0
    assert s.stats().total == 0


def test_identity_coloring_recovers_everything():
    g = gen_gnp(10, 2, 0.3, seed=2)
    s = OracleSession(g)
    c = HashColoring(n=10, b=10, color=tuple(range(10)))
    out = sample_subhypergraph(s, c)
    assert out.graph == g
    assert out.queries_spent == math.comb(10, 2)
    assert s.stats().bise == math.comb(10, 2)


def test_sample_is_subset_and_query_count_matches_classes():
    g = gen_gnp(20, 2, 0.3, seed=3)
    s = OracleSession(g)
    c = random_coloring(20, 50, rng_from(9))
    out = sample_subhypergraph(s, c)
    q = len(classes(c))
    assert out.queries_spent == math.comb(q, 2)
    assert s.stats().bise == math.comb(q, 2)
    assert set(out.graph.edges) <= set(g.edges)


def test_sample_routes_to_gpise_for_hypergraphs():
    h, _ = gen_planted_hitting_set(15, 3, 2, 25, seed=4)
    s = OracleSession(h)
    c = random_coloring(15, 8, rng_from(1))
    out = sample_subhypergraph(s, c)
    q = len(classes(c))
    assert s.stats() == QueryStats(gpise=math.comb(q, 3))
    assert set(out.graph.edges) <= set(h.edges)


def test_at_most_one_edge_per_class_tuple_per_sample():
    g = gen_gnp(20, 2, 0.5, seed=5)
    s = OracleSession(g)
    c = random_coloring(20, 6, rng_from(2))
    out = sample_subhypergraph(s, c)
    tuples = set()
    for u, v in out.graph.edges:
        key = tuple(sorted((c.color[u], c.color[v])))
        assert key not in tuples
        tuples.add(key)


def test_sample_union_prefix_stability_and_monotonicity():
    g = gen_gnp(18, 2, 0.25, seed=6)
    s1 = OracleSession(g)
    one = sample_union(s1, 12, 1, seed=42)
    s2 = OracleSession(g)
    two = sample_union(s2, 12, 2, seed=42)
    assert set(one.graph.edges) <= set(two.graph.edges)
    assert one.provenance == two.provenance[:1]
    assert two.queries_spent == sum(
        math.comb(len(classes(c)), 2) for c in two.provenance
    )


def test_sample_union_t1_equals_single_sample():
    g = gen_gnp(16, 2, 0.3, seed=7)
    s1 = OracleSession(g)
    u = sample_union(s1, 10, 1, seed=5)
    s2 = OracleSession(g)
    c = random_coloring(16, 10, rng_from(5, "sample", 0))
    single = sample_subhypergraph(s2, c)
    assert u.graph == single.graph
    assert u.queries_spent == single.queries_spent


def test_quotient_existence_basic():
    g = new_hypergraph(2, 2, [(0, 1)])
    s = OracleSession(g)
    c = HashColoring(n=2, b=2, color=(0, 1))
    quo = quotient_existence(s, c)
    assert quo.graph.n == 2
    assert quo.graph.edges == ((0, 1),)
    assert quo.class_map == (0, 1)
    assert s.stats() == QueryStats(bis=1)


def test_quotient_empty_hidden_spends_queries():
    g = new_hypergraph(9, 2, [])
    s = OracleSession(g)
    c = random_coloring(9, 4, rng_from(3))
    quo = quotient_existence(s, c)
    q = len(classes(c))
    assert quo.graph.m == 0
    assert s.stats().bis == math.comb(q, 2)


def test_quotient_contains_distinctly_colored_edges():
    h, _ = gen_planted_hitting_set(14, 3, 2, 20, seed=8)
    s = OracleSession(h)
    c = random_coloring(14, 6, rng_from(4))
    quo = quotient_existence(s, c)
    quotient_edges = set(quo.graph.edges)
    for e in h.edges:
        cols = {c.color[v] for v in e}
        if len(cols) == 3:
            expected = tuple(sorted(quo.class_map[e[i]] for i in range(3)))
            assert expected in quotient_edges


def test_quotient_routes_to_gpis_for_hypergraphs():
    h, _ = gen_planted_hitting_set(12, 3, 1, 10, seed=9)
    s = OracleSession(h)
    c = random_coloring(12, 5, rng_from(6))
    quotient_existence(s, c)
    assert s.stats().gpis == math.comb(len(classes(c)), 3)
    assert s.stats().bis == 0


def _planted_low_degree_graph():
    # valid 2-cover instance with NO high-degree vertex: every edge low-low
    h, truth = gen_planted_hitting_set(50, 2, 2, 50, seed=100)
    prof = degree_profile(h, 2)
    assert not prof.v_high, "want an instance where all edges are low-degree"
    return h, truth, prof


def test_fixed_low_edge_appears_per_sample_frequency():
    # per-sample presence probability of a fixed low-low edge is >= 1/2;
    # empirical frequency over 400 samples stays above 0.4
    h, _, prof = _planted_low_degree_graph()
    target = prof.e_low[0]
    s = OracleSession(h)
    hits = 0
    for i in range(400):
        c = random_coloring(h.n, 1000 * 2, rng_from(1234, "claims", i))
        out = sample_subhypergraph(s, c)
        if target in set(out.graph.edges):
            hits += 1
    assert hits / 400 >= 0.4


def test_union_retains_all_low_edges_in_most_runs():
    # 100 log(k) unions at 1000k colors keep every low-low edge in >= 95/100 runs
    h, _, prof = _planted_low_degree_graph()
    low_edges = set(prof.e_low)
    ok = 0
    for seed in range(100):
        s = OracleSession(h)
        out = sample_union(s, 1000 * 2, 100, seed=seed)
        ok += low_edges <= set(out.graph.edges)
    assert ok >= 95


def test_high_degree_vertex_keeps_degree_per_sample():
    # a degree->=20k vertex keeps sampled degree >= 2k with probability >= 1/2
    edges = [(0, v) for v in range(1, 46)] + [(1, v) for v in range(46, 50)]
    h = new_hypergraph(50, 2, edges)
    prof = degree_profile(h, 2)
    assert 0 in prof.v_high
    s = OracleSession(h)
    hits = 0
    for i in range(400):
        c = random_coloring(h.n, 1000 * 2, rng_from(99, "deg", i))
        out = sample_subhypergraph(s, c)
        if out.graph.degree(0) >= 2 * 2:
            hits += 1
    assert hits / 400 >= 0.4


def _sequential_union(session, b, t, seed):
    """Reference for sample_union: t samples asked one at a time."""
    edges, spent = set(), 0
    for i in range(t):
        part = sample_subhypergraph(session, random_coloring(session.n, b, rng_from(seed, "sample", i)))
        edges.update(part.graph.edges)
        spent += part.queries_spent
    return tuple(sorted(edges)), spent


def _assert_union_is_sequential(h, b, t, seed, policy, policy_seed, tmp):
    union = OracleSession(h, policy, policy_seed, log_path=f"{tmp}/union.log")
    single = OracleSession(h, policy, policy_seed, log_path=f"{tmp}/single.log")
    for _ in range(2):  # a second union starts at a later call index
        got = sample_union(union, b, t, seed)
        edges, spent = _sequential_union(single, b, t, seed)
        assert got.graph.edges == edges
        assert got.queries_spent == spent
        assert union.stats() == single.stats()
        assert [c.color for c in got.provenance] == [
            random_coloring(h.n, b, rng_from(seed, "sample", i)).color for i in range(t)
        ]
    union.close()
    single.close()
    assert Path(f"{tmp}/union.log").read_bytes() == Path(f"{tmp}/single.log").read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3]), st.integers(1, 9), st.data(), st.integers(1, 12),
    st.integers(0, 2**64 - 1), st.integers(1, 40),
)
def test_sample_union_equals_sequential_samples_across_blocks(d, n, data, b, policy_seed, t):
    all_edges = list(itertools.combinations(range(n), d))
    edges = data.draw(st.lists(st.sampled_from(all_edges), unique=True) if all_edges else st.just([]))
    h = new_hypergraph(n, d, edges)
    # blocks of 1 to 4 rows, so that t spans several of them
    block = data.draw(st.integers(1, 4)) * max(n, len(edges) * d)
    with mock.patch.object(qclab.oracle, "_BLOCK_ELEMENTS", block), tempfile.TemporaryDirectory() as tmp:
        for policy in EdgeSelectionPolicy:
            _assert_union_is_sequential(h, b, t, 7, policy, policy_seed, tmp)


def test_sample_union_spans_blocks_at_the_default_size(tmp_path):
    h, _ = gen_planted_hitting_set(30, 2, 2, 40, seed=11)
    t = 2 * qclab.oracle._BLOCK_ELEMENTS // max(h.n, h.m * h.d) + 1
    for policy in EdgeSelectionPolicy:
        _assert_union_is_sequential(h, 12, t, 3, policy, 5, tmp_path)


# -- rounds in blocks ----------------------------------------------------------


def _run_rounds(algo, h, k, t, seed, constants, policy, policy_seed, log_path):
    args = (t, k) if t is not None else (k,)
    with OracleSession(h, policy, policy_seed, log_path=log_path) as session:
        result = getattr(qclab.algorithms, algo)(session, *args, seed=seed, constants=constants)
        return result, session.stats()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["packing", "cut", "vc_decision", "cut_decision"]), st.data())
def test_blocked_rounds_equal_one_coloring_at_a_time(algo, data):
    d = data.draw(st.sampled_from([2, 3])) if algo == "packing" else 2
    n = data.draw(st.integers(5, 10))
    all_edges = list(itertools.combinations(range(n), d))
    h = new_hypergraph(n, d, data.draw(st.lists(st.sampled_from(all_edges), unique=True)))
    # every coloring has at most 4 colors, fewer than the vertices
    k = data.draw(st.integers(0, 1) if algo == "vc_decision" else st.integers(1, 2))
    t = data.draw(st.integers(2, 3)) if algo.startswith("cut") else None
    constants = AlgorithmConstants(
        pack_gamma=1, cut_colors_factor=1, vc_decision_colors_factor=data.draw(st.integers(1, 4)),
        boost_c=data.draw(st.integers(1, 9)),
    )
    seed, policy_seed = data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(0, 2**64 - 1))
    block = data.draw(st.integers(1, 4)) * max(n, h.m * d)  # 1 to 4 rows
    with tempfile.TemporaryDirectory() as tmp:
        for policy in EdgeSelectionPolicy:
            run = (algo, h, k, t, seed, constants, policy, policy_seed)
            with mock.patch.object(qclab.oracle, "_BLOCK_ELEMENTS", block):
                blocked, blocked_stats = _run_rounds(*run, f"{tmp}/blocked.log")
            with mock.patch.object(qclab.algorithms, "_rounds", one_coloring_rounds):
                single, single_stats = _run_rounds(*run, f"{tmp}/single.log")
            assert blocked.answer == single.answer
            assert blocked.witness == single.witness
            assert blocked.colorings == single.colorings
            assert blocked.stats == single.stats
            assert blocked_stats == single_stats
            assert blocked.stats.total == sum(blocked.query_counts_by_round(d))
            log = Path(f"{tmp}/blocked.log").read_bytes()
            assert log == Path(f"{tmp}/single.log").read_bytes()
            assert log.count(b"\n") == blocked.stats.total


def test_a_budget_trip_leaves_the_rest_of_its_block_asked(tmp_path):
    """A round whose solver trips its budget ends the run, but the rounds
    evaluated in the same block were asked already: they stay counted and
    logged. With blocks of r rows, a trip in round 0 counts rounds 0..r-1."""
    h, _ = gen_planted_packing(10, 2, 2, 6, seed=1)
    constants = AlgorithmConstants(pack_gamma=1, boost_c=4)  # 4 rounds at 4 colors
    trip = SolverLimits(max_branch_nodes=0)  # the first solve raises
    per_round = [math.comb(len(set(c.color)), 2) for c in _random_colorings(h.n, 4, 4, 3)]
    assert 0 < per_round[0] < sum(per_round)
    for rows in (1, 2, 3, 4, 6):
        log = tmp_path / f"rows{rows}.log"
        with mock.patch.object(qclab.oracle, "_BLOCK_ELEMENTS", rows * max(h.n, h.m * h.d)):
            with OracleSession(h, log_path=str(log)) as session:
                with pytest.raises(BudgetExceeded):
                    packing(session, 2, seed=3, constants=constants, limits=trip)
                assert session.stats() == QueryStats(bise=sum(per_round[:rows]))
        assert len(log.read_text().splitlines()) == sum(per_round[:rows])
    # a trial's report counts them too; at the default block size all four
    # rounds of this instance form one block
    colorings = _random_colorings(h.n, 4, 4, derive_seed(5, "algo"))
    report, result = run_trial("packing", h, 2, seed=5, constants=constants, limits=trip)
    assert result is None and report.answer == "budget-exceeded"
    assert report.bise == sum(math.comb(len(set(c.color)), 2) for c in colorings)
