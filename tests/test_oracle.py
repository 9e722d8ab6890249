import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab.hypergraph import gen_gnp, new_hypergraph
from qclab.oracle import EdgeSelectionPolicy, OracleSession, QueryStats, _rank

from reference import (
    ask_one,
    brute_crossing_edge_exists,
    brute_qualifying_edges,
    random_disjoint_parts,
)


def session_for(edges, n=6, d=2, **kw):
    return OracleSession(new_hypergraph(n, d, edges), **kw)


def test_gpis_basic_hit_and_miss():
    s = OracleSession(new_hypergraph(4, 3, [(0, 1, 2)]))
    assert s.gpis(({0}, {1}, {2})) is True
    assert s.gpis(({0}, {1}, {3})) is False
    assert s.stats() == QueryStats(gpis=2)


def test_bise_returns_edge_or_none():
    s = session_for([(0, 1)])
    assert s.bise({0}, {1}) == (0, 1)
    assert s.bise({0}, {2}) is None
    assert s.stats() == QueryStats(bise=2)


def test_bise_lexicographic_policy_picks_smallest():
    s = session_for([(0, 5), (0, 3)], n=6)
    assert s.bise({0}, {3, 5}) == (0, 3)


def test_bis_requires_graph():
    s = OracleSession(new_hypergraph(4, 3, [(0, 1, 2)]))
    with pytest.raises(ValueError):
        s.bis({0}, {1})
    with pytest.raises(ValueError):
        s.bise({0}, {1})
    assert s.stats().total == 0


def test_validation_rejects_before_counting():
    s = session_for([(0, 1)])
    for bad in (
        lambda: s.bis({0}, set()),          # empty part
        lambda: s.bis({0, 1}, {1, 2}),      # overlap
        lambda: s.bis({0}, {9}),            # out of range
        lambda: s.gpis(({0}, {1}, {2})),    # wrong number of parts
    ):
        with pytest.raises(ValueError):
            bad()
    assert s.stats().total == 0


def test_intra_part_edges_are_invisible():
    # both endpoints in the same part: no system of distinct representatives
    s = session_for([(0, 1)], n=4)
    assert s.bis({0, 1}, {2}) is False


def test_stats_snapshot_and_monotonicity():
    s = session_for([(0, 1)])
    assert s.stats() == QueryStats()
    for _ in range(3):
        s.bis({0}, {1})
    assert s.stats() == QueryStats(bis=3)
    s.stats()  # snapshots do not count as queries
    assert s.stats().total == 3


def test_gpis_agrees_with_cross_product_bruteforce():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        n = int(rng.integers(6, 13))
        h = gen_gnp(n, 3, 0.15, seed=checked)
        parts = random_disjoint_parts(rng, n, 3)
        if parts is None:
            continue
        s = OracleSession(h)
        assert s.gpis(parts) == brute_crossing_edge_exists(h, parts)
        checked += 1


def test_bis_agrees_with_pair_scan():
    rng = np.random.default_rng(7)
    h = gen_gnp(20, 2, 0.2, seed=1)
    s = OracleSession(h)
    for trial in range(200):
        parts = random_disjoint_parts(rng, 20, 2, max_size=6)
        if parts is None:
            continue
        a, b = parts
        expect = brute_crossing_edge_exists(h, (a, b))
        assert s.bis(a, b) == expect


def test_completeness_gpis_iff_gpise():
    rng = np.random.default_rng(3)
    done = 0
    while done < 1000:
        n = int(rng.integers(5, 15))
        d = int(rng.integers(2, 4))
        h = gen_gnp(n, d, 0.2, seed=done)
        parts = random_disjoint_parts(rng, n, d)
        if parts is None:
            continue
        s = OracleSession(h)
        yes = s.gpis(parts)
        edge = s.gpise(parts)
        assert yes == (edge is not None)
        if edge is not None:
            assert edge in set(h.edges)
        done += 1


def test_soundness_of_returned_edges():
    rng = np.random.default_rng(11)
    h = gen_gnp(14, 3, 0.2, seed=2)
    s = OracleSession(h)
    hidden = set(h.edges)
    for trial in range(200):
        parts = random_disjoint_parts(rng, 14, 3)
        if parts is None:
            continue
        e = s.gpise(parts)
        if e is None:
            continue
        assert e in hidden
        # one vertex per part
        covered = []
        for v in e:
            owner = [i for i, p in enumerate(parts) if v in p]
            assert len(owner) == 1
            covered.append(owner[0])
        assert sorted(covered) == [0, 1, 2]


def test_uniform_random_policy_is_deterministic_per_seed():
    h = gen_gnp(16, 2, 0.4, seed=8)
    runs = []
    for _ in range(2):
        s = OracleSession(h, policy=EdgeSelectionPolicy.UNIFORM_RANDOM, policy_seed=99)
        answers = [s.bise(tuple(range(8)), tuple(range(8, 16))) for _ in range(20)]
        runs.append(answers)
    assert runs[0] == runs[1]


def test_uniform_random_policy_varies_by_call_index():
    h = gen_gnp(16, 2, 0.5, seed=8)
    s = OracleSession(h, policy=EdgeSelectionPolicy.UNIFORM_RANDOM, policy_seed=1)
    seen = {s.bise(tuple(range(8)), tuple(range(8, 16))) for _ in range(30)}
    assert len(seen) > 1  # many qualifying edges; a stuck pick would be a bug


def test_uniform_random_only_returns_qualifying_edges():
    rng = np.random.default_rng(17)
    h = gen_gnp(14, 2, 0.3, seed=3)
    s = OracleSession(h, policy=EdgeSelectionPolicy.UNIFORM_RANDOM, policy_seed=5)
    for trial in range(100):
        parts = random_disjoint_parts(rng, 14, 2, max_size=5)
        if parts is None:
            continue
        e = s.bise(*parts)
        valid = brute_qualifying_edges(h, parts)
        if valid:
            assert e in valid
        else:
            assert e is None


def test_query_log_replay(tmp_path):
    log = tmp_path / "queries.log"
    s = session_for([(0, 1), (2, 3)], n=4, log_path=str(log))
    s.bis({0}, {1})
    s.bise({0, 1}, {2, 3})
    s.close()
    lines = log.read_text().splitlines()
    assert lines[0] == "bis|0;1|yes"
    assert lines[1] == "bise|0,1;2,3|0,2" or lines[1].startswith("bise|0,1;2,3|")
    assert len(lines) == 2


def test_two_identical_sessions_identical_transcripts():
    h = gen_gnp(12, 2, 0.3, seed=4)
    rng = np.random.default_rng(2)
    queries = [random_disjoint_parts(rng, 12, 2, max_size=4) for _ in range(50)]
    queries = [p for p in queries if p is not None]
    transcripts = []
    for _ in range(2):
        s = OracleSession(h, policy=EdgeSelectionPolicy.UNIFORM_RANDOM, policy_seed=12)
        transcripts.append([s.bise(*p) for p in queries] + [s.stats()])
    assert transcripts[0] == transcripts[1]


def test_non_integer_vertex_ids_rejected_before_counting():
    s = OracleSession(new_hypergraph(3, 3, [(0, 1, 2)]))
    for parts in (
        [[0.0], [True], [2]],
        [[0], [1], [2.0]],
        [[np.float64(0)], [1], [2]],
        [[0], [np.bool_(True)], [2]],
    ):
        with pytest.raises(ValueError):
            s.gpis(parts)
        with pytest.raises(ValueError):
            s.gpise(parts)
    assert s.stats() == QueryStats()
    assert s.gpis([[np.int64(0)], [np.int32(1)], [2]]) is True
    assert s.gpise([np.array([0]), [1], np.array([2])]) == (0, 1, 2)
    assert s.stats() == QueryStats(gpis=1, gpise=1)


@st.composite
def _colored_instances(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 9))
    all_edges = list(itertools.combinations(range(n), d))
    edges = draw(st.lists(st.sampled_from(all_edges), unique=True) if all_edges else st.just([]))
    b = draw(st.integers(1, n + 2))  # b < n makes classes collide
    color = st.lists(st.integers(-3, b - 1), min_size=n, max_size=n)
    block = draw(st.lists(color, min_size=1, max_size=3))
    return new_hypergraph(n, d, edges), block, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=150, deadline=None)
@given(_colored_instances())
def test_ask_colorings_equals_asking_tuples_one_by_one(instance):
    h, block, policy_seed = instance
    with tempfile.TemporaryDirectory() as tmp:
        for policy in EdgeSelectionPolicy:
            batched = OracleSession(h, policy, policy_seed, log_path=f"{tmp}/batched.log")
            single = OracleSession(h, policy, policy_seed, log_path=f"{tmp}/single.log")
            for witness in (True, False, True):  # a later pass starts at a later call index
                rows = batched.ask_colorings(witness, [np.array(c, dtype=np.int8) for c in block])
                for color, (labels, tuples, picks) in zip(block, rows, strict=True):
                    palette = sorted(set(color))  # classes in ascending color order
                    assert labels.tolist() == [palette.index(c) for c in color]
                    sets = [[v for v, c in enumerate(color) if c == col] for col in palette]
                    combos = list(itertools.combinations(range(len(sets)), h.d))
                    assert [_rank(t, len(sets)) for t in combos] == list(range(len(combos)))
                    answers = batched.witnesses(picks.tolist()) if witness else [True] * len(picks)
                    got = dict(zip(map(tuple, tuples.tolist()), answers))
                    expect = {}
                    for t in combos:
                        parts = [sets[i] for i in t]
                        answer = ask_one(single, witness, parts)
                        if answer:
                            expect[t] = answer
                        valid = brute_qualifying_edges(h, parts)
                        assert bool(answer) == bool(valid)
                        if witness and valid:
                            assert answer in valid
                            if policy is EdgeSelectionPolicy.LEXICOGRAPHIC:
                                assert answer == valid[0]
                    assert got == expect
                assert batched.stats() == single.stats()
            batched.close()
            single.close()
            assert Path(f"{tmp}/batched.log").read_bytes() == Path(f"{tmp}/single.log").read_bytes()


@settings(max_examples=150, deadline=None)
@given(_colored_instances())
def test_ask_colorings_block_equals_asking_each_coloring_alone(instance):
    h, block, policy_seed = instance
    with tempfile.TemporaryDirectory() as tmp:
        for policy in EdgeSelectionPolicy:
            whole = OracleSession(h, policy, policy_seed, log_path=f"{tmp}/whole.log")
            alone = OracleSession(h, policy, policy_seed, log_path=f"{tmp}/alone.log")
            for witness in (True, False, True):
                rows = whole.ask_colorings(witness, [np.array(c, dtype=np.int8) for c in block])
                for color, (labels, tuples, picks) in zip(block, rows, strict=True):
                    one_labels, one_tuples, one_picks = next(alone.ask_colorings(witness, [color]))
                    assert labels.tolist() == one_labels.tolist()
                    assert tuples.tolist() == one_tuples.tolist()
                    if witness:
                        assert whole.witnesses(picks.tolist()) == alone.witnesses(one_picks.tolist())
                assert whole.stats() == alone.stats()
            whole.close()
            alone.close()
            assert Path(f"{tmp}/whole.log").read_bytes() == Path(f"{tmp}/alone.log").read_bytes()


def test_ask_colorings_rejects_non_integer_colorings_before_counting():
    s = OracleSession(new_hypergraph(3, 2, [(0, 1)]))
    for color in ([0.0, 1.0, 2.0], [True, False, True], [0, 1], [[0, 1, 2]], np.zeros((1, 3), int)):
        with pytest.raises(ValueError):
            next(s.ask_colorings(True, [color]))
    assert s.stats() == QueryStats()
    _, tuples, _ = next(s.ask_colorings(False, [(np.int64(5), 9, 5)]))
    assert tuples.tolist() == [[0, 1]]
    assert s.stats() == QueryStats(bis=1)


def test_endpoints_ignore_edges_leaving_the_parts():
    s = session_for([(0, 1), (1, 2), (2, 3)], n=4)
    assert s.bise([1], [2]) == (1, 2)
    assert s.bis([0], [3]) is False
    assert s.stats() == QueryStats(bise=1, bis=1)


@pytest.mark.parametrize("policy", ["random", "lex", "bogus", None, 1])
def test_session_rejects_a_policy_that_is_not_the_enum(policy):
    with pytest.raises(ValueError, match="EdgeSelectionPolicy"):
        OracleSession(gen_gnp(12, 2, 0.8, seed=3), policy=policy, policy_seed=5)
