import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qclab.algorithms import (
    _cut_round,
    AlgorithmConstants,
    DEFAULT_CONSTANTS,
    cut,
    cut_decision,
    cut_deterministic,
    hitting_set,
    hs_decision,
    hs_promised,
    log_k,
    matching_promised,
    packing,
    packing_deterministic,
    vc_decision,
    vc_promised,
    vertex_cover,
)
from qclab.coloring import HashColoring, next_prime
from qclab.harness import run_trial
from qclab.hypergraph import (
    gen_planted_cut,
    gen_planted_hitting_set,
    gen_planted_packing,
    new_hypergraph,
)
from qclab.oracle import EdgeSelectionPolicy, OracleSession, QueryStats
from qclab.sampler import sample_subhypergraph
from qclab.solvers import (
    DEFAULT_LIMITS,
    max_matching,
    max_set_packing,
    max_t_cut,
    min_hitting_set,
)

from reference import used_color_cut_round


def fresh(h, **kw):
    return OracleSession(h, **kw)


def total_queries(stats):
    return stats.bis + stats.bise + stats.gpis + stats.gpise


def assert_query_identity(result, session_delta, d, n, b=None):
    """Counter delta equals the closed form over the logged colorings."""
    per_round = result.query_counts_by_round(d)
    assert sum(per_round) == total_queries(session_delta)
    for c in result.colorings:
        q = len(set(c.color))
        assert q <= min(c.b, n)
        if b is not None:
            assert c.b == b


def test_log_k_clamps():
    assert log_k(1) == 1
    assert log_k(2) == 1
    assert log_k(3) == 2
    assert log_k(4) == 2
    assert log_k(5) == 3


def test_constants_validate():
    with pytest.raises(ValueError):
        AlgorithmConstants(boost_c=0)
    with pytest.raises(ValueError):
        AlgorithmConstants(hs_alpha=0)
    c = DEFAULT_CONSTANTS.override(pack_gamma=7)
    assert c.pack_gamma_for(2) == 7
    assert DEFAULT_CONSTANTS.pack_gamma_for(3) == 900
    assert DEFAULT_CONSTANTS.hs_beta_for(2) == 100 * 8 * 128
    assert DEFAULT_CONSTANTS.hs_decision_gamma_for(2) == 100 * 81 * 4


@pytest.mark.parametrize("value", [1.5, 2.0, "3", True, None])
def test_constants_reject_non_integers_before_any_query(value):
    h, _ = gen_planted_packing(12, 2, 2, 0, seed=1)
    s = fresh(h)
    with pytest.raises(ValueError, match="boost_c"):
        packing(s, 2, constants=DEFAULT_CONSTANTS.override(boost_c=value))
    with pytest.raises(ValueError, match="pack_gamma"):
        AlgorithmConstants(pack_gamma=value if value is not None else 0.5)
    assert total_queries(s.stats()) == 0
    with pytest.raises(ValueError, match="nope"):
        DEFAULT_CONSTANTS.override(nope=1)


@pytest.mark.parametrize("value", [1.5, 2.0, "2", True])
def test_k_and_t_reject_non_integers_before_any_query(value):
    h, _ = gen_planted_cut(12, 2, 3, seed=1)
    s = fresh(h)
    for fn in (packing, packing_deterministic, matching_promised, vc_promised, vertex_cover,
               vc_decision, hs_promised, hitting_set, hs_decision):
        with pytest.raises(ValueError, match="k must be an integer"):
            fn(s, value)
    for fn in (cut, cut_decision, cut_deterministic):  # (session, t, k)
        with pytest.raises(ValueError, match="k must be an integer"):
            fn(s, 2, value)
        with pytest.raises(ValueError, match="t must be an integer"):
            fn(s, value, 1)
    assert total_queries(s.stats()) == 0
    with pytest.raises(ValueError, match="k must be an integer"):
        run_trial("packing", h, value)
    with pytest.raises(ValueError, match="t must be an integer"):
        run_trial("cut", h, 1, t=value)


@pytest.mark.parametrize("fn", [cut, cut_decision, cut_deterministic])
def test_cut_functions_reject_a_missing_t_before_any_query(fn):
    s = fresh(gen_planted_cut(10, 2, 4, seed=1)[0])
    with pytest.raises(ValueError, match="t must be an integer"):
        fn(s, None, 3)
    assert s.stats() == QueryStats()


def test_a_numpy_k_does_not_wrap_the_color_count():
    # vc-decision colors at 100 * k^4: 10^22 at k = 100,000, past the int64 range
    seen = []

    def record(n, b, rounds, seed):
        seen.append(b)
        return []

    s = fresh(new_hypergraph(6, 2, [(0, 1), (2, 3)]))
    with mock.patch("qclab.algorithms._random_colorings", record):
        for k in (100_000, np.int64(100_000)):
            vc_decision(s, k)
    assert seen == [10**22, 10**22]



def test_packing_finds_planted_disjoint_edges():
    h, _ = gen_planted_packing(12, 2, 2, 0, seed=1)
    r = packing(fresh(h), 2, seed=1)
    assert r.answer and len(r.witness) >= 2
    seen = set()
    for e in r.witness:
        assert e in set(h.edges) and not seen.intersection(e)
        seen.update(e)
    assert r.stats.bise == sum(r.query_counts_by_round(2))


def test_packing_empty_hidden_not_exists():
    h = new_hypergraph(6, 2, [])
    r = packing(fresh(h), 1, seed=0)
    assert not r.answer and r.witness is None


def test_packing_query_accounting_and_class_bound():
    h, _ = gen_planted_packing(20, 3, 2, 10, seed=2)
    s = fresh(h)
    r = packing(s, 2, seed=3)
    b = DEFAULT_CONSTANTS.pack_gamma_for(3) * 4
    assert_query_identity(r, r.stats, 3, 20, b=b)
    assert r.rounds_used == DEFAULT_CONSTANTS.boost_c * log_k(2)
    assert s.stats().gpise == r.stats.gpise


def test_packing_deterministic_always_finds():
    for seed in range(5):
        h, _ = gen_planted_packing(14, 2, 2, 4, seed=seed)
        r = packing_deterministic(fresh(h), 2)
        assert r.answer
        # no seeds involved: identical reruns
        r2 = packing_deterministic(fresh(h), 2)
        assert r.witness == r2.witness and r.stats == r2.stats


def test_packing_deterministic_sound_on_no_instances():
    h, _ = gen_planted_packing(12, 2, 1, 0, seed=3)  # max packing is 1
    r = packing_deterministic(fresh(h), 2)
    assert not r.answer


def test_packing_deterministic_family_size():
    h, _ = gen_planted_packing(12, 2, 2, 0, seed=4)
    r = packing_deterministic(fresh(h), 2)
    s = 2 * 2
    range_b = max(100 * 4 * 4, 4 * s * s)
    assert r.rounds_used == next_prime(max(12, range_b)) - 1


def test_matching_promised_recovers_maximum():
    h, _ = gen_planted_packing(16, 2, 2, 3, seed=5)
    opt = len(max_matching(h))
    r = matching_promised(fresh(h), max(2, opt), seed=6)
    assert r.answer and len(r.witness) == opt
    seen = set()
    for e in r.witness:
        assert e in set(h.edges) and not seen.intersection(e)
        seen.update(e)


def test_matching_promised_single_edge():
    h = new_hypergraph(4, 2, [(0, 1)])
    r = matching_promised(fresh(h), 1, seed=0)
    assert r.answer and r.witness == ((0, 1),)


# -- vertex cover -------------------------------------------------------


def test_vc_promised_single_edge():
    h = new_hypergraph(2, 2, [(0, 1)])
    r = vc_promised(fresh(h), 1, seed=0)
    assert r.answer and len(r.witness) == 1 and r.witness[0] in (0, 1)


def test_vc_promised_matches_exact_cover():
    ok = 0
    for seed in range(20):
        h, _ = gen_planted_hitting_set(30, 2, 2, 50, seed=seed)
        opt = len(min_hitting_set(h))
        r = vc_promised(fresh(h), 2, seed=seed)
        cover = set(r.witness)
        if len(r.witness) == opt and all(cover.intersection(e) for e in h.edges):
            ok += 1
    assert ok >= 19


def test_vc_promised_query_identity():
    h, _ = gen_planted_hitting_set(25, 2, 2, 40, seed=7)
    s = fresh(h)
    r = vc_promised(s, 2, seed=8)
    assert s.stats().bise == sum(r.query_counts_by_round(2))
    assert r.rounds_used == 100 * log_k(2)


def test_vertex_cover_no_instance_from_disjoint_edges():
    h, _ = gen_planted_packing(18, 2, 3, 0, seed=9)  # matching 3 > k+... for k=2
    r = vertex_cover(fresh(h), 2, seed=10)
    assert not r.answer


def test_vertex_cover_found_matches_exact():
    h, _ = gen_planted_hitting_set(30, 2, 2, 45, seed=11)
    opt = len(min_hitting_set(h))
    r = vertex_cover(fresh(h), 2, seed=12)
    assert r.answer == (opt <= 2)
    if r.answer:
        assert len(r.witness) == opt


def test_vc_decision_empty_graph_k0():
    h = new_hypergraph(5, 2, [])
    r = vc_decision(fresh(h), 0, seed=0)
    assert r.answer is True


def test_vc_decision_rejects_disjoint_edges():
    h, _ = gen_planted_packing(12, 2, 3, 0, seed=13)  # cover needs 3 > 2
    for seed in range(10):
        r = vc_decision(fresh(h), 2, seed=seed)
        assert r.answer is False


def test_vc_decision_accepts_small_cover():
    h, _ = gen_planted_hitting_set(20, 2, 2, 30, seed=14)
    opt = len(min_hitting_set(h))
    r = vc_decision(fresh(h), 2, seed=15)
    assert r.answer == (opt <= 2)


def test_vc_decision_uses_bis_only():
    h, _ = gen_planted_hitting_set(15, 2, 2, 20, seed=16)
    s = fresh(h)
    r = vc_decision(s, 2, seed=17)
    assert s.stats().bis == sum(r.query_counts_by_round(2))
    assert s.stats().bise == s.stats().gpis == s.stats().gpise == 0


# -- hitting set ---------------------------------------------------------


def test_hs_promised_single_hyperedge():
    h = new_hypergraph(5, 3, [(0, 1, 2)])
    r = hs_promised(fresh(h), 1, seed=0)
    assert r.answer and len(r.witness) == 1 and r.witness[0] in (0, 1, 2)


def test_hs_promised_matches_exact():
    ok = 0
    for seed in range(10):
        h, _ = gen_planted_hitting_set(12, 3, 2, 35, seed=seed)
        opt = len(min_hitting_set(h))
        r = hs_promised(fresh(h), 2, seed=seed)
        cover = set(r.witness)
        if len(r.witness) == opt and all(cover.intersection(e) for e in h.edges):
            ok += 1
    assert ok >= 9


def test_hs_promised_query_identity():
    h, _ = gen_planted_hitting_set(10, 3, 1, 15, seed=18)
    s = fresh(h)
    r = hs_promised(s, 1, seed=19)
    assert s.stats().gpise == sum(r.query_counts_by_round(3))
    assert r.rounds_used == 900 * log_k(1)


def test_hitting_set_no_instance():
    h, _ = gen_planted_packing(12, 3, 2, 0, seed=20)  # 2 disjoint edges, k=1
    r = hitting_set(fresh(h), 1, seed=21)
    assert not r.answer


def test_hitting_set_found_matches_exact():
    h, _ = gen_planted_hitting_set(10, 3, 2, 25, seed=22)
    opt = len(min_hitting_set(h))
    r = hitting_set(fresh(h), 2, seed=23)
    assert r.answer == (opt <= 2)
    if r.answer:
        assert len(r.witness) == opt


def test_hs_decision_empty_yes():
    h = new_hypergraph(4, 3, [])
    assert hs_decision(fresh(h), 0, seed=0).answer is True
    assert hs_decision(fresh(h), 2, seed=0).answer is True


def test_hs_decision_disjoint_edges_no():
    h, _ = gen_planted_packing(15, 3, 3, 0, seed=24)
    for seed in range(10):
        r = hs_decision(fresh(h), 2, seed=seed)
        assert r.answer is False
    assert len(min_hitting_set(h)) == 3


def test_hs_decision_uses_gpis_only():
    h, _ = gen_planted_hitting_set(12, 3, 2, 20, seed=25)
    s = fresh(h)
    r = hs_decision(s, 2, seed=26, constants=DEFAULT_CONSTANTS.override(hs_decision_gamma=2))
    assert s.stats().gpis == sum(r.query_counts_by_round(3))
    assert s.stats().bis == 0


# -- cut -----------------------------------------------------------------


def test_cut_single_edge():
    h = new_hypergraph(2, 2, [(0, 1)])
    r = cut(fresh(h), 2, 1, seed=0)
    assert r.answer
    assert r.witness[0] != r.witness[1]


def test_cut_witness_verified_on_hidden():
    h, _ = gen_planted_cut(20, 2, 6, seed=27)
    r = cut(fresh(h), 2, 6, seed=28)
    assert r.answer
    crossing = sum(1 for u, v in h.edges if r.witness[u] != r.witness[v])
    assert crossing >= 6
    assert len(set(r.witness)) <= 2


def test_cut_no_instance():
    h = new_hypergraph(6, 2, [(0, 1), (2, 3)])
    r = cut(fresh(h), 2, 3, seed=29)  # only 2 edges exist
    assert not r.answer


def test_cut_many_parts_covers_all_sampled_edges():
    h, _ = gen_planted_cut(10, 2, 4, seed=30)
    r = cut(fresh(h), 10, 4, seed=31)  # t >= class count: every edge cut
    assert r.answer == (h.m >= 4)


def test_cut_decision_matches_exact():
    for seed in range(5):
        h, _ = gen_planted_cut(14, 2, 5, seed=seed)
        _, opt = max_t_cut(h, 2)
        r = cut_decision(fresh(h), 2, 5, seed=seed)
        assert r.answer == (opt >= 5)


def test_cut_deterministic_found_and_seedless():
    h, _ = gen_planted_cut(12, 2, 3, seed=32)
    r1 = cut_deterministic(fresh(h), 2, 3)
    r2 = cut_deterministic(fresh(h), 2, 3)
    assert r1.answer and r1.witness == r2.witness and r1.stats == r2.stats


def test_cut_deterministic_sound():
    h = new_hypergraph(8, 2, [(0, 1), (2, 3)])
    r = cut_deterministic(fresh(h), 2, 3)
    assert not r.answer


# -- cross-cutting properties ---------------------------------------------


def test_monotone_boosting_never_flips_found_off():
    cheap = DEFAULT_CONSTANTS.override(pack_gamma=2)  # low success per round
    for seed in range(15):
        h, _ = gen_planted_packing(14, 2, 2, 5, seed=seed)
        low = packing(fresh(h), 2, seed=seed, constants=cheap.override(boost_c=1))
        high = packing(fresh(h), 2, seed=seed, constants=cheap.override(boost_c=4))
        if low.answer:
            assert high.answer


def test_found_answers_sound_even_with_bad_constants():
    # tiny color budgets make rounds fail often; Found must still be sound
    cheap = DEFAULT_CONSTANTS.override(pack_gamma=1, boost_c=2)
    for seed in range(20):
        h, _ = gen_planted_packing(12, 2, 2, 6, seed=seed)
        r = packing(fresh(h), 2, seed=seed, constants=cheap)
        if r.answer:
            seen = set()
            for e in r.witness:
                assert e in set(h.edges) and not seen.intersection(e)
                seen.update(e)


def test_two_phase_accounting_vertex_cover():
    h, _ = gen_planted_hitting_set(20, 2, 2, 30, seed=33)
    s = fresh(h)
    r = vertex_cover(s, 2, seed=34)
    assert s.stats().bise == sum(r.query_counts_by_round(2))
    assert total_queries(r.stats) == s.stats().total


def test_two_phase_accounting_hitting_set():
    h, _ = gen_planted_hitting_set(10, 3, 2, 20, seed=35)
    s = fresh(h)
    r = hitting_set(s, 2, seed=36)
    assert s.stats().gpise == sum(r.query_counts_by_round(3))


POLICY_CONFIGS = [
    # (name, runner, instance maker, constants) -- small color budgets so the
    # two policies actually pick different edges, rounds generous enough that
    # success stays near-certain under both
    (
        "packing",
        lambda s, seed, c: packing(s, 2, seed=seed, constants=c),
        lambda seed: gen_planted_packing(16, 2, 2, 4, seed=seed)[0],
        DEFAULT_CONSTANTS.override(pack_gamma=8, boost_c=12),
    ),
    (
        "matching-promised",
        lambda s, seed, c: matching_promised(s, 2, seed=seed, constants=c),
        lambda seed: gen_planted_packing(16, 2, 2, 2, seed=seed)[0],
        DEFAULT_CONSTANTS.override(match_colors_factor=10, match_rounds_factor=15),
    ),
    (
        "vc-promised",
        lambda s, seed, c: vc_promised(s, 2, seed=seed, constants=c),
        lambda seed: gen_planted_hitting_set(24, 2, 2, 30, seed=seed)[0],
        DEFAULT_CONSTANTS.override(vc_colors_factor=12, vc_rounds_factor=15),
    ),
    (
        "vertex-cover",
        lambda s, seed, c: vertex_cover(s, 2, seed=seed, constants=c),
        lambda seed: gen_planted_hitting_set(24, 2, 2, 30, seed=seed)[0],
        DEFAULT_CONSTANTS.override(vc_colors_factor=12, vc_rounds_factor=15, pack_gamma=10),
    ),
    (
        "vc-decision",
        lambda s, seed, c: vc_decision(s, 2, seed=seed, constants=c),
        lambda seed: gen_planted_hitting_set(20, 2, 2, 25, seed=seed)[0],
        DEFAULT_CONSTANTS.override(vc_decision_colors_factor=3),
    ),
    (
        "hs-promised",
        lambda s, seed, c: hs_promised(s, 2, seed=seed, constants=c),
        lambda seed: gen_planted_hitting_set(12, 3, 2, 25, seed=seed)[0],
        DEFAULT_CONSTANTS.override(hs_alpha=15, hs_beta=12),
    ),
    (
        "hitting-set",
        lambda s, seed, c: hitting_set(s, 2, seed=seed, constants=c),
        lambda seed: gen_planted_hitting_set(12, 3, 2, 25, seed=seed)[0],
        DEFAULT_CONSTANTS.override(hs_alpha=15, hs_beta=12, pack_gamma=10),
    ),
    (
        "hs-decision",
        lambda s, seed, c: hs_decision(s, 2, seed=seed, constants=c),
        lambda seed: gen_planted_hitting_set(12, 3, 2, 25, seed=seed)[0],
        DEFAULT_CONSTANTS.override(hs_decision_gamma=1),
    ),
    (
        "cut",
        lambda s, seed, c: cut(s, 2, 3, seed=seed, constants=c),
        lambda seed: gen_planted_cut(16, 2, 3, seed=seed)[0],
        DEFAULT_CONSTANTS.override(cut_colors_factor=3, boost_c=12),
    ),
    (
        "cut-decision",
        lambda s, seed, c: cut_decision(s, 2, 3, seed=seed, constants=c),
        lambda seed: gen_planted_cut(16, 2, 3, seed=seed)[0],
        DEFAULT_CONSTANTS.override(cut_colors_factor=3, boost_c=12),
    ),
]


@pytest.mark.parametrize("name,runner,make,constants", POLICY_CONFIGS, ids=[c[0] for c in POLICY_CONFIGS])
def test_policy_robustness(name, runner, make, constants):
    """Success rates under the two edge-selection policies agree within 5 points."""
    trials = 200
    rates = {}
    for policy in (EdgeSelectionPolicy.LEXICOGRAPHIC, EdgeSelectionPolicy.UNIFORM_RANDOM):
        good = 0
        for seed in range(trials):
            h = make(seed)
            s = OracleSession(h, policy=policy, policy_seed=seed)
            r = runner(s, seed, constants)
            # success here: answer agrees with exact ground truth
            if name in ("packing",):
                truth = len(max_set_packing(h)) >= 2
                good += r.answer == truth
            elif name == "matching-promised":
                good += len(r.witness) == len(max_matching(h))
            elif name in ("vc-promised", "hs-promised"):
                good += len(r.witness) == len(min_hitting_set(h))
            elif name in ("vertex-cover", "hitting-set"):
                truth = len(min_hitting_set(h)) <= 2
                good += r.answer == truth
            elif name in ("vc-decision", "hs-decision"):
                truth = len(min_hitting_set(h)) <= 2
                good += r.answer == truth
            elif name == "cut":
                truth = max_t_cut(h, 2)[1] >= 3
                good += r.answer == truth
            elif name == "cut-decision":
                truth = max_t_cut(h, 2)[1] >= 3
                good += r.answer == truth
        rates[policy] = good / trials
    lex, rnd = rates.values()
    assert abs(lex - rnd) <= 0.05, f"{name}: lex={lex:.2f} random={rnd:.2f}"
    assert lex >= 0.9 and rnd >= 0.9, f"{name}: rates unexpectedly low"


# -- argument checks and k = 0 -----------------------------------------------


@pytest.mark.parametrize("d, decide", [(2, vc_decision), (3, hs_decision)])
def test_decision_k0_rejects_nonempty_instance(d, decide):
    # k = 0 is "yes" only for an edgeless instance; one color would hide every edge
    h, _ = gen_planted_hitting_set(12, d, 2, 10, seed=40 + d)
    s = fresh(h)
    r = decide(s, 0, seed=1)
    assert r.answer is False
    assert total_queries(s.stats()) == sum(r.query_counts_by_round(d)) > 0


def test_vertex_cover_rejects_hypergraph_before_any_query():
    h, _ = gen_planted_hitting_set(10, 3, 2, 15, seed=42)
    s = fresh(h)
    with pytest.raises(ValueError, match="d=2"):
        vertex_cover(s, 2, seed=0)
    assert total_queries(s.stats()) == 0


def test_vc_decision_tied_vote_resolves_to_no():
    from qclab.sampler import quotient_existence
    from qclab.solvers import min_vertex_cover

    h, _ = gen_planted_hitting_set(12, 2, 3, 14, seed=0)
    constants = AlgorithmConstants(vc_decision_colors_factor=1, boost_c=2)  # 2 rounds, 16 colors
    r = vc_decision(fresh(h), 2, seed=0, constants=constants)
    votes = [
        len(min_vertex_cover(quotient_existence(fresh(h), c).graph)) <= 2 for c in r.colorings
    ]
    assert votes.count(True) == 1 and len(votes) == 2
    assert r.answer is False


@st.composite
def cut_round_inputs(draw):
    """A hidden graph, a coloring into b < n colors, a part count t and a policy."""
    n = draw(st.integers(2, 12))
    b = draw(st.integers(1, n - 1))
    color = draw(st.lists(st.integers(0, b - 1), min_size=n, max_size=n))
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    hidden = new_hypergraph(n, 2, draw(st.lists(edge, max_size=20)))
    t = draw(st.integers(2, 3))
    policy = draw(st.sampled_from(list(EdgeSelectionPolicy)))
    return hidden, HashColoring(n=n, b=b, color=tuple(color)), t, policy


@given(cut_round_inputs())
# an empty sample: every edge inside one class
@example((new_hypergraph(4, 2, [(0, 1), (2, 3)]), HashColoring(4, 3, (2, 2, 0, 0)), 2,
          EdgeSelectionPolicy.LEXICOGRAPHIC))
# colors 0 and 4 hold vertices no sampled edge touches
@example((new_hypergraph(7, 2, [(1, 2), (2, 3), (1, 3)]),
          HashColoring(7, 6, (0, 1, 2, 3, 4, 4, 0)), 2, EdgeSelectionPolicy.LEXICOGRAPHIC))
@settings(max_examples=200, deadline=None)
def test_cut_round_matches_the_used_color_contraction(inputs):
    hidden, coloring, t, policy = inputs
    with OracleSession(hidden, policy=policy, policy_seed=7) as session:
        sample = sample_subhypergraph(session, coloring)
    expected = used_color_cut_round(
        sample.graph, coloring.color, lambda g: max_t_cut(g, t, DEFAULT_LIMITS)
    )
    assert _cut_round(t, DEFAULT_LIMITS)(sample, coloring) == expected


def test_decision_votes_and_truth_build_no_minimum_cover(monkeypatch):
    import qclab.algorithms
    import qclab.harness

    built = []

    def spy(fn):
        def wrapper(*args, **kwargs):
            built.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for module in (qclab.algorithms, qclab.harness):
        for name in ("min_vertex_cover", "min_hitting_set"):
            monkeypatch.setattr(module, name, spy(getattr(module, name)))
    g, _ = gen_planted_hitting_set(20, 2, 2, 30, seed=5)
    h, _ = gen_planted_hitting_set(12, 3, 2, 20, seed=5)
    assert vc_decision(fresh(g), 2, seed=1).answer is True
    assert hs_decision(fresh(h), 2, seed=1).answer is True
    for algo, hidden in (("vc-decision", g), ("hs-decision", h)):
        report, _ = run_trial(algo, hidden, 2, seed=1)
        assert report.truth == "yes" and report.success
    assert built == []
