"""Query accounting where colorings collide (b < n).

At the default constants every acceptance coloring has more colors than the
instance has vertices, so it is almost surely injective and every class is a
single vertex. Here each algorithm of the registry runs with color constants
small enough that every coloring it uses has fewer colors than vertices, and
the test checks criterion 5 (a round whose coloring has q non-empty classes
costs C(q, d) queries, q <= min(b, n)) and that each witness is valid on the
sampled evidence it came from. Success rates are printed, not asserted: at
these constants the algorithms' guarantees do not hold.
"""

import math

import pytest

from qclab.algorithms import AlgorithmConstants, log_k
from qclab.harness import ALGORITHMS, run_trial
from qclab.hypergraph import (
    crossing_edges,
    gen_planted_cut,
    gen_planted_hitting_set,
    gen_planted_packing,
    hits_every_edge,
    is_packing,
    new_hypergraph,
)
from qclab.oracle import EdgeSelectionPolicy, OracleSession
from qclab.rng import derive_seed
from qclab.sampler import sample_subhypergraph

SMALL = AlgorithmConstants(
    vc_colors_factor=3, vc_rounds_factor=8, vc_decision_colors_factor=1, match_colors_factor=3,
    match_rounds_factor=8, pack_gamma=1, hs_alpha=8, hs_beta=3, hs_decision_gamma=1,
    cut_colors_factor=1, boost_c=3,
)

# label: (algo, k, t, instance factory: seed -> hidden)
CASES = {
    "packing d=2": ("packing", 2, None, lambda s: gen_planted_packing(24, 2, 2, 6, seed=s)[0]),
    "packing d=3": ("packing", 2, None, lambda s: gen_planted_packing(24, 3, 2, 4, seed=s)[0]),
    "packing-deterministic": ("packing-deterministic", 2, None,
                              lambda s: gen_planted_packing(70, 2, 2, 6, seed=s)[0]),
    "matching-promised": ("matching-promised", 2, None,
                          lambda s: gen_planted_packing(24, 2, 2, 0, seed=s)[0]),
    "vc-promised": ("vc-promised", 2, None, lambda s: gen_planted_hitting_set(24, 2, 2, 30, seed=s)[0]),
    "vertex-cover": ("vertex-cover", 2, None,
                     lambda s: gen_planted_hitting_set(24, 2, 2, 30, seed=s)[0]),
    "vc-decision": ("vc-decision", 2, None, lambda s: gen_planted_hitting_set(24, 2, 2, 30, seed=s)[0]),
    "hs-promised d=2": ("hs-promised", 2, None,
                        lambda s: gen_planted_hitting_set(24, 2, 2, 30, seed=s)[0]),
    "hs-promised d=3": ("hs-promised", 2, None,
                        lambda s: gen_planted_hitting_set(16, 3, 2, 20, seed=s)[0]),
    "hitting-set d=2": ("hitting-set", 2, None,
                        lambda s: gen_planted_hitting_set(24, 2, 2, 30, seed=s)[0]),
    "hitting-set d=3": ("hitting-set", 2, None,
                        lambda s: gen_planted_hitting_set(20, 3, 2, 20, seed=s)[0]),
    "hs-decision": ("hs-decision", 2, None, lambda s: gen_planted_hitting_set(24, 2, 2, 30, seed=s)[0]),
    "cut": ("cut", 3, 2, lambda s: gen_planted_cut(24, 2, 4, seed=s)[0]),
    "cut-decision": ("cut-decision", 3, 2, lambda s: gen_planted_cut(24, 2, 4, seed=s)[0]),
    "cut-deterministic": ("cut-deterministic", 2, 2, lambda s: gen_planted_cut(70, 2, 4, seed=s)[0]),
}
TRIALS = 25


def test_every_registry_algorithm_has_a_case():
    assert {algo for algo, *_ in CASES.values()} == set(ALGORITHMS)


def _union(n, d, samples):
    return new_hypergraph(n, d, {e for s in samples for e in s.edges})


def _witness_on_evidence(algo, k, hidden, policy, seed, result) -> bool:
    """Replay the run's colorings as samples on a fresh session and check the
    witness against them: the round it came from, or the union it solved."""
    session = OracleSession(hidden, policy, derive_seed(seed, "policy"))
    samples = [sample_subhypergraph(session, c).graph for c in result.colorings]
    assert session.stats() == result.stats  # the replay asked the run's queries
    w, n, d = result.witness, hidden.n, hidden.d
    if algo in ("packing", "packing-deterministic"):
        return len(w) >= k and any(is_packing(w, s) for s in samples)
    if algo in ("cut", "cut-deterministic"):
        return any(crossing_edges(w, s) >= k for s in samples)
    if algo == "matching-promised":
        return is_packing(w, _union(n, d, samples))
    if algo in ("vc-promised", "hs-promised"):
        return hits_every_edge(w, _union(n, d, samples))
    # two phases: the cover solves the union of the promised phase's samples
    phase1 = SMALL.boost_c * log_k(k + 1)
    return len(w) <= k and hits_every_edge(w, _union(n, d, samples[phase1:]))


@pytest.mark.parametrize("policy", list(EdgeSelectionPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("label", list(CASES))
def test_accounting_and_witnesses_with_colliding_colorings(label, policy):
    algo, k, t, make = CASES[label]
    successes = 0
    for seed in range(TRIALS):
        hidden = make(seed)
        report, result = run_trial(algo, hidden, k, t=t, seed=seed, constants=SMALL, policy=policy)
        assert result is not None
        n, d = hidden.n, hidden.d
        assert result.colorings and all(c.b < n for c in result.colorings)
        qs = [len(set(c.color)) for c in result.colorings]
        assert all(q <= min(c.b, n) for q, c in zip(qs, result.colorings))
        assert result.stats.total == sum(math.comb(q, d) for q in qs)
        assert result.stats.total == sum(result.query_counts_by_round(d))
        if result.witness is not None:
            assert _witness_on_evidence(algo, k, hidden, policy, seed, result)
        successes += bool(report.success)
    print(f"{label} {policy.value}: success {successes}/{TRIALS}")
