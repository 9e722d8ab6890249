"""Sampling rounds whose small instances are equal share one solve within an
algorithm call. The shared solves change no answer, witness, coloring, query
count or query log line, and every distinct sample is solved once."""

import contextlib
import itertools
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import qclab.algorithms
import qclab.sampler
from qclab.algorithms import AlgorithmConstants
from qclab.hypergraph import gen_planted_cut, gen_planted_hitting_set, gen_planted_packing
from qclab.hypergraph import new_hypergraph
from qclab.oracle import EdgeSelectionPolicy, OracleSession
from qclab.sampler import sample_subhypergraph
from qclab.solvers import max_set_packing, max_t_cut

ALGORITHMS = (
    "packing", "cut", "vc_decision", "cut_decision", "packing_deterministic", "cut_deterministic",
)


@contextlib.contextmanager
def _without_memo():
    """Every round builds and solves its own instance."""
    with mock.patch.object(qclab.algorithms, "cache", lambda fn: fn):
        with mock.patch.object(qclab.sampler, "cache", lambda fn: fn):
            yield


def _run(algo, h, k, t, seed, constants, policy, policy_seed, log_path):
    args = (t, k) if t is not None else (k,)
    kwargs = {"constants": constants}
    if not algo.endswith("deterministic"):
        kwargs["seed"] = seed
    with OracleSession(h, policy, policy_seed, log_path=log_path) as session:
        result = getattr(qclab.algorithms, algo)(session, *args, **kwargs)
        return result, session.stats()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ALGORITHMS), st.booleans(), st.data())
def test_shared_solves_change_no_output(algo, collide, data):
    d = data.draw(st.sampled_from([2, 3])) if algo.startswith("packing") else 2
    # the injective families color n <= 16 vertices injectively at any color
    # constant; above, color constant 1 makes them collide
    deterministic = algo.endswith("deterministic")
    n = data.draw(st.integers(17, 20) if deterministic and collide else st.integers(5, 10))
    all_edges = list(itertools.combinations(range(n), d))
    h = new_hypergraph(n, d, data.draw(st.lists(st.sampled_from(all_edges), unique=True,
                                                max_size=12)))
    k = data.draw(st.integers(0, 2) if algo == "vc_decision" else st.integers(1, 2))
    t = data.draw(st.integers(2, 3)) if "cut" in algo else None
    # color constant 1 gives at most k^2 (k^4) colors, fewer than the vertices;
    # 1000 makes every random coloring injective
    factor = data.draw(st.sampled_from([1, 2]) if collide else st.just(1000))
    if deterministic and not collide:
        factor = 1
    constants = AlgorithmConstants(
        pack_gamma=factor, cut_colors_factor=factor, vc_decision_colors_factor=factor,
        boost_c=data.draw(st.integers(1, 9)),
    )
    seed, policy_seed = data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(0, 2**64 - 1))
    with tempfile.TemporaryDirectory() as tmp:
        for policy in EdgeSelectionPolicy:
            run = (algo, h, k, t, seed, constants, policy, policy_seed)
            shared, shared_stats = _run(*run, f"{tmp}/shared.log")
            with _without_memo():
                own, own_stats = _run(*run, f"{tmp}/own.log")
            assert shared.answer == own.answer
            assert shared.witness == own.witness
            assert shared.colorings == own.colorings
            assert shared.stats == own.stats
            assert shared_stats == own_stats
            assert Path(f"{tmp}/shared.log").read_bytes() == Path(f"{tmp}/own.log").read_bytes()


def test_packing_deterministic_solves_each_distinct_sample_once():
    h, _ = gen_planted_packing(14, 2, 2, 2, seed=3)
    spy = mock.patch.object(qclab.algorithms, "max_set_packing", wraps=max_set_packing)
    with OracleSession(h) as session, spy as solve:
        result = qclab.algorithms.packing_deterministic(session, 2)
    with OracleSession(h) as replay:
        distinct = {sample_subhypergraph(replay, c).graph for c in result.colorings}
    assert solve.call_count == len(distinct) < result.rounds_used
    assert {call.args[0] for call in solve.call_args_list} == distinct


def test_no_sample_is_solved_twice_in_one_call():
    packing_instance, _ = gen_planted_packing(30, 2, 2, 8, seed=1)
    cut_instance, _ = gen_planted_cut(14, 2, 2, seed=2)
    cover_instance, _ = gen_planted_hitting_set(36, 2, 2, 50, seed=4)
    # (solver, instance, algorithm, arguments): injective colorings sample the
    # whole instance, so most rounds repeat a solved sample
    cases = (
        (max_set_packing, packing_instance, "packing", (2,)),
        (max_set_packing, cover_instance, "vertex_cover", (2,)),
        (max_t_cut, cut_instance, "cut_deterministic", (2, 2)),
    )
    for solver, h, algo, args in cases:
        with OracleSession(h) as session:
            with mock.patch.object(qclab.algorithms, solver.__name__, wraps=solver) as spy:
                result = getattr(qclab.algorithms, algo)(session, *args)
        graphs = [call.args[0] for call in spy.call_args_list]
        assert 0 < len(graphs) == len(set(graphs)), algo
        assert 2 * len(graphs) <= result.rounds_used, algo
