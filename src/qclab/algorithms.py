"""Query algorithms over a hidden instance, with exact query accounting.

Every algorithm consumes an OracleSession (its only access to the hidden
edge set), colors vertices, samples through the oracle, and hands the small
sampled or quotient instance to an exact solver. One round driver does that
for a list of colorings: random ones for the randomized variants, an
injective family for the deterministic ones. Randomized variants boost a
constant-probability core procedure: optimization algorithms repeat and keep
the best outcome, decision algorithms repeat and take a majority vote. The
number of repetitions is boost_c * ceil(log2 k), clamped so k <= 1 still
runs one round.

Results report the witness (verified against the sampled evidence before
returning), the exact per-kind query counts consumed, and the colorings used
per round so the query spend can be recomputed independently: a round whose
coloring has q non-empty classes costs exactly C(q, d) queries.

AlgorithmConstants collects every tunable: color counts, round counts, and
the boosting constant. Defaults follow the analysis that makes each core
round succeed with constant probability; override any field to experiment.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterator, Optional

from .coloring import HashColoring, class_labels, perfect_family, random_coloring
from .hypergraph import Edge, Hypergraph, crossing_edges, hits_every_edge, is_packing
from .hypergraph import new_hypergraph
from .oracle import OracleSession, QueryStats
from .rng import rng_from
# `quotient_existence` and `sample_subhypergraph` are kept for perfbench's tracer
from .sampler import quotient_existence, quotients, sample_subhypergraph  # noqa: F401
from .sampler import sample_union, samples
from .solvers import (
    DEFAULT_LIMITS,
    SolverLimits,
    max_matching,
    max_set_packing,
    max_t_cut,
    min_hitting_set,
    min_vertex_cover,
)


def is_integer(value: object) -> bool:
    """An integral number that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def log_k(k: int) -> int:
    """ceil(log2 k) clamped to at least 1; the repetition scale."""
    return max(1, (max(k, 1) - 1).bit_length())


@dataclass(frozen=True)
class AlgorithmConstants:
    """Every named constant in one overridable record.

    Fields ending in _factor multiply a power of k fixed by the algorithm;
    pack_gamma, hs_alpha, hs_beta and hs_decision_gamma default to their
    arity-dependent values when left as None.
    """

    vc_colors_factor: int = 1000        # cover sampler colors: 1000 * k
    vc_rounds_factor: int = 100         # cover sampler rounds: 100 * log k
    vc_decision_colors_factor: int = 100  # decision quotient colors: 100 * k^4
    match_colors_factor: int = 2000     # matching sampler colors: 2000 * k
    match_rounds_factor: int = 200      # matching sampler rounds: 200 * log k
    pack_gamma: Optional[int] = None    # packing colors: gamma * k^2; default 100 d^2
    hs_alpha: Optional[int] = None      # hitting-set rounds: alpha * log k; default 100 d^2
    hs_beta: Optional[int] = None       # hitting-set colors: beta * k; default 100 d^3 2^(d+5)
    hs_decision_gamma: Optional[int] = None  # decision colors: gamma * k^(2d); default 100 9^d d^2
    cut_colors_factor: int = 100        # cut colors: 100 * k^2
    boost_c: int = 10                   # rounds per unit of log k in boosted loops

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)  # None: the arity default, where the default is None
            if value is None and f.default is None:
                continue
            if not is_integer(value) or value < 1:
                raise ValueError(f"{f.name} must be an integer of at least 1, got {value!r}")

    def pack_gamma_for(self, d: int) -> int:
        return self.pack_gamma if self.pack_gamma is not None else 100 * d * d

    def hs_alpha_for(self, d: int) -> int:
        return self.hs_alpha if self.hs_alpha is not None else 100 * d * d

    def hs_beta_for(self, d: int) -> int:
        return self.hs_beta if self.hs_beta is not None else 100 * d**3 * 2 ** (d + 5)

    def hs_decision_gamma_for(self, d: int) -> int:
        return self.hs_decision_gamma if self.hs_decision_gamma is not None else 100 * 9**d * d * d

    def override(self, **kwargs) -> "AlgorithmConstants":
        unknown = sorted(set(kwargs) - {f.name for f in fields(self)})
        if unknown:
            raise ValueError(f"unknown constants: {unknown}")
        return replace(self, **kwargs)


DEFAULT_CONSTANTS = AlgorithmConstants()


@dataclass(frozen=True)
class AlgorithmResult:
    """Outcome of one algorithm run.

    answer True means "found" for optimization and "yes" for decision
    variants. A non-None witness was checked against the sampled evidence
    before return; whether it is also valid for the hidden instance is a
    statistical claim that the harness tests separately.
    """

    answer: bool
    witness: object | None
    stats: QueryStats
    constants: AlgorithmConstants
    colorings: tuple[HashColoring, ...] = field(repr=False, default=())

    @property
    def rounds_used(self) -> int:
        """One round per coloring: every round probes exactly one."""
        return len(self.colorings)

    def query_counts_by_round(self, d: int) -> tuple[int, ...]:
        """Closed-form C(q_r, d) per round, recomputed from the colorings."""
        return tuple(math.comb(len(set(c.color)), d) for c in self.colorings)


def _check_args(
    session: OracleSession, k: int, graph: str = "", t: int | None = None, k_min: int = 1
) -> None:
    """Reject invalid arguments before any query runs; `graph` names the
    problem when it needs d=2."""
    if t is not None and (not is_integer(t) or t < 2):
        raise ValueError(f"t must be an integer of at least 2, got {t!r}")
    if not is_integer(k) or k < k_min:
        raise ValueError(f"k must be an integer of at least {k_min}, got {k!r}")
    if graph and session.d != 2:
        raise ValueError(f"{graph} needs a graph (d=2)")


def _result(
    session: OracleSession,
    before: QueryStats,
    constants: AlgorithmConstants,
    colorings,
    answer: bool,
    witness: object | None = None,
) -> AlgorithmResult:
    return AlgorithmResult(
        answer=answer,
        witness=witness if answer else None,
        stats=session.stats() - before,
        constants=constants,
        colorings=tuple(colorings),
    )


def _check_cover(witness: tuple[int, ...], graph: Hypergraph) -> None:
    if not hits_every_edge(witness, graph):
        raise AssertionError("returned cover misses a sampled edge; algorithm bug")


def _check_packing(witness: tuple[Edge, ...], graph: Hypergraph) -> None:
    if not is_packing(witness, graph):
        raise AssertionError("returned packing invalid on sampled evidence; algorithm bug")


# -- the round driver ------------------------------------------------------


def _random_colorings(n: int, b: int, rounds: int, seed: int) -> list[HashColoring]:
    """Round r colors into [b] from the child stream (seed, "round", r)."""
    return [random_coloring(n, b, rng_from(seed, "round", r)) for r in range(rounds)]


def _rounds(session: OracleSession, colorings, solve: Callable, existence=False) -> Iterator:
    """Run one round per coloring, in order: probe it through the oracle (a
    witness-query sample, or with `existence` a class quotient) and yield
    what `solve` makes of the small instance. The oracle asks colorings in
    blocks: a round that raises leaves the rest of its block asked."""
    return map(solve, (quotients if existence else samples)(session, colorings), colorings)


def _best(
    session: OracleSession,
    k: int,
    colorings,
    solve: Callable[[Any, HashColoring], tuple[int, object]],
    constants: AlgorithmConstants,
    existence: bool = False,
) -> AlgorithmResult:
    """Keep the first round of highest score; found when that score reaches k."""
    before = session.stats()
    score, best = max(_rounds(session, colorings, solve, existence), key=lambda r: r[0])
    return _result(session, before, constants, colorings, score >= k, best)


def _vote(
    session: OracleSession,
    k: int,
    colorings,
    cover: Callable[..., tuple[int, ...]],
    constants: AlgorithmConstants,
    limits: SolverLimits,
) -> AlgorithmResult:
    """Majority vote over class quotients on "the quotient has a cover of at
    most k vertices" (ties resolve to "no")."""
    before = session.stats()
    votes = sum(
        _rounds(session, colorings, lambda q, c: len(cover(q.graph, limits)) <= k, existence=True)
    )
    return _result(session, before, constants, colorings, 2 * votes > len(colorings))


def _promised(
    session: OracleSession,
    b: int,
    t: int,
    seed: int,
    solver: Callable[..., tuple],
    check: Callable[[tuple, Hypergraph], None],
    constants: AlgorithmConstants,
    limits: SolverLimits,
) -> AlgorithmResult:
    """Solve the union of t samples at b colors exactly; the promise makes its
    optimum, with high probability, an optimum of the hidden instance."""
    before = session.stats()
    sample = sample_union(session, b, t, seed)
    witness = solver(sample.graph, limits)
    check(witness, sample.graph)
    return _result(session, before, constants, sample.provenance, True, witness)


def _two_phase(
    session: OracleSession,
    k: int,
    seed: int,
    promised: Callable[..., AlgorithmResult],
    bound: int,
    constants: AlgorithmConstants,
    limits: SolverLimits,
) -> AlgorithmResult:
    """A packing of k+1 disjoint edges certifies that no k vertices hit every
    edge; otherwise the optimum is at most `bound` and the promised algorithm
    finishes."""
    before = session.stats()
    phase1 = packing(session, k + 1, seed=seed, constants=constants, limits=limits)
    if phase1.answer:
        return _result(session, before, constants, phase1.colorings, False)
    phase2 = promised(session, bound, seed=seed, constants=constants, limits=limits)
    witness = phase2.witness
    assert isinstance(witness, tuple)
    colorings = phase1.colorings + phase2.colorings
    return _result(session, before, constants, colorings, len(witness) <= k, witness)


# -- packing / matching ------------------------------------------------


def _packing_round(limits: SolverLimits):
    def solve(sample, c: HashColoring) -> tuple[int, tuple[Edge, ...]]:
        pack = max_set_packing(sample.graph, limits)
        _check_packing(pack, sample.graph)
        return len(pack), pack

    return solve


def packing(
    session: OracleSession,
    k: int,
    seed: int = 0,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> AlgorithmResult:
    """Report a packing of at least k pairwise-disjoint edges, or that none exists.

    Each round colors the vertices with gamma*k^2 colors, samples one
    sub-hypergraph through the witness oracle, and solves it exactly; the
    best packing over boost_c*log k rounds is kept.
    """
    _check_args(session, k)
    b = constants.pack_gamma_for(session.d) * k * k
    colorings = _random_colorings(session.n, b, constants.boost_c * log_k(k), seed)
    return _best(session, k, colorings, _packing_round(limits), constants)


def packing_deterministic(
    session: OracleSession,
    k: int,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> AlgorithmResult:
    """Seed-free packing: exhaust an injective-family of colorings.

    Some family member colors the vertices of any fixed k-edge packing
    injectively, so the maximum over all members is exact, with no failure
    probability. Costs a factor of the family size (about max(n, colors))
    more queries than one randomized round.
    """
    _check_args(session, k)
    s = session.d * k
    range_b = max(constants.pack_gamma_for(session.d) * k * k, 4 * s * s)
    family = perfect_family(session.n, s, range_b)
    return _best(session, k, family.members, _packing_round(limits), constants)


def matching_promised(
    session: OracleSession,
    k: int,
    seed: int = 0,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> AlgorithmResult:
    """Maximum matching under the promise that it has at most k edges."""
    _check_args(session, k, graph="matching")
    b = constants.match_colors_factor * k
    t = constants.match_rounds_factor * log_k(k)
    return _promised(session, b, t, seed, max_matching, _check_packing, constants, limits)


# -- vertex cover ------------------------------------------------------


def vc_promised(
    session: OracleSession,
    k: int,
    seed: int = 0,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> AlgorithmResult:
    """Minimum vertex cover under the promise that it has at most k vertices.

    Takes the union of 100*log k samples at 1000k colors and solves it
    exactly; under the promise the union's minimum cover is, with high
    probability, a minimum cover of the hidden graph. The promise itself is
    not checked.
    """
    _check_args(session, k, graph="vertex cover")
    b = constants.vc_colors_factor * k
    t = constants.vc_rounds_factor * log_k(k)
    return _promised(session, b, t, seed, min_vertex_cover, _check_cover, constants, limits)


def vertex_cover(
    session: OracleSession,
    k: int,
    seed: int = 0,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> AlgorithmResult:
    """Find a vertex cover of size at most k, or report none exists.

    A matching of k+1 disjoint edges certifies that no k-cover exists;
    otherwise the cover is at most 2k and the promised algorithm finishes.
    """
    _check_args(session, k, graph="vertex cover")
    return _two_phase(session, k, seed, vc_promised, 2 * k, constants, limits)


def vc_decision(
    session: OracleSession,
    k: int,
    seed: int = 0,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> AlgorithmResult:
    """Decide whether a vertex cover of size at most k exists, using only
    existence (yes/no) queries.

    Each round colors at 100*k^4 colors (k=0 colors as k=1), builds the class
    quotient graph, and votes on the quotient's exact cover size; the
    majority wins (ties resolve to "no").
    """
    _check_args(session, k, graph="vertex cover", k_min=0)
    b = constants.vc_decision_colors_factor * max(k, 1) ** 4
    colorings = _random_colorings(session.n, b, constants.boost_c * log_k(k), seed)
    return _vote(session, k, colorings, min_vertex_cover, constants, limits)


# -- hitting set -------------------------------------------------------


def hs_promised(
    session: OracleSession,
    k: int,
    seed: int = 0,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> AlgorithmResult:
    """Minimum hitting set under the promise that it has at most k vertices.

    The union of alpha*log k samples at beta*k colors retains, with high
    probability, every edge without a large sunflower core and keeps every
    minimal large core significant, which is exactly what makes its minimum
    hitting set transfer back to the hidden instance.
    """
    _check_args(session, k)
    b = constants.hs_beta_for(session.d) * k
    t = constants.hs_alpha_for(session.d) * log_k(k)
    return _promised(session, b, t, seed, min_hitting_set, _check_cover, constants, limits)


def hitting_set(
    session: OracleSession,
    k: int,
    seed: int = 0,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> AlgorithmResult:
    """Find a hitting set of size at most k, or report none exists.

    A packing of k+1 disjoint edges certifies that no k-set hits everything;
    otherwise the optimum is at most d*k and the promised algorithm runs
    with that bound.
    """
    _check_args(session, k)
    return _two_phase(session, k, seed, hs_promised, session.d * k, constants, limits)


def hs_decision(
    session: OracleSession,
    k: int,
    seed: int = 0,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> AlgorithmResult:
    """Decide whether a hitting set of size at most k exists, via existence
    queries on class quotients at gamma*k^(2d) colors (k=0 colors as k=1)
    and a majority vote (ties resolve to "no")."""
    _check_args(session, k, k_min=0)
    b = constants.hs_decision_gamma_for(session.d) * max(k, 1) ** (2 * session.d)
    colorings = _random_colorings(session.n, b, constants.boost_c * log_k(k), seed)
    return _vote(session, k, colorings, min_hitting_set, constants, limits)


# -- cut ---------------------------------------------------------------


def cut(
    session: OracleSession,
    t: int,
    k: int,
    seed: int = 0,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> AlgorithmResult:
    """Find a t-partition crossed by at least k edges, or report none exists.

    Each round samples a subgraph at 100*k^2 colors and maximizes the cut
    over partitions that keep each color class whole; any partition achieving
    k on sampled edges achieves at least k on the hidden graph, so the first
    round reaching k settles the answer (the best round is reported).
    """
    _check_args(session, k, graph="cut", t=t)
    b = constants.cut_colors_factor * k * k
    colorings = _random_colorings(session.n, b, constants.boost_c * log_k(k), seed)
    return _best(session, k, colorings, _cut_round(t, limits), constants)


def _cut_round(t: int, limits: SolverLimits):
    def solve(sample, c: HashColoring) -> tuple[int, tuple[int, ...]]:
        """Exact max t-cut of the sampled edges over whole-class assignments."""
        # contract each color class to one node, in ascending color order;
        # sampled edges join distinct classes
        label = class_labels([c.color])[0].tolist()
        edges = [(label[u], label[v]) for u, v in sample.graph.edges]
        class_parts, size = max_t_cut(new_hypergraph(max(label) + 1, 2, edges), t, limits)
        lifted = tuple(class_parts[i] for i in label)
        # verify against the sampled evidence
        if crossing_edges(lifted, sample.graph) != size:
            raise AssertionError("lifted partition does not reproduce the class cut; bug")
        return size, lifted

    return solve


def cut_decision(
    session: OracleSession,
    t: int,
    k: int,
    seed: int = 0,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> AlgorithmResult:
    """Decide whether some t-partition is crossed by at least k edges, using
    existence queries only.

    The class quotient is sound for this one-sided question: a quotient
    partition cutting k quotient edges lifts to a hidden cut of at least k,
    so the answer is yes exactly when some round's quotient reaches k.
    """
    _check_args(session, k, graph="cut", t=t)
    b = constants.cut_colors_factor * k * k
    colorings = _random_colorings(session.n, b, constants.boost_c * log_k(k), seed)
    return _best(session, k, colorings, lambda q, c: (max_t_cut(q.graph, t, limits)[1], None),
                 constants, existence=True)


def cut_deterministic(
    session: OracleSession,
    t: int,
    k: int,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> AlgorithmResult:
    """Seed-free cut: exhaust an injective-family of colorings.

    Some member colors the 2k endpoints of any fixed k-edge cut injectively,
    so the best class-level cut over the family is exact."""
    _check_args(session, k, graph="cut", t=t)
    s = 2 * k
    range_b = max(constants.cut_colors_factor * k * k, 4 * s * s)
    family = perfect_family(session.n, s, range_b)
    return _best(session, k, family.members, _cut_round(t, limits), constants)
