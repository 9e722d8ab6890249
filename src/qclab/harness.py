"""Experiment harness: seeded trials, ground truth, sweeps, and reports.

A trial runs one algorithm once against one hidden instance, recomputes the
exact answer with the solvers (planted witnesses are never trusted as
optima), and emits a TrialReport. Sweeps run grids of trials with seeds
derived as hash(master_seed, cell, trial), so any cell reruns independently
and a whole sweep is bit-reproducible apart from elapsed times.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from . import algorithms as alg
from .algorithms import AlgorithmConstants, AlgorithmResult, DEFAULT_CONSTANTS
from .hypergraph import (
    Hypergraph,
    PlantedTruth,
    crossing_edges,
    gen_gnp,
    gen_planted_cut,
    gen_planted_hitting_set,
    gen_planted_packing,
    hits_every_edge,
    is_integer,
    is_packing,
    require_integer,
    require_integers,
)
from .oracle import EdgeSelectionPolicy, OracleSession, QueryStats
from .rng import derive_seed
from .solvers import (
    BudgetExceeded,
    DEFAULT_LIMITS,
    SolverLimits,
    has_hitting_set,
    max_matching,
    max_set_packing,
    max_t_cut,
    min_hitting_set,
    min_vertex_cover,  # noqa: F401  # kept for perfbench's tracer; verify reuses the hitting set
    representative_family,
)
from .sunflowers import classify_cores

CSV_HEADER = "algo,n,d,k,t,seed,bis,bise,gpis,gpise,answer,truth,success,witness_valid,elapsed_ms"

@dataclass(frozen=True)
class TrialReport:
    algo: str
    n: int
    d: int
    k: int
    t: Optional[int]
    seed: int
    bis: int
    bise: int
    gpis: int
    gpise: int
    answer: str
    truth: str
    success: Optional[bool]
    witness_valid: Optional[bool]
    elapsed_ms: int

    def to_csv_row(self) -> str:
        def cell(x: object) -> str:
            if x is None:
                return ""
            if isinstance(x, bool):
                return "true" if x else "false"
            return str(x)

        return ",".join(cell(getattr(self, f.name)) for f in fields(self))

    @staticmethod
    def from_csv_row(row: str) -> "TrialReport":
        parts = next(csv.reader(io.StringIO(row)))
        columns = fields(TrialReport)
        if len(parts) != len(columns):
            raise ValueError(f"expected {len(columns)} columns, got {len(parts)}")
        return TrialReport(**{f.name: _PARSE[f.type](x) for f, x in zip(columns, parts)})


# CSV cell parsers by TrialReport field annotation
_PARSE: dict[str, Callable[[str], object]] = {
    "int": int,
    "str": str,
    "Optional[int]": lambda x: int(x) if x else None,
    "Optional[bool]": lambda x: None if not x else x == "true",
}


def generate_instance(
    kind: str, n: int, d: int, k: int, seed: int, m: int = 0, extra: int = 0, t: int = 2
) -> tuple[Hypergraph, Optional[PlantedTruth]]:
    if kind == "gnp":
        require_integers(n=n, d=d, m=m)
        p = min(1.0, m / max(1, math.comb(n, d)))
        return gen_gnp(n, d, p, seed), None
    if kind == "planted-hs":
        return gen_planted_hitting_set(n, d, k, m, seed)
    if kind == "planted-packing":
        return gen_planted_packing(n, d, k, extra, seed)
    if kind == "planted-cut":
        return gen_planted_cut(n, t, k, seed)
    raise ValueError(f"unknown instance kind {kind!r}")


Optimum = Callable[[Hypergraph, Optional[int], SolverLimits], int]
Judge = Callable[..., tuple[str, str, Optional[bool], Optional[bool]]]


def _judge(verdict: Callable, yes: str = "found", no: str = "not-exists") -> Judge:
    """The algorithm's answer, then `verdict`'s truth, success and
    witness_valid; a truth solve that trips its budget reads
    `budget-exceeded`, with success and witness_valid empty."""

    def judge(hidden, k, t, result, limits):
        answer = yes if result.answer else no
        try:
            return (answer, *verdict(hidden, k, t, result, limits))
        except BudgetExceeded:
            return answer, "budget-exceeded", None, None

    return judge


def _search_judge(optimum: Optimum, reaches, valid, exact: bool = False) -> Judge:
    """Found / not-exists answers: the truth is whether the hidden optimum
    reaches k; a found witness must be valid on the hidden instance and, when
    `exact`, of optimum size."""

    def verdict(hidden, k, t, result, limits):
        opt = optimum(hidden, t, limits)
        truth = "found" if reaches(opt, k) else "not-exists"
        if not result.answer:
            return truth, truth == "not-exists", None
        w = result.witness
        ok = valid(w, hidden, k, t)
        return truth, truth == "found" and ok and (not exact or len(w) == opt), ok

    return _judge(verdict)


def _promised_judge(optimum: Optimum, valid) -> Judge:
    """Promised variants always report a witness; success means it is a
    valid structure of exactly the hidden optimum's size."""

    def verdict(hidden, k, t, result, limits):
        opt = optimum(hidden, t, limits)
        ok = valid(result.witness, hidden)
        return "found", ok and len(result.witness) == opt, ok

    return _judge(verdict)


def _decision_judge(holds: Callable[..., bool]) -> Judge:
    def verdict(hidden, k, t, result, limits):
        truth = holds(hidden, k, t, limits)
        return "yes" if truth else "no", result.answer == truth, None

    return _judge(verdict, "yes", "no")


def _max_packing(hidden: Hypergraph, t: Optional[int], limits: SolverLimits) -> int:
    return len(max_set_packing(hidden, limits))


def _max_matching(hidden: Hypergraph, t: Optional[int], limits: SolverLimits) -> int:
    return len(max_matching(hidden, limits))


def _min_cover(hidden: Hypergraph, t: Optional[int], limits: SolverLimits) -> int:
    return len(min_hitting_set(hidden, limits))


def _max_cut(hidden: Hypergraph, t: Optional[int], limits: SolverLimits) -> int:
    return max_t_cut(hidden, t, limits)[1]


_PACKING = _search_judge(_max_packing, operator.ge, lambda w, h, k, t: is_packing(w, h))
_MATCHING = _promised_judge(_max_matching, is_packing)
_PROMISED_COVER = _promised_judge(_min_cover, hits_every_edge)
_COVER = _search_judge(
    _min_cover, operator.le, lambda w, h, k, t: hits_every_edge(w, h) and len(w) <= k, exact=True
)
_COVER_DECISION = _decision_judge(lambda h, k, t, limits: has_hitting_set(h, k, limits))
_CUT = _search_judge(
    _max_cut, operator.ge, lambda w, h, k, t: crossing_edges(w, h) >= k and len(set(w)) <= t
)
_CUT_DECISION = _decision_judge(lambda h, k, t, limits: _max_cut(h, t, limits) >= k)


@dataclass(frozen=True)
class AlgorithmSpec:
    """Everything the harness and the CLI know about one algorithm.

    `function` names it in `qclab.algorithms`; `reads` names the
    AlgorithmConstants fields it reads, first `colors`, the one that
    `--colors-factor` sets; `exponent(d)` is the k-exponent of the nominal
    query bound (log factors dropped), reported next to fitted exponents in
    sweep summaries and never asserted.
    """

    function: str
    kind: str  # the instance kind sweeps generate
    judge: Judge  # (hidden, k, t, result, limits) -> answer, truth, success, witness_valid
    reads: tuple[str, ...]
    exponent: Optional[Callable[[int], int]] = None
    graph_only: bool = False
    needs_t: bool = False
    seeded: bool = True

    @property
    def colors(self) -> str:
        return self.reads[0]

    def run(self, session, k, t, seed, constants, limits) -> AlgorithmResult:
        fn = getattr(alg, self.function)  # looked up per call, so later wrappers apply
        args = (session, t, k) if self.needs_t else (session, k)
        seeded = {"seed": seed} if self.seeded else {}
        return fn(*args, constants=constants, limits=limits, **seeded)


_P, _H, _C = "planted-packing", "planted-hs", "planted-cut"
_PACK = ("pack_gamma", "boost_c")  # the packing rounds, also phase 1 of the two-phase searches
_VC, _HS = ("vc_colors_factor", "vc_rounds_factor"), ("hs_beta", "hs_alpha")
_CUTS = ("cut_colors_factor", "boost_c")
ALGORITHMS: dict[str, AlgorithmSpec] = {
    "packing": AlgorithmSpec("packing", _P, _PACKING, _PACK, lambda d: 2 * d),
    "packing-deterministic": AlgorithmSpec(
        "packing_deterministic", _P, _PACKING, ("pack_gamma",), seeded=False
    ),
    "matching-promised": AlgorithmSpec(
        "matching_promised", _P, _MATCHING, ("match_colors_factor", "match_rounds_factor"),
        lambda d: 2, graph_only=True,
    ),
    "vc-promised": AlgorithmSpec(
        "vc_promised", _H, _PROMISED_COVER, _VC, lambda d: 2, graph_only=True
    ),
    "vertex-cover": AlgorithmSpec(
        "vertex_cover", _H, _COVER, _VC + _PACK, lambda d: 4, graph_only=True
    ),
    "vc-decision": AlgorithmSpec(
        "vc_decision", _H, _COVER_DECISION, ("vc_decision_colors_factor", "boost_c"),
        lambda d: 8, graph_only=True,
    ),
    "hs-promised": AlgorithmSpec("hs_promised", _H, _PROMISED_COVER, _HS, lambda d: d),
    "hitting-set": AlgorithmSpec("hitting_set", _H, _COVER, _HS + _PACK, lambda d: 2 * d),
    "hs-decision": AlgorithmSpec(
        "hs_decision", _H, _COVER_DECISION, ("hs_decision_gamma", "boost_c"),
        lambda d: 2 * d * d,
    ),
    "cut": AlgorithmSpec("cut", _C, _CUT, _CUTS, lambda d: 4, graph_only=True, needs_t=True),
    "cut-decision": AlgorithmSpec(
        "cut_decision", _C, _CUT_DECISION, _CUTS, lambda d: 4, graph_only=True, needs_t=True
    ),
    "cut-deterministic": AlgorithmSpec(
        "cut_deterministic", _C, _CUT, ("cut_colors_factor",), graph_only=True, needs_t=True,
        seeded=False,
    ),
}


def run_algorithm(
    algo: str,
    session: OracleSession,
    k: int,
    t: Optional[int] = None,
    seed: int = 0,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> AlgorithmResult:
    spec = ALGORITHMS.get(algo)
    if spec is None:
        raise ValueError(f"unknown algorithm {algo!r}; choose from {tuple(ALGORITHMS)}")
    if spec.graph_only and session.d != 2:
        raise ValueError(f"{algo} needs a graph instance (d=2), got d={session.d}")
    if spec.needs_t != (t is not None):
        raise ValueError(f"{algo} {'needs' if spec.needs_t else 'takes no'} t, a part count (--t)")
    return spec.run(session, k, t, seed, constants, limits)


def run_trial(
    algo: str,
    hidden: Hypergraph,
    k: int,
    t: Optional[int] = None,
    seed: int = 0,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    limits: SolverLimits = DEFAULT_LIMITS,
    policy: EdgeSelectionPolicy = EdgeSelectionPolicy.LEXICOGRAPHIC,
    log_path: str | None = None,
) -> tuple[TrialReport, Optional[AlgorithmResult]]:
    """One seeded trial: run the algorithm, recompute truth, fill the report."""
    with OracleSession(
        hidden, policy=policy, policy_seed=derive_seed(seed, "policy"), log_path=log_path
    ) as session:
        start = time.monotonic()
        try:
            result: Optional[AlgorithmResult] = run_algorithm(
                algo, session, k, t=t, seed=derive_seed(seed, "algo"), constants=constants,
                limits=limits,
            )
        except BudgetExceeded:
            result = None
        elapsed = int((time.monotonic() - start) * 1000)
        stats = session.stats()
    if result is None:
        answer, truth, success, witness_valid = "budget-exceeded", "", None, None
    else:
        answer, truth, success, witness_valid = ALGORITHMS[algo].judge(
            hidden, k, t, result, limits
        )
    report = TrialReport(
        algo=algo, n=hidden.n, d=hidden.d, k=k, t=t, seed=seed,
        bis=stats.bis, bise=stats.bise, gpis=stats.gpis, gpise=stats.gpise,
        answer=answer, truth=truth, success=success, witness_valid=witness_valid,
        elapsed_ms=elapsed,
    )
    return report, result


@dataclass
class SweepConfig:
    algorithms: list[str]
    n: list[int]
    k: list[int]
    d: list[int] = field(default_factory=lambda: [2])
    t: list[int] = field(default_factory=lambda: [2])
    m: list[int] = field(default_factory=lambda: [0])  # 0: pick a default edge count
    extra: list[int] = field(default_factory=lambda: [10])
    trials: int = 10
    master_seed: int = 0
    policy: str = "lex"
    constants: dict = field(default_factory=dict)
    csv_path: Optional[str] = None
    summary_path: Optional[str] = None

    def __post_init__(self) -> None:
        require_integers(trials=self.trials, master_seed=self.master_seed)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        for name in ("algorithms", "n", "k", "d", "t", "m", "extra"):
            grid = getattr(self, name)
            if not isinstance(grid, list) or not grid:
                raise ValueError(f"grid {name} must be a non-empty list, got {grid!r}")
            if name != "algorithms" and not all(map(is_integer, grid)):
                raise ValueError(f"grid {name} must hold integers, got {grid!r}")
        for a in self.algorithms:
            if not isinstance(a, str) or a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")
        for name in ("csv_path", "summary_path"):  # an int would be taken as a file descriptor
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a path, got {getattr(self, name)!r}")
        EdgeSelectionPolicy(self.policy)  # "lex" or "random"; anything else is a ValueError
        if not isinstance(self.constants, dict):
            raise ValueError(f"constants must be an object, got {self.constants!r}")
        DEFAULT_CONSTANTS.override(**self.constants)  # unknown names and bad values too

    @staticmethod
    def from_json(obj: dict) -> "SweepConfig":
        known = {f for f in SweepConfig.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return SweepConfig(**obj)


def _cells(config: SweepConfig):
    """Every grid point (algo, n, d, k, t, m, extra), in cell-index order."""
    for algo in config.algorithms:
        spec = ALGORITHMS[algo]
        ds = [2] if spec.graph_only else config.d
        ts = config.t if spec.needs_t else [None]
        for d, n, k, t, m, extra in itertools.product(
            ds, config.n, config.k, ts, config.m, config.extra
        ):
            yield algo, n, d, k, t, m, extra


def _default_edge_count(kind: str, n: int, d: int, k: int) -> int:
    if kind == "planted-hs":
        cap = math.comb(n, d) - math.comb(max(n - k, 0), d)
        return min(3 * n, max(1, cap // 2))
    return 0


def _sweep_trial(algo, n, d, k, t, m, extra, seed, constants, policy):
    """(report, message) of one trial of a cell; the message is None unless
    the row has no run report (an `infeasible` or `error:<type>` answer)."""
    kind = ALGORITHMS[algo].kind
    m = m or _default_edge_count(kind, n, d, k)
    try:
        hidden, _ = generate_instance(kind, n=n, d=d, k=k, seed=seed, m=m, extra=extra, t=t or 2)
    except ValueError as exc:  # the generator cannot build this instance
        answer, message = "infeasible", str(exc)
    else:
        try:
            report, _ = run_trial(
                algo, hidden, k, t=t, seed=seed, constants=constants, policy=policy
            )
            return report, None
        except (ValueError, BudgetExceeded) as exc:
            answer, message = f"error:{type(exc).__name__}", str(exc)
    report = TrialReport(
        algo=algo, n=n, d=d, k=k, t=t, seed=seed, bis=0, bise=0, gpis=0, gpise=0,
        answer=answer, truth="", success=None, witness_valid=None, elapsed_ms=0,
    )
    return report, f"{answer}: {message}"


def run_sweep(config: SweepConfig) -> tuple[list[TrialReport], dict]:
    """Run every cell of the grid; return all reports plus a summary dict."""
    constants = DEFAULT_CONSTANTS.override(**config.constants)
    policy = EdgeSelectionPolicy(config.policy)
    reports: list[TrialReport] = []
    cells: dict[str, dict] = {}
    for idx, cell in enumerate(_cells(config)):
        seeds = [derive_seed(config.master_seed, "cell", idx, "trial", i)
                 for i in range(config.trials)]
        trials = [_sweep_trial(*cell, seed, constants, policy) for seed in seeds]
        cell_reports = [report for report, _ in trials]
        reports.extend(cell_reports)
        ok = [r for r in cell_reports if r.success is not None]
        queries = [r.bis + r.bise + r.gpis + r.gpise for r in ok]
        # a row whose ground truth tripped its budget keeps the algorithm's answer
        causes = Counter(
            f"truth:{r.truth}" if r.truth else r.answer for r in cell_reports if r.success is None
        )
        algo, n, d, k, t, m, extra = cell
        cells[f"{algo}|n={n}|d={d}|k={k}|t={t}|m={m}|extra={extra}"] = {
            "algo": algo, "n": n, "d": d, "k": k, "t": t, "m": m, "extra": extra,
            "trials": len(cell_reports),
            "errors": sum(causes.values()) - causes["infeasible"]
            - causes["truth:budget-exceeded"],
            "infeasible": causes["infeasible"],
            "causes": dict(causes),
            "messages": sorted({message for _, message in trials if message is not None}),
            "success_rate": sum(r.success for r in ok) / len(ok) if ok else None,
            "mean_queries": sum(queries) / len(queries) if queries else None,
            "max_queries": max(queries) if queries else None,
        }
    summary = {"cells": cells, "exponent_fits": _fit_exponents(cells)}
    if config.csv_path:
        write_csv(reports, config.csv_path)
    if config.summary_path:
        with open(config.summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return reports, summary


def _fit_exponents(cells: dict[str, dict]) -> dict[str, dict]:
    """Least-squares slope of log(mean queries) vs log k per algorithm/d group."""
    groups: dict[tuple[str, int], list[tuple[int, float]]] = {}
    for info in cells.values():
        if info["mean_queries"] and info["k"] >= 1:
            groups.setdefault((info["algo"], info["d"]), []).append(
                (info["k"], info["mean_queries"])
            )
    fits = {}
    for (algo, d), points in sorted(groups.items()):
        ks = sorted({k for k, _ in points})
        ref = ALGORITHMS[algo].exponent
        entry: dict[str, object] = {
            "reference_exponent": ref(d) if ref else None,
            "fitted_exponent": None,
        }
        if len(ks) >= 2:
            xs = [math.log(k) for k, _ in points]
            ys = [math.log(q) for _, q in points]
            mean_x = sum(xs) / len(xs)
            mean_y = sum(ys) / len(ys)
            denom = sum((x - mean_x) ** 2 for x in xs)
            if denom > 0:
                entry["fitted_exponent"] = (
                    sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denom
                )
        fits[f"{algo}|d={d}"] = entry
    return fits


def write_csv(reports: list[TrialReport], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in reports:
            fh.write(r.to_csv_row() + "\n")


def read_csv(path: str) -> list[TrialReport]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    return [TrialReport.from_csv_row(ln) for ln in lines[1:]]


def verify_instance(
    hidden: Hypergraph,
    k: int,
    t: int = 2,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> dict:
    """Exact optima and structural checks for one instance, as JSON-able dict.

    k must be an integer >= 0 and t an integer; a t below 2, like a solver
    budget, is reported as a skipped field.
    """
    require_integer("k", k, 0)
    require_integers(t=t)
    out: dict[str, object] = {"n": hidden.n, "d": hidden.d, "m": hidden.m, "k": k}

    def attempt(name: str, fn: Callable[[], object]) -> None:
        try:
            out[name] = fn()
        except (BudgetExceeded, ValueError) as exc:
            out[name] = f"skipped:{exc}"

    attempt("min_hitting_set", lambda: list(min_hitting_set(hidden, limits)))
    attempt("max_set_packing", lambda: [list(e) for e in max_set_packing(hidden, limits)])
    if hidden.d == 2:  # a graph's vertex cover and matching are the two just solved
        out["min_vertex_cover"] = out["min_hitting_set"]
        out["max_matching"] = out["max_set_packing"]
        attempt("max_t_cut", lambda: max_t_cut(hidden, t, limits)[1])
    attempt("representative_family_size", lambda: len(representative_family(hidden, k, limits)))
    out["representative_family_bound"] = math.comb(k + hidden.d, hidden.d)
    attempt("core_report", lambda: classify_cores(hidden, k, limits).to_json())
    report, hs, d = out["core_report"], out["min_hitting_set"], hidden.d
    if not isinstance(report, dict):
        out["bound_edges_without_large_core"] = out["bound_minimal_large_cores"] = report
    elif isinstance(hs, list) and len(hs) <= k:
        out["bound_edges_without_large_core"] = _bound(
            len(report["edges_without_large_core"]), math.factorial(d) * (10 * d * k) ** d
        )
        out["bound_minimal_large_cores"] = _bound(
            len(report["minimal_large_cores"]), math.factorial(d - 1) * k ** (d - 1)
        )
    else:
        out["bound_edges_without_large_core"] = "hypothesis not met (hitting set > k)"
        out["bound_minimal_large_cores"] = "hypothesis not met (hitting set > k)"
    return out


def _bound(value: int, limit: int) -> dict:
    return {"value": value, "limit": limit, "ok": value <= limit}
