"""Per-layer tracing of qclab from outside the program.

Loaded only by a traced run (`--trace 1`). It replaces public names with
timing wrappers in the namespace where each caller looks them up: the
harness's imports of the generators, solvers and `classify_cores`, the
algorithms' imports of the coloring, sampler and solver functions, the
sampler's imports of the coloring functions, and the four query methods and
the constructor of `OracleSession`. Solver calls reached through the
harness are ground truth ("truth"); those reached through the algorithms
are subroutines on sampled instances ("solve").

Calls at a layer boundary become spans, kept in memory. Oracle queries are
too many and too short for span objects: their time goes into counters and
is charged to the innermost open span. Per-kind query counts are read as
`QueryStats` deltas of the sessions an op created, so they stay exact
however the program issues its queries. A boundary that no longer exists
marks its layer missing; the layer's metrics are then left out.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns

ALGORITHMS = (
    "packing", "packing_deterministic", "matching_promised", "vc_promised", "vertex_cover",
    "vc_decision", "hs_promised", "hitting_set", "hs_decision", "cut", "cut_decision",
    "cut_deterministic",
)
SOLVE = ("max_matching", "max_set_packing", "max_t_cut", "min_hitting_set", "min_vertex_cover")
TRUTH = SOLVE + ("representative_family",)
GENERATORS = ("gen_gnp", "gen_planted_cut", "gen_planted_hitting_set", "gen_planted_packing")
QUERIES = ("bis", "bise", "gpis", "gpise")


def _edges(args, out):
    return (out[0] if isinstance(out, tuple) else out).m


def _first_m(args, out):
    return args[0].m


def _colored(args, out):
    return args[0]


def _family(args, out):
    return args[0] * len(out.members)


def _sample_edges(args, out):
    return out.graph.m


# (layer, module, name, span name, info(args, result) -> int or None)
BOUNDARIES = (
    [("harness", "qclab.harness", n, f"harness.{n}", None) for n in ("run_trial", "verify_instance")]
    + [("hypergraph", "qclab.harness", n, f"hypergraph.{n}", _edges) for n in GENERATORS]
    + [("algorithms", "qclab.algorithms", n, f"algorithms.{n}",
        lambda args, out: out.rounds_used) for n in ALGORITHMS]
    + [
        ("coloring", "qclab.algorithms", "random_coloring", "coloring.random_coloring", _colored),
        ("coloring", "qclab.algorithms", "perfect_family", "coloring.perfect_family", _family),
        ("coloring", "qclab.algorithms", "rng_from", "coloring.rng_from", None),
        ("coloring", "qclab.sampler", "random_coloring", "coloring.random_coloring", _colored),
        ("coloring", "qclab.sampler", "rng_from", "coloring.rng_from", None),
        ("coloring", "qclab.sampler", "classes", "coloring.classes", None),
        ("sampler", "qclab.algorithms", "sample_subhypergraph", "sampler.sample_subhypergraph",
         _sample_edges),
        ("sampler", "qclab.algorithms", "sample_union", "sampler.sample_union", _sample_edges),
        ("sampler", "qclab.algorithms", "quotient_existence", "sampler.quotient_existence", None),
        ("sampler", "qclab.sampler", "sample_subhypergraph", "sampler.sample_subhypergraph",
         _sample_edges),
        ("sunflowers", "qclab.harness", "classify_cores", "sunflowers.classify_cores",
         lambda args, out: len(out.cores)),
    ]
    + [("solvers", "qclab.algorithms", n, f"solvers.solve.{n}", _first_m) for n in SOLVE]
    + [("solvers", "qclab.harness", n, f"solvers.truth.{n}", _first_m) for n in TRUTH]
)

# span record fields
NAME, PARENT, START, END, CHARGED, INFO, OP, ERROR = range(8)


def self_time(start: int, end: int, children, charged: int = 0) -> int:
    """Duration of [start, end) minus the part its children cover, minus the
    counter time `charged` to it directly."""
    covered = 0
    lo = hi = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= s:
            continue
        if hi is None or s > hi:
            if hi is not None:
                covered += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if hi is not None:
        covered += hi - lo
    return end - start - covered - charged


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        # oracle counters: query ns, queries, non-empty answers, all-singleton queries, init ns
        self.oracle = [0, 0, 0, 0, 0]
        self.sessions: list = []
        self.missing: set[str] = set()
        self._patches: list[tuple] = []
        self._wrappers: list[tuple] = []
        for layer, module, name, span, info in BOUNDARIES:
            owner = _find(module)
            if owner is None or not callable(getattr(owner, name, None)):
                self.missing.add(layer)
                continue
            self._wrappers.append((owner, name, self._span(span, getattr(owner, name), info)))
        session = getattr(_find("qclab.oracle"), "OracleSession", None)
        if session is None or not all(callable(getattr(session, n, None)) for n in QUERIES):
            self.missing.add("oracle")
        else:
            self._wrappers.append((session, "__init__", self._init(session.__init__)))
            for n in QUERIES:
                self._wrappers.append((session, n, self._query(getattr(session, n), n in ("bis", "bise"))))

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for owner, name, wrapper in self._wrappers:
            self._patches.append((owner, name, vars(owner).get(name), name in vars(owner)))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original, own = self._patches.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, info):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, 0, 0, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _init(self, fn):
        acc, spans, stack = self.oracle, self.spans, self.stack

        def wrapper(session, *args, **kwargs):
            t0 = perf_counter_ns()
            fn(session, *args, **kwargs)
            ns = perf_counter_ns() - t0
            acc[4] += ns
            if stack:
                spans[stack[-1]][CHARGED] += ns
            self.sessions.append((session, session.stats()))

        wrapper.__wrapped__ = fn
        return wrapper

    def _query(self, fn, two_set: bool):
        # the hot path of a traced run: kept to a few local operations
        acc, spans, stack = self.oracle, self.spans, self.stack

        def wrapper(session, *args, **kwargs):
            t0 = perf_counter_ns()
            answer = fn(session, *args, **kwargs)
            ns = perf_counter_ns() - t0
            acc[0] += ns
            acc[1] += 1
            if stack:
                spans[stack[-1]][CHARGED] += ns
            if answer is not None and answer is not False:
                acc[2] += 1
            for part in args if two_set else args[0]:
                if len(part) != 1:
                    break
            else:
                acc[3] += 1
            return answer

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-op bookkeeping ----------------------------------------------

    def begin_op(self, index: int) -> None:
        self.op = index
        self.sessions = []
        self.install()

    def end_op(self):
        """Uninstall; return the per-kind queries (bis, bise, gpis, gpise) of
        the sessions the op created."""
        self.uninstall()
        self.op = -1
        if "oracle" in self.missing:
            return None
        total = [0, 0, 0, 0]
        for session, before in self.sessions:
            delta = session.stats() - before
            for i, kind in enumerate(QUERIES):
                total[i] += getattr(delta, kind)
        self.sessions = []
        return tuple(total)

    # -- results ---------------------------------------------------------

    def metrics(self, ops: int, setups: int, kinds: list[int], op_ns: int) -> dict:
        """Per-layer metrics over `ops` traced ops and `setups` traced set-ups.

        `kinds` holds the per-kind query totals of the traced ops and `op_ns`
        their summed wall time. Times and counts are per op (per set-up for
        the hypergraph layer); a ratio whose base is zero reads 0.
        """
        spans = self.spans
        layer_of = [s[NAME].split(".", 1)[0] for s in spans]
        children: list[list[tuple[int, int]]] = [[] for _ in spans]
        for s in spans:
            if s[PARENT] >= 0:
                children[s[PARENT]].append((s[START], s[END]))
        acc: dict[str, float] = {}

        def add(key, value):
            acc[key] = acc.get(key, 0) + value

        for i, s in enumerate(spans):
            layer = layer_of[i]
            dur = s[END] - s[START]
            outer = True
            p = s[PARENT]
            while p >= 0:
                if layer_of[p] == layer:
                    outer = False
                    break
                p = spans[p][PARENT]
            name = s[NAME]
            if s[OP] < 0:
                if layer == "hypergraph":
                    add("hypergraph.ns", dur)
                    add("hypergraph.edges", s[INFO])
                continue
            add(layer + ".self", self_time(s[START], s[END], children[i], s[CHARGED]))
            if outer:
                add(layer + ".ns", dur)
                add(layer + ".calls", 1)
                add(layer + ".info", s[INFO])
            if name == "sampler.sample_subhypergraph":
                add("sampler.returned", s[INFO])
            if outer and name in ("sampler.sample_subhypergraph", "sampler.sample_union"):
                add("sampler.kept", s[INFO])
            if layer == "solvers":
                _, role, fn = name.split(".")
                add(f"solvers.{role}.calls", 1)
                add(f"solvers.{role}.ns", dur)
                add(f"solvers.{role}.input_edges", s[INFO])
                add(f"solvers.{fn}.ns", dur)
                if s[ERROR] == "BudgetExceeded":
                    add("solvers.budget_exceeded", 1)

        per_op = 1 / ops if ops else 0.0
        ms = 1e-6 * per_op
        g = acc.get
        out: dict[str, tuple[float, str]] = {}
        if "hypergraph" not in self.missing:
            out["hypergraph.gen_ms"] = (g("hypergraph.ns", 0) * 1e-6 / setups, "ms")
            out["hypergraph.edges"] = (g("hypergraph.edges", 0) / setups, "count")
        if "coloring" not in self.missing:
            out["coloring.calls"] = (g("coloring.calls", 0) * per_op, "count/op")
            out["coloring.ms"] = (g("coloring.ns", 0) * ms, "ms/op")
            out["coloring.vertices"] = (g("coloring.info", 0) * per_op, "count/op")
        if "oracle" not in self.missing:
            query_ns, q, hits, singletons, init_ns = self.oracle
            out["oracle.init_ms"] = (init_ns * ms, "ms/op")
            for kind, total in zip(QUERIES, kinds):
                out[f"oracle.queries.{kind}"] = (total * per_op, "count/op")
            out["oracle.ms"] = (query_ns * ms, "ms/op")
            out["oracle.us_per_query"] = (query_ns * 1e-3 / q if q else 0.0, "us")
            out["oracle.hit_rate"] = (hits / q if q else 0.0, "ratio")
            out["oracle.singleton_share"] = (singletons / q if q else 0.0, "ratio")
            out["oracle.op_share"] = ((query_ns + init_ns) / op_ns if op_ns else 0.0, "ratio")
        if "sampler" not in self.missing:
            returned = g("sampler.returned", 0)
            out["sampler.calls"] = (g("sampler.calls", 0) * per_op, "count/op")
            out["sampler.ms"] = (g("sampler.ns", 0) * ms, "ms/op")
            out["sampler.self_ms"] = (g("sampler.self", 0) * ms, "ms/op")
            out["sampler.edges_returned"] = (returned * per_op, "count/op")
            out["sampler.union_keep_ratio"] = (
                g("sampler.kept", 0) / returned if returned else 0.0, "ratio"
            )
        if "solvers" not in self.missing:
            for role in ("solve", "truth"):
                out[f"solvers.{role}.calls"] = (g(f"solvers.{role}.calls", 0) * per_op, "count/op")
                out[f"solvers.{role}.ms"] = (g(f"solvers.{role}.ns", 0) * ms, "ms/op")
                out[f"solvers.{role}.input_edges"] = (
                    g(f"solvers.{role}.input_edges", 0) * per_op, "count/op"
                )
            for fn in TRUTH:
                out[f"solvers.{fn}.ms"] = (g(f"solvers.{fn}.ns", 0) * ms, "ms/op")
            out["solvers.budget_exceeded"] = (g("solvers.budget_exceeded", 0), "count")
        if "sunflowers" not in self.missing:
            out["sunflowers.classify_ms"] = (g("sunflowers.ns", 0) * ms, "ms/op")
            out["sunflowers.cores"] = (g("sunflowers.info", 0) * per_op, "count/op")
        if "algorithms" not in self.missing:
            out["algorithms.ms"] = (g("algorithms.ns", 0) * ms, "ms/op")
            out["algorithms.self_ms"] = (g("algorithms.self", 0) * ms, "ms/op")
            out["algorithms.rounds"] = (g("algorithms.info", 0) * per_op, "count/op")
        if "harness" not in self.missing:
            out["harness.trial_ms"] = (g("harness.ns", 0) * ms, "ms/op")
            out["harness.self_ms"] = (g("harness.self", 0) * ms, "ms/op")
        return out

    def write(self, path) -> None:
        """All spans, one JSON list per line: op, name, parent, start and end
        (ns), counter time charged to it (ns), info, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[OP], s[NAME], s[PARENT], s[START], s[END], s[CHARGED],
                                     s[INFO], s[ERROR]]) + "\n")


def _find(module: str):
    try:
        return importlib.import_module(module)
    except ImportError:
        return None
