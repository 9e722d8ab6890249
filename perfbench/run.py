#!/usr/bin/env python3
"""qclab benchmark: one workload, run as a closed loop.

    python3 perfbench/run.py --workload trials --seed 0 --seconds 36 --trace 0

One process, one op at a time, no threads. The workload's instances are
generated from --seed (set-up, timed apart), then passes over the
workload's ops run until --seconds of wall time have gone by (at least one
whole pass; an untraced run stops part way through its last). Every op's
output is checked; the last line of standard output is one JSON object with
the verdict and the metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See perfbench/README.md.

qclab is imported from the src/ directory next to this one, never from
anywhere else; without it the benchmark exits with an error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected"
OUT = HERE / "out"
SETUP_REPEATS = 9  # at least, and for at least SETUP_SECONDS
SETUP_SECONDS = 2.0
TAIL_BEYOND = 10

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def load_qclab() -> SimpleNamespace:
    """The qclab modules the benchmark drives, imported from the checkout's src/."""
    package = SRC / "qclab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qclab sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import qclab
    from qclab import algorithms, harness, oracle

    if Path(qclab.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported qclab from {qclab.__file__}, not from {package}")
    return SimpleNamespace(
        harness=harness,
        constants=algorithms.DEFAULT_CONSTANTS,
        policies={p.value: p for p in oracle.EdgeSelectionPolicy},
    )


# -- ops -----------------------------------------------------------------


def prepare(ops, hidden, qc) -> list[tuple]:
    """Positional and keyword arguments of each op's call into the harness."""
    calls = []
    for op, h in zip(ops, hidden):
        if op.algo is None:
            calls.append(((h, op.k), {"t": op.t}))
        else:
            calls.append(((op.algo, h, op.k), {
                "t": op.t, "seed": op.seed, "constants": qc.constants.override(**op.constants),
                "policy": qc.policies[op.policy],
            }))
    return calls


def execute(op, call, qc) -> tuple[int, object]:
    """Run one op; return its wall time in ns and its raw result. The entry
    point is looked up at call time, so a traced run's wrapper sees it."""
    args, kwargs = call
    fn = qc.harness.verify_instance if op.algo is None else qc.harness.run_trial
    t0 = time.perf_counter_ns()
    raw = fn(*args, **kwargs)
    return time.perf_counter_ns() - t0, raw


DETERMINISTIC = {"packing-deterministic", "cut-deterministic"}


def judge(op, hidden, raw) -> tuple[str, tuple, str]:
    """Canonical output, per-kind queries and the reason the op failed ("" if
    it did not), before comparison with the expected output.

    A trial's output is its CSV row without the elapsed column; a verify
    op's is the JSON of `verify_instance` with sorted keys.
    """
    if op.algo is None:
        out = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        skipped = sorted(k for k, v in raw.items() if isinstance(v, str) and v.startswith("skipped:"))
        return out, (0, 0, 0, 0), f"solver skipped: {skipped}" if skipped else ""
    report, result = raw
    out = report.to_csv_row().rsplit(",", 1)[0]
    queries = (report.bis, report.bise, report.gpis, report.gpise)
    if result is None or report.answer == "budget-exceeded":
        return out, queries, "budget exceeded"
    if sum(queries) != result.stats.total:
        return out, queries, "report and result disagree on the query total"
    if not workloads.audit(result, hidden.n, hidden.d):
        return out, queries, "query accounting audit failed"
    if op.algo in DETERMINISTIC and report.success is not True:
        return out, queries, "deterministic algorithm missed the optimum"
    return out, queries, ""


# -- statistics ----------------------------------------------------------


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least `beyond` samples above
    its rank: (percentile, value, samples beyond it). With `beyond` or fewer
    samples there is none, and the maximum is given with 0 beyond."""
    n = len(values)
    ordered = sorted(values)
    if n <= beyond:
        return 100.0, ordered[-1], 0
    rank = n - beyond  # 1-based nearest rank; ceil(p/100 * n) = rank at p = 100 * rank / n
    return 100.0 * rank / n, ordered[rank - 1], n - rank


# -- the run -------------------------------------------------------------


@dataclass
class Run:
    """Everything a run measured."""

    latencies_ns: list[list[int]]  # untraced, per op
    traced_ns: list[int] = field(default_factory=list)
    kinds: list[int] = field(default_factory=lambda: [0, 0, 0, 0])  # bis, bise, gpis, gpise
    traced_kinds: list[int] = field(default_factory=lambda: [0, 0, 0, 0])
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""

    def untraced_ns(self) -> list[int]:
        return [ns for op in self.latencies_ns for ns in op]


def setup(ops, qc, repeats: int = SETUP_REPEATS, seconds: float = SETUP_SECONDS):
    """The ops' hidden instances, generated `repeats` times and then until
    `seconds` have gone by, and the time each generation took. One set-up
    takes 20-200 ms, so its median is taken over many."""
    times = []
    start = time.perf_counter()
    while len(times) < repeats or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        hidden = workloads.generate(ops, qc.harness)
        times.append(time.perf_counter() - t0)
    return hidden, times


def measure(ops, hidden, qc, seconds: float, reference: list, tracer=None, min_passes: int = 1) -> Run:
    """Passes over `ops` until `seconds` have gone by. The first `min_passes`
    passes are whole. The last pass of an untraced run stops at the
    deadline. Every pass of a traced run is whole, since its per-op layer
    figures would otherwise depend on where it stopped; it starts another
    pass only if one as long as the mean pass so far still ends by the deadline.

    `reference` holds the expected output of each op, or None where none is
    stored; the first output seen then becomes the reference, so later
    passes must repeat it. With a tracer every op runs twice per pass,
    untraced and traced, in alternating order, and the traced run's
    `QueryStats` deltas must equal the report's per-kind counts.
    """
    calls = prepare(ops, hidden, qc)
    run = Run(latencies_ns=[[] for _ in ops])
    outputs = [None] * len(ops)
    start = time.perf_counter()
    deadline = start + seconds
    while run.passes < min_passes or time.perf_counter() < deadline:
        if tracer is not None and run.passes >= min_passes:
            now = time.perf_counter()
            if now + (now - start) / run.passes > deadline:
                break
        for i, op in enumerate(ops):
            if tracer is None and run.passes >= min_passes and time.perf_counter() >= deadline:
                break
            modes = [False] if tracer is None else ([False, True] if run.passes % 2 == 0 else [True, False])
            for traced in modes:
                run.attempted += 1
                if traced:
                    tracer.begin_op(i)
                try:
                    ns, raw = execute(op, calls[i], qc)
                except Exception:
                    run.failed += 1
                    run.failures.append(f"{op.label}: raised\n{traceback.format_exc()}")
                    continue
                finally:
                    if traced:
                        counted = tracer.end_op()
                (run.traced_ns if traced else run.latencies_ns[i]).append(ns)
                out, queries, why = judge(op, hidden[i], raw)
                if traced and counted is not None:
                    run.traced_kinds = [a + b for a, b in zip(run.traced_kinds, counted)]
                    if counted != queries:
                        why = why or f"traced QueryStats deltas {counted} != report {queries}"
                if reference[i] is None:
                    reference[i] = out
                elif out != reference[i]:
                    why = why or f"output differs from the reference:\n  got      {out}\n  expected {reference[i]}"
                if why:
                    run.failed += 1
                    run.failures.append(f"{op.label}: {why}")
                if not traced:
                    run.kinds = [a + b for a, b in zip(run.kinds, queries)]
                outputs[i] = out
        run.passes += 1
    digest_input = "\n".join(o if o is not None else "<failed>" for o in outputs)
    run.digest = hashlib.sha256(digest_input.encode("utf-8")).hexdigest()
    return run


def end_to_end(run: Run, setup_s: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and two more that are printed but left out of
    the result line because they read 0 on some workload: queries_per_s
    (none on `verify`) and error_rate (none in a healthy run; ok_rate is its
    complement)."""
    lat_ms = [ns / 1e6 for ns in run.untraced_ns()]
    timed_s = sum(lat_ms) / 1e3
    pct, tail_ms, beyond = tail(lat_ms)
    # Each op's latency is its mean over the passes. The rate is that of
    # whole passes, each op weighing once, so a last pass cut short at the
    # deadline does not tilt the mix. A pass mixes ops of very different
    # cost, so the median of all samples can fall in the gap between two
    # ops and swing with the extremes of each; the median is over the ops.
    # With a few passes, the mean of an op is steadier than its median.
    per_op_ms = [statistics.fmean(op) / 1e6 for op in run.latencies_ns if op]
    print(f"op_ms_tail is p{pct:.4g}: {beyond} of {len(lat_ms)} samples beyond it")
    return {
        "ops_per_s": (len(per_op_ms) / (sum(per_op_ms) / 1e3), "1/s"),
        "op_ms_p50": (statistics.median(per_op_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_rate": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }, {
        "queries_per_s": (sum(run.kinds) / timed_s, "1/s"),
        "error_rate": (run.failed / run.attempted, "ratio"),
    }


def load_expected(workload: str, seed: int, ops) -> list:
    if seed != workloads.DEFAULT_SEED:
        return [None] * len(ops)
    path = EXPECTED / f"{workload}.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: no expected outputs in {path}")
    stored = json.loads(path.read_text(encoding="utf-8"))
    by_label = dict(stored["outputs"])
    return [by_label.get(op.label) for op in ops]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="run one pass at the default seed and store its outputs as expected")
    args = parser.parse_args(argv)

    qc = load_qclab()
    ops = workloads.build(args.workload, args.seed)
    if args.write_expected:
        return write_expected(args.workload, ops, qc)
    reference = load_expected(args.workload, args.seed, ops)
    missing = sum(r is None for r in reference)
    if args.seed == workloads.DEFAULT_SEED and missing:
        raise SystemExit(f"perfbench: {missing} ops have no stored expected output")

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    hidden, setup_s = setup(ops, qc)
    if tracer is not None:
        tracer.uninstall()
    run = measure(ops, hidden, qc, args.seconds, reference, tracer)

    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {run.passes} passes (the last may be partial) of {len(ops)} ops, "
          f"{run.attempted} ops attempted, {run.failed} failed")
    print(f"output digest {args.workload} seed {args.seed}: sha256:{run.digest}")
    printed = {}
    if tracer is None:
        metrics, printed = end_to_end(run, setup_s)
    else:
        metrics = tracer.metrics(len(run.traced_ns), len(setup_s), run.traced_kinds,
                                 sum(run.traced_ns))
        untraced = run.untraced_ns()
        metrics["trace.overhead"] = (sum(run.traced_ns) / sum(untraced) - 1, "ratio")
        # the wrappers inflate op time, not the oracle's own: this share is
        # nearer to what an untraced run spends in the oracle
        printed["oracle ms over untraced op ms"] = (
            metrics["oracle.ms"][0] * len(untraced) / (sum(untraced) / 1e6), "ratio"
        ) if "oracle.ms" in metrics else (0.0, "ratio")
        if tracer.missing:
            print(f"missing layers (boundary gone, metrics left out): {sorted(tracer.missing)}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_expected(workload: str, ops, qc) -> int:
    hidden, _ = setup(ops, qc, repeats=1, seconds=0.0)
    reference = [None] * len(ops)
    run = measure(ops, hidden, qc, 0.0, reference)
    if run.failed:
        for failure in run.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1
    EXPECTED.mkdir(exist_ok=True)
    path = EXPECTED / f"{workload}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": workloads.DEFAULT_SEED,
        "digest": f"sha256:{run.digest}",
        "outputs": [[op.label, out] for op, out in zip(ops, reference)],
    }, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
