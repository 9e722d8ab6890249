"""Command line driver: gen | run | sweep | verify."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .algorithms import DEFAULT_CONSTANTS
from .harness import (
    ALGORITHMS,
    SweepConfig,
    generate_instance,
    run_sweep,
    run_trial,
    verify_instance,
    write_csv,
)
from .hypergraph import load_hypergraph, save_hypergraph
from .oracle import EdgeSelectionPolicy
from .solvers import DEFAULT_LIMITS, SolverLimits


def _constants_from_args(args: argparse.Namespace, algo: str):
    """Constant overrides from the flags; `--colors-factor` sets the color
    constant of the algorithm being run (its registry entry names it), and a
    flag whose constant the algorithm does not read is an error."""
    spec = ALGORITHMS[algo]
    overrides: dict[str, int] = {}
    for flag, name, value in (
        ("--boost-c", "boost_c", args.boost_c),
        ("--gamma", "hs_decision_gamma" if algo == "hs-decision" else "pack_gamma", args.gamma),
        ("--alpha", "hs_alpha", args.alpha),
        ("--beta", "hs_beta", args.beta),
        ("--colors-factor", spec.colors, args.colors_factor),
    ):
        if value is None:
            continue
        if name not in spec.reads:
            raise ValueError(f"{flag} sets {name}, which {algo} does not read")
        if overrides.get(name, value) != value:
            raise ValueError(f"--colors-factor and another flag set {name} to different values")
        overrides[name] = value
    return DEFAULT_CONSTANTS.override(**overrides)


def _limits_from_args(args: argparse.Namespace) -> SolverLimits:
    if args.budget_ms is None:
        return DEFAULT_LIMITS
    return SolverLimits(
        max_branch_nodes=DEFAULT_LIMITS.max_branch_nodes, time_budget_ms=args.budget_ms
    )


def cmd_gen(args: argparse.Namespace) -> int:
    hidden, truth = generate_instance(
        args.kind, n=args.n, d=args.d, k=args.k, seed=args.seed,
        m=args.m, extra=args.extra, t=args.t,
    )
    out = args.output or "instance.hg"
    save_hypergraph(hidden, out)
    if truth is not None:
        with open(out + ".truth.json", "w", encoding="utf-8") as fh:
            json.dump(truth.to_json(), fh, indent=2)
            fh.write("\n")
    print(out)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    hidden = load_hypergraph(args.instance)
    report, result = run_trial(
        args.algo, hidden, args.k, t=args.t, seed=args.seed,
        constants=_constants_from_args(args, args.algo), limits=_limits_from_args(args),
        policy=EdgeSelectionPolicy(args.policy), log_path=args.log_queries,
    )
    payload = dataclasses.asdict(report)
    if result is not None and result.witness is not None:
        w = result.witness
        payload["witness"] = [list(e) for e in w] if w and isinstance(w[0], tuple) else list(w)
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if args.output:
        write_csv([report], args.output)
    return 2 if "budget-exceeded" in (report.answer, report.truth) else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = SweepConfig.from_json(json.load(fh))
    if args.output:
        config.csv_path = args.output
    reports, summary = run_sweep(config)
    json.dump(
        {"trials": len(reports), "cells": len(summary["cells"])}, sys.stdout
    )
    sys.stdout.write("\n")
    if not config.csv_path and not config.summary_path:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    hidden = load_hypergraph(args.instance)
    out = verify_instance(hidden, args.k, t=args.t, limits=_limits_from_args(args))
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclab",
        description="Query algorithms over hidden hypergraphs: generate instances, "
        "run seeded trials, sweep grids, verify against exact solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file (plus planted-truth sidecar)")
    g.add_argument("kind", choices=("gnp", "planted-hs", "planted-packing", "planted-cut"))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--m", type=int, default=0, help="edge count (planted-hs, gnp)")
    g.add_argument("--extra", type=int, default=0, help="extra edges (planted-packing)")
    g.add_argument("--t", type=int, default=2, help="parts (planted-cut)")
    g.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    g.add_argument("-o", "--output", metavar="PATH", default=None)
    g.set_defaults(fn=cmd_gen)

    r = sub.add_parser("run", help="run one algorithm trial against an instance file")
    r.add_argument("algo", choices=ALGORITHMS)
    r.add_argument("instance")
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--t", type=int, default=None)
    r.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    r.add_argument("--policy", choices=("lex", "random"), default="lex",
                   help="which qualifying edge witness queries return")
    r.add_argument("--boost-c", type=int, default=None, help="rounds per unit of log k")
    r.add_argument("--gamma", type=int, default=None,
                   help="color multiplier: sets pack_gamma, or hs_decision_gamma for hs-decision")
    r.add_argument("--alpha", type=int, default=None, help="hitting-set round multiplier")
    r.add_argument("--beta", type=int, default=None, help="hitting-set color multiplier")
    r.add_argument("--colors-factor", type=int, default=None,
                   help="color multiplier of the algorithm being run (see README)")
    r.add_argument("--budget-ms", type=int, default=None, help="solver time budget")
    r.add_argument("--log-queries", metavar="PATH", default=None,
                   help="write one line per oracle call to PATH")
    r.add_argument("-o", "--output", metavar="PATH", default=None, help="also write a CSV row")
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("sweep", help="run a JSON-configured grid of trials")
    s.add_argument("config")
    s.add_argument("-o", "--output", metavar="PATH", default=None,
                   help="CSV path, in place of the config's csv_path")
    s.set_defaults(fn=cmd_sweep)

    v = sub.add_parser("verify", help="exact optima and structural checks for an instance")
    v.add_argument("instance")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--t", type=int, default=2)
    v.add_argument("--budget-ms", type=int, default=None, help="solver time budget")
    v.add_argument("-o", "--output", metavar="PATH", default=None)
    v.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
