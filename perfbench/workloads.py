"""The benchmark's workloads: every op of `trials`, `ladder` and `verify`.

An op is one call into qclab's public API: `run_trial` for `trials` and
`ladder`, `verify_instance` for `verify`. Every input of a workload comes
from the workload seed alone. Instance and trial seeds are derived here with
BLAKE2b, not with qclab's own `derive_seed`, so a change to the program
cannot change what it is given.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

DEFAULT_SEED = 0

P, H, C = "planted-packing", "planted-hs", "planted-cut"


@dataclass(frozen=True)
class Instance:
    """Arguments of `generate_instance`, seed excluded."""

    kind: str
    n: int
    d: int
    k: int
    m: int = 0
    extra: int = 0
    t: int = 2


@dataclass(frozen=True)
class Op:
    label: str
    instance: Instance
    instance_seed: int
    algo: Optional[str]  # None: a `verify_instance` op
    k: int
    t: Optional[int] = None
    seed: int = 0
    constants: dict = field(default_factory=dict)
    policy: str = "lex"


def child_seed(seed: int, *tags: object) -> int:
    payload = repr((int(seed),) + tags).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=4).digest(), "little")


# -- trials -------------------------------------------------------------
# The cases of the acceptance battery (criteria 3 and 4) at its sizes, its
# constants and the lex policy, each on the instance shape the battery uses on
# most trials (it swaps in a second instance on every fourth trial, and k = 3
# on every fifth deterministic one): (label, algo, k, t, constant overrides,
# instance). b >> n here, so colorings are injective and every query is a
# singleton lookup.
#
# Each case runs over a list of TRIALS_PER_CASE instance and trial seeds. The
# median op sits among the vc-promised, matching-promised and
# cut-deterministic trials, whose cost moves up to 2x with the seed; several
# seeds per case fill that range in, so that the median does not jump
# between them from one workload seed to the next.
TRIAL_CASES = (
    ("packing d=2", "packing", 2, None, {}, Instance(P, 30, 2, 2, extra=8)),
    ("packing d=3", "packing", 2, None, {}, Instance(P, 25, 3, 2, extra=6)),
    ("matching-promised", "matching-promised", 2, None, {}, Instance(P, 24, 2, 2)),
    ("vc-promised", "vc-promised", 2, None, {}, Instance(H, 30, 2, 2, m=40)),
    ("vertex-cover", "vertex-cover", 2, None, {}, Instance(H, 30, 2, 2, m=40)),
    ("vc-decision", "vc-decision", 2, None, {}, Instance(H, 36, 2, 2, m=50)),
    ("hs-promised d=2", "hs-promised", 2, None, {}, Instance(H, 24, 2, 2, m=35)),
    ("hs-promised d=3", "hs-promised", 2, None, {}, Instance(H, 12, 3, 2, m=30)),
    ("hitting-set d=2", "hitting-set", 2, None, {}, Instance(H, 24, 2, 2, m=35)),
    ("hitting-set d=3", "hitting-set", 2, None, {}, Instance(H, 10, 3, 2, m=25)),
    ("hs-decision d=2", "hs-decision", 2, None, {}, Instance(H, 20, 2, 2, m=30)),
    ("hs-decision d=3", "hs-decision", 2, None, {"hs_decision_gamma": 20}, Instance(H, 16, 3, 2, m=30)),
    ("cut", "cut", 3, 2, {}, Instance(C, 24, 2, 4)),
    ("cut-decision", "cut-decision", 3, 2, {}, Instance(C, 24, 2, 4)),
    ("packing-deterministic", "packing-deterministic", 2, None, {}, Instance(P, 14, 2, 2, extra=2)),
    ("cut-deterministic", "cut-deterministic", 2, 2, {}, Instance(C, 14, 2, 2)),
)


TRIALS_PER_CASE = 3


def trials_ops(seed: int) -> list[Op]:
    return [
        Op(label=f"{label} #{i}", instance=inst, instance_seed=child_seed(seed, label, i), algo=algo,
           k=k, t=t, seed=child_seed(seed, label, i, "trial"), constants=constants)
        for i in range(TRIALS_PER_CASE)
        for label, algo, k, t, constants, inst in TRIAL_CASES
    ]


# -- ladder -------------------------------------------------------------
# Planted hitting-set instances (k = 2) with color counts below n, so classes
# hold several vertices and queries take the oracle's multi-vertex path,
# whose cost grows with n + m. Each rung runs one witness and one existence
# algorithm, each on its own instance, with 0.2-0.4 s of oracle work each.
# Ground truth (`min_hitting_set`) grows with m^2 and with the position of
# the largest planted vertex, which the seed decides; m stays at 500 on the
# rungs with n >= 500, as m = 2 000-3 000 let one rung's truth vary from 40 to
# 700 ms between seeds. Existence ops at d = 3 ask k = 1 (answer "no"):
# k = 2 would need gamma * 2^6 >= 64 colors, C(64, 3) = 41 664 queries a
# round. Every rung runs LADDER_PER_RUNG times, each on its own instances
# and trial seeds, so that one draw of the seed-dependent ground-truth cost
# weighs less.
LADDER_PER_RUNG = 2
LADDER_RUNGS = (
    # n, d, m, witness constants, existence k, existence constants
    (100, 2, 150, {"vc_colors_factor": 20, "vc_rounds_factor": 30}, 2,
     {"vc_decision_colors_factor": 4, "boost_c": 30}),
    (1000, 2, 500, {"vc_colors_factor": 15, "vc_rounds_factor": 4}, 2,
     {"vc_decision_colors_factor": 2, "boost_c": 4}),
    (10000, 2, 500, {"vc_colors_factor": 8, "vc_rounds_factor": 6}, 2,
     {"vc_decision_colors_factor": 1, "boost_c": 6}),
    (50, 3, 150, {"hs_beta": 12, "hs_alpha": 14}, 1, {"hs_decision_gamma": 20, "boost_c": 20}),
    (500, 3, 500, {"hs_beta": 8, "hs_alpha": 5}, 1, {"hs_decision_gamma": 14, "boost_c": 8}),
    (2000, 3, 500, {"hs_beta": 6, "hs_alpha": 5}, 1, {"hs_decision_gamma": 10, "boost_c": 5}),
)


def ladder_ops(seed: int) -> list[Op]:
    ops = []
    for i in range(LADDER_PER_RUNG):
        for r, (n, d, m, witness_constants, dk, decision_constants) in enumerate(LADDER_RUNGS):
            policy = "random" if r % 2 else "lex"
            witness, decision = ("vc-promised", "vc-decision") if d == 2 else ("hs-promised", "hs-decision")
            for algo, k, constants in ((witness, 2, witness_constants), (decision, dk, decision_constants)):
                ops.append(Op(
                    label=f"{algo} n={n} d={d} #{i}", instance=Instance(H, n, d, 2, m=m),
                    instance_seed=child_seed(seed, "ladder", algo, n, d, i), algo=algo, k=k,
                    seed=child_seed(seed, "ladder", algo, n, d, i, "trial"), constants=constants,
                    policy=policy,
                ))
    return ops


# -- verify -------------------------------------------------------------
# Instances sized well inside the solver budgets, with cost that varies
# little between seeds. At d = 2 the exact max-cut search grows as
# 2^(non-isolated vertices): on planted hitting sets with n = 26, m = 45 it
# took from 10 ms to 1.2 s depending on the seed, and at n = 40, m = 40 it
# exhausted the node budget. The d = 2 hitting-set case is kept small so
# that its seed-dependent cost stays well below the other cases and away
# from the median op.
#
# (label, instance, count): the cases cost about 20, 65, 150 and 220 ms, in
# this order. Equal counts would put the median op in the gap between the
# second and third case, where it swings with the extremes of both; these
# counts put it in the middle of the 9 hs d=3 ops (4 + 4 below, 8 above).
VERIFY_CASES = (
    ("hs d=2", Instance(H, 20, 2, 3, m=28), 4),
    ("packing d=2", Instance(P, 24, 2, 4, extra=14), 4),
    ("hs d=3", Instance(H, 22, 3, 4, m=60), 9),
    ("packing d=3", Instance(P, 24, 3, 5, extra=12), 8),
)


def verify_ops(seed: int) -> list[Op]:
    # interleaved, #0 of every case first, so that a slow spell of the
    # machine does not fall on the ops of one case alone
    return [
        Op(label=f"verify {label} #{i}", instance=inst,
           instance_seed=child_seed(seed, "verify", label, i), algo=None, k=inst.k, t=2)
        for i in range(max(count for _, _, count in VERIFY_CASES))
        for label, inst, count in VERIFY_CASES
        if i < count
    ]


WORKLOADS = {"trials": trials_ops, "ladder": ladder_ops, "verify": verify_ops}


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](seed)


def generate(ops: list[Op], harness) -> list:
    """Hidden instance of every op; ops that name the same instance share it."""
    made: dict[tuple, object] = {}
    hidden = []
    for op in ops:
        key = (op.instance, op.instance_seed)
        if key not in made:
            i = op.instance
            made[key], _ = harness.generate_instance(
                i.kind, n=i.n, d=i.d, k=i.k, seed=op.instance_seed, m=i.m, extra=i.extra, t=i.t
            )
        hidden.append(made[key])
    return hidden


def audit(result, n: int, d: int) -> bool:
    """Criterion-5 accounting: sum of C(q_r, d) equals the total, q <= min(b, n)."""
    qs = [len(set(c.color)) for c in result.colorings]
    if sum(math.comb(q, d) for q in qs) != result.stats.total:
        return False
    return all(q <= min(c.b, n) for q, c in zip(qs, result.colorings))
