"""The algorithm registry: one entry per algorithm, the same outputs as the
implementation that predates it, and the same names everywhere they appear.

Each entry runs once per witness policy on a small fixed instance, at small
constants so that color classes collide and queries span several vertices.
The expected CSV rows (elapsed_ms dropped) and witnesses were recorded from
the per-algorithm implementation before its rounds, checks and tables were
folded into one driver and one registry.
"""

import argparse
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import qclab
from qclab.algorithms import AlgorithmConstants
from qclab.cli import build_parser
from qclab.cli import main as cli_main
from qclab.harness import ALGORITHMS, generate_instance, run_trial
from qclab.oracle import EdgeSelectionPolicy

SMALL = AlgorithmConstants(
    vc_colors_factor=3, vc_rounds_factor=2, vc_decision_colors_factor=1, match_colors_factor=3,
    match_rounds_factor=2, pack_gamma=2, hs_alpha=2, hs_beta=5, hs_decision_gamma=5,
    cut_colors_factor=1, boost_c=2,
)
P = ("planted-packing", dict(n=10, d=2, k=2, extra=6))
H = ("planted-hs", dict(n=10, d=2, k=2, m=14))
H3 = ("planted-hs", dict(n=8, d=3, k=1, m=14))
C = ("planted-cut", dict(n=10, d=2, k=4, t=2))
CASES = {  # algo: (instance, k, t)
    "packing": (P, 2, None), "packing-deterministic": (P, 2, None),
    "matching-promised": (P, 2, None), "vc-promised": (H, 2, None), "vertex-cover": (H, 2, None),
    "vc-decision": (H, 2, None), "hs-promised": (H3, 1, None), "hitting-set": (H3, 1, None),
    "hs-decision": (H3, 1, None), "cut": (C, 3, 2), "cut-decision": (C, 3, 2),
    "cut-deterministic": (C, 3, 2),
}
EXPECTED = {  # (algo, policy): (CSV row without elapsed_ms, witness)
    ("packing", "lex"): (
        "packing,10,2,2,,3,0,25,0,0,found,found,true,true",
        ((0, 4), (1, 8), (2, 5), (3, 9), (6, 7)),
    ),
    ("packing", "random"): (
        "packing,10,2,2,,3,0,25,0,0,found,found,true,true",
        ((0, 4), (1, 8), (3, 9), (6, 7)),
    ),
    ("packing-deterministic", "lex"): (
        "packing-deterministic,10,2,2,,3,0,2889,0,0,found,found,true,true",
        ((0, 4), (1, 8), (2, 5), (3, 9), (6, 7)),
    ),
    ("packing-deterministic", "random"): (
        "packing-deterministic,10,2,2,,3,0,2889,0,0,found,found,true,true",
        ((0, 4), (1, 8), (2, 5), (3, 9), (6, 7)),
    ),
    ("matching-promised", "lex"): (
        "matching-promised,10,2,2,,3,0,25,0,0,found,found,false,true",
        ((0, 4), (2, 5), (3, 9), (6, 7)),
    ),
    ("matching-promised", "random"): (
        "matching-promised,10,2,2,,3,0,25,0,0,found,found,true,true",
        ((0, 4), (1, 8), (2, 5), (3, 9), (6, 7)),
    ),
    ("vc-promised", "lex"): ("vc-promised,10,2,2,,3,0,25,0,0,found,found,true,true", (1, 2)),
    ("vc-promised", "random"): ("vc-promised,10,2,2,,3,0,25,0,0,found,found,true,true", (1, 2)),
    ("vertex-cover", "lex"): ("vertex-cover,10,2,2,,3,0,208,0,0,found,found,true,true", (1, 2)),
    ("vertex-cover", "random"): ("vertex-cover,10,2,2,,3,0,208,0,0,found,found,true,true", (1, 2)),
    ("vc-decision", "lex"): ("vc-decision,10,2,2,,3,66,0,0,0,yes,yes,true,", None),
    ("vc-decision", "random"): ("vc-decision,10,2,2,,3,66,0,0,0,yes,yes,true,", None),
    ("hs-promised", "lex"): ("hs-promised,8,3,1,,3,0,0,0,14,found,found,true,true", (3,)),
    ("hs-promised", "random"): ("hs-promised,8,3,1,,3,0,0,0,14,found,found,true,true", (3,)),
    ("hitting-set", "lex"): ("hitting-set,8,3,1,,3,0,0,0,109,found,found,true,true", (3,)),
    ("hitting-set", "random"): ("hitting-set,8,3,1,,3,0,0,0,109,found,found,true,true", (3,)),
    ("hs-decision", "lex"): ("hs-decision,8,3,1,,3,0,0,5,0,yes,yes,true,", None),
    ("hs-decision", "random"): ("hs-decision,8,3,1,,3,0,0,5,0,yes,yes,true,", None),
    ("cut", "lex"): (
        "cut,10,2,3,2,3,0,76,0,0,found,found,true,true",
        (0, 0, 0, 0, 1, 0, 0, 1, 0, 1),
    ),
    ("cut", "random"): (
        "cut,10,2,3,2,3,0,76,0,0,found,found,true,true",
        (0, 0, 0, 0, 1, 0, 0, 1, 0, 1),
    ),
    ("cut-decision", "lex"): ("cut-decision,10,2,3,2,3,76,0,0,0,yes,yes,true,", None),
    ("cut-decision", "random"): ("cut-decision,10,2,3,2,3,76,0,0,0,yes,yes,true,", None),
    ("cut-deterministic", "lex"): (
        "cut-deterministic,10,2,3,2,3,0,6579,0,0,found,found,true,true",
        (0, 0, 0, 0, 1, 0, 0, 1, 0, 1),
    ),
    ("cut-deterministic", "random"): (
        "cut-deterministic,10,2,3,2,3,0,6579,0,0,found,found,true,true",
        (0, 0, 0, 0, 1, 0, 0, 1, 0, 1),
    ),
}


@pytest.mark.parametrize("policy", ["lex", "random"])
@pytest.mark.parametrize("algo", list(CASES))
def test_trial_matches_recorded_output(algo, policy):
    (kind, kw), k, t = CASES[algo]
    hidden, _ = generate_instance(kind, seed=11, **kw)
    report, result = run_trial(
        algo, hidden, k, t=t, seed=3, constants=SMALL, policy=EdgeSelectionPolicy(policy)
    )
    row, witness = EXPECTED[algo, policy]
    assert report.to_csv_row().rsplit(",", 1)[0] == row
    assert result.witness == witness
    assert result.rounds_used == len(result.query_counts_by_round(hidden.d))


def test_cases_cover_the_registry():
    assert list(CASES) == list(ALGORITHMS)


def test_cli_run_choices_are_the_registry():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    algo = next(a for a in sub.choices["run"]._actions if a.dest == "algo")
    assert list(algo.choices) == list(ALGORITHMS)


def test_qclab_exports_one_function_per_entry():
    exported = {
        name for name, obj in vars(qclab).items()
        if inspect.isfunction(obj) and obj.__module__ == "qclab.algorithms"
        and inspect.signature(obj).return_annotation == "AlgorithmResult"
    }
    assert exported == {spec.function for spec in ALGORITHMS.values()}
    assert exported == {name.replace("-", "_") for name in ALGORITHMS}


def _readme_rows():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return [line.strip("|").split("|") for line in readme.splitlines() if line.startswith("| `")]


def test_readme_table_lists_the_registry():
    names = [n for cells in _readme_rows() for n in re.findall(r"`([a-z-]+)`", cells[0])]
    assert names == list(ALGORITHMS)


def test_readme_names_each_colors_factor_constant():
    for cells in _readme_rows():
        algo = re.search(r"`([a-z-]+)`", cells[0]).group(1)
        assert re.search(r"`([a-z_]+)`", cells[-1]).group(1) == ALGORITHMS[algo].colors


FIELDS = frozenset(f.name for f in dataclasses.fields(AlgorithmConstants))
READ: set[str] = set()


class RecordingConstants(AlgorithmConstants):
    """Notes in READ every constant field that is read."""

    def __getattribute__(self, name):
        if name in FIELDS:
            READ.add(name)
        return super().__getattribute__(name)


@pytest.mark.parametrize("policy", ["lex", "random"])
@pytest.mark.parametrize("algo", list(CASES))
def test_entry_names_exactly_the_constants_its_algorithm_reads(algo, policy):
    (kind, kw), k, t = CASES[algo]
    hidden, _ = generate_instance(kind, seed=11, **kw)
    constants = RecordingConstants(**{name: getattr(SMALL, name) for name in FIELDS})
    READ.clear()  # construction checks every field
    run_trial(algo, hidden, k, t=t, seed=3, constants=constants,
              policy=EdgeSelectionPolicy(policy))
    spec = ALGORITHMS[algo]
    assert READ == set(spec.reads)
    assert spec.colors == spec.reads[0]


def _flag_constants(algo):
    gamma = "hs_decision_gamma" if algo == "hs-decision" else "pack_gamma"
    return {"--boost-c": "boost_c", "--gamma": gamma, "--alpha": "hs_alpha", "--beta": "hs_beta"}


UNREAD_FLAGS = [
    (algo, flag) for algo in CASES for flag, name in _flag_constants(algo).items()
    if name not in ALGORITHMS[algo].reads
]


@pytest.mark.parametrize("algo,flag", UNREAD_FLAGS)
def test_cli_rejects_a_constant_flag_the_algorithm_does_not_read(algo, flag, tmp_path, capsys):
    (kind, kw), k, t = CASES[algo]
    hidden, _ = generate_instance(kind, seed=11, **kw)
    inst, log = tmp_path / "i.hg", tmp_path / "q.log"
    qclab.save_hypergraph(hidden, str(inst))
    argv = ["run", algo, str(inst), "--k", str(k), "--log-queries", str(log), flag, "3"]
    assert cli_main(argv + (["--t", str(t)] if t else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} sets {_flag_constants(algo)[flag]}, ")
    assert not log.exists()
