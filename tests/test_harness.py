import json
import math
import subprocess
import sys

import pytest

import qclab.harness
from qclab.algorithms import AlgorithmConstants
from qclab.cli import main as cli_main
from qclab.harness import (
    CSV_HEADER,
    SweepConfig,
    TrialReport,
    generate_instance,
    read_csv,
    run_sweep,
    run_trial,
    verify_instance,
    write_csv,
)
from qclab.hypergraph import (
    gen_planted_hitting_set,
    load_hypergraph,
    new_hypergraph,
    parse_hypergraph,
    save_hypergraph,
)
from qclab.solvers import BudgetExceeded, SolverLimits, min_vertex_cover


def test_run_trial_hitting_set_success():
    h, _ = gen_planted_hitting_set(12, 3, 2, 25, seed=1)
    report, result = run_trial("hitting-set", h, 2, seed=1)
    assert report.answer in ("found", "not-exists")
    assert report.truth in ("found", "not-exists")
    assert report.success is not None
    assert report.gpise > 0
    assert report.bis == report.bise == report.gpis == 0


def test_run_trial_deterministic_given_seed():
    h, _ = gen_planted_hitting_set(16, 2, 2, 25, seed=2)
    r1, _ = run_trial("vertex-cover", h, 2, seed=7)
    r2, _ = run_trial("vertex-cover", h, 2, seed=7)
    assert r1.to_csv_row().rsplit(",", 1)[0] == r2.to_csv_row().rsplit(",", 1)[0]


def test_run_trial_budget_exceeded_is_distinguished():
    h, _ = gen_planted_hitting_set(30, 2, 3, 60, seed=3)
    limits = SolverLimits(max_branch_nodes=1, time_budget_ms=60_000)
    report, result = run_trial("vc-promised", h, 3, seed=3, limits=limits)
    assert report.answer == "budget-exceeded"
    assert report.success is None
    assert result is None


def test_csv_roundtrip():
    h, _ = gen_planted_hitting_set(14, 2, 2, 20, seed=4)
    reports = [run_trial("vc-decision", h, 2, seed=s)[0] for s in range(3)]
    rows = [TrialReport.from_csv_row(r.to_csv_row()) for r in reports]
    assert rows == reports


def test_csv_file_roundtrip(tmp_path):
    h, _ = gen_planted_hitting_set(14, 2, 2, 20, seed=5)
    reports = [run_trial("cut", h, 2, t=2, seed=s)[0] for s in range(2)]
    path = tmp_path / "out.csv"
    write_csv(reports, str(path))
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert read_csv(str(path)) == reports


def test_sweep_single_cell_single_trial(tmp_path):
    cfg = SweepConfig(
        algorithms=["vc-decision"], n=[14], k=[2], trials=1, master_seed=3,
        csv_path=str(tmp_path / "s.csv"), summary_path=str(tmp_path / "s.json"),
    )
    reports, summary = run_sweep(cfg)
    assert len(reports) == 1
    rows = read_csv(str(tmp_path / "s.csv"))
    assert len(rows) == 1
    data = json.loads((tmp_path / "s.json").read_text())
    (cell,) = data["cells"].values()
    assert 0.0 <= cell["success_rate"] <= 1.0


def test_sweep_mean_queries_monotone_in_k():
    cfg = SweepConfig(
        algorithms=["vc-promised"], n=[30], k=[1, 2, 3], trials=3, master_seed=5
    )
    _, summary = run_sweep(cfg)
    cells = sorted(summary["cells"].values(), key=lambda c: c["k"])
    means = [c["mean_queries"] for c in cells]
    assert means[0] <= means[1] <= means[2]
    fit = summary["exponent_fits"]["vc-promised|d=2"]
    assert fit["reference_exponent"] == 2
    assert fit["fitted_exponent"] is not None


def test_sweep_rerun_bit_identical_modulo_elapsed(tmp_path):
    cfg_dict = dict(
        algorithms=["packing", "cut-decision"], n=[12], k=[2], t=[2],
        trials=2, master_seed=11,
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        cfg = SweepConfig(**cfg_dict)
        cfg.csv_path = str(tmp_path / name)
        run_sweep(cfg)
        rows = (tmp_path / name).read_text().splitlines()
        outs.append(["," .join(r.split(",")[:-1]) for r in rows])
    assert outs[0] == outs[1]


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(algorithms=["nope"], n=[5], k=[1])
    with pytest.raises(ValueError):
        SweepConfig(algorithms=["packing"], n=[], k=[1])
    with pytest.raises(ValueError):
        SweepConfig.from_json({"algorithms": ["packing"], "n": [5], "k": [1], "zzz": 1})


def test_verify_instance_planted():
    h, _ = gen_planted_hitting_set(18, 3, 2, 30, seed=6)
    out = verify_instance(h, 2)
    assert out["min_hitting_set"] is not None
    hs = out["min_hitting_set"]
    if isinstance(hs, list) and len(hs) <= 2:
        assert out["bound_edges_without_large_core"]["ok"]
        assert out["bound_minimal_large_cores"]["ok"]
    assert out["representative_family_size"] <= out["representative_family_bound"]


def test_verify_instance_empty():
    h = new_hypergraph(4, 2, [])
    out = verify_instance(h, 1)
    assert out["min_hitting_set"] == []
    assert out["max_matching"] == []
    assert out["max_t_cut"] == 0


def test_verify_hypothesis_not_met():
    h = new_hypergraph(9, 3, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])  # hs = 3 > k
    out = verify_instance(h, 1)
    assert out["bound_edges_without_large_core"].startswith("hypothesis not met")


# -- CLI ----------------------------------------------------------------


def test_cli_gen_run_verify(tmp_path, capsys):
    inst = tmp_path / "i.hg"
    rc = cli_main([
        "gen", "planted-hs", "--n", "16", "--d", "2", "--k", "2", "--m", "24",
        "--seed", "5", "-o", str(inst),
    ])
    assert rc == 0
    capsys.readouterr()
    h = load_hypergraph(str(inst))
    assert h.n == 16 and h.m == 24
    sidecar = json.loads((tmp_path / "i.hg.truth.json").read_text())
    assert sidecar["kind"] == "hitting-set" and len(sidecar["witness"]) == 2
    assert len(min_vertex_cover(h)) <= 2

    rc = cli_main(["run", "vertex-cover", str(inst), "--k", "2", "--seed", "3"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["algo"] == "vertex-cover"
    assert out["success"] in (True, False)
    assert out["bise"] > 0

    rc = cli_main(["verify", str(inst), "--k", "2"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert "core_report" in out


def test_cli_gen_gnp_zero_probability(tmp_path, capsys):
    inst = tmp_path / "empty.hg"
    rc = cli_main(["gen", "gnp", "--n", "10", "--d", "2", "--m", "0",
                   "--seed", "2", "-o", str(inst)])
    capsys.readouterr()
    assert rc == 0
    h = load_hypergraph(str(inst))
    assert h.m == 0


def test_cli_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.hg", tmp_path / "b.hg"
    for path in (a, b):
        cli_main(["gen", "planted-cut", "--n", "12", "--t", "2", "--k", "4",
                  "--seed", "9", "-o", str(path)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cli_run_arity_mismatch(tmp_path, capsys):
    inst = tmp_path / "h3.hg"
    cli_main(["gen", "planted-hs", "--n", "12", "--d", "3", "--k", "1", "--m", "10",
              "--seed", "1", "-o", str(inst)])
    capsys.readouterr()
    rc = cli_main(["run", "cut", str(inst), "--k", "2", "--t", "2", "--seed", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "d=2" in err or "graph" in err


def test_cli_sweep(tmp_path, capsys):
    cfg = {
        "algorithms": ["vc-decision"], "n": [12], "k": [1, 2], "trials": 2,
        "master_seed": 4, "csv_path": str(tmp_path / "sweep.csv"),
        "summary_path": str(tmp_path / "sweep.json"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["sweep", str(cfg_path)])
    assert rc == 0
    capsys.readouterr()
    rows = read_csv(str(tmp_path / "sweep.csv"))
    assert len(rows) == 4
    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert len(summary["cells"]) == 2


@pytest.mark.parametrize("constants, named", [({"nope": 1}, "nope"), ({"boost_c": 1.5}, "boost_c")])
def test_cli_sweep_rejects_bad_constants_cleanly(tmp_path, capsys, constants, named):
    cfg = {"algorithms": ["vc-decision"], "n": [12], "k": [1], "constants": constants}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["sweep", str(cfg_path)])
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    assert out.err.startswith("error:") and named in out.err
    with pytest.raises(ValueError, match=named):
        SweepConfig.from_json(cfg)


@pytest.mark.parametrize("change, named", [
    ({"constants": 5}, "constants"),
    ({"trials": "2"}, "trials"),
    ({"trials": True}, "trials"),
    ({"master_seed": 1.0}, "master_seed"),
    ({"n": [12.5]}, "grid n"),
    ({"k": [1.5]}, "grid k"),
    ({"d": [True]}, "grid d"),
    ({"t": 2}, "grid t"),
    ({"algorithms": "vc-decision"}, "grid algorithms"),
    ({"algorithms": [["vc-decision"]]}, "unknown algorithm"),
    ({"csv_path": 7}, "csv_path"),
    ({"summary_path": 1}, "summary_path"),
])
def test_cli_sweep_rejects_mistyped_fields_cleanly(tmp_path, capsys, change, named):
    cfg = {"algorithms": ["vc-decision"], "n": [12], "k": [1], **change}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["sweep", str(cfg_path)])
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    assert out.err.startswith("error:") and named in out.err
    with pytest.raises(ValueError, match=named):
        SweepConfig.from_json(cfg)


def test_cli_entrypoint_subprocess(tmp_path):
    # the installed console script answers --help
    proc = subprocess.run(
        [sys.executable, "-m", "qclab.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "sweep" in proc.stdout


# -- clean errors and closed files -------------------------------------------


def test_run_trial_cut_without_t_is_a_value_error():
    h, _ = generate_instance("planted-cut", n=12, d=2, k=3, seed=1, t=2)
    with pytest.raises(ValueError, match="needs t"):
        run_trial("cut", h, 3)


def test_cli_run_cut_without_t_reports_error_line(tmp_path, capsys):
    inst = tmp_path / "c.hg"
    cli_main(["gen", "planted-cut", "--n", "12", "--t", "2", "--k", "3", "--seed", "1",
              "-o", str(inst)])
    capsys.readouterr()
    rc = cli_main(["run", "cut", str(inst), "--k", "3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "needs t" in err


def test_query_log_closed_when_trial_raises(tmp_path, monkeypatch):
    import qclab.oracle

    handles = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        handles.append(fh)
        return fh

    monkeypatch.setattr(qclab.oracle, "open", recording_open, raising=False)
    h, _ = gen_planted_hitting_set(10, 3, 2, 15, seed=1)
    with pytest.raises(ValueError):
        run_trial("cut", h, 2, t=2, log_path=str(tmp_path / "q.log"))
    assert len(handles) == 1 and handles[0].closed


@pytest.mark.parametrize(
    "algo, flags",
    [
        pytest.param("packing", ["--k", "2", "--t", "2"], id="packing-with-t"),
        pytest.param("packing", ["--k", "0"], id="packing-k-0"),
        pytest.param("vc-promised", ["--k", "2"], id="vc-promised-on-d-3"),
    ],
)
def test_rejected_run_keeps_an_existing_query_log(tmp_path, capsys, algo, flags):
    inst = tmp_path / "h.hg"
    save_hypergraph(gen_planted_hitting_set(10, 3, 2, 15, seed=1)[0], str(inst))
    log, fresh = tmp_path / "q.log", tmp_path / "fresh.log"
    log.write_bytes(b"old lines\n")

    def run(name, args, path):
        return cli_main(["run", name, str(inst), *args, "--log-queries", str(path)])

    assert run(algo, flags, log) == 1
    assert log.read_bytes() == b"old lines\n"
    assert run("packing", ["--k", "2"], log) == 0
    assert run("packing", ["--k", "2"], fresh) == 0
    capsys.readouterr()
    assert log.read_bytes() == fresh.read_bytes() != b""


def test_verify_instance_core_budget_is_reported_not_raised():
    h, _ = gen_planted_hitting_set(18, 3, 2, 30, seed=6)
    out = verify_instance(h, 2, limits=SolverLimits(max_branch_nodes=1))
    for key in ("core_report", "bound_edges_without_large_core", "bound_minimal_large_cores"):
        assert out[key].startswith("skipped:")


@pytest.mark.parametrize(
    "edges",
    [
        [(0, v) for v in range(1, 1101)],
        [(v, v + 1) for v in range(1100)],
        [(2 * i, 2 * i + 1) for i in range(1100)],
    ],
    ids=["star", "path", "matching"],
)
def test_verify_instance_deeper_than_the_recursion_limit(edges):
    # 1,100 edges or vertices: one Python frame per element would overflow
    g = new_hypergraph(2200, 2, edges)
    out = verify_instance(g, 2, limits=SolverLimits(time_budget_ms=100))
    for key in ("min_hitting_set", "max_set_packing", "min_vertex_cover", "max_matching",
                "max_t_cut", "representative_family_size", "core_report"):
        assert isinstance(out[key], (list, int, dict)) or out[key].startswith("skipped:")


def test_cli_colors_factor_reaches_the_algorithm_it_runs(tmp_path, capsys):
    inst = tmp_path / "c.hg"
    cli_main(["gen", "planted-cut", "--n", "20", "--t", "2", "--k", "3", "--seed", "1",
              "-o", str(inst)])
    capsys.readouterr()
    base = ["run", "cut", str(inst), "--k", "3", "--t", "2", "--seed", "1"]
    assert cli_main(base) == 0
    plain = json.loads(capsys.readouterr().out)
    assert cli_main(base + ["--colors-factor", "3"]) == 0
    scaled = json.loads(capsys.readouterr().out)
    # 3 * k^2 = 27 colors over 20 vertices collide; 100 * k^2 = 900 colors do not
    assert 0 < scaled["bise"] < plain["bise"]


def test_cli_colors_factor_conflicting_with_gamma_is_an_error(tmp_path, capsys):
    inst = tmp_path / "p.hg"
    cli_main(["gen", "planted-packing", "--n", "12", "--k", "2", "--seed", "1", "-o", str(inst)])
    capsys.readouterr()
    rc = cli_main(["run", "packing", str(inst), "--k", "2", "--gamma", "5",
                   "--colors-factor", "6"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "pack_gamma" in err
    # the same value twice is no conflict
    assert cli_main(["run", "packing", str(inst), "--k", "2", "--gamma", "5",
                     "--colors-factor", "5"]) == 0
    capsys.readouterr()


def test_sweep_tells_infeasible_instances_from_run_failures(monkeypatch):
    # 50 distinct 3-edges meeting a 1-set do not exist on 5 vertices
    cfg = dict(algorithms=["hs-promised"], n=[5], d=[3], k=[1], m=[50], trials=2)
    reports, summary = run_sweep(SweepConfig(**cfg))
    assert [r.answer for r in reports] == ["infeasible", "infeasible"]
    (cell,) = summary["cells"].values()
    assert (cell["infeasible"], cell["errors"], cell["success_rate"]) == (2, 0, None)
    assert len(cell["messages"]) == 1
    assert cell["messages"][0].startswith("infeasible: cannot place 50 distinct edges")

    import qclab.harness

    def failing_trial(*args, **kwargs):
        raise ValueError("algorithm broke")

    monkeypatch.setattr(qclab.harness, "run_trial", failing_trial)
    cfg.update(n=[8], m=[6])
    reports, summary = run_sweep(SweepConfig(**cfg))
    assert [r.answer for r in reports] == ["error:ValueError", "error:ValueError"]
    (cell,) = summary["cells"].values()
    assert (cell["infeasible"], cell["errors"]) == (0, 2)
    assert cell["messages"] == ["error:ValueError: algorithm broke"]


@pytest.mark.parametrize("argv", [
    ["sweep", "cfg.json", "--seed", "99"],
    ["sweep", "cfg.json", "--policy", "random"],
    ["gen", "gnp", "--n", "5", "--budget-ms", "10"],
    ["verify", "i.hg", "--k", "1", "--seed", "1"],
])
def test_cli_rejects_flags_a_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_summary_counts_each_cause_of_a_missing_verdict(monkeypatch):
    cfg = dict(algorithms=["hs-promised"], n=[5], d=[3], k=[1], m=[50], trials=2)
    _, summary = run_sweep(SweepConfig(**cfg))
    (cell,) = summary["cells"].values()
    assert cell["causes"] == {"infeasible": 2}

    import qclab.harness
    from qclab.solvers import BudgetExceeded

    real_run_trial = qclab.harness.run_trial
    outcomes = iter(["value", "budget", "tripped", "value", "ok"])

    def flaky_trial(*args, **kwargs):
        outcome = next(outcomes)
        if outcome == "value":
            raise ValueError("algorithm broke")
        if outcome == "budget":
            raise BudgetExceeded("truth out of budget")
        if outcome == "tripped":
            kwargs["limits"] = SolverLimits(max_branch_nodes=0)
        return real_run_trial(*args, **kwargs)

    monkeypatch.setattr(qclab.harness, "run_trial", flaky_trial)
    cfg.update(n=[8], m=[6], trials=5)
    reports, summary = run_sweep(SweepConfig(**cfg))
    assert [r.answer for r in reports][:4] == [
        "error:ValueError", "error:BudgetExceeded", "budget-exceeded", "error:ValueError"
    ]
    (cell,) = summary["cells"].values()
    assert cell["causes"] == {
        "error:ValueError": 2, "error:BudgetExceeded": 1, "budget-exceeded": 1
    }
    assert cell["errors"] == 4
    assert cell["messages"] == [
        "error:BudgetExceeded: truth out of budget", "error:ValueError: algorithm broke"
    ]


def test_ground_truth_budget_trip_keeps_the_algorithms_answer_and_queries():
    # the 4-color quotients fit 1,000 search nodes; the max 2-cut of the 40
    # hidden edges over 30 vertices does not
    h, _ = generate_instance("planted-cut", n=30, d=2, k=40, seed=1, t=2)
    report, result = run_trial(
        "cut-decision", h, 2, t=2, constants=AlgorithmConstants(cut_colors_factor=1),
        limits=SolverLimits(max_branch_nodes=1000),
    )
    assert (report.answer, report.truth) == ("yes", "budget-exceeded")
    assert report.success is None and report.witness_valid is None
    assert result.answer and report.bis == result.stats.bis > 0


def _tripping_truth(monkeypatch):
    """Make every ground-truth max t-cut trip its budget; the algorithms'
    own cut solves are untouched."""

    def trip(*args, **kwargs):
        raise BudgetExceeded("truth out of budget")

    monkeypatch.setattr(qclab.harness, "max_t_cut", trip)


def test_sweep_counts_ground_truth_trips_apart_from_errors(monkeypatch):
    _tripping_truth(monkeypatch)
    reports, summary = run_sweep(
        SweepConfig(algorithms=["cut-decision"], n=[12], k=[2], trials=2)
    )
    assert [(r.truth, r.success) for r in reports] == [("budget-exceeded", None)] * 2
    assert all(r.answer in ("yes", "no") and r.bis > 0 for r in reports)
    (cell,) = summary["cells"].values()
    assert cell["causes"] == {"truth:budget-exceeded": 2}
    assert (cell["errors"], cell["messages"]) == (0, [])


def test_cli_run_exits_2_when_ground_truth_trips(monkeypatch, tmp_path, capsys):
    inst = tmp_path / "c.hg"
    cli_main(["gen", "planted-cut", "--n", "12", "--t", "2", "--k", "3", "--seed", "1",
              "-o", str(inst)])
    capsys.readouterr()
    _tripping_truth(monkeypatch)
    assert cli_main(["run", "cut-decision", str(inst), "--k", "2", "--t", "2"]) == 2
    assert json.loads(capsys.readouterr().out)["truth"] == "budget-exceeded"


def test_sweep_summarizes_cells_that_differ_only_in_m_or_extra_apart():
    cfg = SweepConfig(algorithms=["vc-decision"], n=[12], k=[2], m=[10, 20], trials=2)
    reports, summary = run_sweep(cfg)
    assert len(reports) == 4
    assert {key: cell["trials"] for key, cell in summary["cells"].items()} == {
        "vc-decision|n=12|d=2|k=2|t=None|m=10|extra=10": 2,
        "vc-decision|n=12|d=2|k=2|t=None|m=20|extra=10": 2,
    }
    assert [(c["m"], c["extra"]) for c in summary["cells"].values()] == [(10, 10), (20, 10)]


def test_sweep_writes_an_infeasible_row_when_extra_edges_do_not_fit():
    # 1 planted + 100 extra distinct edges do not fit in C(4, 2) = 6
    cfg = SweepConfig(algorithms=["packing"], n=[4], k=[1], extra=[2, 100], trials=1)
    reports, summary = run_sweep(cfg)
    assert reports[0].answer in ("found", "not-exists")
    assert reports[1].answer == "infeasible"
    cell = summary["cells"]["packing|n=4|d=2|k=1|t=None|m=0|extra=100"]
    assert cell["messages"] == ["infeasible: cannot place 101 distinct edges (max 6)"]


def test_run_trial_rejects_t_for_an_algorithm_without_parts(tmp_path, capsys):
    h, _ = generate_instance("planted-packing", n=8, d=2, k=2, seed=1, extra=2)
    with pytest.raises(ValueError, match="packing takes no t"):
        run_trial("packing", h, 1, t=3)
    inst = tmp_path / "p.hg"
    cli_main(["gen", "planted-packing", "--n", "8", "--k", "2", "--extra", "2", "-o", str(inst)])
    capsys.readouterr()
    assert cli_main(["run", "packing", str(inst), "--k", "1", "--t", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "packing takes no t" in captured.err


def test_cli_gen_reports_edges_that_do_not_fit(tmp_path, capsys):
    out = tmp_path / "p.hg"
    rc = cli_main(["gen", "planted-packing", "--n", "4", "--k", "1", "--extra", "100",
                   "-o", str(out)])
    assert rc == 1
    assert "cannot place 101 distinct edges" in capsys.readouterr().err
    assert not out.exists()
