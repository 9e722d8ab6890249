"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

QC = run.load_qclab()


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    pct, value, beyond = run.tail([float(v) for v in range(1, 101)])
    assert (pct, value, beyond) == (90.0, 90.0, 10)
    pct, value, beyond = run.tail([5.0, 1.0] + [3.0] * 9)  # 11 samples, unsorted
    assert (pct, value, beyond) == (100.0 / 11, 1.0, 10)
    # nearest rank: percentile p picks rank ceil(p/100 * n); one step higher
    # would leave only nine samples beyond it
    n = 137
    pct, value, beyond = run.tail([float(v) for v in range(n)])
    assert beyond == 10 and value == n - 11 and pct == pytest.approx(100 * 127 / 137)


def test_tail_without_enough_samples_is_the_maximum():
    assert run.tail([2.0, 7.0, 1.0]) == (100.0, 7.0, 0)
    assert run.tail([1.0] * 10) == (100.0, 1.0, 0)


def test_self_time_subtracts_the_union_of_children_and_charged_time():
    assert tracer.self_time(0, 100, []) == 100
    assert tracer.self_time(0, 100, [(10, 20), (50, 60)]) == 80
    # overlapping children count once; children are clipped to the parent
    assert tracer.self_time(0, 100, [(15, 30), (10, 20), (90, 120), (-5, 2)]) == 100 - 20 - 10 - 2
    assert tracer.self_time(0, 100, [(10, 20)], charged=5) == 85
    assert tracer.self_time(0, 100, [(150, 160)]) == 100


def slice_of(workload, labels):
    ops = [op for op in workloads.build(workload, 3) if op.label in labels]
    assert [op.label for op in ops] == labels
    return ops


SLICES = {
    "trials": ["hs-decision d=2 #0", "cut #0", "packing-deterministic #0"],
    "ladder": ["vc-promised n=100 d=2 #0", "hs-decision n=50 d=3 #0"],
    "verify": ["verify packing d=2 #0", "verify hs d=3 #0"],
}


@pytest.mark.parametrize("workload", sorted(SLICES))
def test_traced_run_matches_untraced_outputs_and_query_counts(workload):
    ops = slice_of(workload, SLICES[workload])
    hidden, _ = run.setup(ops, QC, repeats=1, seconds=0.0)
    reference = [None] * len(ops)
    plain = run.measure(ops, hidden, QC, 0.0, reference)
    t = tracer.Tracer()
    # two passes: each op runs untraced then traced, and traced then
    # untraced; every output must equal the untraced run's
    traced = run.measure(ops, hidden, QC, 0.0, reference, tracer=t, min_passes=2)
    assert plain.failed == traced.failed == 0, traced.failures
    assert traced.digest == plain.digest
    assert traced.attempted == 4 * len(ops)
    assert traced.kinds == traced.traced_kinds == [2 * q for q in plain.kinds]
    assert not t.missing
    metrics = t.metrics(len(traced.traced_ns), 1, traced.traced_kinds, sum(traced.traced_ns))
    per_op = [metrics[f"oracle.queries.{k}"][0] for k in tracer.QUERIES]
    assert per_op == pytest.approx([q / len(ops) for q in plain.kinds])
    if workload == "verify":
        assert sum(per_op) == 0 and metrics["solvers.truth.calls"][0] > 0
        assert metrics["sunflowers.cores"][0] > 0
    else:
        assert sum(per_op) > 0 and metrics["algorithms.rounds"][0] > 0
        assert 0 < metrics["oracle.op_share"][0] < 1


def test_tampered_expected_output_counts_as_a_failed_op():
    ops = slice_of("trials", ["hs-decision d=2 #0", "cut #0"])
    hidden, _ = run.setup(ops, QC, repeats=1, seconds=0.0)
    reference = [None, None]
    assert run.measure(ops, hidden, QC, 0.0, reference).failed == 0
    tampered = [reference[0].replace(",true,", ",false,", 1), reference[1]]
    assert tampered[0] != reference[0]
    result = run.measure(ops, hidden, QC, 0.0, tampered)
    assert (result.attempted, result.failed) == (2, 1)
    assert "differs from the reference" in result.failures[0]


def test_stored_expected_outputs_cover_every_op_at_the_default_seed():
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, workloads.DEFAULT_SEED)
        assert all(out is not None for out in run.load_expected(workload, workloads.DEFAULT_SEED, ops))


def test_missing_boundary_leaves_its_layer_out(monkeypatch):
    import qclab.algorithms

    monkeypatch.delattr(qclab.algorithms, "sample_union")
    t = tracer.Tracer()
    assert t.missing == {"sampler"}
    t.install()
    t.uninstall()
    metrics = t.metrics(0, 1, [0, 0, 0, 0], 0)
    assert not any(name.startswith("sampler.") for name in metrics)
    assert "oracle.ms" in metrics


def test_uninstall_restores_every_name():
    import qclab.harness
    import qclab.oracle

    before = (qclab.harness.run_trial, qclab.oracle.OracleSession.gpise,
              qclab.oracle.OracleSession.__init__)
    t = tracer.Tracer()
    t.install()
    assert qclab.harness.run_trial is not before[0]
    t.uninstall()
    assert before == (qclab.harness.run_trial, qclab.oracle.OracleSession.gpise,
                      qclab.oracle.OracleSession.__init__)


def test_inputs_depend_on_the_seed_alone():
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 7) == workloads.build(workload, 7)
        assert workloads.build(workload, 7) != workloads.build(workload, 8)
