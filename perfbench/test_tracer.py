"""Tests of the benchmark's tracer, checks and entry point.

    python3 -m pytest -q perfbench

Traced repetitions run at small widths (`rep.py --small`), which keeps the
call structure of each workload and takes seconds.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import rnn_sysid  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, aggregate  # noqa: E402

# layers that must record spans on each workload (the traced-metric table)
EXPECTED = {
    "train_small": ["gradients.loss_gradients_bptt", "losses.eval_loss",
                    "student.forward_rescaled", "student.save_checkpoint",
                    "student.init_student", "trainer.sgd_train",
                    "teacher.random_stable_system", "teacher.generate_dataset",
                    "harness.run_experiment", "harness.generalization_gap"],
    "train_large": ["gradients.loss_gradients_bptt", "student.forward_rescaled",
                    "trainer.sgd_train", "harness.run_experiment"],
    "certify": ["student.linearized_forward", "student.forward_rescaled",
                "linalg.matrix_power_opnorm", "linalg.operator_norm_fast",
                "linalg.operator_norm", "verify.verify_spectral",
                "verify.verify_truncation", "verify.verify_linearization",
                "existence.construct_comparator", "existence.gram_inverses",
                "existence.verify_existence", "existence.save_comparator",
                "teacher.random_stable_system", "harness.run_experiment"],
}


def test_install_rebinds_the_callers_bindings():
    original = rnn_sysid.gradients.loss_gradients_bptt
    spectral = rnn_sysid.verify.verify_spectral
    tracer = Tracer(time.monotonic())
    tracer.install()
    try:
        # each caller imports its callee by name; all of these must be wrapped
        for binding in (rnn_sysid.trainer.loss_gradients_bptt,
                        rnn_sysid.harness.sgd_train,
                        rnn_sysid.verify.matrix_power_opnorm,
                        rnn_sysid.existence.forward_rescaled,
                        rnn_sysid.teacher.operator_norm,
                        rnn_sysid.verify.ALL_LEMMAS["spectral"]):
            assert binding.__wrapped__ is not None
        assert rnn_sysid.trainer.loss_gradients_bptt.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert rnn_sysid.trainer.loss_gradients_bptt is original
    assert rnn_sysid.verify.ALL_LEMMAS["spectral"] is spectral
    assert not hasattr(rnn_sysid.harness.sgd_train, "__wrapped__")


def test_missing_target_is_reported_and_the_rest_traced():
    original = rnn_sysid.trainer.sgd_train
    tracer = Tracer(time.monotonic())
    try:
        missing = tracer.install(TARGETS + (("trainer", "renamed_away"),))
        assert missing == ["trainer.renamed_away"]
        assert rnn_sysid.harness.sgd_train.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert rnn_sysid.harness.sgd_train is original


def test_aggregate_self_time():
    spans = [["process", 0.0, 10.0, -1, False],
             ["a", 1.0, 5.0, 0, False],
             ["b", 2.0, 3.0, 1, False],
             ["b", 6.0, 7.5, 0, True]]
    st = aggregate(spans)
    assert st["a"]["self_s"] == pytest.approx(3.0)
    assert st["b"]["calls"] == 2 and st["b"]["s"] == pytest.approx(2.5)
    assert st["b"]["errors"] == 1
    assert st["process"]["self_s"] == pytest.approx(4.5)
    assert sum(s["self_s"] for s in st.values()) == pytest.approx(10.0)


def _traced_rep(workload, tmp_path):
    out = tmp_path / workload
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "rep.py"),
                    "--workload", workload, "--seed", "3", "--out", str(out),
                    "--mode", "traced", "--small",
                    "--spawn", repr(time.monotonic())],
                   env=env, cwd=ROOT, check=True, timeout=300)
    result = json.loads((out / "result.json").read_text())
    spans = []
    for line in (out / "spans.tsv").read_text().splitlines():
        i, name, start, end, parent, failed = line.split("\t")
        spans.append([name, float(start), float(end), int(parent), failed == "1"])
    return result, spans


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layers_record_spans_and_self_times_sum_to_wall(workload, tmp_path):
    result, spans = _traced_rep(workload, tmp_path)
    calls = result["span_names"]
    missing = [name for name in EXPECTED[workload] if not calls.get(name)]
    assert not missing, f"no spans on {workload}: {missing}"
    for name in EXPECTED[workload]:
        assert aggregate(spans)[name]["s"] > 0.0
    # spans nest inside their parents, so self times are never negative ...
    for name, start, end, parent, _ in spans[1:]:
        p = spans[parent]
        assert p[1] <= start <= end <= p[2], (name, p[0])
    # ... and add up to the traced wall time
    wall = result["wall_s"]
    assert result["span_self_sum_s"] == pytest.approx(wall, rel=1e-9)
    # the small widths do not learn far enough for the loss-ratio gates
    failed = [name for name, ok, _ in result["ops"]
              if not ok and not name.endswith("loss_ratio")]
    assert not failed


def test_benchmark_json_names_every_emitted_metric(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    result, _ = _traced_rep("certify", tmp_path)
    emitted = set(result["per_layer"]) | {"floor.matvec_2T_ms_1thread",
                                          "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert all(m["unit"] == bench.layer_unit(m["name"]) for m in spec["per_layer"])


def _write_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))


def test_lemma_report_without_instances_fails_the_check(tmp_path):
    _write_json(tmp_path / "summary.json",
                {"results": {"spectral": {"passed": True, "pass_fraction": 1.0}}})
    _write_json(tmp_path / "report_spectral.json", {"checks": {
        "a": {"n_instances": 0, "pass_fraction": None, "status": "skipped"},
        "info": {"n_instances": 0, "asserted": False}}, "passed": True})
    [(name, ok, detail)] = workloads.check("certify", "verify", str(tmp_path), 0)
    assert not ok and "['a']" in detail


def test_differing_artifacts_fail_determinism():
    run = bench.Run("certify", 0, time.monotonic())
    run.reps = [{"hashes": {"x": "1", "y": "2"}}, {"hashes": {"x": "1", "y": "3"}}]
    run.check_determinism()
    name, ok, detail = run.ops[-1]
    assert name == "determinism" and not ok and "['y']" in detail


def _reps_with_spectral_reports(*ratios):
    key = workloads.UNSEEDED[0]
    return [{"hashes": {key: str(i)},
             "unseeded": {key: {"observed": {"max_ratio_c": r}, "passed": True}}}
            for i, r in enumerate(ratios)]


def test_unseeded_artifact_passes_determinism_by_value():
    run = bench.Run("certify", 0, time.monotonic())
    run.reps = _reps_with_spectral_reports(0.9987559590939812, 0.998755959093981)
    _, by_value = run.check_determinism()
    name, ok, _ = run.ops[-1]
    assert name == "determinism" and ok and by_value == list(workloads.UNSEEDED)


def test_unseeded_artifact_beyond_tolerance_fails_determinism():
    run = bench.Run("certify", 0, time.monotonic())
    run.reps = _reps_with_spectral_reports(0.99875, 0.99876)
    run.check_determinism()
    name, ok, detail = run.ops[-1]
    assert name == "determinism" and not ok and workloads.UNSEEDED[0] in detail


def test_same_values_is_exact_except_for_floats():
    assert workloads.same_values({"a": [1, "x", 0.5]}, {"a": [1, "x", 0.5 + 1e-16]})
    assert not workloads.same_values({"a": 1}, {"a": 2})
    assert not workloads.same_values({"a": True}, {"a": False})
    assert not workloads.same_values({"a": 1}, {"a": 1.0})
    assert not workloads.same_values({"a": 1.0}, {"b": 1.0})
    assert not workloads.same_values([1.0], [1.0, 1.0])
    assert not workloads.same_values(0.5, 0.5 * (1 + 1e-6))


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "train_small", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
