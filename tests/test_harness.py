import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rnn_sysid
from rnn_sysid.cli import main
from rnn_sysid.harness import (ConfigError, config_hash, generalization_gap,
                               run_experiment)
from rnn_sysid.losses import make_loss
from rnn_sysid.student import init_student
from rnn_sysid.teacher import generate_dataset, random_stable_system
from rnn_sysid.trainer import sgd_train

TRAIN_CFG = {
    "kind": "train",
    "seed": 3,
    "teacher": {"d_p": 3, "d": 2, "d_y": 2, "rho_C": 0.8, "seed": 0},
    "data": {"T": 12, "K": 8},
    "student": {"m": 48, "rho_mode": "practical", "rho": 0.9},
    "loss": {"kind": "square"},
    "train": {"K_steps": 60, "holdout": True},
}


def test_config_hash_stable_under_key_order():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 2, "y": [1, 2]})


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        run_experiment({"kind": "bench"})


def test_unknown_field_rejected():
    with pytest.raises(ConfigError):
        run_experiment({"kind": "train", "learning_rate": 0.1})


def test_train_kind_writes_artifacts(tmp_path):
    code, out = run_experiment(TRAIN_CFG, out_dir=str(tmp_path / "t"))
    assert code == 0
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())
    assert summary["m"] == 48
    assert "_meta" in summary and summary["_meta"]["version"]
    assert (tmp_path / "t" / "trace.jsonl").exists()
    assert (tmp_path / "t" / "config.json").exists()


def test_rerun_is_bit_identical(tmp_path):
    run_experiment(TRAIN_CFG, out_dir=str(tmp_path / "a"))
    run_experiment(TRAIN_CFG, out_dir=str(tmp_path / "b"))
    for name in ("summary.json", "trace.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_seed_override_changes_outputs(tmp_path):
    run_experiment(TRAIN_CFG, out_dir=str(tmp_path / "a"))
    run_experiment(TRAIN_CFG, out_dir=str(tmp_path / "c"), seed_override=11)
    assert (tmp_path / "a" / "trace.jsonl").read_bytes() != \
        (tmp_path / "c" / "trace.jsonl").read_bytes()


def test_sweep_one_row_per_cell(tmp_path):
    cfg = {
        "kind": "sweep",
        "seed": 0,
        "m_grid": [16, 32],
        "seeds": [0, 1],
        "teacher": {"d_p": 3, "d": 2, "d_y": 2, "rho_C": 0.8, "seed": 0},
        "data": {"T": 10, "K": 4},
        "student": {"rho_mode": "practical", "rho": 0.9},
        "loss": {"kind": "square"},
        "train": {"K_steps": 15},
    }
    code, out = run_experiment(cfg, out_dir=str(tmp_path / "s"))
    assert code == 0
    lines = (tmp_path / "s" / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # header + one row per (m, seed)
    header = lines[0].split(",")
    assert header[:2] == ["m", "seed"]


def test_empty_sweep_is_noop(tmp_path):
    cfg = {"kind": "sweep", "seed": 0, "m_grid": [], "seeds": [0],
           "teacher": {}, "data": {}, "student": {}, "loss": {}, "train": {}}
    code, out = run_experiment(cfg, out_dir=str(tmp_path / "e"))
    assert code == 0
    assert (tmp_path / "e" / "summary.csv").read_text().splitlines()[1:] == []


def test_verify_kind(tmp_path):
    cfg = {"kind": "verify", "seed": 0, "lemmas": ["tail"], "m": 64,
           "trials": 2}
    code, out = run_experiment(cfg, out_dir=str(tmp_path / "v"))
    report = json.loads((tmp_path / "v" / "report_tail.json").read_text())
    assert report["lemma_id"] == "tail"
    summary = json.loads((tmp_path / "v" / "summary.json").read_text())
    assert "tail" in summary["results"]


def test_existence_kind(tmp_path):
    cfg = {"kind": "existence", "seed": 0,
           "teacher": {"d_p": 3, "d": 2, "d_y": 2, "rho_C": 0.8, "seed": 7},
           "m_grid": [64, 128], "seeds": [0], "T_max": 6, "rho": 0.9,
           "probe": {"K": 2}}
    code, out = run_experiment(cfg, out_dir=str(tmp_path / "x"))
    assert code == 0
    summary = json.loads((tmp_path / "x" / "summary.json").read_text())
    assert summary["distances_ok"]
    assert len(summary["rows"]) == 2


def test_gap_zero_when_holdout_equals_train():
    sys = random_stable_system(3, 2, 2, 0.8, 0)
    ds = generate_dataset(sys, "iid_gaussian_unit", 0.0, 10, 1, seed=1)
    loss = make_loss("square", d_y=2)
    rnn = init_student(24, 2, 2, 0.9, 2)
    trace = sgd_train(rnn, ds, loss, 0.0, 40, seed=0, holdout=ds)
    gap = generalization_gap(trace, ds, ds, loss)
    assert max(gap["gaps"]) == 0.0


def test_gap_refuses_mismatched_teacher():
    sys1 = random_stable_system(3, 2, 2, 0.8, 0)
    sys2 = random_stable_system(3, 2, 2, 0.8, 99)
    ds1 = generate_dataset(sys1, "iid_gaussian_unit", 0.0, 10, 2, seed=1)
    ds2 = generate_dataset(sys2, "iid_gaussian_unit", 0.0, 10, 2, seed=1)
    loss = make_loss("square", d_y=2)
    rnn = init_student(16, 2, 2, 0.9, 2)
    trace = sgd_train(rnn, ds1, loss, 1e-4, 20, seed=0, holdout=ds1)
    with pytest.raises(ValueError):
        generalization_gap(trace, ds1, ds2, loss)


def test_cli_train_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TRAIN_CFG))
    code = main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run" / "summary.json").exists()


def test_cli_kind_mismatch(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TRAIN_CFG))
    with pytest.raises(ConfigError):
        main(["sweep", "--config", str(cfg_path)])


def test_cli_direct_lemma(capsys):
    code = main(["verify", "--lemma", "tail", "--m", "64", "--trials", "2"])
    out = capsys.readouterr().out
    assert "tail" in out and ("PASS" in out or "FAIL" in out)
    assert code in (0, 1)


def test_cli_all_lemmas_write_one_report_each(tmp_path, capsys):
    out = tmp_path / "reports"
    main(["verify", "--lemma", "all", "--m", "64", "--trials", "1",
          "--out", str(out)])
    names = ("concentration", "linearization", "spectral", "tail",
             "truncation")
    assert sorted(p.name for p in out.iterdir()) == \
        ["report_%s.json" % n for n in names]
    for n in names:
        doc = json.loads((out / ("report_%s.json" % n)).read_text())
        assert doc["lemma_id"] == n


def test_artifacts_stamped_with_package_version(tmp_path):
    run_experiment(TRAIN_CFG, out_dir=str(tmp_path / "t"))
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())
    assert summary["_meta"]["version"] == rnn_sysid.__version__


def test_cli_missing_config_errors():
    assert main(["train"]) == 2


_THREADS_SCRIPT = """
import sys
from rnn_sysid.harness import run_experiment
run_experiment({
    "kind": "train", "seed": 5,
    "teacher": {"d_p": 4, "d": 2, "d_y": 2, "rho_C": 0.8, "seed": 0},
    "data": {"T": 16, "K": 16},
    "student": {"m": 128, "rho_mode": "practical", "rho": 0.9},
    "loss": {"kind": "square"},
    "train": {"K_steps": 200, "holdout": True, "checkpoint_every": 100},
}, out_dir=sys.argv[1])
"""


def test_trace_same_at_every_blas_thread_count(tmp_path):
    # the determinism config, run once per BLAS thread count
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        subprocess.run([sys.executable, "-c", _THREADS_SCRIPT,
                        str(tmp_path / threads)],
                       env=env, check=True, timeout=300)
    for rel in ("trace.jsonl", "summary.json",
                "checkpoints/step_000200/W_tilde.bin"):
        assert ((tmp_path / "1" / rel).read_bytes()
                == (tmp_path / "2" / rel).read_bytes()), rel
