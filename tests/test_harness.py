import ctypes
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import rnn_sysid
from rnn_sysid import harness
from rnn_sysid.cli import main
from rnn_sysid.existence import construct_comparator
from rnn_sysid.harness import (ConfigError, config_hash, generalization_gap,
                               run_experiment)
from rnn_sysid.linalg import TWO_ROW_MAX_M, frob
from rnn_sysid.losses import make_loss
from rnn_sysid.store import write_json
from rnn_sysid.student import init_student, load_checkpoint, sample_init
from rnn_sysid.teacher import (ParameterError, generate_dataset,
                               random_stable_system, save_dataset)
from rnn_sysid.trainer import sgd_train
from rnn_sysid.verify import (ALL_LEMMAS, run_lemma, verify_concentration,
                              verify_linearization, verify_spectral,
                              verify_tail)

TRAIN_CFG = {
    "kind": "train",
    "seed": 3,
    "teacher": {"d_p": 3, "d": 2, "d_y": 2, "rho_C": 0.8, "seed": 0},
    "data": {"T": 12, "K": 8},
    "student": {"m": 48, "rho_mode": "practical", "rho": 0.9},
    "loss": {"kind": "square"},
    "train": {"K_steps": 60, "holdout": True},
}


def _env_with_src(**extra):
    """This process's environment plus `extra`, with this checkout's src/
    first on PYTHONPATH, for running the package in a subprocess."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_config_hash_stable_under_key_order():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 2, "y": [1, 2]})


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        run_experiment({"kind": "bench"})


_UNKNOWN_FIELDS = [
    ({"kind": "train", "learning_rate": 0.1}, "learning_rate"),
    ({"kind": "train", "train": {"Ksteps": 5}}, "train.Ksteps"),
    ({"kind": "train", "loss": {"knd": "l1"}}, "loss.knd"),
    ({"kind": "sweep", "student": {"rho_mod": "theory"}}, "student.rho_mod"),
    ({"kind": "existence", "probe": {"k": 2}}, "probe.k"),
    ({"kind": "verify", "lemma_params": {"spectrl": {"m": 64}}},
     "lemma_params.spectrl"),
    # fields this kind has no use for
    ({"kind": "sweep", "student": {"m": 64}}, "student.m"),
    ({"kind": "verify", "lemma_params": {"tail": {"tau": 3}}},
     "lemma_params.tail.tau"),
    ({"kind": "train", "schedule": {"multipliers": {}}},
     "schedule.multipliers"),
    # worked out from the loss
    ({"kind": "train", "schedule": {"l0": 1.0}}, "schedule.l0"),
    # knobs that could only loosen a verdict
    ({"kind": "verify", "lemma_params": {"spectral": {"threshold": 0.0}}},
     "lemma_params.spectral.threshold"),
    ({"kind": "verify", "lemma_params": {"tail": {"threshold": 0.0}}},
     "lemma_params.tail.threshold"),
    ({"kind": "verify", "lemma_params": {"spectral": {"power_iters": 1}}},
     "lemma_params.spectral.power_iters"),
    # the top-level seed is every lemma's
    ({"kind": "verify", "lemma_params": {"tail": {"seed": 1}}},
     "lemma_params.tail.seed"),
]


@pytest.mark.parametrize("cfg, path", _UNKNOWN_FIELDS,
                         ids=[path for _, path in _UNKNOWN_FIELDS])
def test_unknown_field_rejected(cfg, path, tmp_path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        run_experiment(cfg, out_dir=str(tmp_path / "r"))
    assert not (tmp_path / "r").exists()


# values of the wrong JSON type; tiny runs, so a config that is not
# refused finishes quickly instead of training
_TINY = {"kind": "train", "student": {"m": 8}, "data": {"T": 4, "K": 2}}
_WRONG_TYPES = [
    ({**_TINY, "train": {"K_steps": 2, "holdout": "false"}}, "train.holdout"),
    ({**_TINY, "data": {"T": "20", "K": 2}, "train": {"K_steps": 2}},
     "data.T"),
    ({**_TINY, "train": {"K_steps": 2, "checkpoint_every": True}},
     "train.checkpoint_every"),
    # values of sections that fill nothing in
    ({"kind": "verify", "lemmas": ["tail"],
      "lemma_params": {"tail": {"trials": "2"}}}, "lemma_params.tail.trials"),
    # each list entry has the type of its default's entries
    ({"kind": "existence", "m_grid": [64.0], "seeds": [0]}, "m_grid[0]"),
    ({"kind": "sweep", "m_grid": [16, True], "seeds": [0]}, "m_grid[1]"),
    ({"kind": "verify", "lemmas": ["tail"], "m": 16, "trials": 1,
      "lemma_params": {"tail": {"tau_grid": [1, 2.5]}}},
     "lemma_params.tail.tau_grid[1]"),
    ({"kind": "verify", "lemmas": ["linearization"], "m": 16, "trials": 1,
      "lemma_params": {"linearization": {"omega_grid": ["0.01"]}}},
     "lemma_params.linearization.omega_grid[0]"),
]


@pytest.mark.parametrize("cfg, path", _WRONG_TYPES,
                         ids=[path for _, path in _WRONG_TYPES])
def test_wrong_value_type_rejected(cfg, path, tmp_path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        run_experiment(cfg, out_dir=str(tmp_path / "r"))
    assert not (tmp_path / "r").exists()


def test_integer_accepted_for_a_float_field():
    c = harness.resolve_config({"kind": "train", "data": {"noise_sigma": 0}})
    assert c["data"]["noise_sigma"] == 0
    c = harness.resolve_config({"kind": "verify", "lemma_params": {
        "linearization": {"omega_grid": [0, 0.01]}}})
    assert c["lemma_params"]["linearization"]["omega_grid"] == [0, 0.01]


def test_lemmas_take_a_name_or_a_list():
    for lemmas, resolved in (("tail", ["tail"]), ("all", list(ALL_LEMMAS)),
                             (["tail", "spectral"], ["tail", "spectral"])):
        c = harness.resolve_config({"kind": "verify", "lemmas": lemmas})
        assert c["lemmas"] == resolved
    with pytest.raises(ConfigError, match=r"unknown lemmas \['tial'\]"):
        harness.resolve_config({"kind": "verify", "lemmas": "tial"})
    with pytest.raises(ConfigError, match="a name or a list of names"):
        harness.resolve_config({"kind": "verify", "lemmas": 3})


def test_verify_over_no_lemmas_is_refused(tmp_path):
    # a run over no lemmas tests nothing, so it must not pass
    with pytest.raises(ConfigError, match="config field lemmas"):
        run_experiment({"kind": "verify", "lemmas": []},
                       out_dir=str(tmp_path / "v"))
    assert not (tmp_path / "v").exists()


def test_section_must_be_an_object(tmp_path):
    with pytest.raises(ConfigError, match="train must be a JSON object"):
        run_experiment({"kind": "train", "train": 5},
                       out_dir=str(tmp_path / "r"))


class _Started(Exception):
    pass


def _refuse(*args, **kwargs):
    raise _Started()


def _resolved(cfg, tmp_path, monkeypatch):
    """resolved_config.json of `cfg`, stopping where training would start."""
    monkeypatch.setattr(harness, "sgd_train", _refuse)
    with pytest.raises(_Started):
        run_experiment(cfg, out_dir=str(tmp_path / "r"))
    return json.loads((tmp_path / "r" / "resolved_config.json").read_text())


def _readme_train_config():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md")).read()
    example = readme.split("A train config looks like:")[1]
    return json.loads(example.split("```json")[1].split("```")[0])


def test_resolved_config_of_the_readme_example(tmp_path, monkeypatch):
    cfg = _readme_train_config()
    resolved = _resolved(cfg, tmp_path, monkeypatch)
    assert resolved["train"]["eta"] == 1e-2 / 512
    assert resolved["train"]["checkpoint_every"] == 500
    assert resolved["student"] == {**cfg["student"], "rho_0": 0.9}
    echo = json.loads((tmp_path / "r" / "config.json").read_text())
    echo.pop("_meta")
    assert echo == cfg


def test_resolved_config_fills_the_derived_defaults(tmp_path, monkeypatch):
    resolved = _resolved({"kind": "train", "data": {"T": 4, "K": 2}},
                         tmp_path, monkeypatch)
    assert resolved["student"]["m"] == 512
    assert resolved["train"]["K_steps"] == 2000
    assert resolved["train"]["eta"] == 1e-2 / 512
    assert resolved["seed"] == 0 and resolved["out_dir"] == str(tmp_path / "r")


def test_empty_sections_match_written_out_defaults(tmp_path):
    # m and K_steps are kept small here; their defaults are checked through
    # resolved_config.json above
    empty = {"kind": "train", "teacher": {}, "data": {},
             "student": {"m": 24}, "loss": {}, "train": {"K_steps": 30},
             "schedule": {}}
    written = {
        "kind": "train", "seed": 0, "out_dir": None, "dataset_path": None,
        "teacher": {"d_p": 4, "d": 2, "d_y": 2, "rho_C": 0.8, "seed": 0},
        "data": {"input_spec": "iid_gaussian_unit", "noise_sigma": 0.0,
                 "T": 20, "K": 64},
        "student": {"m": 24, "rho_mode": "practical", "rho": 0.9,
                    "rho_0": 0.9},
        "loss": {"kind": "square", "delta": 1.0},
        "train": {"K_steps": 30, "eta": 1e-2 / 24, "holdout": False,
                  "checkpoint_every": 500},
        "schedule": {"epsilon": 0.05, "delta": math.exp(-1.0)},
    }
    docs = {}
    for name, cfg in (("empty", empty), ("written", written)):
        run_experiment(cfg, out_dir=str(tmp_path / name))
        docs[name] = {f: (tmp_path / name / f).read_bytes()
                      for f in ("summary.json", "trace.jsonl")}
        resolved = json.loads(
            (tmp_path / name / "resolved_config.json").read_text())
        assert resolved.pop("out_dir") == str(tmp_path / name)
        docs[name]["resolved"] = resolved
    # the config hash in _meta differs, as the two configs are not equal
    a, b = (docs[n]["summary.json"].decode() for n in ("empty", "written"))
    assert a.replace(config_hash(empty), "") == \
        b.replace(config_hash(written), "")
    assert docs["empty"]["trace.jsonl"] == docs["written"]["trace.jsonl"]
    assert docs["empty"]["resolved"] == docs["written"]["resolved"]
    assert docs["written"]["resolved"] == {
        k: v for k, v in written.items() if k != "out_dir"}


def _lemma_defaults(verifier):
    return {key: p.default for key, p in
            inspect.signature(verifier).parameters.items() if key != "seed"}


def test_resolved_config_reruns_the_run(tmp_path):
    # a verify config's top-level m and trials fill each lemma's section,
    # under the section's own values and over the verifier's defaults
    verify_cfg = {"kind": "verify", "lemmas": ["spectral", "tail"],
                  "m": 32, "trials": 1,
                  "lemma_params": {"spectral": {"m": 48}, "tail": {"trials": 2}}}
    for kind, cfg in (("train", TRAIN_CFG), ("verify", verify_cfg)):
        a, b = tmp_path / kind / "a", tmp_path / kind / "b"
        run_experiment(cfg, out_dir=str(a))
        resolved = json.loads((a / "resolved_config.json").read_text())
        run_experiment(resolved, out_dir=str(b))
        outputs = sorted(p.name for p in a.iterdir()
                         if p.name == "trace.jsonl" or p.name.startswith("report_"))
        assert len(outputs) == (1 if kind == "train" else 2)
        for name in outputs:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        again = json.loads((b / "resolved_config.json").read_text())
        assert again == {**resolved, "out_dir": str(b)}
    assert resolved["lemma_params"] == json.loads(json.dumps({
        name: {**_lemma_defaults(fn), "m": 32, "trials": 1,
               **verify_cfg["lemma_params"].get(name, {})}
        for name, fn in ALL_LEMMAS.items()}))


def test_theory_run_outside_its_regime_is_refused(tmp_path, monkeypatch):
    # at m=512 the theory schedule asks for ~2.9e41 steps (square loss)
    monkeypatch.setattr(harness, "generate_dataset", _refuse)
    monkeypatch.setattr(harness, "sgd_train", _refuse)
    with pytest.raises(ConfigError, match="train.K_steps"):
        run_experiment({"kind": "train", "student": {"rho_mode": "theory"}},
                       out_dir=str(tmp_path / "r"))
    assert not (tmp_path / "r").exists()


def test_theory_run_with_explicit_steps_goes_ahead(tmp_path):
    cfg = {"kind": "train", "data": {"T": 6, "K": 2},
           "student": {"m": 16, "rho_mode": "theory"},
           "train": {"K_steps": 3}}
    code, out = run_experiment(cfg, out_dir=str(tmp_path / "t"))
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())
    assert code == 0 and summary["K_steps"] == 3
    assert summary["schedule"]["outside_theory_regime"]
    assert summary["eta"] == summary["schedule"]["eta"]
    assert summary["rho"] == summary["schedule"]["rho"]
    # the schedule's Lipschitz constant is the loss's, 2 for the square loss
    assert summary["schedule"]["l0"] == make_loss("square", d_y=2).l0 == 2.0


def _saved_dataset(path):
    sys_ = random_stable_system(3, 2, 2, 0.8, 0)
    ds = generate_dataset(sys_, "iid_uniform_sphere", 0.1, 12, 5, seed=4)
    save_dataset(ds, sys_, str(path))
    return ds


def test_holdout_follows_dataset_path(tmp_path, monkeypatch):
    _saved_dataset(tmp_path / "ds")
    calls = []

    def recording(*args, **kwargs):
        calls.append(inspect.signature(generate_dataset).bind(
            *args, **kwargs).arguments)
        return generate_dataset(*args, **kwargs)

    monkeypatch.setattr(harness, "generate_dataset", recording)
    cfg = {"kind": "train", "seed": 2, "dataset_path": str(tmp_path / "ds"),
           "student": {"m": 16}, "train": {"K_steps": 20, "holdout": True}}
    code, _ = run_experiment(cfg, out_dir=str(tmp_path / "t"))
    assert code == 0
    assert len(calls) == 1
    drawn = {k: v for k, v in calls[0].items() if k != "sys"}
    assert drawn == {"input_spec": "iid_uniform_sphere", "noise_sigma": 0.1,
                     "T": 12, "K": 5, "seed": 2 + 10_000}
    resolved = json.loads((tmp_path / "t" / "resolved_config.json").read_text())
    assert "teacher" not in resolved and "data" not in resolved


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("holdout", [False, True])
@pytest.mark.parametrize("bad", [math.nan, 1e200])
def test_run_that_aborts_at_its_first_step_writes_a_summary(tmp_path, bad,
                                                            holdout):
    # NaN, or a finite output whose square loss overflows, at one time step
    # of every sequence: the first step's loss is not finite
    sys_ = random_stable_system(3, 2, 2, 0.8, 0)
    ds = generate_dataset(sys_, "iid_gaussian_unit", 0.0, 12, 5, seed=4)
    ds.observed_outputs[:, 3, 0] = bad
    save_dataset(ds, sys_, str(tmp_path / "ds"))
    cfg = {"kind": "train", "dataset_path": str(tmp_path / "ds"),
           "student": {"m": 16}, "train": {"K_steps": 20, "holdout": holdout}}
    code, _ = run_experiment(cfg, out_dir=str(tmp_path / "t"))
    assert code == 1
    assert (tmp_path / "t" / "checkpoints" / "abort_000000").is_dir()
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())
    assert summary["aborted"] is True
    derived = ["initial_avg_loss", "final_avg_loss", "loss_ratio"]
    if holdout:
        derived += ["gap_exponent", "final_gap", "final_holdout_avg",
                    "holdout_ratio"]
    assert {k: summary[k] for k in derived} == dict.fromkeys(derived)
    # the distances are the fresh student's, not derived from the losses
    assert summary["dW_frob_final"] == summary["dA_frob_final"] == 0.0


def test_final_distances_are_those_of_the_last_checkpoint(tmp_path):
    # K a multiple of checkpoint_every: the last checkpoint holds the
    # iterate the run ends on, after the last update
    _saved_dataset(tmp_path / "ds")
    cfg = {"kind": "train", "dataset_path": str(tmp_path / "ds"),
           "student": {"m": 16},
           "train": {"K_steps": 20, "checkpoint_every": 10}}
    code, _ = run_experiment(cfg, out_dir=str(tmp_path / "t"))
    assert code == 0
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())
    ck = load_checkpoint(str(tmp_path / "t" / "checkpoints" / "step_000020"))
    assert summary["dA_frob_final"] == frob(ck.A - ck.A0) > 0.0
    assert summary["dW_frob_final"] == ck.dW_frob() > 0.0


@pytest.mark.parametrize("section", ["teacher", "data"])
def test_section_beside_dataset_path_rejected(section, tmp_path):
    _saved_dataset(tmp_path / "ds")
    with pytest.raises(ConfigError, match="dataset_path"):
        run_experiment({"kind": "train", "dataset_path": str(tmp_path / "ds"),
                        section: {}}, out_dir=str(tmp_path / "r"))


def _recording_lemma(monkeypatch):
    seen = []

    def tail(**kwargs):
        seen.append(kwargs)
        return verify_tail(m=16, trials=1, tau_grid=(1, 2))

    monkeypatch.setitem(ALL_LEMMAS, "tail", tail)
    return seen


def test_verify_passes_trials_and_m_only_when_given(tmp_path, monkeypatch):
    # every keyword reaches the lemma: its section's, else the top-level
    # m or trials when given, else the verifier's default
    seen = _recording_lemma(monkeypatch)
    run_experiment({"kind": "verify", "lemmas": ["tail"]},
                   out_dir=str(tmp_path / "a"))
    run_experiment({"kind": "verify", "lemmas": ["tail"], "m": 8, "trials": 2,
                    "lemma_params": {"tail": {"trials": 3}}},
                   out_dir=str(tmp_path / "b"))
    tail = _lemma_defaults(verify_tail)
    assert seen == [{**tail, "seed": 0},
                    {**tail, "m": 8, "trials": 3, "seed": 0}]


def test_cli_direct_lemma_passes_trials_only_when_given(tmp_path, monkeypatch,
                                                         capsys):
    # a direct run is a verify config run, whose seed defaults to 0; a flag
    # left out leaves the verifier's default
    monkeypatch.chdir(tmp_path)
    seen = _recording_lemma(monkeypatch)
    main(["verify", "--lemma", "tail", "--m", "8"])
    main(["verify", "--lemma", "tail", "--trials", "2", "--seed", "5"])
    tail = _lemma_defaults(verify_tail)
    assert seen == [{**tail, "m": 8, "seed": 0},
                    {**tail, "trials": 2, "seed": 5}]


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


def _refused_before_writing(tmp_path, cfg, message, seed_override=None,
                            error=ConfigError):
    out = tmp_path / "r"
    with pytest.raises(error, match=message):
        run_experiment(cfg, out_dir=str(out), seed_override=seed_override)
    assert not out.exists()


@pytest.mark.parametrize("cfg, seed_override, field", [
    ({"kind": "train", "seed": -1}, None, "seed"),
    ({"kind": "verify"}, -1, "seed"),
    ({"kind": "existence", "m_grid": [16], "seeds": [0, -2]}, None, "seeds[1]"),
    ({"kind": "sweep", "m_grid": [16], "seeds": [1.5]}, None, "seeds[0]"),
    ({"kind": "existence", "teacher": {"seed": -1}}, None, "teacher.seed"),
])
def test_seeds_must_be_non_negative_integers(tmp_path, cfg, seed_override,
                                             field):
    # numpy's generators refuse them; the run must stop before it writes
    # its config rather than die at the first draw
    _refused_before_writing(tmp_path, cfg, re.escape(
        f"config field {field} must be ") + "(>= 0|an integer)", seed_override)


@pytest.mark.parametrize("cfg, field", [
    ({"kind": "existence", "m_grid": [16], "T_max": 0}, "T_max"),
    ({"kind": "existence", "m_grid": [16], "probe": {"K": 0}}, "probe.K"),
    ({"kind": "existence", "m_grid": [16, 0]}, "m_grid[1]"),
    ({"kind": "sweep", "m_grid": [0]}, "m_grid[0]"),
    ({"kind": "train", "student": {"m": 0}}, "student.m"),
    ({"kind": "train", "student": {"m": -4}}, "student.m"),
])
def test_widths_and_counts_below_one_are_refused(tmp_path, cfg, field):
    # each would die part way (a ZeroDivisionError, or a ParameterError
    # from the dataset), after config.json is written
    _refused_before_writing(tmp_path, cfg, re.escape(
        f"config field {field} must be >= 1"))


@pytest.mark.parametrize("lemma, params", [
    ("spectral", {"grid_points": 0}),
    ("tail", {"tau_grid": []}),
    ("truncation", {"tau_grid": []}),
    ("linearization", {"omega_grid": []}),
])
def test_verify_refuses_an_empty_lemma_grid_before_writing(tmp_path, lemma,
                                                           params):
    # a grid of no points leaves asserted checks without instances: the
    # spectral report would pass on (a) alone, tail and truncation die in
    # max(), and linearization runs to a failing report
    (key,) = params
    cfg = {"kind": "verify", "lemmas": [lemma], "m": 16, "trials": 1,
           "lemma_params": {lemma: params}}
    if key == "grid_points":  # a count: the config's floor refuses it first
        _refused_before_writing(tmp_path, cfg, re.escape(
            f"config field lemma_params.{lemma}.{key} must be >= 1"))
    else:
        _refused_before_writing(tmp_path, cfg, f"^{key} must hold at least one",
                                error=ParameterError)
    # a direct run is refused by the lemma's own keyword check
    with pytest.raises(ParameterError, match=f"^{key} must hold at least one"):
        run_lemma(lemma, m=16, trials=1, **params)


def test_cli_refuses_a_negative_seed(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(TRAIN_CFG))
    with pytest.raises(ConfigError, match="config field seed must be >= 0"):
        main(["train", "--config", str(cfg_path), "--out",
              str(tmp_path / "r"), "--seed", "-1"])
    assert not (tmp_path / "r").exists()


# A small run of each kind, so that a field the floor rule missed runs
# quickly instead of at its default width.
_SMALL = {
    "train": {"student": {"m": 8}, "data": {"T": 4, "K": 2},
              "train": {"K_steps": 2}},
    "sweep": {"m_grid": [8], "data": {"T": 4, "K": 2}, "train": {"K_steps": 2}},
    "existence": {"m_grid": [16], "T_max": 2, "probe": {"K": 1}},
    "verify": {"lemmas": ["tail"], "m": 16, "trials": 1},
}


def _numbers(spec, path=""):
    """(dotted path, default) of every number in a SCHEMA section; a list
    stands for its entries, given as a one-entry list."""
    for key, default in spec.items():
        if isinstance(default, dict):
            yield from _numbers(default, f"{path}{key}.")
        elif isinstance(default, (list, tuple)) and default:
            if type(default[0]) in (int, float):
                yield f"{path}{key}[0]", default[0]
        elif type(default) in (int, float):
            yield path + key, default


def _with(kind, path, value):
    """`_SMALL[kind]` with `path` set to `value` (a list entry as `[value]`),
    running only the lemma whose field it is."""
    cfg = json.loads(json.dumps({"kind": kind, **_SMALL[kind]}))
    *sections, key = path.split(".")
    if key.endswith("[0]"):
        key, value = key[:-3], [value]
    if sections[:1] == ["lemma_params"]:
        cfg["lemmas"] = [sections[1]]
    section = cfg
    for name in sections:
        section = section.setdefault(name, {})
    section[key] = value
    return cfg


_FLOORS = [(kind, path, default) for kind in harness.SCHEMA
           for path, default in _numbers(harness.SCHEMA[kind])]


@pytest.mark.parametrize("kind, path, default", _FLOORS,
                         ids=[f"{kind}-{path}" for kind, path, _ in _FLOORS])
def test_every_number_below_its_floor_is_refused(tmp_path, kind, path,
                                                 default):
    # the floor comes from the default, so a field added to SCHEMA is
    # covered here as it is: a count (an integer field whose default is at
    # least 1) is at least 1, every other number at least 0
    low = 1 if type(default) is int and default >= 1 else 0
    below = low - 1 if type(default) is int else -0.5
    _refused_before_writing(tmp_path, _with(kind, path, below), re.escape(
        f"config field {path} must be >= {low}, got {below}"))
    harness.resolve_config(_with(kind, path, low))  # the floor itself passes


def test_the_floor_walk_reaches_every_kind_and_section():
    paths = {f"{kind}-{path}" for kind, path, _ in _FLOORS}
    assert {"train-student.m", "train-train.checkpoint_every",
            "sweep-m_grid[0]", "existence-probe.K", "existence-teacher.seed",
            "verify-seed", "verify-lemma_params.tail.tau_grid[0]",
            "verify-lemma_params.concentration.tau"} <= paths


_TINY_DATA = {"T": 4, "K": 2}


@pytest.mark.parametrize("cfg, field, message", [
    ({"kind": "train", "student": {"m": 8}, "train": {"K_steps": 0}},
     "K_steps", ">= 1, got 0"),
    ({"kind": "train", "student": {"m": 8}, "train": {"K_steps": 1.5}},
     "K_steps", "an integer, got 1.5"),
    ({"kind": "train", "student": {"m": 8}, "train": {"K_steps": 2, "eta": -1}},
     "eta", ">= 0, got -1"),
    ({"kind": "sweep", "m_grid": [8], "train": {"K_steps": 0}},
     "K_steps", ">= 1, got 0"),
    ({"kind": "train", "student": {"m": 8, "rho_mode": "theory"},
      "train": {"K_steps": 0}}, "K_steps", ">= 1, got 0"),
])
def test_a_given_derived_train_value_is_checked_as_its_default(tmp_path, cfg,
                                                               field, message):
    # train.K_steps and train.eta default to values worked out from the
    # width; a given one has their type and floor (K_steps 1.5 ran 1 step)
    _refused_before_writing(tmp_path, {**cfg, "data": _TINY_DATA}, re.escape(
        f"config field train.{field} must be {message}"))


@pytest.mark.parametrize("kind", ["train", "sweep"])
def test_an_unknown_loss_is_refused_before_writing(tmp_path, kind):
    _refused_before_writing(tmp_path, {"kind": kind, "loss": {"kind": "l2"}},
                            "unknown loss kind 'l2'", error=ParameterError)


@pytest.mark.parametrize("kind", ["train", "sweep"])
def test_a_huber_delta_of_zero_is_refused_before_writing(tmp_path, kind):
    # it passes the floor rule, yet makes a loss that is 0 everywhere: a
    # practical run read as a perfect fit, and theory mode divided by l0 = 0
    cfg = _with(kind, "loss.delta", 0)
    cfg["loss"]["kind"] = "huber"
    for mode in ("practical", "theory"):
        cfg.setdefault("student", {})["rho_mode"] = mode
        _refused_before_writing(tmp_path, cfg, r"^delta must lie in \(0, inf\)",
                                error=ParameterError)


def test_a_practical_run_at_width_one_goes_ahead(tmp_path):
    # decay_split's m >= 2 is the lemmas' rule: practical mode never calls it
    code, out = run_experiment(_with("train", "student.m", 1),
                               out_dir=str(tmp_path / "r"))
    assert code == 0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["m"] == 1


@pytest.mark.parametrize("cfg", [
    {"rho": 0.5}, {"rho": 0.8}, {"rho": 1}, {"rho": 1.5},
    {"teacher": {"rho_C": 1.5}}])
def test_existence_refuses_a_decay_outside_rho_C_to_1(tmp_path, cfg):
    # below rho_C the comparator's weights are not summable and at 1 its fit
    # bound divides by zero; the run stops before it writes its config
    _refused_before_writing(tmp_path, {"kind": "existence", "m_grid": [16],
                                       "T_max": 2, **cfg},
                            "rho(_C)? must lie in", error=ParameterError)
    if "rho" in cfg:  # a direct call reaches the same check
        sys_ = random_stable_system(2, 2, 2, 0.8, 0)
        W0, A0, B = sample_init(np.random.default_rng(0), 16, 2, 2)
        with pytest.raises(ParameterError, match=r"rho must lie in \(rho_C, 1\)"):
            construct_comparator(W0, A0, B, sys_, cfg["rho"], 2)


_OUT_OF_DOMAIN = [
    *[(kind, "student.rho", rho, r"^student\.rho must lie in \(0, 1\)")
      for kind in ("train", "sweep") for rho in (1.5, 0)],
    *[(kind, "data.input_spec", "foo", "^unknown input_spec 'foo'")
      for kind in ("train", "sweep")],
    ("verify", "lemma_params.truncation.epsilon", 0, "^epsilon must be in"),
    ("verify", "lemma_params.truncation.delta", 0.9, "^delta must be in"),
    ("verify", "lemma_params.truncation.rho_0", 1.0, "^rho_0 must lie in"),
    ("verify", "lemma_params.tail.rho_0", 0, "^rho_0 must lie in"),
    ("verify", "lemma_params.tail.rho_0", 1.5, "^rho_0 must lie in"),
    ("verify", "lemma_params.concentration.delta", 0,
     r"^delta must lie in \(0, 1\)"),
    ("verify", "lemma_params.concentration.delta", 100,
     r"^delta must lie in \(0, 1\)"),
    ("verify", "lemma_params.spectral.rho_0", 1.5, "^rho_0 must lie in"),
    ("verify", "lemma_params.spectral.rho_0", 1.0, "^rho_0 must lie in"),
    ("verify", "lemma_params.concentration.m", 1, "^m must be >= 2"),
]


@pytest.mark.parametrize("kind, path, value, message", _OUT_OF_DOMAIN,
                         ids=[f"{k}-{p}={v}" for k, p, v, _ in _OUT_OF_DOMAIN])
def test_a_value_outside_its_domain_is_refused_before_writing(
        tmp_path, kind, path, value, message):
    # each ran past config.json before: refused by the verifier or the
    # student, crashed (tail at rho_0 0, concentration at delta 0), wrote
    # a failing report (tail at rho_0 1.5) or passed vacuously (spectral
    # at rho_0 >= 1, where omega_0 <= 0 and the (d) bound grows with t)
    _refused_before_writing(tmp_path, _with(kind, path, value), message,
                            error=ParameterError)


@pytest.mark.parametrize("verifier, params", [
    (verify_spectral, {"rho_0": 1.5}), (verify_tail, {"rho_0": 0.0}),
    (verify_concentration, {"delta": 0.0})])
def test_a_direct_verifier_call_refuses_a_value_outside_its_domain(verifier,
                                                                   params):
    with pytest.raises(ParameterError, match="must lie in"):
        verifier(m=16, trials=1, **params)


# Every field whose domain is an interval or a name, not a floor: decays,
# the schedule's and the lemmas' epsilon and delta, and the input law.
# loss.delta is Huber's transition point, whose domain (0, inf) the walk's
# 1.5 lies inside; its 0 is refused by a test of its own.
_DOMAIN_KEYS = ("rho", "rho_0", "rho_C", "epsilon", "delta", "input_spec")
# read in theory mode only, and refused in either mode
_THEORY_FIELDS = ("student.rho_0", "schedule.epsilon", "schedule.delta")


def _domain_fields(spec, path=""):
    for key, default in spec.items():
        if isinstance(default, dict):
            yield from _domain_fields(default, f"{path}{key}.")
        elif key in _DOMAIN_KEYS and path + key != "loss.delta":
            yield path + key, default


_DOMAINS = [(kind, path, value, mode) for kind in harness.SCHEMA
            for path, default in _domain_fields(harness.SCHEMA[kind])
            for value in (["foo"] if isinstance(default, str) else [0, 1.5])
            for mode in (("theory", "practical") if path in _THEORY_FIELDS
                         else (None,))]


@pytest.mark.parametrize(
    "kind, path, value, mode", _DOMAINS,
    ids=[f"{k}-{p}={v}" + ("-practical" if mode == "practical" else "")
         for k, p, v, mode in _DOMAINS])
def test_every_domain_is_checked_before_writing(tmp_path, kind, path, value,
                                                mode):
    # 0 passes the floor rule and 1.5 has no floor to break: each is
    # refused by the function that owns its domain, naming it.  The
    # schedule and rho_0 feed theory mode only; practical mode records
    # them in resolved_config.json, so it refuses them too.
    cfg = _with(kind, path, value)
    if mode is not None:
        cfg["student"] = {**cfg.get("student", {}), "rho_mode": mode}
    _refused_before_writing(tmp_path, cfg, rf"\b{path.split('.')[-1]}\b",
                            error=ParameterError)


def test_the_domain_walk_reaches_every_decay_and_probability():
    paths = {f"{kind}-{path}" for kind, path, _, _ in _DOMAINS}
    lemmas = {f"verify-lemma_params.{name}.{key}"
              for name, fn in ALL_LEMMAS.items()
              for key in inspect.signature(fn).parameters
              if key in _DOMAIN_KEYS}
    assert lemmas >= {"verify-lemma_params.spectral.rho_0",
                      "verify-lemma_params.concentration.delta",
                      "verify-lemma_params.truncation.epsilon"}
    assert paths >= lemmas | {
        f"{kind}-{path}" for kind in ("train", "sweep")
        for path in ("teacher.rho_C", "data.input_spec", "student.rho",
                     "student.rho_0", "schedule.epsilon", "schedule.delta")
    } | {"existence-rho", "existence-teacher.rho_C"}
    assert not any("loss.delta" in path for path in paths)


_WORKLOADS = importlib.util.spec_from_file_location(
    "perfbench_workloads", os.path.join(os.path.dirname(__file__), os.pardir,
                                        "perfbench", "workloads.py"))
workloads = importlib.util.module_from_spec(_WORKLOADS)
_WORKLOADS.loader.exec_module(workloads)

# config_hash of each shipped config as resolved before the floor rule
# (seed 0): the benchmark's workloads, full and small, and the README's
# train example.  The verify configs' hashes are those of the resolved
# config that lists every keyword of every lemma
_SHIPPED = {
    "readme": "f541782f0f6023466cd1c15cdfdc46a48d1b69326334097aeae841ed4dfeb115",
    "train_small-full-train":
        "aba8bbd4c91000e0b82614597adc03b3a40fffc101a380d14e93bce02d9bdf76",
    "train_small-small-train":
        "3831cc755ff2afd22b3ea5a60b21823abdb803cb4e5611112f839bca4d8905b4",
    "train_large-full-train":
        "1bcc2ee67b3b2e2d21b61c5c278f8009ce8c18831137c07ce891cff07af1e33a",
    "train_large-small-train":
        "b44555adfa8c4066eb8fee40ab3a3d4745fae295bc134126fb56087a09e2d6fb",
    "certify-full-verify":
        "b93c4c946a223bac7a648dd4484e417c1c97853e4c79c9f72a5d2a948ffff495",
    "certify-full-existence":
        "1ada4486a5d274469514576769f0772dbce20fde10c6b1eacc3ad20d97c926b3",
    "certify-small-verify":
        "83c0e9376975b865865fe92b9b4513eea61b8995c74aef43d277619f9e9da410",
    "certify-small-existence":
        "f0d6394407caf98211ffb0c2bf5849bf2e9100ef504b18186ba978eb25840476",
}


def test_shipped_configs_resolve_as_before(monkeypatch):
    # every config the benchmark and the README run passes every check and
    # resolves to the config it resolved to before; the run stops where it
    # would write its resolved config
    def begin(out, cfg, c, stamp):
        raise _Started(c)

    monkeypatch.setattr(harness, "_begin", begin)
    configs = {"readme": _readme_train_config()}
    for workload in workloads.WORKLOADS:
        for size, small in (("full", False), ("small", True)):
            for name, cfg in workloads.configs(workload, 0, small):
                configs[f"{workload}-{size}-{name}"] = cfg
    assert configs.keys() == _SHIPPED.keys()
    for key, cfg in configs.items():
        with pytest.raises(_Started) as started:
            run_experiment(cfg, out_dir="unused")
        (resolved,) = started.value.args
        assert config_hash(resolved) == _SHIPPED[key], (key, resolved)


def test_each_workload_enters_its_main_compute(tmp_path, monkeypatch):
    # the benchmark's setup_s ends where a run first enters one of these
    # harness bindings; a run that bypassed one would fold its compute
    # into setup_s
    entered = set()

    def recorder(name, real):
        def call(*args, **kwargs):
            entered.add(name)
            return real(*args, **kwargs)
        return call

    for names in workloads.MAIN_COMPUTE.values():
        for name in names:
            monkeypatch.setattr(harness, name,
                                recorder(name, getattr(harness, name)))
    for workload in workloads.WORKLOADS:
        for name, cfg in workloads.configs(workload, 0, small=True):
            entered.clear()
            run_experiment(cfg, out_dir=str(tmp_path / workload / name))
            assert entered == set(workloads.MAIN_COMPUTE[name]), \
                (workload, name)


def test_json_artifacts_are_strict(tmp_path):
    # summaries, configs, comparators and headers share one writer: sorted
    # keys, numpy scalars as numbers, and no bare NaN or Infinity
    path = tmp_path / "s.json"
    write_json(path, {"b": 1, "a": np.float64(0.5)})
    assert path.read_text() == '{\n "a": 0.5,\n "b": 1\n}\n'
    for bad in (float("nan"), np.float64("inf"), -math.inf):
        with pytest.raises(ValueError):
            write_json(path, {"loss_ratio": bad})


def test_verify_config_with_no_trials_is_refused(tmp_path):
    # run as `sysid verify --config`: a non-zero exit naming the field, and
    # no run directory, rather than a report that tested nothing
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"kind": "verify", "trials": 0}))
    done = subprocess.run(
        [sys.executable, "-m", "rnn_sysid.cli", "verify", "--config",
         str(cfg_path), "--out", str(tmp_path / "v")],
        env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "ParameterError: trials must be >= 1" in done.stderr
    assert not (tmp_path / "v").exists()


def test_verify_refuses_a_later_lemma_before_any_report(tmp_path):
    # a bad keyword of the second lemma is refused before the first one
    # runs: trials 0 by the config's floor, m 1 by the lemma's own check
    cfg = {"kind": "verify", "lemmas": ["tail", "linearization"], "m": 16,
           "trials": 1, "lemma_params": {"linearization": {"trials": 0}}}
    _refused_before_writing(tmp_path, cfg, re.escape(
        "config field lemma_params.linearization.trials must be >= 1"))
    cfg["lemma_params"] = {"linearization": {"m": 1}}
    _refused_before_writing(tmp_path, cfg, "m must be >= 2",
                            error=ParameterError)
    # a direct run is refused the same way
    with pytest.raises(ParameterError, match="m must be >= 2"):
        main(["verify", "--lemma", "tail", "--m", "1",
              "--out", str(tmp_path / "d")])
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("params", [
    {"omega_grid": [0.5]},
    # the default grid reaches 0.03, past omega_0 = 1/0.99 - 1
    {"rho_0": 0.99},
    # omega_0 = -1/3: decay_split names rho_0 before the ball is measured
    {"rho_0": 1.5},
    # log 0 fits no slope, and a 0 residual against a 0 bound has no margin
    {"omega_grid": [0.0, 0.001, 0.01]}])
def test_verify_refuses_an_omega_past_omega_0_before_any_report(tmp_path,
                                                                params):
    # the bound holds on the omega_0 ball only; the run stops before it
    # writes its config or the earlier lemma's report
    message = (r"^rho_0 must lie in \(0, 1\), got 1.5"
               if params.get("rho_0", 0) >= 1
               else r"^omega_grid entries must be > 0, got 0.0"
               if min(params.get("omega_grid", [1])) <= 0
               else "exceeds omega_0")
    cfg = {"kind": "verify", "lemmas": ["tail", "linearization"], "m": 16,
           "trials": 1, "lemma_params": {"linearization": params}}
    with pytest.raises(ParameterError, match=message):
        run_experiment(cfg, out_dir=str(tmp_path / "v"))
    assert not (tmp_path / "v").exists()
    # a direct call reaches the same check
    with pytest.raises(ParameterError, match=message):
        verify_linearization(m=16, trials=1, **params)


def test_existence_kind(tmp_path):
    cfg = {"kind": "existence", "seed": 0,
           "teacher": {"d_p": 3, "d": 2, "d_y": 2, "rho_C": 0.8, "seed": 7},
           "m_grid": [64, 128], "seeds": [0], "T_max": 6, "rho": 0.9,
           "probe": {"K": 2}}
    code, out = run_experiment(cfg, out_dir=str(tmp_path / "x"))
    assert code == 0
    summary = json.loads((tmp_path / "x" / "summary.json").read_text())
    assert summary["passed"] and summary["threshold"] == 1.0
    distance = summary["checks"]["distance"]
    assert distance["n_instances"] == 2 and distance["pass_fraction"] == 1.0
    assert "asserted" not in distance
    # the fit bound and the slope are recorded beside the verdict
    assert summary["checks"]["fit"]["asserted"] is False
    assert summary["checks"]["slope"]["asserted"] is False
    assert summary["observed"]["fit_error_slope_vs_m"] is not None
    assert len(summary["rows"]) == 2


@pytest.mark.parametrize("grid", ["m_grid", "seeds"])
def test_existence_over_no_cells_fails(grid, tmp_path):
    # an empty grid meets the distance bound nowhere: it tested nothing
    code, _ = run_experiment({"kind": "existence", grid: []},
                             out_dir=str(tmp_path / "x"))
    summary = json.loads((tmp_path / "x" / "summary.json").read_text())
    assert code == 1
    assert summary["checks"]["distance"]["status"] == "skipped"
    assert summary["pass_fraction"] == 0 and summary["passed"] is False
    assert summary["rows"] == []


def test_gap_zero_when_holdout_equals_train():
    sys = random_stable_system(3, 2, 2, 0.8, 0)
    ds = generate_dataset(sys, "iid_gaussian_unit", 0.0, 10, 1, seed=1)
    loss = make_loss("square", d_y=2)
    rnn = init_student(24, 2, 2, 0.9, 2)
    trace = sgd_train(rnn, ds, loss, 0.0, 40, seed=0, holdout=ds)
    gap = generalization_gap(trace, ds, ds)
    assert max(gap["gaps"]) == 0.0


def test_gap_counts_stop_at_the_run_length():
    sys = random_stable_system(3, 2, 2, 0.8, 0)
    ds = generate_dataset(sys, "iid_gaussian_unit", 0.0, 10, 2, seed=1)
    hold = generate_dataset(sys, "iid_gaussian_unit", 0.0, 10, 2, seed=2)
    loss = make_loss("square", d_y=2)
    rnn = init_student(16, 2, 2, 0.9, 2)
    trace = sgd_train(rnn, ds, loss, 1e-3, 6, seed=0, holdout=hold)
    gap = generalization_gap(trace, ds, hold)
    assert gap["ks"] == [6] and gap["gaps"][0] > 0
    # one step count gives no slope
    assert gap["exponent"] is None


def test_gap_refuses_mismatched_teacher():
    sys1 = random_stable_system(3, 2, 2, 0.8, 0)
    sys2 = random_stable_system(3, 2, 2, 0.8, 99)
    ds1 = generate_dataset(sys1, "iid_gaussian_unit", 0.0, 10, 2, seed=1)
    ds2 = generate_dataset(sys2, "iid_gaussian_unit", 0.0, 10, 2, seed=1)
    loss = make_loss("square", d_y=2)
    rnn = init_student(16, 2, 2, 0.9, 2)
    trace = sgd_train(rnn, ds1, loss, 1e-4, 20, seed=0, holdout=ds1)
    with pytest.raises(ValueError):
        generalization_gap(trace, ds1, ds2)


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


def test_cli_config_must_be_an_object(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[]")
    with pytest.raises(ConfigError, match=re.escape(f"{cfg_path} must hold "
                                                    "a JSON object")):
        main(["train", "--config", str(cfg_path)])


def test_cli_refuses_direct_flags_beside_config(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"kind": "verify", "lemmas": ["tail"],
                                    "m": 32, "trials": 2}))
    code = main(["verify", "--config", str(cfg_path), "--m", "16",
                 "--trials", "1", "--out", str(tmp_path / "v")])
    assert code == 2
    assert "--m, --trials" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_cli_direct_lemma(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["verify", "--lemma", "tail", "--m", "64", "--trials", "2"])
    out = capsys.readouterr().out
    assert "tail" in out and ("PASS" in out or "FAIL" in out)
    assert code in (0, 1)


def test_cli_all_lemmas_write_one_report_each(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["verify", "--lemma", "all", "--m", "64", "--trials", "1",
                 "--out", str(out)])
    names = ("concentration", "linearization", "spectral", "tail",
             "truncation")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["config.json", "resolved_config.json", "summary.json"]
        + ["report_%s.json" % n for n in names])
    for n in names:
        doc = json.loads((out / ("report_%s.json" % n)).read_text())
        assert doc["lemma_id"] == n
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary["results"]) == list(names)
    assert code == (0 if summary["all_passed"] else 1)
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed[:5]] == list(names)


def test_cli_direct_lemma_run_matches_its_config_run(tmp_path, capsys):
    # the flags are the config {"lemmas", "m", "trials"}: same reports and
    # exit code, and the same run directory but for its out_dir
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"kind": "verify", "lemmas": "tail",
                                    "m": 32, "trials": 2}))
    direct = main(["verify", "--lemma", "tail", "--m", "32", "--trials", "2",
                   "--out", str(tmp_path / "a")])
    config = main(["verify", "--config", str(cfg_path),
                   "--out", str(tmp_path / "b")])
    assert direct == config
    for name in ("config.json", "report_tail.json", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_artifacts_stamped_with_package_version(tmp_path):
    run_experiment(TRAIN_CFG, out_dir=str(tmp_path / "t"))
    summary = json.loads((tmp_path / "t" / "summary.json").read_text())
    assert summary["_meta"]["version"] == rnn_sysid.__version__


def test_cli_missing_config_errors():
    assert main(["train"]) == 2


_THREADS_SCRIPT = """
import sys
from rnn_sysid.harness import run_experiment
m, steps = int(sys.argv[2]), int(sys.argv[3])
run_experiment({
    "kind": "train", "seed": 5,
    "teacher": {"d_p": 4, "d": 2, "d_y": 2, "rho_C": 0.8, "seed": 0},
    "data": {"T": 16, "K": 16},
    "student": {"m": m, "rho_mode": "practical", "rho": 0.9},
    "loss": {"kind": "square"},
    "train": {"K_steps": steps, "holdout": True,
              "checkpoint_every": steps // 2},
}, out_dir=sys.argv[1])
"""


# the determinism config at a width that runs the holdout in the training
# forward, and at one above the width rule that runs it separately
@pytest.mark.parametrize("m, steps", [(128, 200), (TWO_ROW_MAX_M + 64, 20)])
def test_trace_same_at_every_blas_thread_count(tmp_path, m, steps):
    for threads in ("1", "2"):
        env = _env_with_src(OPENBLAS_NUM_THREADS=threads,
                            OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", _THREADS_SCRIPT,
                        str(tmp_path / threads), str(m), str(steps)],
                       env=env, check=True, timeout=300)
    for rel in ("trace.jsonl", "summary.json",
                f"checkpoints/step_{steps:06d}/W.bin"):
        assert ((tmp_path / "1" / rel).read_bytes()
                == (tmp_path / "2" / rel).read_bytes()), rel


_MEMORY_SCRIPT = """
import os, sys
from rnn_sysid.harness import run_experiment

def resident():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

def verify(m, trials, out):
    run_experiment({"kind": "verify", "seed": 3, "m": m, "trials": trials,
                    "lemmas": ["truncation", "linearization"]}, out_dir=out)

verify(32, 1, os.path.join(sys.argv[1], "warm"))
before = resident()
verify(1024, 2, os.path.join(sys.argv[1], "m1024"))
print(resident() - before)
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and hasattr(ctypes.CDLL(None), "malloc_trim")),
                    reason="needs /proc and glibc's malloc_trim")
def test_verify_returns_freed_memory(tmp_path):
    # lemmas at m = 1024 free several float64 m x m arrays each; what the
    # process keeps afterwards must be less than one of them (8 MB)
    done = subprocess.run([sys.executable, "-c", _MEMORY_SCRIPT, str(tmp_path)],
                          env=_env_with_src(), check=True, timeout=300,
                          capture_output=True, text=True)
    grown = int(done.stdout.split()[-1])
    assert grown < 8 * 1024 ** 2, f"resident memory grew by {grown} bytes"
