import copy
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from oracles import comparator_rank_profile, dense_W_star
from rnn_sysid import existence
from rnn_sysid.existence import (ConditioningError, FactoredW,
                                 construct_comparator, gram_inverses,
                                 save_comparator, verify_existence)
from rnn_sysid.harness import run_experiment
from rnn_sysid.linalg import frob
from rnn_sysid.losses import make_loss
from rnn_sysid.student import (forward_rescaled, linearized_forward,
                               sample_init)
from rnn_sysid.teacher import (generate_dataset, impulse_response,
                               random_stable_system)


def _init(m, d, d_y, seed=0):
    return sample_init(np.random.default_rng(seed), m, d, d_y)


TEACHER = random_stable_system(4, 3, 2, 0.8, seed=7)


def test_gram_inverses_validated():
    W0, A0, B = _init(256, 3, 2)
    grams = gram_inverses(W0, A0, B, 8)
    # lags 0..T_max-2: the core reads no further
    assert len(grams.P1) == len(grams.P2) == 7
    assert grams.resid_max <= 1e-8
    L = B
    np.testing.assert_allclose(grams.P1[0] @ (L @ L.T), np.eye(2), atol=1e-8)


@pytest.mark.parametrize("T_max", [1, 2, 12])
def test_gram_ladders_stop_at_the_lags_the_comparator_reads(T_max,
                                                            monkeypatch):
    # L reaches the top M_t0's lag T_max-1, R the core's T_max-2; P1[0]
    # (A*) is inverted at every T_max
    depths = []
    real = existence.lag_ladder

    def recorded(W, A, rho, tau):
        depths.append(tau)
        return real(W, A, rho, tau)

    monkeypatch.setattr(existence, "lag_ladder", recorded)
    W0, A0, B = _init(256, 3, 2)
    grams = gram_inverses(W0, A0, B, T_max)
    assert depths == [T_max - 1, T_max - 2]
    assert (len(grams.L), len(grams.R)) == (T_max, T_max - 1)
    assert (len(grams.P1), len(grams.P2)) == (max(T_max - 1, 1), T_max - 1)


def test_conditioning_error_on_degenerate_directions():
    W0, A0, B = _init(64, 3, 2)
    A0[:, 1] = A0[:, 0]  # exactly singular input Gram
    with pytest.raises(ConditioningError):
        gram_inverses(W0, A0, B, 4)


def test_lag_zero_matched_exactly():
    W0, A0, B = _init(256, 3, 2)
    comp = construct_comparator(W0, A0, B, TEACHER, 0.9, 8)
    np.testing.assert_allclose(B @ comp.A_star, impulse_response(TEACHER, 1)[0],
                               atol=1e-10)


def test_linearized_transfer_matches_teacher_lags():
    # through the linearization, lag t0 of the comparator reproduces
    # G C^t0 D up to the concentration-scale cross terms
    m = 1024
    W0, A0, B = _init(m, 3, 2, seed=3)
    T_max = 8
    comp = construct_comparator(W0, A0, B, TEACHER, 0.9, T_max)
    dW = comp.left.T @ (comp.core @ comp.right)
    ir = impulse_response(TEACHER, T_max)
    # impulses through the linearized map recover per-lag transfer matrices
    for j in range(TEACHER.d):
        x = np.zeros((T_max, TEACHER.d))
        x[0, j] = 1.0
        F = linearized_forward(W0, A0, dW, comp.A_star, B, 0.9, x,
                               [T_max - 1])[0]
        for t0 in range(T_max):
            np.testing.assert_allclose(F[t0], ir[t0][:, j], atol=0.2)


def test_distances_within_bound():
    W0, A0, B = _init(512, 3, 2, seed=1)
    comp = construct_comparator(W0, A0, B, TEACHER, 0.9, 10)
    assert comp.dist_W <= comp.distance_bound
    assert comp.dist_A <= comp.distance_bound


def test_rank_profile_low_rank():
    W0, A0, B = _init(256, 3, 2, seed=2)
    T_max = 6
    comp = construct_comparator(W0, A0, B, TEACHER, 0.9, T_max)
    sv = comparator_rank_profile(comp)
    rank_cap = T_max * min(TEACHER.d, TEACHER.d_y)
    assert np.all(sv[rank_cap:] <= 1e-10 * sv[0])


def test_verify_existence_report(tmp_path):
    W0, A0, B = _init(512, 3, 2, seed=4)
    comp = construct_comparator(W0, A0, B, TEACHER, 0.9, 10)
    ds = generate_dataset(TEACHER, "iid_gaussian_unit", 0.0, 10, 4, seed=5)
    loss = make_loss("square", d_y=2)
    report = verify_existence(comp, ds, loss, W0, B)
    assert report["distances_ok"]
    assert report["fit_error"] < 1.5  # coarse scale check at small m
    # square loss against the teacher's own outputs: gap <= fit_error^2
    assert report["loss_gap"] <= report["fit_error"] ** 2 + 1e-12
    save_comparator(comp, report, tmp_path / "comp")
    doc = json.loads((tmp_path / "comp" / "comparator.json").read_text())
    # format 2: one flat record, each value once, as JSON numbers and booleans
    assert doc == {"format_version": 2, "T_max": 10, "b": comp.b,
                   "rho": 0.9, **comp.meta, **report}
    assert sorted(doc) == sorted(
        ["format_version", "T_max", "b", "rho", "cond_max", "resid_max",
         "rho_C", "fit_error", "loss_gap", "dist_W", "dist_A",
         "distance_bound", "distances_ok", "theorem_error_bound", "T_eval",
         "m"])
    assert doc["distances_ok"] is True
    assert type(doc["m"]) is int and doc["m"] == 512
    assert type(doc["T_eval"]) is int and type(doc["T_max"]) is int


def test_verify_existence_leaves_the_comparator_unchanged():
    W0, A0, B = _init(256, 3, 2, seed=4)
    comp = construct_comparator(W0, A0, B, TEACHER, 0.9, 8)
    before = copy.deepcopy(comp)
    ds = generate_dataset(TEACHER, "iid_gaussian_unit", 0.0, 8, 2, seed=5)
    report = verify_existence(comp, ds, make_loss("square", d_y=2), W0, B)
    for f in dataclasses.fields(comp):
        np.testing.assert_array_equal(getattr(comp, f.name),
                                      getattr(before, f.name), err_msg=f.name)
    assert report["theorem_error_bound"] == comp.theorem_error_bound


def test_verify_existence_runs_every_probe_in_one_block_forward(monkeypatch):
    # K = 4 probes of T_eval = 12 steps: one forward of T_eval - 1 products
    # through W*, not one forward of 11 products per probe (44)
    W0, A0, B = _init(256, 3, 2, seed=4)
    comp = construct_comparator(W0, A0, B, TEACHER, 0.9, 12)
    ds = generate_dataset(TEACHER, "iid_gaussian_unit", 0.0, 12, 4, seed=5)
    calls = {"forward": 0, "product": 0}
    forward, product = existence.forward_rescaled, FactoredW.__rmatmul__

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(existence, "forward_rescaled",
                        counted("forward", forward))
    monkeypatch.setattr(FactoredW, "__rmatmul__", counted("product", product))
    report = verify_existence(comp, ds, make_loss("square", d_y=2), W0, B)
    assert report["T_eval"] == 12
    assert calls == {"forward": 1, "product": 11}


def test_fit_error_shrinks_with_m():
    errs = []
    for m in (256, 1024):
        W0, A0, B = _init(m, 3, 2, seed=6)
        comp = construct_comparator(W0, A0, B, TEACHER, 0.9, 8)
        ds = generate_dataset(TEACHER, "iid_gaussian_unit", 0.0, 8, 3, seed=8)
        loss = make_loss("square", d_y=2)
        report = verify_existence(comp, ds, loss, W0, B)
        errs.append(report["fit_error"])
    assert errs[1] < errs[0]


def test_rank_profile_matches_dense_svd():
    # the factored profile agrees with the SVD of the dense W* - W0
    W0, A0, B = _init(256, 3, 2, seed=2)
    T_max = 6
    comp = construct_comparator(W0, A0, B, TEACHER, 0.9, T_max)
    dense = np.linalg.svd(dense_W_star(comp, W0) - W0, compute_uv=False)
    sv = comparator_rank_profile(comp)
    rank = (T_max - 1) * min(TEACHER.d, TEACHER.d_y)
    np.testing.assert_allclose(sv[:rank], dense[:rank], rtol=1e-10,
                               atol=1e-12 * dense[0])
    assert np.all(dense[rank:] <= 1e-10 * dense[0])


@pytest.mark.parametrize("m", [256, 1024])
def test_factored_comparator_matches_dense_W_star(m):
    # fit_error through the factored W*, and dist_W from the two Grams,
    # against the forward and the Frobenius norm of the dense W*
    W0, A0, B = _init(m, 3, 2, seed=9)
    comp = construct_comparator(W0, A0, B, TEACHER, 0.9, 10)
    ds = generate_dataset(TEACHER, "iid_gaussian_unit", 0.0, 10, 3, seed=11)
    report = verify_existence(comp, ds, make_loss("square", d_y=2), W0, B)
    W_star = dense_W_star(comp, W0)
    fit_error = max(float(np.max(np.linalg.norm(
        forward_rescaled(W_star, comp.A_star, B, 0.9, x) - y, axis=1)))
        for x, y in zip(ds.inputs, ds.clean_outputs))
    assert report["fit_error"] == pytest.approx(fit_error, rel=1e-12)
    assert comp.dist_W == pytest.approx(frob(W_star - W0), rel=1e-12)


def test_existence_cell_holds_one_m_by_m_array():
    # W0 is the only m x m array of a cell: the dense W* held beside it
    # peaks at 2.09 float64 m x m arrays
    m, T_max = 1024, 12
    ds = generate_dataset(TEACHER, "iid_gaussian_unit", 0.0, T_max, 4, seed=3)
    loss = make_loss("square", d_y=2)
    tracemalloc.start()
    try:
        W0, A0, B = sample_init(np.random.default_rng([0, m]), m, 3, 2)
        comp = construct_comparator(W0, A0, B, TEACHER, 0.9, T_max)
        verify_existence(comp, ds, loss, W0, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * m * m) < 1.5


def test_existence_run_frees_each_cell_before_the_next(tmp_path):
    # two seeds at one width: a W0 kept until the next cell's draw replaces
    # it peaks at 2 float64 m x m arrays
    m = 1024
    cfg = {"kind": "existence", "seed": 0, "m_grid": [m], "seeds": [0, 1],
           "T_max": 6, "probe": {"K": 1}}
    run_experiment({**cfg, "m_grid": [64]}, out_dir=str(tmp_path / "warm"))
    tracemalloc.start()
    try:
        code, _ = run_experiment(cfg, out_dir=str(tmp_path / "two"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak / (8 * m * m) < 1.5


def test_existence_run_past_4096(tmp_path):
    # W* stays factored at every width; there is no cap on m
    cfg = {"kind": "existence", "seed": 0,
           "teacher": {"d_p": 3, "d": 2, "d_y": 2, "rho_C": 0.8, "seed": 7},
           "m_grid": [4100], "T_max": 4, "rho": 0.9, "probe": {"K": 1}}
    code, _ = run_experiment(cfg, out_dir=str(tmp_path / "big"))
    assert code == 0
    summary = json.loads((tmp_path / "big" / "summary.json").read_text())
    assert np.isfinite(summary["rows"][0]["fit_error"])
