import inspect
import json
import tracemalloc
import warnings

import numpy as np
import pytest

import rnn_sysid.verify
from oracles import longdouble_forward
from rnn_sysid.linalg import operator_norm_fast, power_dtype
from rnn_sysid.student import sample_init, sample_W0
from rnn_sysid.teacher import ParameterError
from rnn_sysid.verify import (ALL_LEMMAS, LemmaReport, _at_most, _finish,
                              _power_norms, _unit_frob,
                              linearization_residuals,
                              run_lemma, tail_norms,
                              verify_concentration,
                              verify_linearization, verify_spectral,
                              verify_tail, verify_truncation)


def test_report_save_roundtrip(tmp_path):
    rep = LemmaReport(lemma_id="demo", m=8, trials=2, seed=0,
                      checks={"x": {"pass_fraction": 1.0, "status": "ok"}},
                      pass_fraction=1.0, passed=True)
    path = tmp_path / "r.json"
    rep.save(path)
    doc = json.loads(path.read_text())
    assert doc["lemma_id"] == "demo"
    assert doc["passed"] is True
    assert doc["format_version"] == 2


def test_report_is_strict_json(tmp_path):
    # with no grid points, (c) and its negative control have no instances;
    # no summary of them may be written as a bare NaN
    rep = verify_spectral(m=64, trials=1, seed=0, grid_points=0)
    assert rep.checks["negative_control_c"]["status"] == "skipped"
    rep.save(tmp_path / "r.json")

    def refuse(name):
        raise ValueError(f"non-finite constant {name} in a report")

    json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse)
    rep.observed["x"] = float("inf")
    with pytest.raises(ValueError):
        rep.save(tmp_path / "r.json")


@pytest.mark.parametrize("observed", [[0.0, 0.0, 0.0],
                                      [np.inf, np.nan, -np.inf]])
def test_check_that_measured_nothing_is_degenerate_and_fails(observed):
    # all zeros pass an upper bound, but a check that read nothing tests
    # nothing: a healthy check beside it does not rescue the report
    verdict = _finish({"x": (_at_most, [(o, 1.0) for o in observed]),
                       "y": (_at_most, [(0.5, 1.0)])}, ("x", "y"))
    assert verdict["checks"]["x"] == {"n_instances": 3, "pass_fraction": 0.0,
                                      "status": "degenerate",
                                      "worst_margin": None}
    assert verdict["checks"]["y"]["worst_margin"] == 0.5
    assert verdict["pass_fraction"] == 0.0 and verdict["passed"] is False


def test_every_asserted_check_reports_a_finite_margin():
    # the five lemmas at small widths: each asserted check measured
    # something and says how close it came to its bound
    reps = [verify_spectral(m=128, trials=2, seed=0),
            verify_concentration(m=256, tau=3, d=2, trials=2, seed=0),
            verify_tail(m=64, trials=2, seed=0),
            verify_linearization(m=64, trials=2, seed=0),
            verify_truncation(m=256, trials=2, seed=0)]
    for rep in reps:
        for name, entry in rep.checks.items():
            assert entry["status"] != "degenerate", (rep.lemma_id, name)
            if entry.get("asserted", True):
                assert np.isfinite(entry["worst_margin"]), (rep.lemma_id, name)
    # the schedule-level error is the tail past T_max: far below its
    # bound, but read, not 0
    assert 0.0 < reps[-1].checks["app"]["worst_margin"] < 1e-100


def test_spectral_small_m():
    rep = verify_spectral(m=128, trials=5, seed=0)
    for name in ("a", "b", "c", "d"):
        assert rep.checks[name]["status"] == "ok"
    # loose power bounds hold essentially always at this size
    assert rep.checks["a"]["pass_fraction"] == 1.0
    assert rep.checks["b"]["pass_fraction"] == 1.0
    # the negative control must actually break the 2 sqrt(k) bound
    assert rep.checks["negative_control_c"]["pass_fraction"] == 1.0
    # margins: above 1 only where an instance went the wrong way
    assert rep.checks["a"]["worst_margin"] <= 1.0
    assert rep.checks["negative_control_c"]["worst_margin"] <= 1.0
    # a margin above 1 marks exactly the checks with a failed instance
    for entry in rep.checks.values():
        assert (entry["worst_margin"] <= 1.0) == (entry["pass_fraction"] == 1.0)


def test_spectral_deterministic():
    r1 = verify_spectral(m=64, trials=3, seed=4)
    r2 = verify_spectral(m=64, trials=3, seed=4)
    assert r1.to_dict() == r2.to_dict()


@pytest.mark.parametrize("m", [128, 256])
def test_spectral_upper_values_cover_exact_power_norms(m):
    # with every bound infinite, each value _power_norms gives is its upper
    # value s^k; it must cover the exact ||W0^k||_2 of explicit powers over
    # verify_spectral's k range 1..4L.  (d)'s ball value (rho (s + omega_0))^t
    # must cover the exact ||(rho W)^t||_2 for W on the boundary of the
    # omega_0 ball: random draws, and the aligned W0 + omega_0 u1 v1^T, whose
    # norm is sigma_1 + omega_0 exactly (the band of s is what covers it)
    rho_0 = 0.9
    omega_0 = 1.0 / rho_0 - 1.0
    rho = rho_0**2 / (1.0 + 10.0 * np.log(m) ** 2 / np.sqrt(m))
    ks = range(1, 4 * max(1, int(np.sqrt(m) / np.log(m))) + 1)
    for r in range(3):
        rng = np.random.default_rng([0, r])
        W0 = sample_W0(rng, m)
        s, obs = _power_norms(W0, {"all": [(k, np.inf) for k in ks]}, r)
        for k, (o, _) in zip(ks, obs["all"]):
            assert o >= np.linalg.norm(np.linalg.matrix_power(W0, k), 2), k
        ball = rho * (s + omega_0)
        U, _, Vt = np.linalg.svd(W0)
        for W in (W0 + omega_0 * _unit_frob(rng, (m, m)),
                  W0 + omega_0 * _unit_frob(rng, (m, m)),
                  W0 + omega_0 * np.outer(U[:, 0], Vt[0])):
            for t in ks:
                exact = np.linalg.norm(np.linalg.matrix_power(rho * W, t), 2)
                assert ball**t >= exact, (r, t)


def test_spectral_trial_draws_and_factors_only_W0(monkeypatch):
    # (d) reads the ball value, so a trial takes one k = 1 norm and draws no
    # perturbation
    calls = {"operator_norm_fast": 0, "_unit_frob": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(rnn_sysid.verify, name,
                            counting(name, getattr(rnn_sysid.verify, name)))
    verify_spectral(m=64, trials=1, seed=0)
    assert calls == {"operator_norm_fast": 1, "_unit_frob": 0}


@pytest.mark.parametrize("m", [2048, 1000, 1, 100, 256, 300, 512])
def test_blocked_draw_equals_one_draw_then_cast(m):
    # 1000, 100 and 300 are not multiples of the row block BLOCK_ROWS, and
    # 1 lies below it; the generator is left where one draw leaves it, so
    # later draws are unchanged too
    rng, ref = np.random.default_rng([5, m]), np.random.default_rng([5, m])
    W0 = sample_W0(rng, m, power_dtype(m))
    one = ref.normal(0.0, np.sqrt(1.0 / m), size=(m, m)).astype(power_dtype(m))
    assert W0.dtype == one.dtype and W0.tobytes() == one.tobytes()
    assert rng.normal() == ref.normal()


def test_spectral_trial_holds_one_narrow_W0():
    # a trial draws W0 straight into its float32 copy, and the power norms
    # apply W0^T in row form, with no transposed copy: 1.38 float32 m x m
    # arrays (2.34 with the copy; drawing in float64 and casting peaks at
    # 3.0)
    m = 2048
    verify_spectral(m=64, trials=1, seed=0)  # first-call imports, untraced
    tracemalloc.start()
    try:
        verify_spectral(m=m, trials=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (4 * m * m) < 1.5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectral_shortcut_norm_from_float32_is_an_upper_value(seed):
    # the upper value s takes ||W0|| from the float32 copy of a trial's W0,
    # raised by the band 2 eps sqrt(m); on W0 plus a point of the omega_0
    # ball as well, that covers the float64 norm, and
    # the float32 value lies within the band of it (measured <= 6e-9
    # relative at m = 2048 and 4096, against a band of 1.1e-5 and 1.5e-5)
    m = 2048
    rng = np.random.default_rng([seed, 0])
    W0 = sample_W0(rng, m)
    W = W0 + (1.0 / 0.9 - 1.0) * _unit_frob(rng, (m, m))
    band = 2.0 * np.finfo(np.float32).eps * np.sqrt(m)
    sigma = operator_norm_fast(W.astype(np.float32))
    exact = operator_norm_fast(W)
    assert exact <= sigma * (1.0 + band)
    assert abs(sigma / exact - 1.0) <= band


def test_concentration_small_scale():
    rep = verify_concentration(m=1024, tau=4, d=3, trials=4, seed=0)
    assert rep.checks["a"]["pass_fraction"] == 1.0
    assert rep.checks["c"]["pass_fraction"] == 1.0
    # the recorded full-range near-isometry check is informational
    assert rep.checks["d_all_t"]["asserted"] is False
    assert rep.checks["c_b_side"]["asserted"] is False
    assert rep.checks["c"]["worst_margin"] <= 1.0


def test_concentration_cross_terms_match_literal_pairs():
    # reference: every t != t' pair in turn, with explicit powers of W0;
    # the report takes them from one tau x tau product per side
    m, tau, d, d_y, trials, seed = 256, 4, 3, 2, 2, 3
    rep = verify_concentration(m=m, tau=tau, d=d, d_y=d_y, trials=trials,
                               seed=seed)
    a_max = b_max = 0.0
    for r in range(trials):
        rng = np.random.default_rng([seed, r])
        W0, A0, B = sample_init(rng, m, d, d_y)
        v2, u2 = _unit_frob(rng, (d,)), _unit_frob(rng, (d,))
        v1, u1 = _unit_frob(rng, (d_y,)), _unit_frob(rng, (d_y,))
        Wt = [np.linalg.matrix_power(W0, t) for t in range(tau)]
        for t in range(tau):
            for tp in range(tau):
                if t != tp:
                    a_max = max(a_max, abs(u2 @ (Wt[t] @ A0).T
                                           @ (Wt[tp] @ A0) @ v2))
                    b_max = max(b_max, abs(u1 @ (B @ Wt[t]) @ (B @ Wt[tp]).T
                                           @ v1) * d_y / m)
    cross_bound = 24.0 * tau * d**2 * np.log(m) / np.sqrt(m)
    for name, ref in (("c", a_max), ("c_b_side", b_max)):
        assert rep.checks[name]["n_instances"] == trials * tau * (tau - 1)
        assert rep.checks[name]["worst_margin"] * cross_bound \
            == pytest.approx(ref, rel=1e-12)


def test_concentration_and_tail_read_exact_norms(monkeypatch):
    # operator_norm is a full SVD, sized for the teacher's small matrices;
    # neither lemma may call it
    def refuse(*args, **kwargs):
        raise AssertionError("operator_norm called")

    monkeypatch.setattr("rnn_sysid.verify.operator_norm", refuse,
                        raising=False)
    rep = verify_concentration(m=256, tau=3, d=2, trials=2, seed=0)
    assert rep.checks["b"]["n_instances"] == 2 * 3
    assert rep.checks["d_all_t"]["n_instances"] == 2 * 3
    assert verify_tail(m=128, tau_grid=(1, 2, 4, 8), trials=2, seed=0).passed


def test_tail_bounds_and_monotonicity():
    rep = verify_tail(m=128, tau_grid=(1, 2, 4, 8), trials=5, seed=0)
    assert rep.passed
    assert rep.checks["monotone"]["pass_fraction"] == 1.0
    assert max(rep.checks["single"]["worst_margin"],
               rep.checks["double"]["worst_margin"]) < 1.0


def test_tail_trials_hold_two_m_by_m_arrays():
    # a trial builds W in the perturbation's buffer, drops W0 before Q2 is
    # drawn and frees W and Q2 before the next trial draws.  Holding W0, U,
    # W and Q2, and the last trial's arrays beside the next draw, peaked at
    # 4.26 float64 m x m arrays
    m = 1024
    verify_tail(m=16, trials=1, seed=0)  # warm-up, untraced
    tracemalloc.start()
    try:
        verify_tail(m=m, trials=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * m * m) < 2.5


def test_linearization_zero_omega_residual():
    # omega = 0 would make the log-log fit degenerate; instead check that
    # the residual at the smallest omega is tiny and the slope is ~2
    rep = verify_linearization(m=256, omega_grid=(1e-3, 1e-2), trials=4, seed=0)
    assert rep.checks["bound"]["pass_fraction"] == 1.0
    assert abs(rep.observed["mean_slope"] - 2.0) < 0.2


def test_linearization_rejects_omega_beyond_ball():
    with pytest.raises(ValueError):
        verify_linearization(m=64, omega_grid=(0.5,), trials=1, seed=0)


def test_linearization_residual_matches_longdouble_remainder():
    # the remainder is propagated, not differenced: differencing two float64
    # forwards loses half the digits at omega = 1e-3 (8.1e-10 relative here,
    # against 7e-13 for the propagated remainder).  That 7e-13 is the
    # long-double difference's own error, so 1e-12 would leave no margin
    m, T, d, d_y, rho = 64, 12, 4, 2, 0.9
    omega_grid = inspect.signature(
        verify_linearization).parameters["omega_grid"].default
    rng = np.random.default_rng([0, 0])
    W0, A0, B = sample_init(rng, m, d, d_y)
    U = _unit_frob(rng, (m, m))
    V = _unit_frob(rng, (m, d))
    x = rng.normal(size=(T, d)) / np.sqrt(d)
    residuals = linearization_residuals(W0, A0, B, U, V, rho, x, omega_grid)
    F0, J = longdouble_forward(W0, A0, B, rho, x, U, V)
    for omega, res in zip(omega_grid, residuals):
        omega = np.longdouble(omega)
        F = longdouble_forward(W0 + omega * U.astype(np.longdouble),
                               A0 + omega * V.astype(np.longdouble),
                               B, rho, x, U, V)[0]
        ref = float(np.max(np.linalg.norm(F - F0 - omega * J, axis=1)))
        assert abs(res - ref) <= 1e-10 * ref


def test_linearization_trial_forms_one_endpoint_at_a_time():
    # a trial holds W0, U and one W0 + omega U; forming W = W0 + omega U
    # beside the JVP's W - W0 peaked at 4.06 float64 m x m arrays
    m = 1024
    verify_linearization(m=16, trials=1, seed=0)  # warm-up, untraced
    tracemalloc.start()
    try:
        verify_linearization(m=m, trials=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * m * m) < 3.5


def test_linearization_slope_catches_a_residual_not_scaled_by_omega_squared(
        monkeypatch):
    # injected defect: each residual divided by omega^2, so it no longer
    # grows like omega^2.  The slope check sees it; the bound does not
    real = rnn_sysid.verify.linearization_residuals

    def unscaled(*args):
        omega_grid = args[-1]
        return [r / w**2 for r, w in zip(real(*args), omega_grid)]

    monkeypatch.setattr(rnn_sysid.verify, "linearization_residuals", unscaled)
    rep = verify_linearization(m=256, trials=3, seed=0)
    assert rep.checks["slope"]["pass_fraction"] == 0.0
    assert not rep.passed


def test_truncation_slope_catches_sums_taken_at_rho_1(monkeypatch):
    # injected defect: the truncated sums taken at rho = 1, so the error no
    # longer decays like rho_0^tau.  The slope check sees it; the bound
    # does not
    real = rnn_sysid.verify.linearized_forward

    def undamped(W0, A0, dW, A, B, rho, x, taus):
        return real(W0, A0, dW, A, B, 1.0, x, taus)

    monkeypatch.setattr(rnn_sysid.verify, "linearized_forward", undamped)
    rep = verify_truncation(m=256, trials=3, seed=0)
    assert rep.checks["slope"]["pass_fraction"] == 0.0
    assert not rep.passed


def test_spectral_d_catches_the_ball_taken_at_rho_0(monkeypatch):
    # injected defect: the omega_0-ball scaled by rho_0 instead of
    # rho = rho_1 rho_0^2, so ||rho^t W^t|| loses its rho_1 rho_0 factor.
    # Only (d) reads rho
    real = rnn_sysid.verify.decay_split

    def at_rho_0(rho_0, m):
        rho_1, _, omega_0, L = real(rho_0, m)
        return rho_1, rho_0, omega_0, L

    monkeypatch.setattr(rnn_sysid.verify, "decay_split", at_rho_0)
    rep = verify_spectral(m=256, trials=3, seed=0)
    assert rep.checks["d"]["pass_fraction"] < 0.95
    assert all(rep.checks[n]["pass_fraction"] == 1.0 for n in "abc")
    assert not rep.passed


def test_tail_catches_series_summed_at_rho_1(monkeypatch):
    # injected defect: both tails summed at rho = 1, so their terms stop
    # decaying; each asserted check sees it
    real = rnn_sysid.verify.tail_norms

    def undamped(W, A0, B, Q, Q2, Z, rho, tau_grid):
        return real(W, A0, B, Q, Q2, Z, 1.0, tau_grid)

    monkeypatch.setattr(rnn_sysid.verify, "tail_norms", undamped)
    rep = verify_tail(m=64, trials=3, seed=0)
    for name in ("single", "double", "monotone"):
        assert rep.checks[name]["pass_fraction"] < 0.95
    assert not rep.passed


def _student_law(monkeypatch):
    # injected defect: W0 drawn from the law the student trains from,
    # N(0, 1/(rho m)) with rho = 0.9, not the lemmas' N(0, 1/m)
    def student_init(rng, m, d, d_y):
        W0, A0, B = sample_init(rng, m, d, d_y)
        return W0 * 0.9 ** -0.5, A0, B

    def student_W0(rng, m, dtype):
        return sample_W0(rng, m, dtype) * 0.9 ** -0.5

    monkeypatch.setattr(rnn_sysid.verify, "sample_init", student_init)
    monkeypatch.setattr(rnn_sysid.verify, "sample_W0", student_W0)


def test_concentration_a_catches_the_student_law(monkeypatch):
    _student_law(monkeypatch)
    rep = verify_concentration(m=256, tau=4, d=3, trials=3, seed=0)
    assert rep.checks["a"]["pass_fraction"] < 0.95
    assert not rep.passed


def test_spectral_c_catches_the_student_law(monkeypatch):
    _student_law(monkeypatch)
    rep = verify_spectral(m=256, trials=3, seed=0)
    assert rep.checks["c"]["pass_fraction"] < 0.95
    assert not rep.passed


def test_truncation_slope_and_schedule_level_error():
    rep = verify_truncation(m=1024, tau_grid=(4, 8, 12, 16, 20), trials=4,
                            seed=0)
    assert rep.checks["bound"]["pass_fraction"] == 1.0
    assert rep.checks["app"]["pass_fraction"] == 1.0
    assert abs(rep.observed["pooled_slope"] - np.log(0.9)) \
        <= 0.2 * abs(np.log(0.9))


def test_truncation_with_one_tau_fits_no_slope():
    # one point fits no line: the pooled slope check is skipped like its
    # per-trial twin, with no fit (and no polyfit warning) behind it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_truncation(m=64, tau_grid=[8], trials=1, seed=0)
    for name in ("slope", "slope_per_trial"):
        assert rep.checks[name]["status"] == "skipped"
        assert rep.checks[name]["n_instances"] == 0
    assert rep.observed["pooled_slope"] is None
    assert rep.checks["bound"]["status"] == rep.checks["app"]["status"] == "ok"


def test_run_lemma_dispatch():
    rep = run_lemma("tail", m=64, trials=2, seed=1)
    assert rep.lemma_id == "tail"
    with pytest.raises(ValueError):
        run_lemma("nonexistent")


@pytest.mark.parametrize("name", sorted(ALL_LEMMAS))
def test_run_lemma_refuses_fewer_than_one_trial(name):
    # a report over no trials tests nothing; the refusal names the field
    for trials in (0, -1):
        with pytest.raises(ParameterError, match="trials"):
            run_lemma(name, m=16, trials=trials)


@pytest.mark.parametrize("key, value", [("m", 1), ("m", 0), ("m", -3),
                                        ("m", 2.5), ("trials", 2.5),
                                        ("seed", -1)])
@pytest.mark.parametrize("name", sorted(ALL_LEMMAS))
def test_run_lemma_refuses_a_bad_width_trial_count_or_seed(name, key, value):
    # below m = 2 the bounds' log m is zero or undefined: a lemma would
    # crash part way, or report on a width the claims say nothing about;
    # a fractional count or a negative seed would crash at its first use
    kwargs = {"m": 16, "trials": 1, "seed": 0, key: value}
    with pytest.raises(ParameterError, match=f"^{key} must be"):
        run_lemma(name, **kwargs)


def test_spectral_has_a_default_width():
    # every verifier has one, so the default verify config can run
    rep = run_lemma("spectral", trials=1)
    assert rep.lemma_id == "spectral" and rep.m == 1024


def test_threshold_is_fixed():
    # no caller can score a lemma against a lower pass fraction than 0.95
    for fn in ALL_LEMMAS.values():
        assert "threshold" not in inspect.signature(fn).parameters
    verdict = _finish({"x": (_at_most, [(0.5, 1.0)])}, ("x",))
    with pytest.raises(TypeError):
        LemmaReport(lemma_id="demo", m=8, trials=1, seed=0, threshold=0.0,
                    **verdict)
    assert LemmaReport(lemma_id="demo", m=8, trials=1, seed=0,
                       **verdict).to_dict()["threshold"] == 0.95


@pytest.mark.parametrize("key", ["checks", "pass_fraction", "passed"])
def test_no_report_without_a_verdict(key):
    # a report's verdict is `_finish`'s, never a placeholder
    verdict = _finish({"x": (_at_most, [(0.5, 1.0)])}, ("x",))
    del verdict[key]
    with pytest.raises(TypeError, match=key):
        LemmaReport(lemma_id="demo", m=8, trials=1, seed=0, **verdict)


def test_pass_fraction_is_worst_asserted_check():
    rep = verify_tail(m=64, trials=3, seed=0)
    fractions = [rep.checks[n]["pass_fraction"]
                 for n in ("single", "double", "monotone")]
    assert rep.pass_fraction == min(fractions)


def test_all_checks_skipped_is_not_a_pass():
    # an empty omega grid leaves both asserted checks without instances
    rep = verify_linearization(m=16, omega_grid=(), trials=1, seed=0)
    assert rep.checks["bound"]["status"] == "skipped"
    assert rep.checks["slope"]["status"] == "skipped"
    assert rep.passed is False
    assert np.isfinite(rep.pass_fraction)


def test_tail_norms_match_literal_sums():
    # reference: the two tail series summed term by term with explicit powers
    m, d, d_y, rho, N = 64, 3, 2, 0.85, 20
    tau_grid = (1, 2, 5, 9)
    rng = np.random.default_rng(0)
    W, A0, B = sample_init(rng, m, d, d_y)
    Q = rng.normal(size=(m, d))
    Q2 = rng.normal(size=(m, m)) / np.sqrt(m)
    Z = rng.normal(size=(N + 1, d))
    Wp = [np.linalg.matrix_power(W, k) for k in range(N + 1)]
    singles, doubles = tail_norms(W, A0, B, Q, Q2, Z, rho, tau_grid)
    for tau, single, double in zip(tau_grid, singles, doubles):
        s1 = sum(rho**t * B @ Wp[t] @ Q @ Z[t] for t in range(tau, N + 1))
        s2 = sum(rho**t0 * B @ Wp[t1 - 1] @ Q2 @ Wp[t0 - t1 - 1] @ A0 @ Z[t0]
                 for t0 in range(max(tau, 2), N + 1) for t1 in range(1, t0))
        assert single == pytest.approx(np.linalg.norm(s1), rel=1e-12)
        assert double == pytest.approx(np.linalg.norm(s2), rel=1e-12)
