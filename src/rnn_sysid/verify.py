"""Monte-Carlo verification of the random-matrix, linearization, and
truncation bounds that the SGD analysis rests on.

Each verifier samples fresh initializations from per-trial sub-seeds and
hands `_finish` every (trial, grid-point) instance of each claimed
inequality as an (observed, bound) pair.  Probabilistic claims are
asserted via pass fractions, never per-trial hard assertions.
"""

import inspect
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .gradients import tangent_states
from .linalg import (causal_fir, frob, lag_ladder, log_slope,
                     matrix_power_opnorm, operator_norm_fast, power_dtype,
                     recurrence, tangent_recurrence)
from .schedule import check_targets, decay_split, theory_schedule
from .store import write_json
from .student import (linearized_forward, linearized_kernel, sample_init,
                      sample_W0)
from .teacher import ParameterError, check_decay

REPORT_FORMAT_VERSION = 2
THRESHOLD = 0.95  # every report's pass fraction is scored against it
POWER_ITERS = 4   # block Krylov iterations of (c) at k <= 3; one fewer above


@dataclass
class LemmaReport:
    lemma_id: str
    m: int
    trials: int
    seed: int
    tau: int = 0
    params: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    bound_formula: str = ""
    pass_fraction: float = 0.0
    threshold: float = field(default=THRESHOLD, init=False)
    passed: bool = False
    format_version: int = REPORT_FORMAT_VERSION

    def to_dict(self):
        return asdict(self)

    def save(self, path):
        write_json(path, self.to_dict())


def _at_most(o, b):  # elementwise for a vector instance
    return np.all(np.less_equal(o, b)), np.max(np.divide(o, b))


def _within(o, window):  # 0 < lo <= o <= hi: the larger one-sided ratio
    lo, hi = window
    return lo <= o <= hi, max(o / hi, lo / o) if o > 0 else np.inf


def _exceeds(o, b):  # a negative control must break its bound
    return o > b, b / o


def _finish(report, table, asserted):
    """Each check's entry from its (test, [(observed, bound), ...]), then
    the verdict.  A test gives an instance its flag and its margin, above 1
    where the instance went the wrong way.  A check without instances is
    skipped; one whose every observed value is 0 or not finite measured
    nothing: it is degenerate, with pass fraction 0.  `worst_margin` is an
    ok check's largest margin, null if not finite.  Checks outside
    `asserted`, but for a negative control, carry `asserted: false`.  The
    report's pass fraction is its worst asserted check, skipped ones
    ignored (0, a failure, when all were: it tested nothing).  The
    existence run's verdict comes from here too: `report` needs only
    `checks` (filled in) and `threshold`.
    """
    for name, (test, pairs) in table.items():
        observed = np.array([o for o, _ in pairs], dtype=float)
        flags, margins = np.array([test(o, b) for o, b in pairs],
                                  dtype=float).reshape(-1, 2).T
        ok = np.any(np.isfinite(observed) & (observed != 0))
        worst = float(np.max(margins)) if ok else np.nan
        report.checks[name] = {
            "n_instances": len(pairs),
            "pass_fraction": (float(np.mean(flags)) if ok
                              else 0.0 if pairs else None),
            "status": "ok" if ok else "degenerate" if pairs else "skipped",
            "worst_margin": worst if np.isfinite(worst) else None}
        if name not in asserted and test is not _exceeds:
            report.checks[name]["asserted"] = False
    fractions = [report.checks[n]["pass_fraction"] for n in asserted
                 if report.checks[n]["status"] != "skipped"]
    report.pass_fraction = float(min(fractions)) if fractions else 0.0
    report.passed = bool(fractions) and report.pass_fraction >= report.threshold
    return report


def _unit_frob(rng, shape):
    M = rng.normal(size=shape)
    M /= frob(M)
    return M


# ---------------------------------------------------------------------------
# spectral bounds on powers of the random initialization


def _power_norms(Wp, checks, seed):
    """(s, {name: [(observed ||W^k||_2, bound) for each (k, bound)]}).

    With sigma = ||Wp||_2 from `operator_norm_fast`, s = sigma (1 + 2 eps
    sqrt(m)) is an upper value of ||W||_2 (schema.md); the observed value
    is s^k where that meets the bound.  Elsewhere it is a lower value:
    sigma at k = 1, at k >= 2 a batched block Krylov `matrix_power_opnorm`
    estimate (block 8; POWER_ITERS iterations at k <= 3, where 2 sqrt(k)
    is tightest, one fewer above).  A bound of 0 always reads that.
    """
    sigma = operator_norm_fast(Wp)
    s = sigma * (1.0 + 2.0 * np.finfo(Wp.dtype).eps * np.sqrt(len(Wp)))
    slow = sorted({k for pairs in checks.values() for k, b in pairs
                   if k > 1 and s**k > b})
    lower = {1: sigma, **dict(zip(slow, matrix_power_opnorm(
        Wp, slow, iters=[POWER_ITERS if k <= 3 else POWER_ITERS - 1
                         for k in slow], block=8, seed=seed)))}
    return s, {name: [(s**k if s**k <= b else lower[k], b) for k, b in pairs]
               for name, pairs in checks.items()}


def verify_spectral(m=1024, rho_0=0.9, trials=20, seed=0, grid_points=8):
    """Checks on ||W0^k|| and on ||rho^t W^t|| over the omega_0-ball.

    (a) ||W0^k|| <= rho_1^{-k} for k >= L;  (b) <= rho_1^{-L} for k < L;
    (c) <= 2 sqrt(k) for k <= 2L;
    (d) ||rho^t W^t|| <= 2 sqrt(t) rho_0^t for every W within Frobenius
        distance omega_0 of W0, with rho = rho_1 rho_0^2.

    Pass fractions are scored per (trial, k) instance: the 2 sqrt(k) bound
    sits exactly on the asymptotic edge at k = 1, so trial-level
    conjunctions would be dominated by that single knife-edge instance.
    A trial draws W0 straight into `power_dtype(m)` (float32 from m = 2048
    up); `_power_norms` gives every (a)-(c) value, and (d) reads
    (rho (s + omega_0))^t, an upper value over the whole ball by Weyl's
    inequality (schema.md).
    """
    rho_1, rho, omega_0, L = decay_split(rho_0, m)
    ks_c = np.unique(np.round(np.geomspace(1, 2 * L, grid_points))
                     .astype(int)).tolist()
    ks_ab = sorted(set(ks_c) | {4 * L})
    checks_W0 = {"a": [(k, rho_1 ** -k) for k in ks_ab if k >= L],
                 "b": [(k, rho_1 ** -L) for k in ks_ab if k < L],
                 "c": [(k, 2.0 * np.sqrt(k)) for k in ks_c],
                 "lower_c": [(k, 0.0) for k in ks_c]}
    bounds_d = [(t, 2.0 * np.sqrt(t) * rho_0**t) for t in ks_c]
    inst = {name: [] for name in (*checks_W0, "d")}
    for r in range(trials):
        rng = np.random.default_rng([int(seed), r])
        Wp = sample_W0(rng, m, power_dtype(m))
        s, obs = _power_norms(Wp, checks_W0, int(1000 + r))
        del Wp
        ball = rho * (s + omega_0)
        obs["d"] = [(ball**t, b) for t, b in bounds_d]
        for name in inst:
            inst[name] += obs[name]

    report = LemmaReport(
        lemma_id="spectral", m=int(m), trials=int(trials), seed=int(seed),
        params={"rho_0": rho_0, "rho_1": rho_1, "rho": rho, "L": L,
                "omega_0": omega_0, "k_grid": ks_ab},
        bound_formula="||W0^k|| <= min(rho_1^{-max(k,L)}, 2 sqrt(k)); "
                      "||rho^t W^t|| <= 2 sqrt(t) rho_0^t",
    )
    neg = [(2.0 ** k * o, 2.0 * np.sqrt(k))  # doubling W0 must break (c)'s bound
           for k, (o, _) in zip(ks_c * trials, inst.pop("lower_c"))]
    per_trial_c = np.reshape([o <= b for o, b in inst["c"]], (trials, -1))
    report.observed = {"trial_level_c_pass_fraction":
                       float(np.mean(np.all(per_trial_c, axis=1)))}
    return _finish(report, {**{name: (_at_most, pairs)
                               for name, pairs in inst.items()},
                            "negative_control_c": (_exceeds, neg)},
                   ("a", "b", "c", "d"))


# ---------------------------------------------------------------------------
# norm concentration, readout bounds, cross terms, Gram near-isometry


def verify_concentration(m=4096, tau=8, d=4, d_y=2, trials=20, seed=0,
                         delta=math.exp(-1.0)):
    """Concentration of propagated directions at initialization.

    (a) ||W0^t A0 v|| and sqrt(d_y/m) ||(W0^T)^t B^T v|| in [0.9, 1.1];
    (b) ||B W0^t A0||_op <= sqrt(d log(tau d / delta));
    (c) |u^T (W0^t A0)^T (W0^t' A0) v| <= 24 tau d^2 log m / sqrt(m), t != t';
    (d) ||F^T F - I|| <= log m / sqrt(m) for F = W0^t A0 and t <= 1.
    delta, the failure probability of (b), must lie in (0, 1).

    The near-isometry induction that extends (d) past its base case needs
    sqrt(m) > 100 tau log^2 m, far beyond desk widths, and the downstream
    argument only invokes (d) at t = 0, 1; at larger t the deviation grows
    like sqrt(t/m) and overtakes the log m / sqrt(m) level, so the full
    range is recorded as `d_all_t`, not asserted.  The analogous B-side
    cross terms, `c_b_side`, are likewise recorded only: the proof's final
    display supports only the A-side scaling.
    """
    check_decay("delta", delta)
    inst = {"a": [], "b": [], "c": [], "c_b_side": [], "d": [], "d_all_t": []}
    cross_bound = 24.0 * tau * d**2 * np.log(m) / np.sqrt(m)
    b_bound = np.sqrt(d * np.log(tau * d / delta))
    iso_bound = np.log(m) / np.sqrt(m)
    for r in range(trials):
        rng = np.random.default_rng([int(seed), r])
        W0, A0, B = sample_init(rng, m, d, d_y)
        v2, u2 = _unit_frob(rng, (d,)), _unit_frob(rng, (d,))
        v1, u1 = _unit_frob(rng, (d_y,)), _unit_frob(rng, (d_y,))
        # Fs[t] = W0^t A0 and Ps[t] = (W0^T)^t B^T
        Fs = lag_ladder(W0, A0, 1.0, tau - 1).transpose(0, 2, 1)
        Ps = lag_ladder(W0.T, B.T, 1.0, tau - 1).transpose(0, 2, 1)
        for t, F in enumerate(Fs):
            inst["a"] += [(np.linalg.norm(F @ v2), (0.9, 1.1)),
                          (np.sqrt(d_y / m) * np.linalg.norm(Ps[t] @ v1), (0.9, 1.1))]
            inst["b"].append((np.linalg.norm(B @ F, 2), b_bound))
            inst["d_all_t"].append(
                (np.linalg.norm(F.T @ F - np.eye(d), 2), iso_bound))
            if t <= 1:
                inst["d"].append(inst["d_all_t"][-1])
        # cross terms: the off-diagonal of one tau x tau product per side,
        # [t, t'] = u^T Fs[t]^T Fs[t'] v, in row-major (t, t') order
        off = ~np.eye(tau, dtype=bool)
        inst["c"] += [(o, cross_bound)
                      for o in np.abs((Fs @ u2) @ (Fs @ v2).T)[off]]
        inst["c_b_side"] += [(o * (d_y / m), cross_bound)
                             for o in np.abs((Ps @ u1) @ (Ps @ v1).T)[off]]

    report = LemmaReport(
        lemma_id="concentration", m=int(m), trials=int(trials), seed=int(seed),
        tau=int(tau),
        params={"d": d, "d_y": d_y, "delta": delta,
                "regime_ok": bool(m > tau**3 * d)},
        bound_formula="norms in [0.9,1.1]; ||B W0^t A0|| <= sqrt(d log(tau d/delta)); "
                      "cross <= 24 tau d^2 log m / sqrt(m); ||F^T F - I|| <= log m/sqrt(m)",
    )
    return _finish(report, {name: (_within if name == "a" else _at_most, pairs)
                            for name, pairs in inst.items()},
                   ("a", "b", "c", "d"))


# ---------------------------------------------------------------------------
# geometric tails of the rescaled series


def tail_norms(W, A0, B, Q, Q2, Z, rho, tau_grid):
    """The single and double tails of `verify_tail`, capped at N = len(Z) - 1.

    Reversed-drive recurrences give every H[t] = sum_{s >= t} (rho W)^{s-t}
    A0 Z_s at once (and likewise with Q), and the ladder P[j] = rho^j B W^j
    shifts each to its lag.  The double tail is the Q2-tangent of
    P[tau-1] rho H[tau]: one `tangent_recurrence` for each factor, H's on
    the time-reversed states.
    """
    P = lag_ladder(W.T, B.T, rho, max(tau_grid))
    HQ = recurrence((Z @ Q.T)[::-1], W.T, rho)[::-1]
    H_rev = recurrence((Z @ A0.T)[::-1], W.T, rho)
    H, dH = H_rev[::-1], tangent_recurrence(H_rev, Q2.T, W.T, rho)[::-1]
    dP = tangent_recurrence(P, Q2, W, rho)
    singles = [np.linalg.norm(P[tau] @ HQ[tau]) for tau in tau_grid]
    doubles = [np.linalg.norm(rho * (dP[j] @ H[j + 1] + P[j] @ dH[j + 1]))
               for j in (max(tau, 1) - 1 for tau in tau_grid)]
    return singles, doubles


def verify_tail(m=256, tau_grid=(1, 2, 4, 8, 16, 30), trials=20, seed=0,
                rho_0=0.9, d=4, d_y=2):
    """Tail sums of the rescaled series against the explicit 4- and
    32-constant bounds, with rho = rho_1 rho_0^2 and W perturbed to the
    boundary of the omega_0 ball.

    single: || sum_{t >= tau} rho^t B W^t Q Z_t || <= 4 sqrt(m) tau rho_0^tau
            / (1-rho_0)^2 ||Q||
    double: || sum_{t0 >= tau} sum_{t1+t2=t0} rho^t0 B W^{t1-1} Q2 W^{t2-1}
            A0 Z_t0 || <= 32 sqrt(m) tau^2 rho_0^tau / (1-rho_0)^3 ||Q2||
    monotone: neither tail grows with tau (to 1e-12); one pair per instance
    """
    tau_grid = sorted(tau_grid)
    _, rho, omega_0, _ = decay_split(rho_0, m)
    N = max(tau_grid) + 40
    inst = {"single": [], "double": [], "monotone": []}
    for r in range(trials):
        rng = np.random.default_rng([int(seed), r])
        W0, A0, B = sample_init(rng, m, d, d_y)
        W = _unit_frob(rng, (m, m))  # W0 + omega_0 U, built in U's buffer
        W *= omega_0
        W += W0
        del W0
        Q = rng.normal(size=(m, d))
        Q /= np.linalg.norm(Q, 2)
        Q2 = rng.normal(size=(m, m))
        Q2 /= operator_norm_fast(Q2)
        Z = np.array([_unit_frob(rng, (d,)) for _ in range(N + 1)])

        singles, doubles = tail_norms(W, A0, B, Q, Q2, Z, rho, tau_grid)
        del W, Q2  # freed before the next trial draws
        prev = (np.inf, np.inf)
        for tau, single, double in zip(tau_grid, singles, doubles):
            b1 = 4.0 * np.sqrt(m) * tau * rho_0**tau / (1.0 - rho_0) ** 2
            b2 = 32.0 * np.sqrt(m) * tau**2 * rho_0**tau / (1.0 - rho_0) ** 3
            inst["single"].append((single, b1))
            inst["double"].append((double, b2))
            inst["monotone"].append(((single, double), prev))
            prev = (single * (1 + 1e-12), double * (1 + 1e-12))

    report = LemmaReport(
        lemma_id="tail", m=int(m), trials=int(trials), seed=int(seed),
        tau=int(max(tau_grid)),
        params={"rho_0": rho_0, "rho": rho, "tau_grid": list(tau_grid),
                "d": d, "d_y": d_y, "series_cap": N},
        bound_formula="4 sqrt(m) tau rho_0^tau/(1-rho_0)^2; "
                      "32 sqrt(m) tau^2 rho_0^tau/(1-rho_0)^3",
    )
    return _finish(report, {name: (_at_most, pairs)
                            for name, pairs in inst.items()}, tuple(inst))


# ---------------------------------------------------------------------------
# linearization residual


def linearization_residuals(W0, A0, B, U, V, rho, x, omega_grid):
    """max_t ||F(W0 + omega U, A0 + omega V)_t - F_lin_t|| for each omega.

    With j_t the tangent states along (U, V), the remainder e_t = h_t -
    h0_t - omega j_t obeys e_t = rho (W0 + omega U) e_{t-1} + rho omega^2
    U j_{t-1}, e_{-1} = 0: it is propagated, not differenced.
    """
    J = tangent_states(W0, A0, rho, x, U, V)
    # not a tangent at the states' own matrix: the remainder runs on
    # W0 + omega U, and this one drive serves every omega
    drive = np.zeros_like(J)
    drive[1:] = rho * (J[:-1] @ U.T)
    return [float(np.max(np.linalg.norm(recurrence(
        omega**2 * drive, (omega * U + W0).T, rho) @ B.T, axis=1)))
        for omega in omega_grid]


def _check_omega_grid(omega_grid, rho_0, m):  # the bound holds on the ball only
    omega_0 = decay_split(rho_0, m)[2]
    if min(omega_grid, default=1.0) <= 0:  # the slope is fit on log omega
        raise ParameterError(f"omega_grid entries must be > 0, got {min(omega_grid)}")
    if max(omega_grid, default=0.0) > omega_0:
        raise ParameterError(f"omega {max(omega_grid)} exceeds omega_0 {omega_0}")


def verify_linearization(m=1024, omega_grid=(1e-3, 3e-3, 1e-2, 3e-2),
                         trials=20, seed=0, rho_0=0.9, T=12, d=4, d_y=2):
    """Residual of the first-order expansion of f_t around initialization.

    Bound 768 sqrt(m) omega^2 / (1-rho_0)^5 per instance; the log-log slope
    of residual vs omega should be 2 (checked per trial when the grid has
    at least two points).  Uses the practical decay rho = rho_0.
    """
    omega_grid = sorted(omega_grid)
    _check_omega_grid(omega_grid, rho_0, m)
    inst = {"bound": [], "slope": []}
    bounds = [768.0 * np.sqrt(m) * omega**2 / (1.0 - rho_0) ** 5
              for omega in omega_grid]
    for r in range(trials):
        rng = np.random.default_rng([int(seed), r])
        W0, A0, B = sample_init(rng, m, d, d_y)
        U = _unit_frob(rng, (m, m))
        V = _unit_frob(rng, (m, d))
        x = rng.normal(size=(T, d)) / np.sqrt(d)
        residuals = linearization_residuals(W0, A0, B, U, V, rho_0, x, omega_grid)
        inst["bound"] += zip(residuals, bounds)
        slope = log_slope(np.log(omega_grid), residuals)
        if slope is not None:
            inst["slope"].append((slope, (1.8, 2.2)))

    report = LemmaReport(
        lemma_id="linearization", m=int(m), trials=int(trials), seed=int(seed),
        params={"rho_0": rho_0, "rho": rho_0, "omega_grid": list(omega_grid),
                "T": T, "d": d, "d_y": d_y},
        bound_formula="768 sqrt(m) omega^2 / (1-rho_0)^5; slope 2.0 +- 0.2",
    )
    slopes = [o for o, _ in inst["slope"]]
    report.observed = {"slopes": slopes,
                       "mean_slope": float(np.mean(slopes)) if slopes else None}
    return _finish(report, {"bound": (_at_most, inst["bound"]),
                            "slope": (_within, inst["slope"])}, tuple(inst))


# ---------------------------------------------------------------------------
# truncation error of the linearized series


def verify_truncation(m=1024, tau_grid=(4, 8, 12, 16, 20, 24, 28, 32),
                      trials=20, seed=0, rho_0=0.9, d=4, d_y=2,
                      omega=0.05, epsilon=0.05, delta=math.exp(-1.0)):
    """max_t ||f^lin_t - f^{lin,tau}_t|| across a tau grid.

    Asserts the 8 sqrt(m) tau rho_0^tau / (1-rho_0)^3 bound and the
    geometric decay slope log(rho_0) +- 20% at the practical rate
    rho = rho_0, plus the schedule-level check: with tau = T_max and the
    theory rate rho = rho_1 rho_0^2, the error is <= epsilon / b.
    """
    sched = theory_schedule(epsilon, delta, rho_0, c_rho=1.0, m=m)
    tau_grid = sorted(tau_grid)
    T = max(tau_grid) + 16
    inst = {"bound": [], "slope_per_trial": [], "app": []}
    # the decay rate -slope of log err in tau, against -log(rho_0) +- 20%
    rate = -np.log(rho_0)
    window = (rate - 0.2 * rate, rate + 0.2 * rate)
    err_rows = []
    T_app = sched.T_max + 24
    for r in range(trials):
        rng = np.random.default_rng([int(seed), r])
        W0, A0, B = sample_init(rng, m, d, d_y)
        dW = omega * _unit_frob(rng, (m, m))
        A = A0 + omega * _unit_frob(rng, (m, d))
        x = rng.normal(size=(T, d)) / np.sqrt(d)
        # the last sum, tau = T - 1, is the full expansion
        *Ftaus, Flin = linearized_forward(W0, A0, dW, A, B, rho_0, x,
                                          [*tau_grid, T - 1])
        err_rows.append([float(np.max(np.linalg.norm(Flin - Ftau, axis=1)))
                         for Ftau in Ftaus])
        inst["bound"] += [(err, 8.0 * np.sqrt(m) * tau * rho_0**tau
                           / (1.0 - rho_0) ** 3)
                          for tau, err in zip(tau_grid, err_rows[-1])]
        slope = log_slope(tau_grid, err_rows[-1])
        if slope is not None:
            inst["slope_per_trial"].append((-slope, window))
        # Eq.-level check at the schedule's own rate: the error of the
        # tau = T_max sum is the sum over lags T_max + 1 .. T_app - 1 alone
        x_app = rng.normal(size=(T_app - sched.T_max - 1, d)) / np.sqrt(d)
        K = linearized_kernel(W0, A0, dW, A, B, sched.rho, T_app - 1)
        tail = causal_fir(K[sched.T_max + 1:], x_app)[-1]
        inst["app"].append((np.max(np.linalg.norm(tail, axis=1)),
                            sched.epsilon / sched.b))

    report = LemmaReport(
        lemma_id="truncation", m=int(m), trials=int(trials), seed=int(seed),
        tau=int(max(tau_grid)),
        params={"rho_0": rho_0, "tau_grid": list(tau_grid), "omega": omega,
                "T": T, "d": d, "d_y": d_y, "epsilon": epsilon, "delta": delta,
                "T_max": sched.T_max, "b": sched.b, "rho_theory": sched.rho},
        bound_formula="8 sqrt(m) tau rho_0^tau/(1-rho_0)^3; slope log(rho_0) "
                      "+- 20%; error at tau=T_max <= epsilon/b",
    )
    # The asserted slope is fit on the per-tau median error across trials;
    # single-trial slopes wobble ~0.015 around it and are recorded only.
    pooled_slope = log_slope(tau_grid, np.median(err_rows, axis=0))
    slopes = [-o for o, _ in inst["slope_per_trial"]]
    report.observed = {"slopes": slopes,
                       "pooled_slope": pooled_slope,
                       "mean_slope": float(np.mean(slopes)) if slopes else None,
                       "target_slope": float(np.log(rho_0))}
    return _finish(report, {
        "bound": (_at_most, inst["bound"]),
        "slope": (_within, [] if pooled_slope is None else [(-pooled_slope, window)]),
        "slope_per_trial": (_within, inst["slope_per_trial"]),
        "app": (_at_most, inst["app"])}, ("bound", "slope", "app"))


ALL_LEMMAS = {
    "spectral": verify_spectral,
    "concentration": verify_concentration,
    "tail": verify_tail,
    "linearization": verify_linearization,
    "truncation": verify_truncation,
}


def lemma_kwargs(name, **kwargs):
    """The keywords `run_lemma` passes to lemma `name`, those given as None
    dropped (each takes its default).  `trials`, `m` and `seed` must be
    integers of at least 1, 2 and 0 (no trials test nothing, below m = 2
    log m is zero or undefined, numpy's generators take no negative seed)
    and every grid (`*_grid`, `grid_points`) must hold a point.  On every
    keyword, defaults bound, each domain's owner runs as in the verifier:
    `decay_split` on `rho_0`, `check_targets` on `epsilon` and `delta`
    (else `check_decay` on `delta`), `_check_omega_grid` on `omega_grid`."""
    if name not in ALL_LEMMAS:
        raise ValueError(f"unknown lemma {name!r}; choose from {sorted(ALL_LEMMAS)}")
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    for key, value in kwargs.items():  # a grid of no points tests nothing
        if "grid" in key and (len(value) if key.endswith("_grid") else value) < 1:
            raise ParameterError(f"{key} must hold at least one point, got {value!r}")
    for key, low in (("trials", 1), ("m", 2), ("seed", 0)):
        value = kwargs.get(key, low)
        if not isinstance(value, numbers.Integral):
            raise ParameterError(f"{key} must be an integer, got {value!r}")
        if value < low:
            raise ParameterError(f"{key} must be >= {low}, got {value!r}")
    args = inspect.signature(ALL_LEMMAS[name]).bind(**kwargs)
    args.apply_defaults()
    a = args.arguments
    if "rho_0" in a:
        decay_split(a["rho_0"], a["m"])
    if "epsilon" in a:  # the schedule owns its delta too
        check_targets(a["epsilon"], a["delta"])
    elif "delta" in a:
        check_decay("delta", a["delta"])
    if "omega_grid" in a:
        _check_omega_grid(a["omega_grid"], a["rho_0"], a["m"])
    return kwargs


def run_lemma(name, **kwargs):
    """Runs one lemma check with `lemma_kwargs(name, **kwargs)`."""
    kwargs = lemma_kwargs(name, **kwargs)
    return ALL_LEMMAS[name](**kwargs)
