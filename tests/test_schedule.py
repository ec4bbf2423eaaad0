import math

import numpy as np
import pytest

from rnn_sysid.schedule import solve_T_max, theory_schedule
from rnn_sysid.teacher import ParameterError


def test_rho_splits_into_factors():
    sched = theory_schedule(0.05, math.exp(-1.0), 0.9, 1.0, 1024)
    assert sched.rho == pytest.approx(sched.rho_1 * 0.9**2)
    assert sched.rho_1 == pytest.approx(
        1.0 / (1.0 + 10.0 * math.log(1024) ** 2 / math.sqrt(1024)))


def test_T_max_satisfies_its_fixed_point():
    eps, delta, rho_0, c_rho, m = 0.05, math.exp(-1.0), 0.9, 1.0, 1024
    T = solve_T_max(eps, delta, rho_0, c_rho, m)
    rhs = (1.0 / math.log(1.0 / rho_0)) * (
        2.0 * math.log(c_rho / (1.0 - rho_0))
        + math.log(1.0 / eps)
        + math.log(math.sqrt(math.log(T / delta)))
        + 0.5 * math.log(m))
    assert T == math.ceil(rhs) or T == math.ceil(rhs) + 1


def test_derived_fields_are_consistent():
    sched = theory_schedule(0.05, math.exp(-1.0), 0.9, 1.0, 1024)
    assert sched.b == pytest.approx(math.sqrt(math.log(sched.T_max / sched.delta)))
    assert sched.eta == pytest.approx(sched.nu * sched.epsilon / (sched.m * sched.b**2))
    assert sched.K == math.ceil(sched.T_max**4 * sched.b**4
                                / (sched.nu * sched.epsilon**2))
    assert sched.omega_0 == pytest.approx(1.0 / 0.9 - 1.0)
    assert sched.tau == sched.T_max
    assert sched.R == pytest.approx(sched.b * sched.T_max**2)
    assert sched.L_cutoff == int(math.sqrt(1024) / math.log(1024))


def test_desk_scale_is_outside_theory_regime():
    # the width threshold m_star is astronomically larger than any desk m;
    # the schedule must say so rather than silently pretend otherwise
    sched = theory_schedule(0.05, math.exp(-1.0), 0.9, 1.0, 1024)
    assert sched.m_star > 1e100
    assert sched.outside_theory_regime


def test_eta_decreases_with_m():
    s1 = theory_schedule(0.05, math.exp(-1.0), 0.9, 1.0, 256)
    s2 = theory_schedule(0.05, math.exp(-1.0), 0.9, 1.0, 4096)
    assert s2.eta < s1.eta


def test_epsilon_range_enforced():
    with pytest.raises(ParameterError):
        theory_schedule(0.5, math.exp(-1.0), 0.9, 1.0, 512)
    with pytest.raises(ParameterError):
        theory_schedule(0.05, 0.9, 0.9, 1.0, 512)


def test_to_dict_roundtrips_scalars():
    sched = theory_schedule(0.05, math.exp(-1.0), 0.9, 1.0, 512)
    d = sched.to_dict()
    assert d["T_max"] == sched.T_max
    assert d["rho"] == sched.rho
