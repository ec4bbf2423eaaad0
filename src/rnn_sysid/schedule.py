"""Derived hyperparameter schedule for the SGD analysis.

Every quantity is a closed-form function of (epsilon, delta, rho_0, c_rho,
m, l0) except T_max, which is defined implicitly and solved by fixed-point
iteration.  Asymptotic Theta-constants are set to 1; per-field multipliers
can be supplied and are recorded on the schedule object.
"""

import math
from dataclasses import dataclass, field

from .teacher import ParameterError


class ScheduleError(RuntimeError):
    pass


MULTIPLIER_FIELDS = ("T_max", "eta", "K", "m_star", "nu")


@dataclass
class TheorySchedule:
    epsilon: float
    delta: float
    rho_0: float
    c_rho: float
    m: int
    l0: float
    rho_1: float = 0.0
    rho: float = 0.0
    T_max: int = 0
    b: float = 0.0
    nu: float = 0.0
    eta: float = 0.0
    K: int = 0
    m_star: float = 0.0
    omega: float = 0.0
    omega_0: float = 0.0
    L_cutoff: int = 0
    tau: int = 0
    R: float = 0.0
    outside_theory_regime: bool = False
    multipliers: dict = field(default_factory=dict)

    def to_dict(self):
        d = dict(self.__dict__)
        d["multipliers"] = dict(self.multipliers)
        return d


def rho_1_of_m(m):
    return 1.0 / (1.0 + 10.0 * math.log(m) ** 2 / math.sqrt(m))


def solve_T_max(epsilon, delta, rho_0, c_rho, m, multiplier=1.0):
    """Fixed point of T = (1/log(1/rho_0)) { 2 log(c_rho/(1-rho_0))
    + log(1/eps) + log sqrt(log(T/delta)) + (1/2) log m }, iterated to a
    relative step of 1e-10 within 100 iterations."""
    inv = 1.0 / math.log(1.0 / rho_0)
    T = 10.0
    for _ in range(100):
        inner = math.log(max(T, 2.0) / delta)
        T_new = multiplier * inv * (
            2.0 * math.log(c_rho / (1.0 - rho_0))
            + math.log(1.0 / epsilon)
            + math.log(math.sqrt(inner))
            + 0.5 * math.log(m)
        )
        T_new = max(T_new, 2.0)
        if abs(T_new - T) <= 1e-10 * max(1.0, abs(T_new)):
            return max(2, int(math.ceil(T_new)))
        T = T_new
    raise ScheduleError("T_max fixed point did not converge in 100 iterations")


def theory_schedule(epsilon, delta, rho_0, c_rho, m, l0=1.0, multipliers=None):
    if not (0.0 < epsilon <= math.exp(-1.0)):
        raise ParameterError(f"epsilon must be in (0, e^-1], got {epsilon}")
    if not (0.0 < delta <= math.exp(-1.0)):
        raise ParameterError(f"delta must be in (0, e^-1], got {delta}")
    if not (0.0 < rho_0 < 1.0):
        raise ParameterError(f"rho_0 must be in (0, 1), got {rho_0}")
    if m < 2:
        raise ParameterError("m must be >= 2")
    mult = {k: 1.0 for k in MULTIPLIER_FIELDS}
    if multipliers:
        unknown = set(multipliers) - set(MULTIPLIER_FIELDS)
        if unknown:
            raise ParameterError(f"unknown multiplier fields {sorted(unknown)}")
        mult.update(multipliers)

    rho_1 = rho_1_of_m(m)
    rho = rho_1 * rho_0**2
    T_max = solve_T_max(epsilon, delta, rho_0, c_rho, m, mult["T_max"])
    b = math.sqrt(math.log(T_max / delta))
    nu = mult["nu"] * epsilon**2 * (1.0 - rho_0) ** 12 / (
        T_max**4 * l0**6 * (1.0 + 2.0 * b) ** 6
    )
    eta = mult["eta"] * nu * epsilon / (m * b**2)
    K = max(1, int(math.ceil(mult["K"] * T_max**4 * b**4 / (nu * epsilon**2))))
    m_star = mult["m_star"] * (
        c_rho**2 * K**4 * (1.0 - rho_0) ** 8 * epsilon**2 / b**6
    ) + 1.0 / delta
    omega_0 = 1.0 / rho_0 - 1.0
    omega = K * eta * 32.0 * math.sqrt(m) / (1.0 - rho_0) ** 3 * l0 * (1.0 + 2.0 * b)
    L_cutoff = max(1, int(math.sqrt(m) / math.log(m)))
    return TheorySchedule(
        epsilon=float(epsilon),
        delta=float(delta),
        rho_0=float(rho_0),
        c_rho=float(c_rho),
        m=int(m),
        l0=float(l0),
        rho_1=rho_1,
        rho=rho,
        T_max=T_max,
        b=b,
        nu=nu,
        eta=eta,
        K=K,
        m_star=m_star,
        omega=omega,
        omega_0=omega_0,
        L_cutoff=L_cutoff,
        tau=T_max,
        R=b * T_max**2,
        outside_theory_regime=bool(m < m_star),
        multipliers=mult,
    )
