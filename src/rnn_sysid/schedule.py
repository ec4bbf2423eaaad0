"""Derived hyperparameter schedule for the SGD analysis.

Every quantity is a closed-form function of (epsilon, delta, rho_0, c_rho,
m, l0) except T_max, which is defined implicitly and solved by fixed-point
iteration.  Asymptotic Theta-constants are set to 1.
"""

import math
from dataclasses import dataclass

from .teacher import ParameterError, check_decay


class ScheduleError(RuntimeError):
    pass


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

    def to_dict(self):
        return dict(self.__dict__)


def decay_split(rho_0, m):
    """(rho_1, rho, omega_0, L) at width m: the width's decay rho_1, the
    theory rate rho = rho_1 rho_0^2, the radius omega_0 = 1/rho_0 - 1 of
    the ball around W0, and the spectral bounds' cutoff L = max(1,
    floor(sqrt(m) / log m)), owning the domain rho_0 in (0, 1), m >= 2."""
    check_decay("rho_0", rho_0)
    if m < 2:
        raise ParameterError(f"m must be >= 2, got {m}")
    rho_1 = 1.0 / (1.0 + 10.0 * math.log(m) ** 2 / math.sqrt(m))
    return (rho_1, rho_1 * rho_0**2, 1.0 / rho_0 - 1.0,
            max(1, int(math.sqrt(m) / math.log(m))))


def solve_T_max(epsilon, delta, rho_0, c_rho, m):
    """Fixed point of T = (1/log(1/rho_0)) { 2 log(c_rho/(1-rho_0))
    + log(1/eps) + log sqrt(log(T/delta)) + (1/2) log m }, iterated to a
    relative step of 1e-10 within 100 iterations."""
    inv = 1.0 / math.log(1.0 / rho_0)
    T = 10.0
    for _ in range(100):
        inner = math.log(max(T, 2.0) / delta)
        T_new = inv * (
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


def check_targets(epsilon, delta):
    """Refuses an accuracy epsilon or a failure probability delta outside
    the schedule's domain (0, e^-1]."""
    for name, value in (("epsilon", epsilon), ("delta", delta)):
        if not 0.0 < value <= math.exp(-1.0):
            raise ParameterError(f"{name} must be in (0, e^-1], got {value}")


def theory_schedule(epsilon, delta, rho_0, c_rho, m, l0=1.0):
    """The schedule at epsilon, delta: `check_targets`; rho_0, m: `decay_split`."""
    rho_1, rho, omega_0, L_cutoff = decay_split(rho_0, m)
    check_targets(epsilon, delta)
    T_max = solve_T_max(epsilon, delta, rho_0, c_rho, m)
    b = math.sqrt(math.log(T_max / delta))
    nu = epsilon**2 * (1.0 - rho_0) ** 12 / (
        T_max**4 * l0**6 * (1.0 + 2.0 * b) ** 6
    )
    eta = nu * epsilon / (m * b**2)
    K = max(1, int(math.ceil(T_max**4 * b**4 / (nu * epsilon**2))))
    m_star = (c_rho**2 * K**4 * (1.0 - rho_0) ** 8 * epsilon**2 / b**6
              + 1.0 / delta)
    omega = K * eta * 32.0 * math.sqrt(m) / (1.0 - rho_0) ** 3 * l0 * (1.0 + 2.0 * b)
    return TheorySchedule(
        epsilon=float(epsilon), delta=float(delta), rho_0=float(rho_0),
        c_rho=float(c_rho), m=int(m), l0=float(l0), rho_1=rho_1, rho=rho,
        T_max=T_max, b=b, nu=nu, eta=eta, K=K, m_star=m_star, omega=omega,
        omega_0=omega_0, L_cutoff=L_cutoff, tau=T_max, R=b * T_max**2,
        outside_theory_regime=bool(m < m_star))
