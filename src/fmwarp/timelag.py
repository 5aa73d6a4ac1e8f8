"""First-order time-lag dynamics for dead fuel moisture.

A dead fuel element relaxes toward an equilibrium moisture content X(t)
with characteristic time lag tau (hours):

    dm/dt = (X(t) - m(t)) / tau

Solving over a 1-hour step with X held constant within the step gives the
discrete recursion

    m_t = a * m_{t-1} + (1 - a) * X_t,      a = exp(-1/tau)

so each step is a weighted average of the previous state and the current
input. Rescaling time by a factor gamma (a "time warp") raises the
retention coefficient to the power gamma, i.e. a -> a**gamma, which is
the same recursion with tau' = tau / gamma.

The drying and wetting equilibrium moisture contents are computed from
air temperature and relative humidity with the Van Wagner equations in
the form used by the WRF-SFIRE fuel moisture code (temperature converted
from Kelvin internally; RH in percent; result in percent of dry mass):

    E_d = 0.924 H^0.679 + 0.000499 e^(0.1 H) + 0.18 (21.1 - T_C)(1 - e^(-0.115 H))
    E_w = 0.618 H^0.753 + 0.000454 e^(0.1 H) + 0.18 (21.1 - T_C)(1 - e^(-0.115 H))

All functions are pure and operate on immutable inputs; the time step is
fixed at 1 hour throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fmwarp.errors import InvalidInputError

# Van Wagner equilibrium constants (drying / wetting branches).
_ED_COEF = (0.924, 0.679, 0.000499)
_EW_COEF = (0.618, 0.753, 0.000454)
_TEMP_COEF = 0.18
_TEMP_REF_C = 21.1
_RH_EXP = 0.115
_KELVIN_OFFSET = 273.15


@dataclass(frozen=True)
class TimeLagParams:
    """Characteristic time lag tau (hours) and retention coefficient a = exp(-1/tau)."""

    tau: float
    a: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise InvalidInputError(f"tau must be finite and > 0, got {self.tau}")
        if not (0.0 < self.a < 1.0):
            raise InvalidInputError(f"retention coefficient must lie in (0,1), got {self.a}")
        # Tolerance covers ulp drift when a arrives as a**gamma instead of exp().
        if abs(self.a - math.exp(-1.0 / self.tau)) > 1e-13:
            raise InvalidInputError(
                f"inconsistent pair: a={self.a!r} but exp(-1/tau)={math.exp(-1.0 / self.tau)!r}"
            )

    @classmethod
    def from_tau(cls, tau: float) -> "TimeLagParams":
        return cls(tau=float(tau), a=math.exp(-1.0 / float(tau)))


def simulate(m0: float, x_series, params: TimeLagParams) -> np.ndarray:
    """Run the recursion from m0 over a sequence of equilibrium inputs.

    Element t of the output is the state after step t+1, i.e. the response
    to x_series[t]. Output length equals input length.
    """
    x = np.asarray(x_series, dtype=float)
    if x.size == 0:
        raise InvalidInputError("x_series must be non-empty")
    if not (math.isfinite(m0) and np.isfinite(x).all()):
        raise InvalidInputError("non-finite initial state or input series")
    out = np.empty(x.size)
    m = float(m0)
    a = params.a
    b = 1.0 - a
    for t in range(x.size):
        m = a * m + b * x[t]
        out[t] = m
    return out


def equilibria_arrays(temp_k, rh) -> tuple[np.ndarray, np.ndarray]:
    """Drying/wetting equilibrium moisture from temperature (K) and RH (%).

    Uses the Van Wagner equations given in the module docstring, elementwise;
    returns (drying, wetting) arrays with drying >= wetting >= 0. Over rh
    in [0, 100] the pair never inverts: 0.924 rh^0.679 >= 1.06 x 0.618
    rh^0.753 (the ratio is least at rh = 100), 0.000499 > 0.000454, the
    temperature term is shared, and the clamp at 0 keeps the order.
    """
    temp_k = np.asarray(temp_k, dtype=float)
    rh = np.asarray(rh, dtype=float)
    if np.any((rh < 0.0) | (rh > 100.0)):
        raise InvalidInputError("relative humidity must lie in [0,100]")
    if np.any(temp_k <= 0.0):
        raise InvalidInputError("temperature must be positive Kelvin")
    t_c = temp_k - _KELVIN_OFFSET
    temp_term = _TEMP_COEF * (_TEMP_REF_C - t_c) * (1.0 - np.exp(-_RH_EXP * rh))
    cd, ed_exp, ed_rain = _ED_COEF
    cw, ew_exp, ew_rain = _EW_COEF
    drying = np.maximum(cd * rh**ed_exp + ed_rain * np.exp(0.1 * rh) + temp_term, 0.0)
    wetting = np.maximum(cw * rh**ew_exp + ew_rain * np.exp(0.1 * rh) + temp_term, 0.0)
    return drying, wetting
