"""Weibull sleep-timer math: inverse-survival sampling and hazard-rate updates.

All functions are pure. Times are seconds, rates are events per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

# Default probe-rate bounds. The hazard update grows without bound as time
# advances, so callers clamp the result to keep nodes schedulable.
LAMBDA_MIN = 1e-4  # 1/s
LAMBDA_MAX = 10.0  # 1/s

# Default sleep-duration bounds: floor of 1 s, ceiling of 10 scale lengths.
T_SLEEP_MIN = 1.0
T_SLEEP_MAX_SCALE = 10.0


@dataclass(frozen=True)
class WeibullParams:
    """Weibull distribution parameters.

    alpha: scale in seconds, the reciprocal of the probe rate (alpha = 1/lambda).
    beta: dimensionless shape.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")


# WeibullParams is frozen, so one instance serves every sleep at the same rate
# and shape; most cycles sleep at lambda_max. A failed construction is not
# cached and raises again on the next call.
weibull_params = lru_cache(maxsize=16)(WeibullParams)


def weibull_survival(t: float, params: WeibullParams) -> float:
    """Survival function S(t) = exp(-(t/alpha)^beta)."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return math.exp(-((t / params.alpha) ** params.beta))


def weibull_cdf(t: float, params: WeibullParams) -> float:
    """Cumulative distribution F(t) = 1 - exp(-(t/alpha)^beta)."""
    return 1.0 - weibull_survival(t, params)


def sample_sleep_time(
    params: WeibullParams,
    r: float,
    *,
    t_min: float = T_SLEEP_MIN,
    t_max: float | None = None,
) -> float:
    """Draw a sleep duration by inverting the survival function at r.

    Solves S(t) = r for t, giving t = alpha * (ln(1/r))**(1/beta), then clamps
    the result to [t_min, t_max]. t_max defaults to 10 * alpha. When the bounds
    cross (tiny alpha) the ceiling wins. r is the survival probability of the
    drawn duration, so smaller r means longer sleep.
    """
    if not (0.0 < r < 1.0):
        raise ValueError(f"r must lie in the open interval (0, 1), got {r}")
    raw = params.alpha * math.log(1.0 / r) ** (1.0 / params.beta)
    if t_max is None:
        t_max = T_SLEEP_MAX_SCALE * params.alpha
    return min(max(raw, t_min), t_max)


def hazard_rate(t: float, params: WeibullParams) -> float:
    """Weibull hazard h(t) = (beta/alpha) * (t/alpha)**(beta - 1).

    Constant at 1/alpha for beta = 1; increasing in t for beta > 1 (zero at
    t = 0); unbounded at t = 0 for beta < 1.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    alpha, beta = params.alpha, params.beta
    if t == 0.0 and beta < 1.0:
        return math.inf
    return (beta / alpha) * (t / alpha) ** (beta - 1.0)


def update_probe_rate(
    lambda_old: float,
    t_network: float,
    beta: float,
    *,
    lambda_min: float = LAMBDA_MIN,
    lambda_max: float = LAMBDA_MAX,
) -> float:
    """Recompute a node's probe rate from elapsed network time.

    The new rate is the hazard of a Weibull with scale 1/lambda_old evaluated
    at t_network, clamped to [lambda_min, lambda_max]. For beta > 1 the raw
    value is strictly increasing in t_network and reaches 0 at t_network = 0;
    the floor keeps the node schedulable there. beta = 1 returns lambda_old
    unchanged (constant-hazard exponential case).
    """
    if not (lambda_old > 0 and math.isfinite(lambda_old)):
        raise ValueError(f"lambda_old must be positive and finite, got {lambda_old}")
    params = weibull_params(1.0 / lambda_old, beta)
    return min(max(hazard_rate(t_network, params), lambda_min), lambda_max)
