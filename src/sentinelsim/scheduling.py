"""Weibull sleep-timer math: inverse-survival sampling and hazard-rate updates.

All functions are pure. Times are seconds, rates are events per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    if t_max is None:
        t_max = T_SLEEP_MAX_SCALE * params.alpha
    return _draw(params.alpha, params.beta, r, t_min, t_max)


def _draw(alpha: float, beta: float, r: float, t_min: float, t_max: float) -> float:
    if not (0.0 < r < 1.0):
        raise ValueError(f"r must lie in the open interval (0, 1), got {r}")
    return min(max(alpha * math.log(1.0 / r) ** (1.0 / beta), t_min), t_max)


def hazard_rate(t: float, params: WeibullParams) -> float:
    """Weibull hazard h(t) = (beta/alpha) * (t/alpha)**(beta - 1).

    Constant at 1/alpha for beta = 1; increasing in t for beta > 1 (zero at
    t = 0); unbounded at t = 0 for beta < 1.
    """
    return _hazard(t, params.alpha, params.beta)


def _hazard(t: float, alpha: float, beta: float) -> float:
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    x = t / alpha
    if x == 0.0 and beta < 1.0:  # t = 0, or a t so small that t / alpha underflows
        return math.inf
    try:
        return (beta / alpha) * x ** (beta - 1.0)
    except OverflowError:  # the hazard is past the largest float
        return math.inf


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
    if not (beta > 0 and math.isfinite(beta)):  # WeibullParams' check, with no params built
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return min(max(_hazard(t_network, 1.0 / lambda_old, beta), lambda_min), lambda_max)


def adapt_and_draw(
    rate: float, t_network: float, beta: float, r: float,
    lambda_min: float, lambda_max: float, t_min: float, t_max_scale: float,
) -> tuple[float, float]:
    """A redundancy proof's update_probe_rate, then its sample_sleep_time draw at scale
    alpha = 1/rate up to t_max_scale * alpha, in one step with no WeibullParams built.
    Returns (rate, sleep), with their floats and their checks."""
    rate = update_probe_rate(rate, t_network, beta, lambda_min=lambda_min, lambda_max=lambda_max)
    alpha = 1.0 / rate
    return rate, _draw(alpha, beta, r, t_min, t_max_scale * alpha)
