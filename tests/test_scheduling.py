"""Sleep-timer math: frozen example values, inversion round trips, clamps."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentinelsim.scheduling import (
    WeibullParams,
    adapt_and_draw,
    hazard_rate,
    sample_sleep_time,
    update_probe_rate,
    weibull_cdf,
    weibull_survival,
)


def test_sample_matches_survival_inversion():
    # oracle: F(t_s) must equal 1 - r by direct CDF evaluation
    params = WeibullParams(alpha=10.0, beta=2.0)
    t_s = sample_sleep_time(params, 0.5)
    assert t_s == pytest.approx(8.325546111576976, rel=1e-12)
    assert weibull_cdf(t_s, params) == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 3.0, 7.0])
def test_sample_at_r_equal_inv_e_collapses_to_alpha(beta):
    # ln(1/e^-1) = 1, so the shape exponent vanishes
    params = WeibullParams(alpha=10.0, beta=beta)
    assert sample_sleep_time(params, math.exp(-1.0)) == pytest.approx(10.0, rel=1e-12)


def test_sample_clamps_to_floor_as_r_approaches_one():
    params = WeibullParams(alpha=10.0, beta=2.0)
    assert sample_sleep_time(params, 1.0 - 1e-12) == 1.0


def test_sample_clamps_to_ceiling_for_tiny_r():
    params = WeibullParams(alpha=10.0, beta=2.0)
    assert sample_sleep_time(params, 1e-300) == 100.0  # 10 * alpha


def test_ceiling_wins_when_bounds_cross():
    # alpha < t_min / 10: the ceiling (10 * alpha) sits below the floor
    params = WeibullParams(alpha=0.05, beta=2.0)
    assert sample_sleep_time(params, 0.5) == pytest.approx(0.5)


@pytest.mark.parametrize("r", [0.0, 1.0, -0.3, 1.5, float("nan")])
def test_sample_rejects_r_outside_open_interval(r):
    with pytest.raises(ValueError):
        sample_sleep_time(WeibullParams(10.0, 2.0), r)


@pytest.mark.parametrize("alpha,beta", [(0.0, 2.0), (-1.0, 2.0), (10.0, 0.0), (10.0, -2.0)])
def test_params_validate(alpha, beta):
    with pytest.raises(ValueError):
        WeibullParams(alpha, beta)


def test_inverse_cdf_round_trip_across_parameter_grid():
    # pre-clamp: exp(-(t_s/alpha)^beta) == r to 1e-9 relative
    rng = random.Random(9)
    for _ in range(500):
        alpha = rng.uniform(0.05, 500.0)
        beta = rng.choice([1.0, 1.5, 2.0, 3.0])
        r = rng.uniform(1e-9, 1.0 - 1e-9)
        params = WeibullParams(alpha, beta)
        t_s = sample_sleep_time(params, r, t_min=0.0, t_max=math.inf)
        assert weibull_survival(t_s, params) == pytest.approx(r, rel=1e-9)


def test_sample_strictly_decreasing_in_r():
    params = WeibullParams(alpha=30.0, beta=2.0)
    rs = [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
    ts = [sample_sleep_time(params, r, t_min=0.0) for r in rs]
    assert all(a > b for a, b in zip(ts, ts[1:]))


def test_hazard_examples():
    # exponential special case: constant 1/alpha
    p1 = WeibullParams(alpha=100.0, beta=1.0)
    for t in (0.0, 1.0, 50.0, 1e6):
        assert hazard_rate(t, p1) == pytest.approx(0.01, rel=1e-12)
    # at t = alpha the power term is 1 regardless of shape
    for alpha, beta in ((10.0, 1.5), (2.0, 2.0), (75.0, 3.0)):
        assert hazard_rate(alpha, WeibullParams(alpha, beta)) == pytest.approx(
            beta / alpha, rel=1e-12
        )
    assert hazard_rate(5.0, WeibullParams(10.0, 2.0)) == pytest.approx(0.1, rel=1e-12)


def test_hazard_edge_cases():
    assert hazard_rate(0.0, WeibullParams(10.0, 2.0)) == 0.0
    assert hazard_rate(0.0, WeibullParams(10.0, 0.5)) == math.inf
    # t / alpha underflows to 0, or the power overflows: still the unbounded hazard
    assert hazard_rate(5e-324, WeibullParams(2.0, 0.5)) == math.inf
    assert hazard_rate(1e-320, WeibullParams(1.0, 0.01)) == math.inf
    assert hazard_rate(1e300, WeibullParams(1e-3, 4.0)) == math.inf
    with pytest.raises(ValueError):
        hazard_rate(-1.0, WeibullParams(10.0, 2.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: weibull_survival(-1.0, WeibullParams(10.0, 2.0)),
        lambda: weibull_cdf(-1e-9, WeibullParams(10.0, 2.0)),
        lambda: hazard_rate(-1.0, WeibullParams(10.0, 0.5)),
        lambda: update_probe_rate(0.01, -1.0, 2.0),  # the hazard's own check
    ],
    ids=["survival", "cdf", "hazard", "update_probe_rate"],
)
def test_negative_time_rejected(call):
    with pytest.raises(ValueError, match="^t must be >= 0"):
        call()


def test_hazard_strictly_increasing_for_beta_above_one():
    params = WeibullParams(alpha=50.0, beta=2.0)
    hs = [hazard_rate(t, params) for t in (1.0, 5.0, 20.0, 100.0, 500.0)]
    assert all(a < b for a, b in zip(hs, hs[1:]))


def test_update_probe_rate_examples():
    assert update_probe_rate(0.01, 100.0, 2.0) == pytest.approx(0.02, rel=1e-12)
    assert update_probe_rate(0.01, 400.0, 2.0) == pytest.approx(0.08, rel=1e-12)
    for t in (0.0, 10.0, 1e4):
        assert update_probe_rate(0.01, t, 1.0) == pytest.approx(0.01, rel=1e-12)


def test_update_probe_rate_clamps():
    # zero network age with beta > 1 floors instead of returning a dead rate
    assert update_probe_rate(0.01, 0.0, 2.0) == 1e-4
    assert update_probe_rate(0.01, 0.0, 2.0, lambda_min=0.005) == 0.005
    assert update_probe_rate(1.0, 1e9, 2.0) == 10.0
    assert update_probe_rate(1.0, 1e9, 2.0, lambda_max=0.05) == 0.05


def test_update_probe_rate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        update_probe_rate(0.0, 10.0, 2.0)
    with pytest.raises(ValueError):
        update_probe_rate(math.inf, 10.0, 2.0)


def test_update_probe_rate_is_the_clamped_hazard():
    # including the unbounded hazard of beta < 1 at t = 0, which clamps to the ceiling
    for lam in (1e-3, 0.01, 0.5):
        for beta in (0.5, 1.0, 2.0, 3.0):
            for t in (0.0, 1.0, 100.0, 1e4):
                h = hazard_rate(t, WeibullParams(1.0 / lam, beta))
                assert update_probe_rate(lam, t, beta) == min(max(h, 1e-4), 10.0)
    assert update_probe_rate(0.01, 0.0, 0.5) == 10.0
    for beta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            update_probe_rate(0.01, 10.0, beta)


# -- one step: a redundancy proof's rate update and sleep draw -----------------


def two_steps(rate, t, beta, r, lambda_min, lambda_max, t_min, t_max_scale):
    """The reference: the rate update, then a draw from a fresh WeibullParams."""
    rate = update_probe_rate(rate, t, beta, lambda_min=lambda_min, lambda_max=lambda_max)
    params = WeibullParams(1.0 / rate, beta)
    return rate, sample_sleep_time(params, r, t_min=t_min, t_max=t_max_scale * params.alpha)


@st.composite
def proofs(draw):
    """Arguments of one proof: the hazard falls below, inside and above the
    rate clamps, and t = 0, beta = 1 and beta < 1 all occur."""
    lambda_min = draw(st.floats(1e-4, 1.0))
    lambda_max = draw(st.floats(lambda_min, 20.0))
    return (
        draw(st.floats(1e-4, 20.0)),
        draw(st.one_of(st.just(0.0), st.floats(0.0, 1e5))),
        draw(st.one_of(st.just(1.0), st.floats(0.2, 5.0))),
        draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        lambda_min,
        lambda_max,
        draw(st.floats(0.0, 5.0)),
        draw(st.floats(0.5, 20.0)),
    )


@settings(max_examples=500, deadline=None)
@given(proofs())
@example((0.01, 0.0, 2.0, 0.5, 1e-3, 0.05, 1.0, 10.0))  # at the floor: h(0) = 0
@example((0.01, 100.0, 2.0, 0.5, 1e-3, 0.05, 1.0, 10.0))  # between the clamps
@example((0.05, 5000.0, 2.0, 0.5, 1e-3, 0.05, 1.0, 10.0))  # at the cap
@example((0.01, 300.0, 1.0, 0.5, 1e-3, 0.05, 1.0, 10.0))  # beta = 1 keeps the rate
@example((0.01, 0.0, 0.5, 0.5, 1e-3, 0.05, 1.0, 10.0))  # beta < 1 at t = 0: h = inf
@example((0.5, 5e-324, 0.5, 0.5, 1.0, 1.0, 0.0, 1.0))  # beta < 1, t / alpha underflows: h = inf
@example((0.03, 5000.0, 2.0, 1e-300, 1e-3, 0.03, 1.0, 10.0))  # r near 0: the ceiling
@example((0.05, 5000.0, 2.0, 1.0 - 1e-12, 1e-3, 0.05, 1.0, 10.0))  # r near 1: the floor
@example((0.01, 5000.0, 2.0, 0.5, 1e-3, 15.0, 2.0, 10.0))  # crossed sleep bounds
def test_one_step_equals_the_update_then_the_draw(args):
    assert adapt_and_draw(*args) == two_steps(*args)


GOOD = dict(rate=0.01, t=100.0, beta=2.0, r=0.5, lambda_min=1e-3, lambda_max=0.05,
            t_min=1.0, t_max_scale=10.0)


@pytest.mark.parametrize(
    "bad",
    [
        *[{"beta": beta} for beta in (0.0, -1.0, math.inf, math.nan)],
        *[{"rate": rate} for rate in (0.0, -0.01, math.inf, math.nan)],
        *[{"r": r} for r in (0.0, 1.0, -0.3, 1.5, math.nan)],
        {"t": -1.0},
        {"beta": 0.0, "r": 0.0},  # the first check to fail names its argument
        {"rate": 0.0, "beta": 0.0},
        {"t": -1.0, "r": 1.0},
    ],
    ids=repr,
)
def test_one_step_raises_the_two_steps_errors(bad):
    args = [{**GOOD, **bad}[name] for name in GOOD]
    with pytest.raises(ValueError) as reference:
        two_steps(*args)
    with pytest.raises(ValueError) as one_step:
        adapt_and_draw(*args)
    assert str(one_step.value) == str(reference.value)
