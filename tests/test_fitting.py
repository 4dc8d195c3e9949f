import math
import random

import numpy as np
import pytest

from simplexledger.fitting import (
    PRESET_WINDOWS,
    FitError,
    fit_exponential,
    fit_linear,
)


def test_exact_line_recovered():
    fit = fit_linear([(0, 1), (1, 2), (2, 3)])
    assert fit.A == pytest.approx(1.0, abs=1e-12)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_exact_exponential_recovered():
    points = [(x, 2.0 * math.exp(0.5 * x)) for x in (0, 1, 2)]
    fit = fit_exponential(points)
    assert fit.A == pytest.approx(2.0, abs=1e-9)
    assert fit.slope == pytest.approx(0.5, abs=1e-9)


def test_residuals_of_exact_models_tiny():
    rng = random.Random(0)
    for _ in range(20):
        a, b = rng.uniform(-5, 5), rng.uniform(-2, 2)
        xs = sorted(rng.sample(range(100), 10))
        lin = fit_linear([(x, a + b * x) for x in xs])
        assert abs(lin.A - a) < 1e-9 and abs(lin.slope - b) < 1e-9
        amp, g = rng.uniform(0.1, 10), rng.uniform(-0.05, 0.05)
        exp = fit_exponential([(x, amp * math.exp(g * x)) for x in xs])
        assert abs(math.log(exp.A) - math.log(amp)) < 1e-9
        assert abs(exp.slope - g) < 1e-9


def test_matches_normal_equation_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        xs = rng.normal(size=n) * 10
        if np.ptp(xs) == 0:
            continue
        ys = rng.normal(size=n) * 5
        design = np.stack([np.ones(n), xs], axis=1)
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        fit = fit_linear(list(zip(xs, ys)))
        assert fit.A == pytest.approx(coef[0], abs=1e-9)
        assert fit.slope == pytest.approx(coef[1], abs=1e-9)


def test_shift_invariance():
    points = [(x, 3.0 + 0.7 * x) for x in range(10)]
    shifted = [(x + 1000, y) for x, y in points]
    assert fit_linear(points).slope == pytest.approx(
        fit_linear(shifted).slope, abs=1e-9
    )
    exp_points = [(x, 2.0 * math.exp(0.1 * x)) for x in range(10)]
    exp_shifted = [(x + 50, y) for x, y in exp_points]
    assert fit_exponential(exp_points).slope == pytest.approx(
        fit_exponential(exp_shifted).slope, abs=1e-9
    )


def test_y_scaling_behavior():
    points = [(x, 3.0 + 0.7 * x + (x % 3)) for x in range(12)]
    scaled = [(x, 10 * y) for x, y in points]
    assert fit_linear(scaled).slope == pytest.approx(
        10 * fit_linear(points).slope, abs=1e-9
    )
    exp_points = [(x, 2.0 * math.exp(0.1 * x)) for x in range(10)]
    exp_scaled = [(x, 10 * y) for x, y in exp_points]
    fit = fit_exponential(exp_scaled)
    assert fit.slope == pytest.approx(0.1, abs=1e-9)
    assert fit.A == pytest.approx(20.0, abs=1e-6)


def test_nonpositive_y_rejected_naming_x():
    with pytest.raises(FitError, match="3"):
        fit_exponential([(1, 2.0), (2, 1.0), (3, 0.0)])


def test_degenerate_x_rejected():
    with pytest.raises(FitError, match="degenerate"):
        fit_linear([(5, 1), (5, 2), (5, 3)])


def test_too_few_points_rejected():
    with pytest.raises(FitError):
        fit_linear([(1, 1)])


def test_recent_window_preset():
    assert PRESET_WINDOWS["paper-recent"] == (2005.0, 2018.0)


def test_known_growth_ledger_recovered_within_one_percent():
    # 30-year series: vocabulary grows 10/year, cumulative combinations
    # follow A*exp(g*vocab) with integer rounding.
    g, amp = 0.012, 50.0
    points = []
    for year in range(30):
        vocab = 10 * (year + 1)
        points.append((vocab, round(amp * math.exp(g * vocab))))
    fit = fit_exponential(points)
    assert abs(fit.slope - g) / g < 0.01
