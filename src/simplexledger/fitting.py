"""Growth-model fits: ordinary least squares, linear and log-linear.

The exponential model Y = A * exp(g * X) is fit by OLS of ln(Y) on X, which
is deterministic and needs no initialization; r_squared is reported on the
fitted scale (log scale for the exponential model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Named x-range presets for fit windows on the year axis.
PRESET_WINDOWS: dict[str, tuple[float, float]] = {
    "paper-recent": (2005.0, 2018.0),
}

FIT_CSV_COLUMNS = [
    "model",
    "k",
    "refinement",
    "x_axis",
    "x_min",
    "x_max",
    "A",
    "slope",
    "r_squared",
    "n_points",
]


class FitError(ValueError):
    """Raised for degenerate or out-of-domain fit inputs."""


@dataclass(frozen=True)
class FitResult:
    model: str  # "linear" | "exponential"
    A: float
    slope: float
    r_squared: float
    n_points: int
    x_range: tuple[float, float]


def _select(
    points: Sequence[tuple[float, float]],
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """The points as X and Y arrays, and the range of X."""
    if len(points) < 2:
        raise FitError(f"need at least 2 points, got {len(points)}")
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if np.all(xs == xs[0]):
        raise FitError("degenerate fit: all X values are equal")
    return xs, ys, (float(xs.min()), float(xs.max()))


def _ols(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Intercept, slope, and r_squared of Y on X."""
    x_mean = xs.mean()
    y_mean = ys.mean()
    sxx = float(((xs - x_mean) ** 2).sum())
    sxy = float(((xs - x_mean) * (ys - y_mean)).sum())
    slope = sxy / sxx
    intercept = float(y_mean - slope * x_mean)
    residuals = ys - (intercept + slope * xs)
    ss_res = float((residuals**2).sum())
    ss_tot = float(((ys - y_mean) ** 2).sum())
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return intercept, slope, r_squared


def fit_linear(points: Sequence[tuple[float, float]]) -> FitResult:
    """Least-squares line; the slope is new units of Y per unit of X."""
    xs, ys, x_range = _select(points)
    intercept, slope, r_squared = _ols(xs, ys)
    return FitResult(
        model="linear",
        A=intercept,
        slope=slope,
        r_squared=r_squared,
        n_points=len(xs),
        x_range=x_range,
    )


def fit_exponential(points: Sequence[tuple[float, float]]) -> FitResult:
    """Log-linear least squares; A is the prefactor, slope the growth rate."""
    xs, ys, x_range = _select(points)
    if np.any(ys <= 0):
        bad = xs[ys <= 0][0]
        raise FitError(f"exponential fit requires Y > 0; offending X = {bad}")
    intercept, slope, r_squared = _ols(xs, np.log(ys))
    return FitResult(
        model="exponential",
        A=math.exp(intercept),
        slope=slope,
        r_squared=r_squared,
        n_points=len(xs),
        x_range=x_range,
    )


def fit_csv_row(result: FitResult, k: int, refinement: str, x_axis: str) -> list[str]:
    return [
        result.model,
        str(k),
        refinement,
        x_axis,
        repr(result.x_range[0]),
        repr(result.x_range[1]),
        repr(result.A),
        repr(result.slope),
        repr(result.r_squared),
        str(result.n_points),
    ]
