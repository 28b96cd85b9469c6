"""Least-squares scaling fits for the experiment harness.

The experiments need three statements about measured round counts:

* "rounds grow linearly in n" (Theorem 1) — :func:`fit_linear` plus R²;
* "rounds grow quadratically" ([DKL+11] baseline) — :func:`fit_quadratic`;
* "the empirical exponent is p" — :func:`fit_power` / log-log regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class FitResult:
    """Coefficients and goodness of fit of one model."""

    model: str
    coefficients: tuple[float, ...]
    r_squared: float

    def predict(self, x: float) -> float:
        if self.model == "linear":
            a, b = self.coefficients
            return a * x + b
        if self.model == "quadratic":
            a, b, c = self.coefficients
            return a * x * x + b * x + c
        if self.model == "power":
            c, p = self.coefficients
            return c * x**p
        raise ValueError(f"unknown model {self.model}")


def _r_squared(y: np.ndarray, pred: np.ndarray) -> float:
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_linear(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Fit ``y ~ a*x + b``."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size < 2:
        raise ValueError("need at least two points to fit")
    a, b = np.polyfit(xa, ya, 1)
    return FitResult(
        "linear", (float(a), float(b)), _r_squared(ya, a * xa + b)
    )


def fit_quadratic(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Fit ``y ~ a*x^2 + b*x + c``."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size < 3:
        raise ValueError("need at least three points to fit")
    a, b, c = np.polyfit(xa, ya, 2)
    pred = a * xa * xa + b * xa + c
    return FitResult(
        "quadratic", (float(a), float(b), float(c)), _r_squared(ya, pred)
    )


def fit_power(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Fit ``y ~ c * x^p`` by log-log least squares (requires positives)."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if np.any(xa <= 0) or np.any(ya <= 0):
        raise ValueError("power fit requires strictly positive data")
    p, logc = np.polyfit(np.log(xa), np.log(ya), 1)
    c = float(np.exp(logc))
    pred = c * xa ** float(p)
    return FitResult("power", (c, float(p)), _r_squared(ya, pred))


def scaling_exponent(x: Sequence[float], y: Sequence[float]) -> float:
    """The empirical growth exponent p of ``y ~ x^p`` — the single number
    the scaling experiments assert on (≈1 for the paper's algorithm, ≈2 for
    the Euclidean baseline)."""
    return fit_power(x, y).coefficients[1]
