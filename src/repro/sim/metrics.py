"""Metrics and growth-rate analysis for experiment series.

Experiments produce series like "max per-request reallocation cost as a
function of n". The paper predicts their asymptotic shapes: constant-ish
(log*), logarithmic (Lemma 4), linear (EDF cascades, Lemma 11), or
quadratic (Lemma 12). :func:`fit_growth` classifies a measured series by
least-squares fitting the candidate shapes and reporting relative
residuals, so EXPERIMENTS.md can state "measured shape: log" with a
number attached rather than by eyeball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..analysis.logstar import log_star


@dataclass(frozen=True)
class GrowthFit:
    """Result of shape classification for an (x, y) series."""

    best: str
    residuals: dict[str, float]
    coefficients: dict[str, tuple[float, float]]

    def relative_residual(self, shape: str) -> float:
        return self.residuals[shape]


#: shape -> basis function of (numpy, x); numpy is passed in so that
#: importing this module does not import it
_SHAPES = {
    "constant": lambda np, x: np.ones_like(x, dtype=float),
    "logstar": lambda np, x: np.array([log_star(v) for v in x], dtype=float),
    "log": lambda np, x: np.log2(np.maximum(x, 1.0)),
    "sqrt": lambda np, x: np.sqrt(x),
    "linear": lambda np, x: np.asarray(x, dtype=float),
    "quadratic": lambda np, x: np.asarray(x, dtype=float) ** 2,
}


def fit_growth(
    xs: Sequence[float],
    ys: Sequence[float],
    shapes: Sequence[str] = ("constant", "logstar", "log", "linear", "quadratic"),
) -> GrowthFit:
    """Least-squares fit ``y ~ a * shape(x) + b`` for each candidate shape.

    Returns the shape with the smallest normalized residual. Ties (and
    near-ties within 5%) resolve toward the *slower-growing* shape, since
    a bounded series fits every faster shape with a tiny coefficient.
    """
    import numpy as np

    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.size < 3:
        raise ValueError("need at least 3 matched (x, y) points")
    scale = float(np.linalg.norm(y)) or 1.0
    residuals: dict[str, float] = {}
    coefficients: dict[str, tuple[float, float]] = {}
    order = [s for s in _SHAPES if s in shapes]
    for shape in order:
        basis = _SHAPES[shape](np, x)
        a_mat = np.column_stack([basis, np.ones_like(basis)])
        sol, *_ = np.linalg.lstsq(a_mat, y, rcond=None)
        pred = a_mat @ sol
        residuals[shape] = float(np.linalg.norm(pred - y)) / scale
        coefficients[shape] = (float(sol[0]), float(sol[1]))
    best = None
    for shape in order:  # slowest-growing first in _SHAPES order
        r = residuals[shape]
        if best is None or r < residuals[best] * 0.95:
            if best is None or r < residuals[best]:
                best = shape
    # second pass: prefer earlier (slower) shapes within 5% of the minimum
    min_r = min(residuals.values())
    for shape in order:
        if residuals[shape] <= min_r * 1.05 + 1e-12:
            best = shape
            break
    return GrowthFit(best=best, residuals=residuals, coefficients=coefficients)


def doubling_series(lo: int, hi: int) -> list[int]:
    """[lo, 2lo, 4lo, ..., <= hi] — the standard sweep grid."""
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    out = []
    v = lo
    while v <= hi:
        out.append(v)
        v *= 2
    return out


def summarize_series(xs: Sequence[float], ys: Sequence[float]) -> dict:
    """Headline numbers for a series: endpoints, growth factor, fit."""
    fit = fit_growth(xs, ys)
    return {
        "x_range": (min(xs), max(xs)),
        "y_first": ys[0],
        "y_last": ys[-1],
        "growth_factor": (ys[-1] / ys[0]) if ys[0] else math.inf,
        "best_shape": fit.best,
        "residuals": {k: round(v, 4) for k, v in fit.residuals.items()},
    }
