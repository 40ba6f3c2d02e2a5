"""Analytic 2-D benchmark functions with closed-form derivatives.

Each function returns (value, gradient) at a point; the registry entries also
carry the full Hessian (whose diagonal is `TestFunction.hess_diag`), the known
minimizer, and the committed default start used by the trajectory races.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import ConfigError

__all__ = [
    "beale",
    "rosenbrock",
    "quad_skew",
    "TestFunction",
    "TESTFNS",
    "get_testfn",
    "GradDiffReport",
    "hessian_diag_vs_gradient_difference",
]


def _beale_terms(point):
    """x, y, the residuals r_k and their derivatives d r_k / dx = y^k - 1
    and d r_k / dy = k x y^(k-1), shared by the gradient and the Hessian."""
    x, y = float(point[0]), float(point[1])
    y3 = y ** 3
    r = (1.5 - x + x * y, 2.25 - x + x * y * y, 2.625 - x + x * y3)
    return x, y, r, (y - 1.0, y * y - 1.0, y3 - 1.0), (x, 2.0 * x * y, 3.0 * x * y * y)


def beale(point):
    """Beale function: three quadratic residuals, minimum 0 at (3, 0.5)."""
    _, _, (r1, r2, r3), (d1x, d2x, d3x), (d1y, d2y, d3y) = _beale_terms(point)
    value = r1 * r1 + r2 * r2 + r3 * r3
    grad = np.array([
        2.0 * (r1 * d1x + r2 * d2x + r3 * d3x),
        2.0 * (r1 * d1y + r2 * d2y + r3 * d3y),
    ])
    return value, grad


def _beale_hess(point):
    x, y, (r1, r2, r3), (d1x, d2x, d3x), (d1y, d2y, d3y) = _beale_terms(point)
    hxx = 2.0 * (d1x * d1x + d2x * d2x + d3x * d3x)
    hyy = (2.0 * (d1y * d1y + d2y * d2y + d3y * d3y)
           + 2.0 * (r2 * 2.0 * x + r3 * 6.0 * x * y))
    # cross terms: d2 r_k / dxdy = k y^(k-1)
    hxy = 2.0 * (d1x * d1y + d2x * d2y + d3x * d3y
                 + r1 * 1.0 + r2 * 2.0 * y + r3 * 3.0 * y * y)
    return np.array([[hxx, hxy], [hxy, hyy]])


def rosenbrock(point):
    """Banana valley: (1-x)^2 + 100(y-x^2)^2, minimum 0 at (1, 1)."""
    x, y = float(point[0]), float(point[1])
    seam = y - x * x
    value = (1.0 - x) ** 2 + 100.0 * seam * seam
    grad = np.array([
        -2.0 * (1.0 - x) - 400.0 * x * seam,
        200.0 * seam,
    ])
    return value, grad


def _rosenbrock_hess(point):
    x, y = float(point[0]), float(point[1])
    seam = y - x * x
    return np.array([
        [2.0 - 400.0 * seam + 800.0 * x * x, -400.0 * x],
        [-400.0 * x, 200.0],
    ])


def quad_skew(point):
    """Skewed quadratic (x+y)^2 + (x-y)^2/10; constant Hessian diag (2.2, 2.2)."""
    x, y = float(point[0]), float(point[1])
    a = x + y
    d = x - y
    value = a * a + d * d / 10.0
    grad = np.array([2.0 * a + d / 5.0, 2.0 * a - d / 5.0])
    return value, grad


def _quad_skew_hess(point):
    return np.array([[2.2, 1.8], [1.8, 2.2]])


@dataclass(frozen=True)
class TestFunction:
    name: str
    fn: Callable  # point -> (value, grad)
    hess: Callable  # point -> full Hessian matrix
    optimum: np.ndarray
    fmin: float
    default_start: np.ndarray
    # box used when sampling random evaluation points
    sample_lo: np.ndarray = field(default_factory=lambda: np.array([-2.0, -2.0]))
    sample_hi: np.ndarray = field(default_factory=lambda: np.array([2.0, 2.0]))

    @property
    def dim(self) -> int:
        return self.optimum.size

    def hess_diag(self, point) -> np.ndarray:
        return np.diag(self.hess(point))


# Default starts are committed here so races are reproducible; they were picked
# so every adaptive optimizer at lr 1e-3 reaches the optimum inside the race
# step budget.
TESTFNS = {
    "beale": TestFunction(
        name="beale",
        fn=beale,
        hess=_beale_hess,
        optimum=np.array([3.0, 0.5]),
        fmin=0.0,
        default_start=np.array([2.0, 1.5]),
        sample_lo=np.array([-2.0, -1.0]),
        sample_hi=np.array([4.0, 1.5]),
    ),
    "rosenbrock": TestFunction(
        name="rosenbrock",
        fn=rosenbrock,
        hess=_rosenbrock_hess,
        optimum=np.array([1.0, 1.0]),
        fmin=0.0,
        default_start=np.array([-1.2, 1.0]),
        sample_lo=np.array([-2.0, -1.0]),
        sample_hi=np.array([2.0, 3.0]),
    ),
    "quad_skew": TestFunction(
        name="quad_skew",
        fn=quad_skew,
        hess=_quad_skew_hess,
        optimum=np.array([0.0, 0.0]),
        fmin=0.0,
        default_start=np.array([2.0, -1.0]),
        sample_lo=np.array([-3.0, -3.0]),
        sample_hi=np.array([3.0, 3.0]),
    ),
}


def get_testfn(name: str) -> TestFunction:
    try:
        return TESTFNS[name]
    except KeyError:
        raise ConfigError(
            f"unknown test function {name!r}; expected one of {sorted(TESTFNS)}"
        ) from None


@dataclass
class GradDiffReport:
    """Per-pair relative residuals of grad differences vs Hessian-step products."""

    residuals: list[float]
    skipped: int
    max_residual: float


def hessian_diag_vs_gradient_difference(fn: TestFunction, params_seq) -> GradDiffReport:
    """Compare grad(w_t) - grad(w_{t-1}) against H(w_t) @ (w_t - w_{t-1}).

    The mean-value identity makes the two sides agree to second order in the
    step, exactly for quadratics. Pairs with zero displacement are skipped
    (the comparison is 0/0) and counted.
    """
    snaps = [np.asarray(p, dtype=np.float64) for p in params_seq]
    if len(snaps) < 2:
        raise ConfigError("need at least two parameter snapshots to compare")
    residuals: list[float] = []
    skipped = 0
    for prev, cur in zip(snaps, snaps[1:]):
        dw = cur - prev
        if not np.any(dw):
            skipped += 1
            continue
        lhs = fn.fn(cur)[1] - fn.fn(prev)[1]
        rhs = fn.hess(cur) @ dw
        scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-300)
        residuals.append(float(np.abs(lhs - rhs).max() / scale))
    return GradDiffReport(
        residuals=residuals,
        skipped=skipped,
        max_residual=max(residuals) if residuals else 0.0,
    )
