"""Numeric checks of the method's analytic claims.

Four claims are covered: the variance-reduction identity for the debiased
momentum average, monotonicity of the effective step-size sequence, the bound
on the accumulated preconditioner norm, and sublinear regret of the projected
online run. `verify_suite` packages them as report dictionaries of the shape
{claim, parameters, observed, bound, passed}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BETA1_KINDS, ConfigError, HyperParams, bounded, check_count,
                   check_hyperparams, check_int, check_num, check_positive)
from .diagnostics import record_run
from .models import rng_stream
from .optim import agd_step, init_state

__all__ = [
    "variance_ratio_analytic",
    "variance_ratio_mc",
    "alpha_hat_series",
    "project_box",
    "RegretExperiment",
    "RegretProblem",
    "make_quadratic_stream",
    "online_regret",
    "loglog_slope",
    "norm_bound_check",
    "verify_suite",
]

# streams used by the checks, in the (seed, stream) keying of models.rng_stream
STREAM_VARIANCE = 101
STREAM_CENTERS = 102
STREAM_GRADS = 103

# samples per block of variance_ratio_mc's momentum updates: with three beta1
# values the block's draws, moments and scratch take 320 KiB
MC_BLOCK = 8192

# values per partial sum of _compensated_sum
SUM_CHUNK = 4096


def variance_ratio_analytic(beta1: float, t: int) -> float:
    """Var of the debiased momentum average over Var of one gradient.

    For i.i.d. gradients the ratio is (1+beta1^t)(1-beta1) /
    ((1-beta1^t)(1+beta1)); it equals 1 at t=1 and decreases toward
    (1-beta1)/(1+beta1).
    """
    beta1 = bounded(check_num, 0, strict=True, below=1)(beta1, "beta1")
    bt = beta1 ** check_count(t, "t")
    return (1.0 + bt) * (1.0 - beta1) / ((1.0 - bt) * (1.0 + beta1))


def variance_ratio_mc(combos, samples: int, seed: int) -> list[tuple[float, float]]:
    """Monte-Carlo estimates of the same ratio, one per (beta1, t) combo.

    Each replica runs the momentum recurrence over t i.i.d. N(0,1) gradients
    and debiases; the across-replica variance estimates the ratio directly.
    Sums are compensated (math.fsum) so the estimator itself adds no drift.

    All combos share one pass over the (seed, STREAM_VARIANCE) Philox stream:
    max(t) gradient vectors are drawn once and every distinct beta1 keeps its
    own momentum array. A counter-based stream's first k draws do not depend
    on what is drawn after them, so each combo sees exactly the draws it would
    see alone. The updates run MC_BLOCK samples at a time, every beta1 on a
    block before the next, so the block's draws, moments and scratch stay in
    L2; each element gets the same three operations in the same order.
    Each combo's mean and variance are taken one SUM_CHUNK slice at a time,
    debiasing the slice as it is summed, so memory holds the draws and one
    momentum vector per distinct beta1 and no other samples-long vector.
    Returns (empirical, analytic) pairs in combo order.
    """
    combos = [(b1, check_count(t, "t")) for b1, t in combos]
    if not combos:
        raise ConfigError("variance_ratio_mc needs at least one (beta1, t) combo")
    # validates every combo's domain before any draw
    analytic = [variance_ratio_analytic(b1, t) for b1, t in combos]
    # fewer samples give no stable estimate
    samples = bounded(check_int, 10_000)(samples, "samples")
    wanted: dict = {}  # t -> the beta1 values whose statistics are taken at t
    for b1, t in combos:
        wanted.setdefault(t, set()).add(b1)
    rng = rng_stream(seed, STREAM_VARIANCE)
    moments = {b1: np.zeros(samples) for b1, _ in combos}
    z, tmp = np.empty(samples), np.empty(MC_BLOCK)
    empirical = {}
    for step in range(1, max(wanted) + 1):
        rng.standard_normal(out=z)  # the draws standard_normal(samples) gives
        for lo in range(0, samples, MC_BLOCK):
            zb = z[lo:lo + MC_BLOCK]
            tb = tmp[:zb.size]
            for b1, m in moments.items():
                # m = b1*m + (1-b1)*z, in place
                mb = m[lo:lo + MC_BLOCK]
                np.multiply(mb, b1, out=mb)
                np.multiply(zb, 1.0 - b1, out=tb)
                mb += tb
        for b1 in wanted.get(step, ()):
            d, m = 1.0 - b1 ** step, moments[b1]
            mean = _compensated_sum(m, lambda mb: mb / d) / samples
            var = _compensated_sum(m, lambda mb: (mb / d - mean) ** 2) / (samples - 1)
            empirical[(b1, step)] = var
    return [(empirical[c], a) for c, a in zip(combos, analytic)]


def _compensated_sum(values: np.ndarray, f=lambda chunk: chunk) -> float:
    """Exact (fsum) accumulation of per-chunk partial sums of f(values).

    f is elementwise and applied one SUM_CHUNK slice at a time, so the sum
    has the bits of _compensated_sum(f(values)) without f(values) in memory.
    """
    parts = [float(np.sum(f(values[lo:lo + SUM_CHUNK])))
             for lo in range(0, values.size, SUM_CHUNK)]
    return math.fsum(parts)


def alpha_hat_series(alpha: float, beta1: float, beta1_schedule: str,
                     beta2: float, T: int) -> np.ndarray:
    """Effective step sizes alpha/sqrt(t) * sqrt(1-beta2^t) / (1-beta1_t^t).

    Claimed strictly decreasing in t whenever the momentum coefficient is
    non-increasing, beta2=0 included. beta1_t comes from
    `HyperParams.beta1_at`, the schedule the optimizers step with.
    """
    hp = HyperParams(alpha=alpha, beta1=beta1, beta2=beta2, beta1_schedule=beta1_schedule)
    T = check_count(T, "T")
    t = np.arange(1, T + 1, dtype=np.float64)
    # every schedule starts at beta1 and never rises, so beta1_t**t <=
    # beta1**t and beta1's cut bounds them all; a schedule that rises breaks this
    k = _power_cut(beta1, T)
    # one float at a time: a list of up to 5,518 floats would stay in verify's
    # peak RSS
    b1t = np.fromiter(map(hp.beta1_at, range(1, k + 1)), np.float64, k)
    debias1 = np.ones(T)
    np.subtract(1.0, b1t ** t[:k], out=debias1[:k])
    k = _power_cut(beta2, T)
    debias2 = np.ones(T)
    np.subtract(1.0, beta2 ** t[:k], out=debias2[:k])
    lr = alpha / np.sqrt(t)
    return lr * np.sqrt(debias2) / debias1


def _power_cut(base: float, T: int) -> int:
    """How many of the steps 1..T need 1 - base**t taken.

    From step ceil(80 / -log2(base)) on, base**t lies below 2**-80, and any
    computed power below 2**-54 gives 1.0 - x == 1.0 exactly (2**-54 itself
    ties and rounds to even); pow's error is far too small to close that gap.
    """
    if base == 0.0:
        return 0
    return min(T, math.ceil(80.0 / -math.log2(base)))


def project_box(w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Euclidean projection onto an axis-aligned box: coordinatewise clip."""
    return np.clip(w, lo, hi)


@dataclass
class RegretExperiment:
    """Online quadratic losses f_t(w) = 0.5 ||w - c_t||^2 inside a box.

    The offline comparator w* is the mean of the centers (the exact global
    minimizer of the summed losses), which lies inside the box because the
    box contains every center.
    """

    centers: np.ndarray  # (T, dim)
    lo: np.ndarray
    hi: np.ndarray
    w_star: np.ndarray

    @property
    def horizon(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


class RegretProblem:
    """Projected online quadratics; the reported loss is instantaneous regret.

    loss_grad consumes one stream element per call (like minibatch training)
    and returns f_t(w) - f_t(w*), which can be negative at individual steps;
    the cumulative sum is the regret series. The project hook clips iterates
    back into the experiment's box after every optimizer step.
    """

    def __init__(self, exp: RegretExperiment):
        self.exp = exp
        self.name = f"regret-quadratics-{exp.dim}d"
        self.optimum = None
        self._star = 0.5 * ((exp.centers - exp.w_star) ** 2).sum(axis=1)
        self._t = 0

    def init_params(self) -> np.ndarray:
        return project_box(np.zeros(self.exp.dim), self.exp.lo, self.exp.hi)

    def loss_grad(self, w):
        if self._t >= self.exp.horizon:
            raise ConfigError(
                f"online stream exhausted after {self.exp.horizon} steps")
        c = self.exp.centers[self._t]
        star = float(self._star[self._t])
        self._t += 1
        d = w - c
        return 0.5 * float(d @ d) - star, d

    def project(self, w: np.ndarray) -> np.ndarray:
        return project_box(w, self.exp.lo, self.exp.hi)


def make_quadratic_stream(dim: int, horizon: int, seed: int,
                          center_scale: float = 1.0,
                          margin: float = 1.0) -> RegretExperiment:
    dim, horizon = check_count(dim, "dim"), check_count(horizon, "horizon")
    center_scale = check_positive(center_scale, "center_scale")
    margin = bounded(check_num, 0.0)(margin, "margin")
    rng = rng_stream(seed, STREAM_CENTERS)
    centers = rng.uniform(-center_scale, center_scale, size=(horizon, dim))
    lo = centers.min(axis=0) - margin
    hi = centers.max(axis=0) + margin
    return RegretExperiment(centers=centers, lo=lo, hi=hi,
                            w_star=centers.mean(axis=0))


def online_regret(exp: RegretExperiment, hp: HyperParams):
    """Projected online run of agd_amsgrad; returns the cumulative regret series.

    regret[T-1] = sum_{t<=T} (f_t(w_t) - f_t(w*)), the cumulative sum of the
    run's loss column. Positivity is guaranteed only at the full horizon,
    where w* is the exact offline minimizer. A run that diverges ends its
    series at the diverging step.
    """
    return np.cumsum(record_run(RegretProblem(exp), "agd_amsgrad", hp, exp.horizon,
                                snapshot_every=exp.horizon).loss)


def loglog_slope(series: np.ndarray) -> float:
    """Least-squares slope of log(max(series,1)) against log t over the final
    decade (t from T/10 to T)."""
    T = series.size
    if T < 10:
        raise ConfigError(f"series too short for a slope fit: {T}")
    t = np.arange(1, T + 1)
    mask = t >= max(1, int(0.1 * T))
    x = np.log(t[mask].astype(np.float64))
    y = np.log(np.maximum(series[mask], 1.0))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def norm_bound_check(grad_stream, hp: HyperParams, group_size: int | None = None):
    """Check sum_i v_{t,i} < n (2G+delta) / (1-beta1)^2 along a run.

    v_t = max(sqrt(b_t), delta*sqrt(1-beta2^t)) is the pre-step preconditioner
    and G bounds |g| entrywise over the stream. grad_stream is an iterable of
    (n,) rows, a (T, n) array among them, and is read once, one row at a time,
    so a generator of rows never holds the stream in memory. With group_size k
    dividing n, the coordinates are treated as n/k independent k-dimensional
    runs sharing one state (the update is coordinatewise, so this is exact)
    and the bound is checked per group with n = k. Returns the max observed
    ratio bound-side; < 1 everywhere means the claim held. A stream that is
    not iterable or is empty is refused with a ConfigError, and so is a row
    of another shape or with a non-finite entry, before it is stepped.
    """
    hp = check_hyperparams(hp)
    if not np.iterable(grad_stream):
        raise ConfigError(f"grad_stream must be an iterable of rows, got {grad_stream!r}")
    t, G, peak = 0, 0.0, 0.0
    for t, g in enumerate(grad_stream, 1):
        g = np.asarray(g, dtype=np.float64)
        if t == 1:
            if g.ndim != 1 or g.size == 0:
                raise ConfigError(f"grad_stream rows must be (n,) with n >= 1, got {g.shape}")
            n = g.size
            group_size = n if group_size is None else check_count(group_size, "group_size")
            if n % group_size != 0:
                raise ConfigError(f"group_size {group_size} must be a positive divisor of n={n}")
            state, w = init_state("agd", n, hp), np.zeros(n)
        # g.max() is nan if g holds a nan, and max() keeps a nan met first,
        # so top is finite only when every entry is
        top = max(g.max(), -g.min()) if g.shape == (n,) else math.nan
        if not math.isfinite(top):
            raise ConfigError(f"grad_stream row {t} must be {n} finite values")
        G = max(G, top)  # a max of row maxima is the stream's max: G is exact
        state, w, _ = agd_step(state, w, g, collect_histogram=False)
        v = np.maximum(np.sqrt(state.b), hp.delta * math.sqrt(1.0 - hp.beta2 ** t))
        peak = max(peak, v.reshape(-1, group_size).sum(axis=1).max())
    if t == 0:
        raise ConfigError("grad_stream is empty")
    # a HyperParams keeps beta1 < 1, so the bound's divisor is positive
    bound = group_size * (2.0 * float(G) + hp.delta) / (1.0 - hp.beta1) ** 2
    # correctly rounded division by a positive bound is monotone, so the
    # largest norm over the bound is the largest of the per-step ratios
    return float(peak) / bound, bound


def verify_suite(samples: int = 1_000_000, seed: int = 0,
                 hp: HyperParams | None = None) -> list[dict]:
    """Run all four checks; one report dict per claim.

    With samples below 1e4 the Monte-Carlo variance check cannot distinguish
    estimator noise from a real violation, so its result is marked
    inconclusive rather than failed.
    """
    samples = check_count(samples, "samples")
    hp = HyperParams(alpha=1e-3) if hp is None else check_hyperparams(hp)
    reports: list[dict] = []

    # 1. variance reduction of the debiased momentum average
    combos = [(b1, t) for b1 in (0.5, 0.9, 0.99) for t in (2, 10, 100)]
    # 2% at the reference 1e6 samples, widened as 1/sqrt(N) below that
    # to track the Monte-Carlo standard error
    tol = 0.02 * max(1.0, math.sqrt(1_000_000 / samples))
    observed = passed = None  # inconclusive: too few samples to resolve 2%
    if samples >= 10_000:
        worst = 0.0
        all_below_one = True
        for emp, ana in variance_ratio_mc(combos, samples, seed):
            worst = max(worst, abs(emp - ana) / ana)
            all_below_one = all_below_one and ana < 1.0
        observed, passed = worst, bool(worst < tol and all_below_one)
    reports.append({
        "claim": "variance_identity",
        "parameters": {"combos": combos, "samples": samples, "seed": seed},
        "observed": observed,
        "bound": tol,
        "passed": passed,
    })

    # 2. strictly decreasing effective step sizes
    grid = [(b1, sched, b2)
            for b1 in (0.5, 0.9)
            for sched in BETA1_KINDS
            for b2 in (0.0, 0.9, 0.999)]
    grid.append((0.99, "over_t", 0.9999))
    grid.append((0.0, "constant", 0.999))
    T = 100_000
    worst_rise = -math.inf
    for b1, sched, b2 in grid:
        series = alpha_hat_series(1e-3, b1, sched, b2, T)
        worst_rise = max(worst_rise, float(np.diff(series).max()))
    reports.append({
        "claim": "alpha_hat_strictly_decreasing",
        "parameters": {"grid_size": len(grid), "T": T},
        "observed": worst_rise,
        "bound": 0.0,
        "passed": bool(worst_rise < 0.0),
    })

    # 3. preconditioner norm bound along random bounded-gradient runs
    runs, steps, width, G = 1000, 500, 4, 5.0
    rng = rng_stream(seed, STREAM_GRADS)
    # row by row, the draws of one uniform(size=(steps, runs * width)) call
    stream = (rng.uniform(-G, G, size=runs * width) for _ in range(steps))
    max_ratio, bound = norm_bound_check(stream, hp, group_size=width)
    reports.append({
        "claim": "preconditioner_norm_bound",
        "parameters": {"runs": runs, "steps": steps, "n": width, "G": G,
                       "delta": hp.delta, "beta1": hp.beta1, "beta2": hp.beta2},
        "observed": max_ratio,
        "bound": 1.0,
        "passed": bool(max_ratio < 1.0),
    })

    # 4. sublinear regret of the projected online run
    exp = make_quadratic_stream(dim=2, horizon=10_000, seed=seed)
    hp_reg = HyperParams(alpha=0.5, beta1=0.9, beta2=0.999, delta=1e-8,
                         lr_schedule="inverse_sqrt", beta1_schedule="over_t")
    regret = online_regret(exp, hp_reg)
    slope = loglog_slope(regret)
    reports.append({
        "claim": "regret_sublinear",
        "parameters": {"dim": 2, "horizon": 10_000, "seed": seed,
                       "alpha": hp_reg.alpha},
        "observed": {"slope": slope, "final_regret": float(regret[-1])},
        "bound": {"slope": 0.6, "final_regret_min": 0.0},
        "passed": bool(slope <= 0.6 and regret[-1] >= 0.0),
    })
    return reports
