"""Shared optimizer plumbing: hyperparameters and their schedules, step
diagnostics, and the uniform stepping contract.

Every optimizer works on flat float64 vectors and exposes a step of the shape

    (state, w, g) -> (state', w', StepDiagnostics)

where the state, made by `optim.init_state(name, n, hp)`, carries the
hyperparameters and the step counter; step t = state.t + 1 starts at 1.
Library steps are pure: inputs are never mutated, and a fresh state and a
fresh w' come back. A HyperParams checks its own domain when it is built, so
no state holds one outside it. `optimizer_step` is the front door for
library callers: it validates the vectors, hands the step to
`optim.dispatch_step` (which checks shapes and routes the step to the kernel
of the state's optimizer, by its name; each kernel applies decoupled weight
decay itself) and refuses a non-finite result. The kernels' optional `out=`
state, which they overwrite instead of allocating, also writing w' into w,
and `update=` buffer, which receives the update, are for the run loop of
`diagnostics` alone, which passes the input state itself to step its one
state and its own iterate in place, and its gradient buffer as the update;
no library path passes them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "ShapeError",
    "NumericError",
    "HyperParams",
    "StepDiagnostics",
    "optimizer_step",
    "as_param_vector",
    "bhat_histogram",
    "HIST_EDGES",
    "LR_KINDS",
    "BETA1_KINDS",
    "check_int", "check_num", "bounded", "one_of", "check_count", "check_positive",
    "check_hyperparams",
]


class ConfigError(ValueError):
    """A hyperparameter or configuration value outside its documented domain."""


class ShapeError(ValueError):
    """Mismatched or non-flat array shapes fed to a step."""


class NumericError(ArithmeticError):
    """A non-finite value where a finite one is required."""


def check_int(value, where: str) -> int:
    """An integer. Bools and non-integral numbers are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
            not isinstance(value, numbers.Integral) and not float(value).is_integer()):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def check_num(value, where: str) -> float:
    """A finite real number. Strings and bools are rejected, not coerced."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def bounded(check, lo, strict: bool = False, below=None):
    """`check`, then require the value >= lo (> lo when strict) and, when
    `below` is given, < below."""
    domain = (f"{'>' if strict else '>='} {lo}" if below is None
              else f"in {'(' if strict else '['}{lo}, {below})")

    def bounded(value, where: str):
        x = check(value, where)
        if x < lo or (strict and x == lo) or (below is not None and x >= below):
            raise ConfigError(f"{where} must be {domain}, got {x}")
        return x
    return bounded


def one_of(*choices: str):
    """A string among `choices`."""
    def one_of(value, where: str) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"{where} must be one of {choices}, got {value!r}")
        return value
    return one_of


# an integer >= 1: a step budget, a cadence or a vector length
check_count = bounded(check_int, 1)
# a finite real > 0: a step size, a tolerance or a scale
check_positive = bounded(check_num, 0.0, strict=True)


LR_KINDS = ("constant", "inverse_sqrt", "milestones")
BETA1_KINDS = ("constant", "over_sqrt_t", "over_t")
_UNIT = bounded(check_num, 0, below=1)
# the domain of each real field of HyperParams, in field order
_REALS = {"alpha": check_positive, "beta1": _UNIT, "beta2": _UNIT, "delta": check_positive,
          "weight_decay": bounded(check_num, 0)}


@dataclass(frozen=True)
class HyperParams:
    """Hyperparameters shared across the optimizers.

    beta1 doubles as the momentum coefficient for plain SGD. delta is the
    auto-switch threshold for the gradient-difference optimizer and the
    denominator epsilon for the Adam family. weight_decay is decoupled:
    w <- w - lr_t * weight_decay * w before the optimizer-specific update.
    Each value is checked when the instance is built, `dataclasses.replace`
    included, and a ConfigError names the first one outside its domain. The
    instance keeps what it checked: the reals as floats and milestones as a
    tuple of (int step, float factor) pairs, so it is hashable.
    """

    alpha: float
    beta1: float = 0.9
    beta2: float = 0.999
    delta: float = 1e-8
    weight_decay: float = 0.0
    lr_schedule: str = "constant"
    milestones: tuple[tuple[int, float], ...] = ()
    beta1_schedule: str = "constant"

    def __post_init__(self) -> None:
        for name, check in _REALS.items():
            object.__setattr__(self, name, check(getattr(self, name), name))
        one_of(*LR_KINDS)(self.lr_schedule, "lr schedule")
        one_of(*BETA1_KINDS)(self.beta1_schedule, "beta1 schedule")
        if not isinstance(self.milestones, (tuple, list)):
            raise ConfigError(f"milestones must be a list of (step, factor) pairs, "
                              f"got {self.milestones!r}")
        pairs = []
        for entry in self.milestones:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
                raise ConfigError(f"bad milestone {entry!r}; expected (step, factor)")
            pairs.append((check_count(entry[0], "milestone step"),
                          check_positive(entry[1], "milestone factor")))
        object.__setattr__(self, "milestones", tuple(pairs))

    def lr_at(self, t: int) -> float:
        """constant: alpha; inverse_sqrt: alpha / sqrt(t); milestones: alpha
        times every factor whose step is <= t."""
        if t < 1:
            raise ConfigError(f"schedule evaluated at t={t}; steps start at 1")
        if self.lr_schedule == "constant":
            return self.alpha
        if self.lr_schedule == "inverse_sqrt":
            return self.alpha / math.sqrt(t)
        lr = self.alpha
        for step, factor in self.milestones:
            if step <= t:
                lr *= factor
        return lr

    def beta1_at(self, t: int) -> float:
        """Momentum coefficient; over_sqrt_t and over_t decay the base."""
        if t < 1:
            raise ConfigError(f"schedule evaluated at t={t}; steps start at 1")
        if self.beta1_schedule == "constant":
            return self.beta1
        if self.beta1_schedule == "over_sqrt_t":
            return self.beta1 / math.sqrt(t)
        return self.beta1 / t  # over_t


def check_hyperparams(value, where: str = "hp") -> HyperParams:
    """A HyperParams, which has checked its own domain when built."""
    if not isinstance(value, HyperParams):
        raise ConfigError(f"{where} must be a HyperParams, got {value!r}")
    return value


# Histogram convention for the rms preconditioner estimate: 18 base-10 decade
# bins spanning [1e-16, 1e2), plus an underflow bucket (index 0, includes
# exact zeros) and an overflow bucket (index 19).
HIST_EDGES = 10.0 ** np.arange(-16, 3)
HIST_BINS = HIST_EDGES.size + 1


# Above this many coordinates a kernel body runs chunk by chunk, so that each
# chunk's vectors stay in L2 between its ufunc passes.
CHUNK = 32_768


def chunked(body, n: int, arrays):
    """Run body over arrays of n coordinates; return the sum of its results.

    Up to CHUNK coordinates body runs once on the whole arrays, above it once
    per chunk of CHUNK coordinates on their slices (of every row). Above
    CHUNK an array of CHUNK coordinates is scratch that every chunk reuses:
    each gets as many of its first coordinates as it has.
    """
    if n <= CHUNK:
        return body(*arrays)
    total = 0
    for lo in range(0, n, CHUNK):
        total += body(*[a[..., lo:lo + CHUNK] if a.shape[-1] == n else a[..., :n - lo]
                        for a in arrays])
    return total


def sum_squares(x: np.ndarray):
    """The sum of squares of a vector, or of each row of a (K, n) block.

    The one sum of squares behind every 2-norm the outputs report: step_norm,
    the run loop's tolerance test, and the final distances of a run and a
    race. np.vecdot rounds each row as np.dot does, through the BLAS dot,
    whose rounding depends on the BLAS kernel the CPU selects.
    """
    return np.vecdot(x, x)


def bhat_histogram(values: np.ndarray) -> np.ndarray:
    """Counts per bucket; always sums to values.size.

    A (K, n) block of K runs gives a (K, HIST_BINS) array, one histogram per
    row, from one searchsorted and one bincount over row-offset buckets.
    Above CHUNK coordinates the counts are those of the chunks added up, so
    the bucket indices never take a whole vector's worth of memory.
    """
    return chunked(_bucket_counts, values.shape[-1], (values,))


def _bucket_counts(values: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(HIST_EDGES, values, side="right")
    if idx.ndim == 1:
        return np.bincount(idx, minlength=HIST_BINS)
    k = idx.shape[0]
    idx += np.arange(0, k * HIST_BINS, HIST_BINS)[:, None]
    return np.bincount(idx.ravel(), minlength=k * HIST_BINS).reshape(k, HIST_BINS)


@dataclass
class StepDiagnostics:
    """Per-step observables.

    truncation_fraction: share of coordinates riding the switch floor
      (1.0 by convention for SGD, 0.0 for the Adam family).
    bhat_histogram: bucket counts per `bhat_histogram`, or None when the
      caller asked to skip collection or the optimizer has no second moment.
    step_norm: the 2-norm of the optimizer's own update. Decoupled weight
      decay is applied before the update and is not counted.

    A population step (see `optim.init_state`) reports one value per row:
    (K,) truncation_fraction and step_norm arrays (a constant fraction may
    stay one float) and a (K, HIST_BINS) histogram block.
    """

    truncation_fraction: float
    step_norm: float
    bhat_histogram: np.ndarray | None = None


def as_param_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a flat float64 array, rejecting non-finite entries."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"{name} must not be empty")
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise NumericError(f"{name}[{bad}] is {arr[bad]!r}; finite values required")
    return arr


def optimizer_step(state, w, g, collect_histogram: bool = True):
    """Validated uniform step: input checks, dispatch, output check.

    Returns (state', w', StepDiagnostics). Raises ShapeError / NumericError /
    ConfigError on malformed input; never returns non-finite parameters.
    """
    from . import optim  # deferred to avoid an import cycle

    if not isinstance(state.hp, HyperParams):
        raise ShapeError("optimizer_step takes the state of one run, not a population")
    w = as_param_vector(w, "params")
    g = as_param_vector(g, "gradient")
    new_state, new_w, diag = optim.dispatch_step(
        state, w, g, collect_histogram=collect_histogram
    )
    if not np.isfinite(new_w).all():
        bad = int(np.flatnonzero(~np.isfinite(new_w))[0])
        raise NumericError(f"step produced non-finite params[{bad}] = {new_w[bad]!r}")
    return new_state, new_w, diag
