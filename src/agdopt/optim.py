"""The auto-switching gradient-difference optimizer and its baselines.

States are plain dataclasses over float64 vectors that also carry their step
counter and their hyperparameters, which `init_state` validates and binds
once; every step is a pure function of (state, w, g) and takes step
t = state.t + 1.

Main update (per coordinate, defaults beta1=0.9, beta2=0.999):

    m_t = beta1_t * m_{t-1} + (1 - beta1_t) * g_t
    s_t = m_t / (1 - B_t) - m_{t-1} / (1 - B_{t-1})      (s_1 = m_1 / (1 - B_1))
    b_t = beta2 * b_{t-1} + (1 - beta2) * s_t**2
    w  <- w - lr_t * sqrt(1 - beta2**t) / (1 - B_t)
              * m_t / max(sqrt(b_t), delta * sqrt(1 - beta2**t))

where B_t = prod_{i<=t} beta1_i (just beta1**t for a constant schedule), so a
decaying beta1 schedule keeps the momentum average unbiased. The denominator is
evaluated as max(bhat_t, delta) with bhat_t = sqrt(b_t / (1 - beta2**t)): the
same quantity with numerator and denominator both divided by sqrt(1 - beta2**t).
s_t estimates curvature lr_t ago (difference of consecutive debiased momentum
averages), so coordinates whose recent gradients barely moved have bhat below
delta and fall back to a momentum-SGD step with effective rate lr_t / delta;
the rest take an rms-preconditioned step. The amsgrad flag additionally keeps
b_t elementwise non-decreasing, which the sublinear-regret run mode requires.

The Adam / AdamW / AdaBelief and SGD+momentum baselines share the same calling
convention so runs and races can treat optimizers uniformly. One Adam-family
kernel serves all three variants: AdamW differs from Adam only through the
decoupled weight decay, and AdaBelief feeds the second moment with g_t - m_t
instead of g_t. `dispatch_step` is the one place that checks a step's shapes
and applies decoupled weight decay; the kernels only compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ConfigError, HyperParams, ShapeError, StepDiagnostics, bhat_histogram

__all__ = [
    "AgdState",
    "AdamLikeState",
    "SgdState",
    "OPTIMIZER_NAMES",
    "init_state",
    "agd_step",
    "adam_step",
    "adabelief_step",
    "sgd_momentum_step",
    "dispatch_step",
]

OPTIMIZER_NAMES = ("agd", "agd_amsgrad", "adam", "adamw", "adabelief", "sgd")


@dataclass
class AgdState:
    m: np.ndarray              # first-moment EMA
    b: np.ndarray              # second-moment EMA of the momentum differences
    prev_corrected: np.ndarray  # m_{t-1} / (1 - B_{t-1}), cached between steps
    beta1_prod: float          # B_t = prod_{i<=t} beta1_i, 1.0 before any step
    t: int
    hp: HyperParams
    amsgrad: bool


@dataclass
class AdamLikeState:
    m: np.ndarray
    v: np.ndarray
    beta1_prod: float
    t: int
    hp: HyperParams
    variant: str  # "adam" | "adamw" | "adabelief"


@dataclass
class SgdState:
    buffer: np.ndarray  # momentum accumulator: buffer = mu*buffer + g
    t: int
    hp: HyperParams


def init_state(name: str, n: int, hp: HyperParams):
    """Fresh zeroed state for an optimizer by name, bound to hp once validated."""
    hp.validate()
    if name in ("agd", "agd_amsgrad"):
        return AgdState(m=np.zeros(n), b=np.zeros(n), prev_corrected=np.zeros(n),
                        beta1_prod=1.0, t=0, hp=hp, amsgrad=name == "agd_amsgrad")
    if name in ("adam", "adamw", "adabelief"):
        return AdamLikeState(m=np.zeros(n), v=np.zeros(n), beta1_prod=1.0, t=0, hp=hp,
                             variant=name)
    if name == "sgd":
        return SgdState(buffer=np.zeros(n), t=0, hp=hp)
    raise ConfigError(f"unknown optimizer {name!r}; expected one of {OPTIMIZER_NAMES}")


def agd_step(state: AgdState, w, g, collect_histogram: bool = True):
    """One auto-switching step; returns (state', w', diagnostics)."""
    t, hp = state.t + 1, state.hp
    beta1_t = hp.beta1_at(t)
    m = beta1_t * state.m + (1.0 - beta1_t) * g
    beta1_prod = state.beta1_prod * beta1_t
    corr1 = 1.0 - beta1_prod
    if corr1 <= 0.0:
        raise ZeroDivisionError(
            f"bias correction 1 - beta1_power = {corr1}; beta1 must stay below 1"
        )
    corrected = m / corr1
    s = corrected if t == 1 else corrected - state.prev_corrected

    b = hp.beta2 * state.b + (1.0 - hp.beta2) * (s * s)
    if state.amsgrad:
        b = np.maximum(b, state.b)

    bc2 = 1.0 - hp.beta2 ** t
    bhat = np.sqrt(b / bc2)
    denom = np.maximum(bhat, hp.delta)

    lr = hp.lr_at(t)
    scale = lr / corr1
    update = scale * (m / denom)
    new_w = w - update

    truncated = int(np.count_nonzero(bhat < hp.delta))
    diag = StepDiagnostics(
        truncation_fraction=truncated / w.size,
        step_norm=math.sqrt(float(np.dot(update, update))),
        bhat_histogram=bhat_histogram(bhat) if collect_histogram else None,
    )
    new_state = AgdState(
        m=m, b=b, prev_corrected=corrected, beta1_prod=beta1_prod, t=t, hp=hp,
        amsgrad=state.amsgrad,
    )
    return new_state, new_w, diag


def adam_step(state: AdamLikeState, w, g, collect_histogram: bool = True):
    """Bias-corrected Adam-family step: w <- w - lr_t * mhat / (sqrt(vhat) + delta).

    delta plays the usual epsilon role. v tracks g_t**2 for Adam and AdamW
    (whose decoupled decay dispatch_step applies). For AdaBelief v tracks
    (g_t - m_t)**2 plus delta each step, as the reference implementation does.
    """
    t, hp = state.t + 1, state.hp
    beta1_t = hp.beta1_at(t)
    m = beta1_t * state.m + (1.0 - beta1_t) * g
    beta1_prod = state.beta1_prod * beta1_t
    corr1 = 1.0 - beta1_prod
    belief = state.variant == "adabelief"
    moment_in = g - m if belief else g
    v = hp.beta2 * state.v + (1.0 - hp.beta2) * (moment_in * moment_in)
    if belief:
        v = v + hp.delta

    bc2 = 1.0 - hp.beta2 ** t
    rms = np.sqrt(v / bc2)
    denom = rms + hp.delta
    scale = hp.lr_at(t) / corr1
    update = scale * (m / denom)
    new_w = w - update

    diag = StepDiagnostics(
        truncation_fraction=0.0,
        step_norm=math.sqrt(float(np.dot(update, update))),
        bhat_histogram=bhat_histogram(rms) if collect_histogram else None,
    )
    new_state = replace(state, m=m, v=v, beta1_prod=beta1_prod, t=t)
    return new_state, new_w, diag


# the same kernel; the variant of the AdamLikeState selects the AdaBelief moment
adabelief_step = adam_step


def sgd_momentum_step(state: SgdState, w, g, collect_histogram: bool = True):
    """Heavy-ball SGD: buffer <- mu*buffer + g, w <- w - lr_t*buffer.

    The momentum coefficient mu is hp.beta1. truncation_fraction is 1.0 by
    convention (every coordinate takes the momentum path) and there is no
    second-moment histogram.
    """
    t, hp = state.t + 1, state.hp
    buffer = hp.beta1 * state.buffer + g
    lr = hp.lr_at(t)
    update = lr * buffer
    new_w = w - update
    diag = StepDiagnostics(
        truncation_fraction=1.0,
        step_norm=math.sqrt(float(np.dot(update, update))),
    )
    return SgdState(buffer=buffer, t=t, hp=hp), new_w, diag


def dispatch_step(state, w, g, collect_histogram: bool = True):
    """Route a uniform step to the optimizer owning `state`.

    Checks that params, gradient and the state's vectors share one shape,
    then applies the state's decoupled weight decay before the kernel's
    update; the kernels themselves do neither.
    """
    if isinstance(state, AgdState):
        kernel, vec = agd_step, state.m
    elif isinstance(state, AdamLikeState):
        kernel = adabelief_step if state.variant == "adabelief" else adam_step
        vec = state.m
    elif isinstance(state, SgdState):
        kernel, vec = sgd_momentum_step, state.buffer
    else:
        raise ConfigError(f"unrecognized optimizer state {type(state).__name__}")
    if not w.shape == g.shape == vec.shape:
        raise ShapeError(f"shape mismatch: params {w.shape}, gradient {g.shape}, "
                         f"state {vec.shape}")
    hp = state.hp
    if hp.weight_decay > 0.0:
        w = w * (1.0 - hp.lr_at(state.t + 1) * hp.weight_decay)
    return kernel(state, w, g, collect_histogram)
