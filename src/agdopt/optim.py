"""The auto-switching gradient-difference optimizer and its baselines.

States are plain dataclasses over float64 vectors that also carry their step
counter and their hyperparameters, which `init_state` validates and binds
once; every step is a function of (state, w, g) and takes step
t = state.t + 1.

Buffer contract: a kernel never writes state, w or g. Called without `out`
it is pure and returns a fresh state; given `out`, a second state of the same
type and size, it overwrites out's vectors and fields and returns it, so a
loop that alternates two states allocates none per step (only the run loop
of `diagnostics` passes it). w' is a fresh array either way. Each vector
operation writes into a preallocated destination, in the order and with the
scalars of the equations below, so the bits are those of the plain
expressions. Above CHUNK coordinates the body runs one L2-sized chunk at a
time; elementwise arithmetic gives the same bits on a slice, and step_norm
stays one dot over the whole update.

Populations: `init_state(name, n, hps)` with a sequence of K HyperParams
makes one state for K independent runs of one optimizer. Its vectors are
(K, n), and every kernel steps it with the body it uses for one run: each
per-step coefficient (beta1_t, the learning rate, the debiasing terms,
delta, the decay factor) becomes the (K, 1) column of the rows' own values,
each computed by the same HyperParams expressions as for a lone run (or
stays one float where every row's is the same), and the reductions are
taken per row: truncation counts, step_norm through np.vecdot, which takes
each row's dot as np.dot does, and one histogram per row. So every row
carries the bits of its own run, whatever the other rows hold.

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
and works out decoupled weight decay; a kernel only applies its factor to w
as it writes w'.
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


# The vectors of a state are (n,) for one run and (K, n) for a population of
# K runs, whose hp is a tuple of K HyperParams and whose beta1_prod becomes a
# (K, 1) column once its rows' beta1_t differ.


@dataclass
class AgdState:
    m: np.ndarray              # first-moment EMA
    b: np.ndarray              # second-moment EMA of the momentum differences
    prev_corrected: np.ndarray  # m_{t-1} / (1 - B_{t-1}), cached between steps
    beta1_prod: float | np.ndarray  # B_t = prod_{i<=t} beta1_i, 1 before any step
    t: int
    hp: HyperParams | tuple[HyperParams, ...]
    amsgrad: bool


@dataclass
class AdamLikeState:
    m: np.ndarray
    v: np.ndarray
    beta1_prod: float | np.ndarray
    t: int
    hp: HyperParams | tuple[HyperParams, ...]
    variant: str  # "adam" | "adamw" | "adabelief"


@dataclass
class SgdState:
    buffer: np.ndarray  # momentum accumulator: buffer = mu*buffer + g
    t: int
    hp: HyperParams | tuple[HyperParams, ...]


def init_state(name: str, n: int, hp):
    """Fresh zeroed state for an optimizer by name, bound to hp once validated.

    hp is one HyperParams for one run, or a sequence of K of them for a
    population of K runs (see the module docstring).
    """
    if isinstance(hp, HyperParams):
        hp.validate()
        shape = n
    else:
        hp = tuple(hp)
        if not hp:
            raise ConfigError("a population needs at least one run")
        for h in hp:
            h.validate()
        shape = (len(hp), n)
    if name in ("agd", "agd_amsgrad"):
        return AgdState(m=np.zeros(shape), b=np.zeros(shape),
                        prev_corrected=np.zeros(shape), beta1_prod=1.0, t=0, hp=hp,
                        amsgrad=name == "agd_amsgrad")
    if name in ("adam", "adamw", "adabelief"):
        return AdamLikeState(m=np.zeros(shape), v=np.zeros(shape), beta1_prod=1.0, t=0,
                             hp=hp, variant=name)
    if name == "sgd":
        return SgdState(buffer=np.zeros(shape), t=0, hp=hp)
    raise ConfigError(f"unknown optimizer {name!r}; expected one of {OPTIMIZER_NAMES}")


# Above this many coordinates a kernel body runs chunk by chunk, so that each
# chunk's vectors stay in L2 between its ufunc passes.
CHUNK = 32_768

# Besides out's vectors a kernel writes two fresh arrays, the update and w',
# and no other scratch. Under decoupled decay w' = (w * decay) - update, with
# the two roundings of decaying w first and then stepping. The update holds the body's intermediate terms (`s`)
# until its last passes write the update itself there, and w' holds the rms
# estimate until the decayed w is written there and the update subtracted
# from it, unless a histogram needs that estimate whole. The ufuncs take
# their destination positionally, which costs less than out= on the tiny
# vectors of a 2-D problem (np.maximum accepts only out=).


def _chunked(body, n: int, arrays):
    """Run body over arrays of n coordinates; return the sum of its results.

    Up to CHUNK coordinates body runs once on the whole arrays, above it once
    per chunk of CHUNK coordinates on their slices (of every row).
    """
    if n <= CHUNK:
        return body(*arrays)
    total = 0
    for lo in range(0, n, CHUNK):
        total += body(*[a[..., lo:lo + CHUNK] for a in arrays])
    return total


def _per_row(terms, hp, t: int):
    """terms(hp, t), a tuple of floats, for one run's HyperParams.

    For a population's tuple of HyperParams each term becomes the (K, 1)
    column of terms(h, t) over its rows, so each row gets the float its own
    run gets; a term all rows share stays that one float, which broadcasts to
    the same bits at less cost. Zeros stay columns: 0.0 == -0.0, but the two
    can round differently.
    """
    if isinstance(hp, HyperParams):
        return terms(hp, t)
    return tuple(col[0] if col[0] != 0.0 and col.count(col[0]) == len(col)
                 else np.array(col)[:, None] for col in zip(*(terms(h, t) for h in hp)))


def _moment_terms(hp: HyperParams, t: int):
    """beta1_t, lr_t, 1 - beta2**t, beta2 and delta of step t (AGD, Adam)."""
    return hp.beta1_at(t), hp.lr_at(t), 1.0 - hp.beta2 ** t, hp.beta2, hp.delta


def _momentum_terms(hp: HyperParams, t: int):
    """lr_t and the momentum coefficient of step t (SGD)."""
    return hp.lr_at(t), hp.beta1


def _decay_terms(hp: HyperParams, t: int):
    """The factor 1 - lr_t * weight_decay of decoupled decay at step t."""
    return (1.0 - hp.lr_at(t) * hp.weight_decay,)


def _norm(update):
    """The 2-norm of the update, or of each row of a population's update."""
    if update.ndim == 1:
        return math.sqrt(float(np.dot(update, update)))
    return np.sqrt(np.vecdot(update, update))


def agd_step(state: AgdState, w, g, collect_histogram: bool = True, out=None,
             decay=None):
    """One auto-switching step; returns (state', w', diagnostics).

    state' is `out`, overwritten, when given, else a fresh AgdState; w' is
    always a fresh array. The inputs are never written. decay, the factor of
    decoupled weight decay that dispatch_step works out, multiplies w before
    the update is subtracted.
    """
    t, hp = state.t + 1, state.hp
    beta1_t, lr, bc2, beta2, delta = _per_row(_moment_terms, hp, t)
    beta1_prod = state.beta1_prod * beta1_t
    corr1 = 1.0 - beta1_prod
    if (corr1 <= 0.0) if isinstance(corr1, float) else (corr1 <= 0.0).any():
        raise ZeroDivisionError(
            f"bias correction 1 - beta1_power = {corr1}; beta1 must stay below 1"
        )
    scale = lr / corr1
    amsgrad = state.amsgrad
    if out is None:
        out = replace(state, m=np.empty_like(state.m), b=np.empty_like(state.b),
                      prev_corrected=np.empty_like(state.prev_corrected))

    def body(m0, b0, prev, g, w, m, b, corrected, s, new_w, bhat):
        # m = beta1_t * m0 + (1 - beta1_t) * g
        np.multiply(m0, beta1_t, m)
        np.multiply(g, 1.0 - beta1_t, s)
        np.add(m, s, m)
        # s = m / corr1 - prev (just m / corr1 at t = 1)
        np.divide(m, corr1, corrected)
        if t == 1:
            np.multiply(corrected, corrected, s)
        else:
            np.subtract(corrected, prev, s)
            np.multiply(s, s, s)
        # b = beta2 * b0 + (1 - beta2) * s**2
        np.multiply(s, 1.0 - beta2, s)
        np.multiply(b0, beta2, b)
        np.add(b, s, b)
        if amsgrad:
            np.maximum(b, b0, out=b)
        # bhat = sqrt(b / bc2); update = scale * m / max(bhat, delta)
        np.divide(b, bc2, bhat)
        np.sqrt(bhat, bhat)
        below = bhat < delta
        truncated = (int(np.count_nonzero(below)) if below.ndim == 1
                     else np.count_nonzero(below, axis=-1))
        np.maximum(bhat, delta, out=s)
        np.divide(m, s, s)
        np.multiply(s, scale, s)  # the update
        np.subtract(w if decay is None else np.multiply(w, decay, new_w), s, new_w)
        return truncated

    n = w.shape[-1]
    update, new_w = np.empty(w.shape), np.empty(w.shape)
    bhat = np.empty(w.shape) if collect_histogram else new_w
    truncated = _chunked(body, n, (state.m, state.b, state.prev_corrected, g, w,
                                   out.m, out.b, out.prev_corrected, update, new_w,
                                   bhat))
    diag = StepDiagnostics(
        truncation_fraction=truncated / n,
        step_norm=_norm(update),
        bhat_histogram=bhat_histogram(bhat) if collect_histogram else None,
    )
    out.beta1_prod, out.t, out.hp, out.amsgrad = beta1_prod, t, hp, amsgrad
    return out, new_w, diag


def adam_step(state: AdamLikeState, w, g, collect_histogram: bool = True, out=None,
              decay=None):
    """Bias-corrected Adam-family step: w <- w - lr_t * mhat / (sqrt(vhat) + delta).

    delta plays the usual epsilon role. v tracks g_t**2 for Adam and AdamW
    (whose decoupled decay dispatch_step applies). For AdaBelief v tracks
    (g_t - m_t)**2 plus delta each step, as the reference implementation does.
    `out`, decay and the returned arrays behave as in agd_step.
    """
    t, hp = state.t + 1, state.hp
    beta1_t, lr, bc2, beta2, delta = _per_row(_moment_terms, hp, t)
    beta1_prod = state.beta1_prod * beta1_t
    scale = lr / (1.0 - beta1_prod)
    belief = state.variant == "adabelief"
    if out is None:
        out = replace(state, m=np.empty_like(state.m), v=np.empty_like(state.v))

    def body(m0, v0, g, w, m, v, s, new_w, rms):
        # m = beta1_t * m0 + (1 - beta1_t) * g
        np.multiply(m0, beta1_t, m)
        np.multiply(g, 1.0 - beta1_t, s)
        np.add(m, s, m)
        # v = beta2 * v0 + (1 - beta2) * x**2 (+ delta), x = g - m or g
        if belief:
            np.subtract(g, m, s)
            np.multiply(s, s, s)
        else:
            np.multiply(g, g, s)
        np.multiply(s, 1.0 - beta2, s)
        np.multiply(v0, beta2, v)
        np.add(v, s, v)
        if belief:
            np.add(v, delta, v)
        # rms = sqrt(v / bc2); update = scale * m / (rms + delta)
        np.divide(v, bc2, rms)
        np.sqrt(rms, rms)
        np.add(rms, delta, s)
        np.divide(m, s, s)
        np.multiply(s, scale, s)  # the update
        np.subtract(w if decay is None else np.multiply(w, decay, new_w), s, new_w)
        return 0

    update, new_w = np.empty(w.shape), np.empty(w.shape)
    rms = np.empty(w.shape) if collect_histogram else new_w
    _chunked(body, w.shape[-1], (state.m, state.v, g, w, out.m, out.v, update, new_w,
                                 rms))
    diag = StepDiagnostics(
        truncation_fraction=0.0,
        step_norm=_norm(update),
        bhat_histogram=bhat_histogram(rms) if collect_histogram else None,
    )
    out.beta1_prod, out.t, out.hp, out.variant = beta1_prod, t, hp, state.variant
    return out, new_w, diag


# the same kernel; the variant of the AdamLikeState selects the AdaBelief moment
adabelief_step = adam_step


def sgd_momentum_step(state: SgdState, w, g, collect_histogram: bool = True, out=None,
                      decay=None):
    """Heavy-ball SGD: buffer <- mu*buffer + g, w <- w - lr_t*buffer.

    The momentum coefficient mu is hp.beta1. truncation_fraction is 1.0 by
    convention (every coordinate takes the momentum path) and there is no
    second-moment histogram. `out`, decay and the returned arrays behave as in
    agd_step.
    """
    t, hp = state.t + 1, state.hp
    lr, mu = _per_row(_momentum_terms, hp, t)
    if out is None:
        out = replace(state, buffer=np.empty_like(state.buffer))

    def body(buffer0, g, w, buffer, update, new_w):
        np.multiply(buffer0, mu, buffer)
        np.add(buffer, g, buffer)
        np.multiply(buffer, lr, update)
        np.subtract(w if decay is None else np.multiply(w, decay, new_w), update, new_w)
        return 0

    update, new_w = np.empty(w.shape), np.empty(w.shape)
    _chunked(body, w.shape[-1], (state.buffer, g, w, out.buffer, update, new_w))
    diag = StepDiagnostics(
        truncation_fraction=1.0,
        step_norm=_norm(update),
    )
    out.t, out.hp = t, hp
    return out, new_w, diag


def dispatch_step(state, w, g, collect_histogram: bool = True, out=None):
    """Route a uniform step to the optimizer owning `state`.

    Checks that params, gradient and the state's vectors share one shape,
    and works out the factor 1 - lr_t * weight_decay of the state's decoupled
    weight decay (a (K, 1) column for a population; rows without decay get
    exactly 1.0), which the kernel applies to w as it writes w'. `out`, a
    second state of the same type and size (not `state` itself), receives the
    new state in place of a fresh one.
    """
    if isinstance(state, AgdState):
        kernel, field = agd_step, "m"
    elif isinstance(state, AdamLikeState):
        kernel = adabelief_step if state.variant == "adabelief" else adam_step
        field = "m"
    elif isinstance(state, SgdState):
        kernel, field = sgd_momentum_step, "buffer"
    else:
        raise ConfigError(f"unrecognized optimizer state {type(state).__name__}")
    vec = getattr(state, field)
    if not w.shape == g.shape == vec.shape:
        raise ShapeError(f"shape mismatch: params {w.shape}, gradient {g.shape}, "
                         f"state {vec.shape}")
    if out is not None and (type(out) is not type(state) or out is state
                            or getattr(out, field).shape != vec.shape):
        raise ShapeError("out must be a second state of the same type and size")
    hp, t = state.hp, state.t + 1
    decay = None
    if (hp.weight_decay > 0.0 if isinstance(hp, HyperParams)
            else any(h.weight_decay > 0.0 for h in hp)):
        (decay,) = _per_row(_decay_terms, hp, t)
    return kernel(state, w, g, collect_histogram, out=out, decay=decay)
