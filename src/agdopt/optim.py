"""The auto-switching gradient-difference optimizer and its baselines.

States are plain dataclasses over float64 vectors that also carry their step
counter, their hyperparameters, which `init_state` binds once (a HyperParams
checks its own domain when built), and the name of their optimizer, one of
OPTIMIZER_NAMES; every step is a function of (state, w, g) and takes step
t = state.t + 1. Every state's first vector is m. The five moment optimizers
share one state type, MomentState, of two vectors, m and b, whose b is AGD's
b_t below and the Adam family's v_t: the previous debiased average in s_t is
recomputed from m and B_{t-1} rather than kept. SgdState holds m alone.

Buffer contract: a kernel never writes g. Called without `out` it is pure:
it writes none of its inputs and returns a fresh state and a fresh w'. Given
`out`, a state of the same optimizer and size, state itself included, it
steps in place: it overwrites out's vectors and fields, writes w' into w and
returns out and w, so a loop that steps its one state in place allocates no
state and no iterate per step (only the run loop of `diagnostics` passes
it). The body reads each old value (m0, b0, B_{t-1}, w, and g, which may be
w itself) before any write that could overwrite it, so an in-place step
gives the bits of a pure one. Each vector operation writes into a
preallocated destination, in the order and with the scalars of the equations
below, so the bits are those of the plain expressions. Above CHUNK
coordinates the body runs one L2-sized chunk at a time; elementwise
arithmetic gives the same bits on a slice, step_norm stays one dot over the
whole update, and the histogram adds up its chunks' counts, as
bhat_histogram does. A state from init_state takes this NumPy body at every
n. The run loop's float lane keeps a lone run of at most FLOAT_MAX_N
coordinates as a state whose vectors are Python floats, and each kernel
steps such a state in one loop over its coordinates, from the step constants
its NumPy body reads: the same operations on floats, which give the same
bits at a fraction of the ufunc calls' cost.

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
the rest take an rms-preconditioned step. agd_amsgrad additionally keeps b_t
elementwise non-decreasing, which the sublinear-regret run mode requires.

The Adam / AdamW / AdaBelief and SGD+momentum baselines share the same calling
convention so runs and races can treat optimizers uniformly. One kernel serves
five optimizers under three names (agd_step, adam_step, adabelief_step): AGD
and agd_amsgrad, and the Adam family, which differs from AGD only in feeding
the second moment with g_t (Adam; AdamW adds nothing but the decoupled weight
decay) or g_t - m_t (AdaBelief) and dividing by sqrt(vhat) + delta. The
state's name picks the rules.
Every kernel applies decoupled weight decay itself, multiplying w by the
factor 1 - lr_t * weight_decay as it writes w', from the same lr_t as its
update. `dispatch_step` is the one place that checks a step's shapes, and
routes the step by the state's name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (  # CHUNK is re-exported for cli
    CHUNK,
    ConfigError,
    HyperParams,
    ShapeError,
    StepDiagnostics,
    bhat_histogram,
    check_count,
    check_hyperparams,
    chunked,
    one_of,
)

__all__ = [
    "MomentState",
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
class MomentState:
    # two vectors: an AGD step recomputes the previous debiased average
    # m_{t-1} / (1 - B_{t-1}) from m and beta1_prod
    m: np.ndarray              # first-moment EMA
    b: np.ndarray              # second-moment EMA: AGD's b_t, the Adam family's v_t
    beta1_prod: float | np.ndarray  # B_t = prod_{i<=t} beta1_i, 1 before any step
    t: int
    hp: HyperParams | tuple[HyperParams, ...]
    name: str  # "agd" | "agd_amsgrad" | "adam" | "adamw" | "adabelief"

    @property
    def prev_corrected(self) -> np.ndarray:
        """The debiased average m_t / (1 - B_t) that AGD's next step
        subtracts, zeros before any step. Read-only, computed on each read."""
        m = np.asarray(self.m)
        return np.zeros_like(m) if self.t == 0 else m / (1.0 - self.beta1_prod)


@dataclass
class SgdState:
    m: np.ndarray  # momentum accumulator: m = mu*m + g
    t: int
    hp: HyperParams | tuple[HyperParams, ...]
    name = "sgd"  # a class attribute: vars() and replace() see m, t and hp


def init_state(name: str, n: int, hp):
    """Fresh zeroed state for an optimizer by name, bound to hp.

    hp is one HyperParams for one run, or a sequence of K of them for a
    population of K runs (see the module docstring).
    """
    name, n = one_of(*OPTIMIZER_NAMES)(name, "optimizer"), check_count(n, "n")
    if isinstance(hp, HyperParams):
        shape = n
    else:
        hp = tuple(check_hyperparams(h, "a population row") for h in hp)
        if not hp:
            raise ConfigError("a population needs at least one run")
        shape = (len(hp), n)
    if name == "sgd":
        return SgdState(m=np.zeros(shape), t=0, hp=hp)
    return MomentState(m=np.zeros(shape), b=np.zeros(shape), beta1_prod=1.0, t=0, hp=hp,
                       name=name)


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


def _decay(hp: HyperParams, lr: float) -> float:
    """The factor 1 - lr_t * weight_decay of decoupled decay, given lr_t.

    Exactly 1.0 without decay, also where a milestone product overflowed lr_t
    to inf (inf * 0.0 would make it NaN).
    """
    return 1.0 - lr * hp.weight_decay if hp.weight_decay else 1.0


def _moment_terms(hp: HyperParams, t: int):
    """beta1_t, lr_t, the decay factor, 1 - beta2**t, beta2 and delta of step
    t (AGD, Adam)."""
    lr = hp.lr_at(t)
    return hp.beta1_at(t), lr, _decay(hp, lr), 1.0 - hp.beta2 ** t, hp.beta2, hp.delta


def _momentum_terms(hp: HyperParams, t: int):
    """lr_t, the decay factor and the momentum coefficient of step t (SGD)."""
    lr = hp.lr_at(t)
    return lr, _decay(hp, lr), hp.beta1


def _norm(update):
    """The 2-norm of the update, or of each row of a population's update,
    from one np.vecdot for both shapes, which rounds a row's dot as np.dot
    does."""
    return np.sqrt(np.vecdot(update, update))


# One kernel serves AGD and the Adam family, and reads the rules from the
# state's name, compared inline on every step. Its second moment b, AGD's b_t
# or the Adam family's v_t, is fed with x**2. AGD's x is s_t, the debiased
# average m / corr1 less the previous one, m0 / corr0, which it recomputes
# from the state's m and B_{t-1} through the same 1 - B expression the
# previous step divided by, so it gets that step's bits; it divides by the
# floor max(bhat, delta) and counts the truncated coordinates, and
# agd_amsgrad clamps b below by its last value. The Adam family divides by
# rms + delta; its x is g_t, or g_t - m_t for AdaBelief, which adds delta
# after the EMA.
#
# Besides out's vectors and w', which is w itself when out is given, the
# kernel allocates two arrays: the update, whole for step_norm's one dot, and
# `r`, one chunk wide, which every chunk reuses. The update holds the body's
# intermediate terms (`s`) until its last passes write the update there. r
# holds AGD's m0 / corr0, agd_amsgrad's unclamped b and then the rms
# estimate, whose histogram is taken chunk by chunk and added up. The last
# pass writes w' = (w * decay) - update, decaying first, after every read of
# that chunk's w and g (g may be w); where every row's factor is exactly 1.0
# the product is w itself, and the body skips that pass over w. out's m and b
# may be the state's own m0 and b0, so AGD takes m0 / corr0 before m is
# written, and agd_amsgrad builds its new b in r before the clamp by b0
# writes b. The ufuncs take their destination positionally, which costs less
# than out= on the tiny vectors of a 2-D problem (np.maximum accepts only
# out=).


def agd_step(state: MomentState, w, g, collect_histogram: bool = True, out=None):
    """One step of AGD or of the Adam family; returns (state', w', diagnostics).

    A state named agd or agd_amsgrad takes the auto-switching update above.
    One of the Adam family takes w <- w - lr_t * mhat / (sqrt(vhat) + delta),
    where delta plays the usual epsilon role and b tracks g_t**2 (Adam,
    AdamW) or (g_t - m_t)**2 plus delta each step (AdaBelief, as the
    reference implementation does).
    adam_step and adabelief_step are this function.

    Given `out`, state' is out, overwritten, and w' is w, stepped in place;
    without it both are fresh and no input is written. g is never written.
    w is multiplied by the factor of decoupled weight decay before the update
    is subtracted.
    """
    t, hp, name = state.t + 1, state.hp, state.name
    beta1_t, lr, decay, bc2, beta2, delta = _per_row(_moment_terms, hp, t)
    beta1_prod = state.beta1_prod * beta1_t
    # no guard needed: a HyperParams has each beta1_t in [0, 1), so their
    # product stays below 1 and corr1 > 0 (corr0 > 0 from step 2)
    corr0, corr1 = 1.0 - state.beta1_prod, 1.0 - beta1_prod
    scale = lr / corr1
    amsgrad, belief = name == "agd_amsgrad", name == "adabelief"
    agd = amsgrad or name == "agd"
    if type(state.m) is tuple:  # the float lane (see FLOAT_MAX_N)
        rows, truncated, a1, a2 = [], 0, 1.0 - beta1_t, 1.0 - beta2
        for m0, b0, gi, wi in zip(state.m, state.b, g.tolist(), w.tolist()):
            m = m0 * beta1_t + gi * a1
            if agd:
                x = m / corr1
                if t > 1:
                    x = x - m0 / corr0
            else:
                x = gi - m if belief else gi
            b = b0 * beta2 + x * x * a2
            if amsgrad:
                b = b0 if b < b0 else b
            if belief:
                b += delta
            r = math.sqrt(b / bc2)
            if agd:
                below = r < delta
                truncated += below
                u = m / (delta if below else r) * scale
            else:
                u = m / (r + delta) * scale
            rows.append((m, b, u, wi * decay - u, r))
        out.m, out.b, update, new_w, r = zip(*rows)
        out.beta1_prod, out.t, out.hp, out.name = beta1_prod, t, hp, name
        diag = None if collect_histogram is None else StepDiagnostics(
            truncated / len(rows), _norm(np.array(update)),
            bhat_histogram(np.array(r)) if collect_histogram else None)
        w[:] = new_w
        return out, w, diag
    decayed = type(decay) is np.ndarray or decay != 1.0
    new_w = w if out is not None else np.empty(w.shape)
    if out is None:
        out = replace(state, m=np.empty_like(state.m), b=np.empty_like(state.b))
    n, hist = w.shape[-1], None

    def body(m0, b0, g, w, m, b, s, new_w, r):
        nonlocal hist
        # m0 / corr0 into r, free until the rms estimate, before m (maybe m0)
        # is written
        if agd and t > 1:
            np.divide(m0, corr0, r)
        # m = beta1_t * m0 + (1 - beta1_t) * g
        np.multiply(m0, beta1_t, m)
        np.multiply(g, 1.0 - beta1_t, s)
        np.add(m, s, m)
        # x = m / corr1 - m0 / corr0 (just m / corr1 at t = 1), g - m or g
        x = g
        if agd:
            x = np.divide(m, corr1, s)
            if t > 1:
                np.subtract(s, r, s)
        elif belief:
            x = np.subtract(g, m, s)
        # b = beta2 * b0 + (1 - beta2) * x**2, then the clamp or + delta;
        # agd_amsgrad builds it in r, as its clamp reads b0 (maybe b)
        np.multiply(x, x, s)
        np.multiply(s, 1.0 - beta2, s)
        new_b = r if amsgrad else b
        np.multiply(b0, beta2, new_b)
        np.add(new_b, s, new_b)
        if amsgrad:
            np.maximum(r, b0, out=b)
        if belief:
            np.add(b, delta, b)
        # r = sqrt(b / bc2); update = scale * m / max(r, delta) or / (r + delta)
        np.divide(b, bc2, r)
        np.sqrt(r, r)
        truncated = 0
        if agd:
            below = r < delta
            truncated = (int(np.count_nonzero(below)) if below.ndim == 1
                         else np.count_nonzero(below, axis=-1))
            np.maximum(r, delta, out=s)
        else:
            np.add(r, delta, s)
        if collect_histogram:  # this chunk's counts, added to the earlier chunks'
            hist = bhat_histogram(r) if hist is None else hist + bhat_histogram(r)
        np.divide(m, s, s)
        np.multiply(s, scale, s)  # the update
        np.subtract(np.multiply(w, decay, new_w) if decayed else w, s, new_w)
        return truncated

    update = np.empty(w.shape)
    r = np.empty(w.shape if n <= CHUNK else w.shape[:-1] + (CHUNK,))  # chunk scratch
    truncated = chunked(body, n, (state.m, state.b, g, w, out.m, out.b, update, new_w, r))
    diag = StepDiagnostics(
        truncation_fraction=truncated / n,
        step_norm=_norm(update),
        bhat_histogram=hist,
    )
    out.beta1_prod, out.t, out.hp, out.name = beta1_prod, t, hp, name
    return out, new_w, diag


adam_step = adabelief_step = agd_step


def sgd_momentum_step(state: SgdState, w, g, collect_histogram: bool = True, out=None):
    """Heavy-ball SGD: m <- mu*m + g, w <- w - lr_t*m.

    The momentum coefficient mu is hp.beta1. truncation_fraction is 1.0 by
    convention (every coordinate takes the momentum path) and there is no
    second-moment histogram. `out`, weight decay and the returned arrays
    behave as in agd_step.
    """
    t, hp = state.t + 1, state.hp
    lr, decay, mu = _per_row(_momentum_terms, hp, t)
    if type(state.m) is tuple:  # the float lane (see FLOAT_MAX_N)
        rows = []
        for m0, gi, wi in zip(state.m, g.tolist(), w.tolist()):
            m = m0 * mu + gi
            u = m * lr
            rows.append((m, u, wi * decay - u))
        out.m, update, new_w = zip(*rows)
        out.t, out.hp = t, hp
        diag = None if collect_histogram is None else StepDiagnostics(1.0, _norm(np.array(update)))
        w[:] = new_w
        return out, w, diag
    decayed = type(decay) is np.ndarray or decay != 1.0
    new_w = w if out is not None else np.empty(w.shape)
    if out is None:
        out = replace(state, m=np.empty_like(state.m))

    def body(m0, g, w, m, update, new_w):
        np.multiply(m0, mu, m)
        np.add(m, g, m)
        np.multiply(m, lr, update)
        np.subtract(np.multiply(w, decay, new_w) if decayed else w, update, new_w)
        return 0

    update = np.empty(w.shape)
    chunked(body, w.shape[-1], (state.m, g, w, out.m, update, new_w))
    diag = StepDiagnostics(
        truncation_fraction=1.0,
        step_norm=_norm(update),
    )
    out.t, out.hp = t, hp
    return out, new_w, diag


# The float lane: the run loop (diagnostics._Population) keeps a lone run of
# at most FLOAT_MAX_N coordinates as a state whose vectors are tuples of
# Python floats, chosen from n when the run starts, and each kernel steps such
# a state in its float loop, one pass over the coordinates, where each of the
# NumPy body's ufunc calls would cost more in call overhead than in
# arithmetic. It reads the step constants the kernel computed once for both
# lanes, and repeats every operation of the NumPy body in the same order and
# association, so the bits are the same: a max is a comparison that keeps
# np.maximum's NaN, and a square a product (Python's float ** raises
# OverflowError where * gives inf). w and g stay arrays at the kernel's
# boundary, and w' is written into w once the loop has read both; out, which
# the run loop always passes as the state itself, has its vectors replaced,
# never written into. step_norm and the histogram still come from NumPy, as
# np.dot rounds unlike a sum in Python;
# collect_histogram=None (a race's steps) builds no diagnostics at all. The
# limit stays below where the loop's per-coordinate cost catches up:
# a dispatch_step(..., collect_histogram=False) on an init_state state took
# this many times as long as on the same state with its vectors as floats
# (median of 21 interleaved pairs of 2000 steps, 2-core x86-64, Python 3.11,
# NumPy 2.4.6):
#
#     n            1     2     4     8     16
#     agd          3.46  2.39  2.03  1.55  1.12
#     agd_amsgrad  3.65  2.49  2.03  1.60  1.15
#     adam         2.80  1.90  1.66  1.35  0.99
#     adamw        2.74  1.91  1.67  1.39  1.02
#     adabelief    3.11  2.06  1.77  1.41  1.02
#     sgd          1.50  1.22  1.09  0.87  0.67
#
# SGD's NumPy body is only four ufunc calls. Against its float loop with no
# diagnostics, as a race's steps take it, the same ratio at n = 2 and 8 was
# 1.86 and 1.32.
FLOAT_MAX_N = 8


def _shape(vec) -> tuple:
    """The shape of a state vector, an array or a float-lane tuple."""
    return (len(vec),) if type(vec) is tuple else vec.shape


def dispatch_step(state, w, g, collect_histogram: bool = True, out=None):
    """Route a uniform step to the kernel of the state's optimizer, by its name.

    Checks that params, gradient and the state's vectors share one shape.
    `out`, a state of the same optimizer and size (`state` itself, to step it
    in place), receives the new state in place of a fresh one, and w the new
    iterate.
    """
    # agd_step, adam_step and adabelief_step are one function; the global
    # looked up here, on each call, is the one a tracer wraps, so each keeps
    # its own kernel span
    name = getattr(state, "name", None)
    if name == "sgd":
        kernel = sgd_momentum_step
    elif name == "agd" or name == "agd_amsgrad":
        kernel = agd_step
    elif name in ("adam", "adamw", "adabelief"):
        kernel = adabelief_step if name == "adabelief" else adam_step
    else:
        raise ConfigError(f"unrecognized optimizer state {type(state).__name__} {name!r}")
    shape = _shape(state.m)
    if not w.shape == g.shape == shape:
        raise ShapeError(f"shape mismatch: params {w.shape}, gradient {g.shape}, "
                         f"state {shape}")
    if out is not None and (out.name != name or _shape(out.m) != shape):
        raise ShapeError("out must be a state of the same optimizer and size")
    return kernel(state, w, g, collect_histogram, out)
