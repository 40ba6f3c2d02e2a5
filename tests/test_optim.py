import math
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agdopt.core import (BETA1_KINDS, LR_KINDS, ConfigError, HyperParams, ShapeError,
                         sum_squares)
from agdopt.diagnostics import _Population
from agdopt.optim import (
    CHUNK,
    FLOAT_MAX_N,
    MomentState,
    OPTIMIZER_NAMES,
    SgdState,
    adabelief_step,
    adam_step,
    agd_step,
    dispatch_step,
    init_state,
    sgd_momentum_step,
)

HP = HyperParams(alpha=1e-3)


def run_agd(grads, hp=HP, n=None, amsgrad=False, w0=None):
    grads = [np.atleast_1d(np.asarray(g, dtype=float)) for g in grads]
    n = n or grads[0].size
    state = init_state("agd_amsgrad" if amsgrad else "agd", n, hp)
    w = np.zeros(n) if w0 is None else np.asarray(w0, dtype=float).copy()
    out = []
    for g in grads:
        state, w, diag = agd_step(state, w, g)
        out.append((state, w.copy(), diag))
    return out


# ---------------------------------------------------------------- state init


def test_init_state_shapes():
    for name in OPTIMIZER_NAMES:
        state = init_state(name, 3, HP)
        assert state.t == 0 and state.hp is HP and state.name == name
    assert init_state("agd", 3, HP).name == "agd"
    assert init_state("agd_amsgrad", 3, HP).name == "agd_amsgrad"
    assert init_state("adamw", 3, HP).name == "adamw"


def test_init_state_unknown_name():
    with pytest.raises(ConfigError):
        init_state("adagrad", 3, HP)


@pytest.mark.parametrize("n", [0, -1, True, 2.5])
def test_init_state_rejects_a_bad_size(n):
    with pytest.raises(ConfigError, match="n must be"):
        init_state("agd", n, HP)


def test_init_state_rejects_a_population_row_that_is_not_hyperparams():
    # a dict row was bound unchecked until .validate() raised AttributeError
    with pytest.raises(ConfigError, match="population row"):
        init_state("agd", 2, [HP, {"alpha": 1e-3}])


@pytest.mark.parametrize("name", OPTIMIZER_NAMES)
def test_init_state_refuses_an_empty_population(name):
    with pytest.raises(ConfigError, match="at least one run"):
        init_state(name, 2, [])


# ------------------------------------------------- momentum-difference values


def test_momentum_difference_hand_values():
    # g = (1, 0) with beta1 = 0.9: the debiased average is exactly 1 after the
    # first step, 9/19 after the second, so s2 = 9/19 - 1 = -10/19
    steps = run_agd([1.0, 0.0])
    (s1, _, _), (s2, _, _) = steps
    assert s1.prev_corrected[0] == 1.0
    assert s1.beta1_prod == 0.9
    assert abs(s2.prev_corrected[0] - 9 / 19) < 1e-16
    implied = s2.prev_corrected[0] - s1.prev_corrected[0]
    assert abs(implied - (-10 / 19)) < 2e-16


def test_agd_compute_s_first_step_is_debiased_momentum():
    # s_1 is the debiased m_1 itself, which the state caches for step 2;
    # m1 is formed with the same rounded (1 - beta1) the correction divides by
    state, _, _ = agd_step(init_state("agd", 1, HP), np.zeros(1), np.ones(1))
    assert state.prev_corrected[0] == 1.0
    assert state.b[0] == (1.0 - 0.999) * (1.0 * 1.0)


def test_agd_compute_s_matches_recurrence():
    # s_2 = m_2 / (1 - beta1^2) - m_1 / (1 - beta1), seen through b_2
    g1, g2 = 2.0, -3.0
    s1, _, _ = agd_step(init_state("agd", 1, HP), np.zeros(1), np.array([g1]))
    s2, _, _ = agd_step(s1, np.zeros(1), np.array([g2]))
    c1 = s1.m[0] / (1 - 0.9)
    assert s1.prev_corrected[0] == c1
    diff = s2.m[0] / (1 - 0.9 * 0.9) - c1
    assert s2.b[0] == 0.999 * s1.b[0] + (1.0 - 0.999) * (diff * diff)


# the largest beta1 a HyperParams holds: 1 - beta1 = 2**-53 exactly
TOP_BETA1 = math.nextafter(1.0, 0.0)


def test_agd_compute_s_guards():
    # beta1 = 1 cannot be built, and the kernel needs no guard of its own:
    # at the top of the domain the bias correction is still positive
    with pytest.raises(ConfigError, match="beta1"):
        replace(HP, beta1=1.0)
    state, w, _ = agd_step(init_state("agd", 1, replace(HP, beta1=TOP_BETA1)),
                           np.zeros(1), np.ones(1))
    assert 1.0 - state.beta1_prod == 2.0 ** -53
    assert state.prev_corrected[0] == 1.0 and np.isfinite(w).all()


@pytest.mark.parametrize("name", [o for o in OPTIMIZER_NAMES if o != "sgd"])
def test_moment_kernel_guards_every_variant(name):
    # beta1 at the top of its domain steps to a finite iterate in one run,
    # and in a population row whose beta1 differs from the others' (a column)
    top = replace(HP, beta1=TOP_BETA1)
    for state in (init_state(name, 1, top), init_state(name, 1, [HP, top])):
        ones = np.ones(state.m.shape)
        for _ in range(3):
            state, w, _ = dispatch_step(state, ones, ones)
            assert np.isfinite(w).all()


def test_constant_gradient_sharpens_bias_correction():
    # with a constant gradient the debiased average equals g in exact
    # arithmetic every step; float rounding adds at most ~half an ulp per
    # step until beta1**t falls below machine epsilon
    g = 123.456
    state = init_state("agd", 1, HP)
    w = np.zeros(1)
    worst = 0
    for _ in range(500):
        state, w, _ = agd_step(state, w, np.array([g]))
        err = abs(state.prev_corrected[0] - g) / np.spacing(g)
        worst = max(worst, err)
    assert worst <= 12


# ---------------------------------------------------------------- first step


def test_first_step_magnitude_is_alpha():
    # at t=1 the denominator equals |g| exactly, so |dw| = alpha
    for alpha, g in ((1e-3, 3.7), (0.05, -0.002), (1.0, 1e6)):
        hp = HyperParams(alpha=alpha)
        _, w, _ = agd_step(init_state("agd", 1, hp), np.zeros(1), np.array([g]))
        assert abs(abs(w[0]) - alpha) <= 4 * np.spacing(alpha)
        assert math.copysign(1, -w[0]) == math.copysign(1, g)


@given(st.floats(min_value=1e-8, max_value=1e8),
       st.floats(min_value=1e-6, max_value=10.0))
def test_first_step_magnitude_property(gmag, alpha):
    hp = HyperParams(alpha=alpha)
    _, w, _ = agd_step(init_state("agd", 1, hp), np.zeros(1), np.array([gmag]))
    assert abs(abs(w[0]) - alpha) <= 4 * np.spacing(alpha)


# ---------------------------------------------------------------- floor branch


def test_floor_branch_is_momentum_sgd():
    # delta far above every bhat: each step is w -= (lr/(1-B_t)) * (m/delta),
    # bit for bit the momentum-SGD recurrence with rate lr/delta
    hp = HyperParams(alpha=1e-3, delta=1e6)
    rng = np.random.default_rng(11)
    grads = rng.normal(scale=3.0, size=(500, 4))
    state = init_state("agd", 4, hp)
    w = np.zeros(4)
    m_ref = np.zeros(4)
    w_ref = np.zeros(4)
    prod = 1.0
    for t in range(1, 501):
        g = grads[t - 1]
        prev = state
        state, w, diag = agd_step(state, w, g)
        m_ref = 0.9 * m_ref + (1.0 - 0.9) * g
        prod *= 0.9
        scale = hp.alpha / (1.0 - prod)
        w_ref = w_ref - scale * (m_ref / hp.delta)
        assert np.array_equal(w, w_ref)
        assert diag.truncation_fraction == 1.0
        # the state does not depend on w, so a step from zero returns -update
        # exactly: every coordinate's multiplier on m is scale / delta
        _, neg_update, _ = agd_step(prev, np.zeros(4), g)
        assert np.array_equal(-neg_update, scale * (state.m / hp.delta))


def test_truncation_fraction_counts_floored_coordinates():
    # one live coordinate, one stalled at zero gradient
    hp = HyperParams(alpha=1e-3, delta=1e-2)
    state = init_state("agd", 2, hp)
    w = np.zeros(2)
    for _ in range(3):
        state, w, diag = agd_step(state, w, np.array([5.0, 0.0]))
    assert diag.truncation_fraction == 0.5


def test_tied_bhat_takes_adaptive_branch():
    # bhat == delta exactly must not count as truncated
    hp = HyperParams(alpha=1e-3, delta=1.0)
    state = init_state("agd", 1, hp)
    # t=1 with |g|=1 gives bhat = 1 = delta
    _, _, diag = agd_step(state, np.zeros(1), np.ones(1))
    assert diag.truncation_fraction == 0.0


# ---------------------------------------------------------------- amsgrad


def test_amsgrad_keeps_b_nondecreasing():
    rng = np.random.default_rng(3)
    state = init_state("agd_amsgrad", 8, HP)
    w = np.zeros(8)
    prev_b = state.b.copy()
    for _ in range(300):
        state, w, _ = agd_step(state, w, rng.normal(size=8))
        assert (state.b >= prev_b).all()
        prev_b = state.b.copy()


def test_amsgrad_diverges_from_plain_variant():
    rng = np.random.default_rng(4)
    grads = rng.normal(size=(50, 2))
    plain = run_agd(list(grads))
    ams = run_agd(list(grads), amsgrad=True)
    assert not np.array_equal(plain[-1][1], ams[-1][1])
    # amsgrad b dominates the plain EMA at every step
    assert (ams[-1][0].b >= plain[-1][0].b - 1e-18).all()


# ---------------------------------------------------------------- switching


def test_single_switch_transition_for_constant_gradient():
    # g identically 1: s_t = 1 at t=1 then 0, so b decays geometrically and
    # bhat crosses delta = 1e-2 exactly once, at t = 2398
    hp = HyperParams(alpha=1e-3, delta=1e-2)
    state = init_state("agd", 1, hp)
    w = np.zeros(1)
    flips = []
    prev = None
    for t in range(1, 3001):
        state, w, diag = agd_step(state, w, np.ones(1))
        frac = diag.truncation_fraction
        if prev is not None and frac != prev:
            flips.append((t, frac))
        prev = frac
    assert flips == [(2398, 1.0)]


def test_switch_step_monotone_in_delta():
    # a larger floor can only switch sooner
    def first_switch(delta):
        hp = HyperParams(alpha=1e-3, delta=delta)
        state = init_state("agd", 1, hp)
        w = np.zeros(1)
        for t in range(1, 4001):
            state, w, diag = agd_step(state, w, np.ones(1))
            if diag.truncation_fraction == 1.0:
                return t
        return None

    t_coarse = first_switch(1e-1)
    t_mid = first_switch(1e-2)
    assert t_coarse is not None and t_mid is not None
    assert t_coarse < t_mid


# ---------------------------------------------------------------- baselines


def test_adam_matches_hand_recurrence():
    hp = HyperParams(alpha=0.1, delta=1e-8)
    grads = [np.array([1.0, -2.0]), np.array([0.5, 0.5])]
    state = init_state("adam", 2, hp)
    w = np.zeros(2)
    w_prev = w.copy()
    m = np.zeros(2)
    v = np.zeros(2)
    for t, g in enumerate(grads, start=1):
        state, w, _ = adam_step(state, w, g)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        expect = -0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_allclose(w - w_prev, expect, rtol=1e-12)
        w_prev = w.copy()


def test_adabelief_tracks_innovation():
    # t=1, g=1: m=0.1 so the innovation is 0.9 and
    # v = (1-beta2)*0.81 + delta
    hp = HyperParams(alpha=1e-3, delta=1e-8)
    state, _, _ = adabelief_step(init_state("adabelief", 1, hp), np.zeros(1),
                                 np.ones(1))
    assert abs(state.b[0] - (0.001 * 0.81 + 1e-8)) < 1e-18


def test_adabelief_constant_gradient_shrinks_v():
    # innovations g - m_t = beta1**t die off geometrically, so v climbs while
    # they dominate, peaks, then drains at the slow beta2 rate
    hp = HyperParams(alpha=1e-3, delta=1e-12)
    state = init_state("adabelief", 1, hp)
    w = np.zeros(1)
    v_hist = []
    for _ in range(199):
        state, w, _ = adabelief_step(state, w, np.ones(1))
        v_hist.append(float(state.b[0]))
    assert abs(1.0 - state.m[0]) < 1e-8          # m locked onto g
    peak = int(np.argmax(v_hist))
    assert 2 < peak < 60
    tail = v_hist[peak:]
    assert all(a > b for a, b in zip(tail, tail[1:]))


def test_sgd_momentum_two_steps():
    # mu=0.9, lr=1, g=1: buffer goes 1.0 then 1.9
    hp = HyperParams(alpha=1.0, beta1=0.9)
    state = init_state("sgd", 1, hp)
    w = np.zeros(1)
    state, w, d1 = sgd_momentum_step(state, w, np.ones(1))
    assert w[0] == -1.0
    state, w, d2 = sgd_momentum_step(state, w, np.ones(1))
    assert w[0] == -2.9
    assert d1.truncation_fraction == 1.0 and d2.bhat_histogram is None


# -------------------------------------------------------------- step hygiene


def test_agd_step_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        dispatch_step(init_state("agd", 2, HP), np.zeros(2), np.ones(3))


@pytest.mark.parametrize("name", OPTIMIZER_NAMES)
def test_dispatch_checks_every_optimizer(name):
    # shapes are checked in one place, whatever the optimizer
    with pytest.raises(ShapeError):
        dispatch_step(init_state(name, 1, HP), np.zeros(2), np.ones(2))
    with pytest.raises(ShapeError):
        dispatch_step(init_state(name, 2, HP), np.zeros(2), np.ones(3))


def test_dispatch_routes_by_state_type():
    for name in OPTIMIZER_NAMES:
        state = init_state(name, 2, HP)
        state2, w, diag = dispatch_step(state, np.zeros(2), np.ones(2))
        assert type(state2) is type(state)
        assert state2.t == 1
    with pytest.raises(ConfigError):
        dispatch_step(object(), np.zeros(2), np.ones(2))


@pytest.mark.parametrize("name", OPTIMIZER_NAMES)
def test_dispatch_applies_decoupled_decay(name):
    # zero gradient and zero state: the only move is the decay shrinkage,
    # through dispatch_step and through the exported kernel alike
    hp = HyperParams(alpha=0.1, weight_decay=0.5)
    kernel = {"agd": agd_step, "agd_amsgrad": agd_step, "adam": adam_step,
              "adamw": adam_step, "adabelief": adabelief_step,
              "sgd": sgd_momentum_step}[name]
    w0 = np.full(2, 2.0)
    for step in (dispatch_step, kernel):
        _, w, _ = step(init_state(name, 2, hp), w0, np.zeros(2))
        assert np.array_equal(w, w0 * (1.0 - 0.1 * 0.5))
        assert np.array_equal(w0, [2.0, 2.0])
    # with a gradient too, the kernel takes dispatch_step's step
    state, w0, g = init_state(name, 2, hp), np.array([1.0, -1.0]), np.array([0.5, -0.5])
    assert np.array_equal(kernel(state, w0, g)[1], dispatch_step(state, w0, g)[1])


def test_steps_do_not_mutate_inputs():
    w = np.ones(3)
    g = np.full(3, 2.0)
    state = init_state("agd", 3, HP)
    agd_step(state, w, g)
    assert (w == 1.0).all() and (g == 2.0).all()
    assert (state.m == 0.0).all() and state.t == 0


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2,
                max_size=6),
       st.integers(min_value=1, max_value=40))
def test_effective_lr_bounded_by_floor_rate(gs, steps):
    # no coordinate multiplier can exceed lr_t / ((1 - B_t) * delta)
    hp = HyperParams(alpha=1e-3, delta=1e-8)
    n = len(gs)
    rng = np.random.default_rng(0)
    state = init_state("agd", n, hp)
    base = np.asarray(gs)
    for t in range(1, steps + 1):
        g = base + rng.normal(size=n)
        # the state does not depend on w, so stepping from zero returns
        # -update exactly
        state, neg_update, _ = agd_step(state, np.zeros(n), g)
        cap = hp.lr_at(t) / ((1.0 - state.beta1_prod) * hp.delta)
        assert (np.abs(neg_update) <= cap * np.abs(state.m) * (1 + 1e-12)).all()


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_histogram_agrees_with_truncation_fraction(seed):
    # counts strictly below the delta decade edge match the truncated share
    hp = HyperParams(alpha=1e-3, delta=1e-8)
    rng = np.random.default_rng(seed)
    n = 16
    state = init_state("agd", n, hp)
    w = np.zeros(n)
    g = 10.0 ** rng.uniform(-12, 2, size=n)
    state, w, diag = agd_step(state, w, g)
    below = diag.bhat_histogram[:9].sum()
    assert below == round(diag.truncation_fraction * n)


# ------------------------------------------------------- differential oracle


def reference_steps(name, hp, w0, grads):
    """Scalar-Python transcription of the README update equations.

    Yields (w_t, truncation_fraction) per step; shares no code with optim.
    """
    n = len(w0)
    w = list(w0)
    m, second = [0.0] * n, [0.0] * n
    B = 1.0
    for t, g in enumerate(grads, start=1):
        lr = hp.alpha
        if hp.lr_schedule == "inverse_sqrt":
            lr = hp.alpha / math.sqrt(t)
        elif hp.lr_schedule == "milestones":
            for step, factor in hp.milestones:
                if step <= t:
                    lr *= factor
        beta1_t = {"constant": hp.beta1, "over_sqrt_t": hp.beta1 / math.sqrt(t),
                   "over_t": hp.beta1 / t}[hp.beta1_schedule]
        B_prev, B = B, B * beta1_t
        w = [wi * (1 - lr * hp.weight_decay) for wi in w]
        floored = 0
        for i in range(n):
            if name == "sgd":
                m[i] = hp.beta1 * m[i] + g[i]
                w[i] -= lr * m[i]
                continue
            m_prev = m[i]
            m[i] = beta1_t * m[i] + (1 - beta1_t) * g[i]
            if name in ("agd", "agd_amsgrad"):
                s = m[i] / (1 - B) - (m_prev / (1 - B_prev) if t > 1 else 0.0)
                b = hp.beta2 * second[i] + (1 - hp.beta2) * s ** 2
                second[i] = max(b, second[i]) if name == "agd_amsgrad" else b
                bhat = math.sqrt(second[i] / (1 - hp.beta2 ** t))
                floored += bhat < hp.delta
                w[i] -= lr / (1 - B) * m[i] / max(bhat, hp.delta)
            else:
                x = g[i] - m[i] if name == "adabelief" else g[i]
                second[i] = hp.beta2 * second[i] + (1 - hp.beta2) * x ** 2
                if name == "adabelief":
                    second[i] += hp.delta
                rms = math.sqrt(second[i] / (1 - hp.beta2 ** t))
                w[i] -= lr * (m[i] / (1 - B)) / (rms + hp.delta)
        if name == "sgd":
            yield w, 1.0
        else:
            yield w, floored / n  # 0 for the Adam family, which never floors


@st.composite
def oracle_hyperparams(draw):
    lr_schedule = draw(st.sampled_from(LR_KINDS))
    milestones = ()
    if lr_schedule == "milestones":
        milestones = tuple(draw(st.lists(
            st.tuples(st.integers(1, 30), st.floats(0.1, 2.0)), max_size=3)))
    return HyperParams(
        alpha=10.0 ** draw(st.floats(-4, 0)),
        beta1=draw(st.floats(0.0, 0.99)),
        beta2=draw(st.floats(0.0, 0.9999)),
        delta=10.0 ** draw(st.floats(-10, -2)),
        weight_decay=draw(st.sampled_from((0.0, 0.0, 1e-2, 0.5))),
        lr_schedule=lr_schedule,
        milestones=milestones,
        beta1_schedule=draw(st.sampled_from(BETA1_KINDS)),
    )


@st.composite
def oracle_case(draw):
    n = draw(st.integers(1, 4))
    steps = draw(st.integers(1, 30))
    w0 = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    # random sign, magnitude 1e-6 to 1e6, and about 15% exact zeros
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grads = rng.choice((-1.0, 1.0), size=(steps, n)) * 10.0 ** rng.uniform(-6, 6, (steps, n))
    grads[rng.random((steps, n)) < 0.15] = 0.0
    return w0, grads.tolist()


@settings(max_examples=400)
@given(st.sampled_from(OPTIMIZER_NAMES), oracle_hyperparams(), oracle_case())
def test_dispatch_matches_scalar_reference(name, hp, case):
    w0, grads = case
    state = init_state(name, len(w0), hp)
    w = np.array(w0)
    # the error is relative to the largest magnitude each coordinate has had:
    # a step that nearly cancels w leaves a result far below its rounding
    scale = np.abs(w)
    for g, (w_ref, fraction_ref) in zip(grads, reference_steps(name, hp, w0, grads)):
        state, w, diag = dispatch_step(state, w, np.array(g), collect_histogram=False)
        assert diag.truncation_fraction == fraction_ref
        scale = np.maximum(scale, np.abs(w_ref))
        assert (np.abs(w - w_ref) <= 1e-12 * scale).all()


# gradients beyond the reference's range: zeros of both signs, subnormals,
# values whose squares overflow, infinities and NaN, among ordinary values
EXTREME_GRADS = (0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, math.inf, -math.inf,
                 math.nan)


def _same_bits(a, b):
    """Equal shapes and bits, with NaN (of any payload) equal to NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class GradientStream:
    """Hands out the given gradients in turn, at loss 0."""

    name, optimum = "stream", None

    def __init__(self, w0, grads):
        self.w0, self.grads = w0, iter(grads)

    def init_params(self):
        return self.w0.copy()

    def loss_grad(self, w):
        return 0.0, next(self.grads)


@settings(max_examples=300)
@given(st.sampled_from(OPTIMIZER_NAMES), oracle_hyperparams(),
       st.integers(1, FLOAT_MAX_N + 1), st.integers(1, 6), st.data())
def test_float_body_matches_numpy_body(name, hp, n, steps, data):
    # the run loop steps a lone run of n <= FLOAT_MAX_N coordinates on its
    # float lane; a library state takes the NumPy body at every n
    value = st.one_of(st.sampled_from(EXTREME_GRADS), st.floats(-10.0, 10.0))
    w = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    grads = [np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
             for _ in range(steps)]
    with np.errstate(all="ignore"):  # n = FLOAT_MAX_N + 1 is NumPy on both sides
        lane = _Population([GradientStream(w, grads)], name, [hp], steps, None)
        lib = init_state(name, n, hp)
        fields = [k for k, v in vars(lib).items() if isinstance(v, np.ndarray)]
        for t, g in enumerate(grads, 1):
            snap = data.draw(st.sampled_from((None, False, True)))  # None: a race's step
            _, diag = lane.step(t, snap)
            lib, w, lib_diag = dispatch_step(lib, w, g, bool(snap))
            state = lane._state
            for k in fields:
                assert _same_bits(getattr(state, k), getattr(lib, k)), k
            assert _same_bits(lane.W, w)
            assert getattr(state, "beta1_prod", None) == getattr(lib, "beta1_prod", None)
            assert state.t == lib.t
            if diag is None:
                assert snap is None and n <= FLOAT_MAX_N  # only the lane skips them
                continue
            assert _same_bits(diag.truncation_fraction, lib_diag.truncation_fraction)
            assert _same_bits(diag.step_norm, lib_diag.step_norm)
            if snap:
                assert np.array_equal(diag.bhat_histogram, lib_diag.bhat_histogram)
            else:
                assert diag.bhat_histogram is lib_diag.bhat_histogram is None


@pytest.mark.parametrize("n", [2, 3, CHUNK + 1])
@pytest.mark.parametrize("name", OPTIMIZER_NAMES)
def test_kernels_without_out_leave_inputs_unchanged(name, n):
    rng = np.random.default_rng(3)
    state = init_state(name, n, HyperParams(alpha=1e-2, weight_decay=1e-2))
    w = rng.standard_normal(n)
    for _ in range(3):  # a state whose vectors are all nonzero
        state, w, _ = dispatch_step(state, w, rng.standard_normal(n))
    g = rng.standard_normal(n)
    before = [(k, v.copy() if isinstance(v, np.ndarray) else v)
              for k, v in vars(state).items()]
    w_before, g_before = w.copy(), g.copy()
    kernel = {MomentState: agd_step, SgdState: sgd_momentum_step}[type(state)]
    for step in (kernel, dispatch_step):
        fresh, new_w, _ = step(state, w, g)
        assert fresh is not state and new_w is not w
        for k, v in before:
            assert np.array_equal(getattr(state, k), v), k
        assert np.array_equal(w, w_before) and np.array_equal(g, g_before)
    # with out, only out is written, into its own vectors
    out = init_state(name, n, HP)
    vectors = {k: v for k, v in vars(out).items() if isinstance(v, np.ndarray)}
    new, _, _ = dispatch_step(state, w, g, out=out)
    assert new is out and out.t == state.t + 1 and out.hp is state.hp
    for k, v in vectors.items():
        assert getattr(out, k) is v and np.array_equal(v, getattr(fresh, k)), k
    for k, v in before:
        assert np.array_equal(getattr(state, k), v), k


def test_dispatch_rejects_a_bad_out_state():
    state = init_state("agd", 2, HP)
    w, g = np.zeros(2), np.ones(2)
    for out in (init_state("adam", 2, HP), init_state("agd", 3, HP),
                init_state("agd_amsgrad", 2, HP)):
        with pytest.raises(ShapeError):
            dispatch_step(state, w, g, out=out)
    # the state itself is a valid out: it is stepped in place
    assert dispatch_step(state, w, g, out=state)[0] is state and state.t == 1
    # an out of another optimizer of the same kernel was relabelled
    with pytest.raises(ShapeError):
        dispatch_step(init_state("adam", 2, HP), w, g, out=init_state("adamw", 2, HP))


# beta2 = 0.5 lets b fall within a few steps of smaller gradients, so
# agd_amsgrad's clamp fires; a population's rows differ in alpha and decay
IN_PLACE_HP = HyperParams(alpha=1e-2, beta2=0.5, delta=1e-3, weight_decay=1e-2)
IN_PLACE_ROWS = (replace(IN_PLACE_HP, weight_decay=0.0),
                 replace(IN_PLACE_HP, alpha=3e-3, weight_decay=1e-1),
                 replace(IN_PLACE_HP, alpha=1e-1))


def _with_arrays(state):
    """A deep copy of state whose vectors are arrays (a float-lane state's
    are tuples)."""
    state = deepcopy(state)
    vars(state).update([(f, np.array(v)) for f, v in vars(state).items() if f in ("m", "b")])
    return state


@pytest.mark.parametrize("collect", [True, False, None])
@pytest.mark.parametrize("lane, shape", [
    ("numpy", (1,)), ("numpy", (2,)), ("numpy", (CHUNK + 1,)),
    ("numpy", (3, 5)), ("numpy", (3, CHUNK + 1)),
    ("float", (1,)), ("float", (FLOAT_MAX_N,)),
])
@pytest.mark.parametrize("name", OPTIMIZER_NAMES)
def test_step_in_place_matches_a_pure_step(name, lane, shape, collect):
    # out=state overwrites the state's vectors and fields as it steps it, so
    # the kernel must read each old value (m0, b0, B_{t-1}) before the write
    # that replaces it; the reference is a pure NumPy step on a deep copy
    rng = np.random.default_rng(shape[-1])
    state = init_state(name, shape[-1], IN_PLACE_HP if len(shape) == 1 else IN_PLACE_ROWS)
    if lane == "float":  # as the run loop's float lane holds it
        vars(state).update([(f, tuple(v.tolist())) for f, v in vars(state).items()
                            if isinstance(v, np.ndarray)])
    w, clamped = rng.standard_normal(shape), False
    for scale in (10.0, 10.0, 1e-3, 1e-3, 1e-3):
        g = scale * rng.standard_normal(shape)
        g[..., 3::7] = 0.0
        ref, ref_w, ref_diag = dispatch_step(_with_arrays(state), w, g, collect)
        g_before = g.copy()
        b0 = np.array(getattr(state, "b", 0.0))
        new, new_w, diag = dispatch_step(state, w, g, collect, out=state)
        assert new is state
        assert new_w is w and _same_bits(g, g_before)
        assert vars(state).keys() == vars(ref).keys()
        for f, v in vars(ref).items():
            if f in ("m", "b", "beta1_prod"):
                assert _same_bits(getattr(state, f), v), (f, state.t)
            else:
                assert getattr(state, f) == v, f
        assert _same_bits(new_w, ref_w)
        if diag is None:  # only the float body skips them
            assert lane == "float" and collect is None
        else:
            assert _same_bits(diag.step_norm, ref_diag.step_norm)
            assert _same_bits(diag.truncation_fraction, ref_diag.truncation_fraction)
            if collect:
                assert np.array_equal(diag.bhat_histogram, ref_diag.bhat_histogram)
            else:
                assert diag.bhat_histogram is ref_diag.bhat_histogram is None
        if name == "agd_amsgrad":  # b fell below b0 somewhere and was clamped?
            clamped |= bool(np.any((ref.b == b0) & (b0 > 0)))
        w = new_w
    assert clamped or name != "agd_amsgrad"


@pytest.mark.parametrize("into", ["g", "buffer"])
@pytest.mark.parametrize("shape", [(CHUNK + 1,), (3, CHUNK + 1)])
@pytest.mark.parametrize("name", OPTIMIZER_NAMES)
def test_step_into_an_update_buffer_matches_a_pure_step(name, shape, into):
    # the run loop hands its gradient buffer in as both g and update, so each
    # chunk's update is written over g after that chunk's last read of g;
    # step_norm is still one sum of squares over the whole update
    rng = np.random.default_rng(shape[-1])
    state = init_state(name, shape[-1], IN_PLACE_HP if len(shape) == 1 else IN_PLACE_ROWS)
    w, buffer = rng.standard_normal(shape), np.full(shape, np.nan)
    for scale in (10.0, 10.0, 1e-3):
        g = scale * rng.standard_normal(shape)
        g[..., 3::7] = 0.0
        ref, ref_w, ref_diag = dispatch_step(deepcopy(state), w, g)
        g_before = g.copy()
        update = g if into == "g" else buffer
        _, new_w, diag = dispatch_step(state, w, g, out=state, update=update)
        for f, v in vars(ref).items():
            if f in ("m", "b", "beta1_prod"):
                assert _same_bits(getattr(state, f), v), (f, state.t)
        assert _same_bits(new_w, ref_w)
        assert _same_bits(diag.step_norm, ref_diag.step_norm)
        assert _same_bits(np.sqrt(sum_squares(update)), ref_diag.step_norm)
        assert _same_bits(diag.truncation_fraction, ref_diag.truncation_fraction)
        assert np.array_equal(diag.bhat_histogram, ref_diag.bhat_histogram)
        assert into == "g" or _same_bits(g, g_before)


def test_dispatch_rejects_a_bad_update_buffer():
    n = CHUNK + 1
    state, block, g = init_state("agd", n, HP), np.zeros(2 * n), np.ones(n)
    w = block[:n]
    for update in (np.empty(n - 1), np.empty((1, n)), np.empty(n, np.float32), w,
                   block[1:n + 1]):
        with pytest.raises(ShapeError, match="update"):
            dispatch_step(state, w, g, out=state, update=update)
    # a float-lane state steps no update buffer
    lane = _Population([GradientStream(np.zeros(2), [])], "agd", [HP], 1, None)._state
    with pytest.raises(ShapeError, match="update"):
        dispatch_step(lane, np.zeros(2), np.ones(2), out=lane, update=np.empty(2))
    assert state.t == lane.t == 0
