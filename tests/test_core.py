import importlib
import math
import pkgutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import agdopt
from agdopt.core import (
    CHUNK,
    ConfigError,
    HIST_BINS,
    HIST_EDGES,
    HyperParams,
    NumericError,
    ShapeError,
    as_param_vector,
    bhat_histogram,
    optimizer_step,
)
from agdopt.optim import OPTIMIZER_NAMES, init_state


# ---------------------------------------------------------------- schedules


def test_constant_lr():
    hp = HyperParams(alpha=1e-3)
    assert hp.lr_at(1) == 1e-3
    assert hp.lr_at(10_000) == 1e-3


def test_inverse_sqrt_lr():
    hp = HyperParams(alpha=0.5, lr_schedule="inverse_sqrt")
    assert hp.lr_at(1) == 0.5
    assert hp.lr_at(4) == 0.25
    assert hp.lr_at(100) == 0.05


def test_milestones_lr():
    # base 0.1 with a 0.1x cut at step 30 and another at 60
    hp = HyperParams(alpha=0.1, lr_schedule="milestones",
                     milestones=((30, 0.1), (60, 0.1)))
    assert hp.lr_at(29) == 0.1
    assert hp.lr_at(30) == 0.1 * 0.1
    assert hp.lr_at(45) == 0.1 * 0.1
    assert hp.lr_at(60) == 0.1 * 0.1 * 0.1
    assert hp.lr_at(10_000) == 0.1 * 0.1 * 0.1


def test_lr_at_matches_schedule_lr():
    # the milestone schedule multiplies in each passed factor, in order
    hp = HyperParams(alpha=0.3, lr_schedule="milestones",
                     milestones=((10, 0.5), (20, 0.2)))
    for t in (1, 9, 10, 15, 20, 1000):
        expect = 0.3
        if t >= 10:
            expect *= 0.5
        if t >= 20:
            expect *= 0.2
        assert hp.lr_at(t) == expect


def test_step_schedule_at():
    hp = HyperParams(alpha=1.0, lr_schedule="inverse_sqrt")
    assert hp.lr_at(16) == 0.25


def test_milestones_reject_bad_entries():
    # a NaN factor passes `factor <= 0.0`: accepted, it made a run's rate NaN
    # a NaN step never applied its factor, 2.5 applied it from step 3
    for entry in ((0, 0.1), (30, 0.0), (30, math.nan), (30, math.inf), (math.nan, 0.5),
                  (2.5, 0.5), (True, 0.5), (30, 0.5, 1)):
        with pytest.raises(ConfigError, match="milestone"):
            HyperParams(alpha=0.1, lr_schedule="milestones", milestones=(entry,))


def test_unknown_schedule_kind():
    # no instance with an unknown kind can be built, so lr_at and beta1_at
    # never meet one (lr_at once read it as milestones and returned alpha)
    with pytest.raises(ConfigError, match="lr schedule"):
        HyperParams(alpha=0.1, lr_schedule="linear")
    with pytest.raises(ConfigError, match="beta1 schedule"):
        HyperParams(alpha=0.1, beta1_schedule="cosine")


@given(st.integers(min_value=1, max_value=10_000))
def test_inverse_sqrt_dominated_by_earlier_steps(t):
    hp = HyperParams(alpha=1.0, lr_schedule="inverse_sqrt")
    assert hp.lr_at(t + 1) < hp.lr_at(t)


def _hp_b1(kind):
    return HyperParams(alpha=1e-3, beta1=0.9, beta1_schedule=kind)


def test_beta1_schedules():
    assert _hp_b1("constant").beta1_at(7) == 0.9
    assert _hp_b1("over_sqrt_t").beta1_at(4) == 0.45
    assert _hp_b1("over_t").beta1_at(10) == 0.09


def test_beta1_schedules_coincide_at_first_step():
    for kind in ("constant", "over_sqrt_t", "over_t"):
        assert _hp_b1(kind).beta1_at(1) == 0.9


def test_beta1_at_matches_schedule():
    hp = HyperParams(alpha=1e-3, beta1=0.8, beta1_schedule="over_t")
    for t in (1, 2, 50):
        assert hp.beta1_at(t) == 0.8 / t
    with pytest.raises(ConfigError):
        hp.beta1_at(0)


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize("kwargs", [
    {"alpha": 0.0},
    {"alpha": -1e-3},
    {"alpha": math.nan},
    {"alpha": 1e-3, "beta1": 1.0},
    {"alpha": 1e-3, "beta1": -0.1},
    {"alpha": 1e-3, "beta2": 1.0},
    {"alpha": 1e-3, "delta": 0.0},
    {"alpha": 1e-3, "weight_decay": -0.01},
    {"alpha": True},
    {"alpha": 1e-3, "beta1": "0.5"},
    {"alpha": 1e-3, "milestones": 5},
    {"alpha": 1e-3, "milestones": None},
])
def test_hyperparam_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        HyperParams(**kwargs)


def test_zero_betas_are_legal():
    HyperParams(alpha=1e-3, beta1=0.0, beta2=0.0)


def test_hyperparams_keep_what_they_checked():
    # the float step and the lists were kept, which made the frozen instance
    # unhashable
    hp = HyperParams(alpha=1, lr_schedule="milestones", milestones=[[2.0, 1]])
    assert type(hp.alpha) is float and hp.milestones == ((2, 1.0),)
    assert [type(x) for x in hp.milestones[0]] == [int, float]
    assert hash(hp) == hash(replace(hp))


# ---------------------------------------------------------------- histogram


def test_histogram_bins():
    # 18 decade bins spanning [1e-16, 1e2) plus underflow and overflow
    assert len(HIST_EDGES) == 19
    counts = bhat_histogram(np.array([0.0, 1e-17, 1e-16, 5e-9, 1.0, 99.0, 1e2, 1e6]))
    assert counts.sum() == 8
    assert counts[0] == 2          # 0.0 and 1e-17 underflow
    assert counts[1] == 1          # 1e-16 lands in its own decade
    assert counts[8] == 1          # 5e-9 in [1e-9, 1e-8)
    assert counts[18] == 1         # 99.0 in [1e1, 1e2)
    assert counts[19] == 2         # 1e2 and 1e6 overflow


def test_histogram_total_is_input_size():
    rng = np.random.default_rng(0)
    v = 10.0 ** rng.uniform(-20, 4, size=257)
    assert bhat_histogram(v).sum() == 257


@given(st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False),
                min_size=1, max_size=64))
def test_histogram_matches_truncation_count_at_bin_edge(values):
    # delta exactly on a bin edge: entries strictly below it fill bins 0..8
    v = np.asarray(values)
    delta = 1e-8
    counts = bhat_histogram(v)
    assert counts[:9].sum() == int((v < delta).sum())


def test_histogram_chunks_add_up_to_one_binning():
    # every edge with both neighbours, signed zeros, subnormals, infinities
    # and NaNs of both signs, some of them straddling the chunk boundaries
    edges = np.concatenate([HIST_EDGES, np.nextafter(HIST_EDGES, 0.0),
                            np.nextafter(HIST_EDGES, np.inf)])
    nan = np.float64("nan")
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                        np.inf, -np.inf, nan, np.copysign(nan, -1.0)])
    n = 3 * CHUNK + 5
    v = 10.0 ** np.random.default_rng(4).uniform(-20, 4, size=n)
    v[:edges.size] = edges
    for boundary in (CHUNK, 2 * CHUNK):
        v[boundary - 3:boundary + 3] = special[:6]
        v[boundary + 3:boundary + 6] = edges[[0, 19, 38]]
    v[-special.size:] = special  # across the last boundary, 3 * CHUNK
    want = np.bincount(np.searchsorted(HIST_EDGES, v, side="right"), minlength=HIST_BINS)
    got = bhat_histogram(v)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    block = np.stack([v, v[::-1]])
    assert bhat_histogram(block).tolist() == [want.tolist()] * 2


# ---------------------------------------------------------------- vectors


def test_as_param_vector_coerces():
    w = as_param_vector([1, 2, 3], "w")
    assert w.dtype == np.float64 and w.shape == (3,)


def test_as_param_vector_rejects_matrix():
    with pytest.raises(ShapeError):
        as_param_vector(np.zeros((2, 2)), "w")


def test_as_param_vector_rejects_empty():
    with pytest.raises(ShapeError):
        as_param_vector([], "w")


def test_as_param_vector_names_bad_coordinate():
    with pytest.raises(NumericError, match=r"grad\[1\]"):
        as_param_vector([0.0, math.inf, 1.0], "grad")


# ---------------------------------------------------------------- step wrapper


def test_optimizer_step_runs_and_reports():
    hp = HyperParams(alpha=1e-3)
    state = init_state("agd", 2, hp)
    w = np.array([1.0, -1.0])
    g = np.array([0.5, 0.25])
    state, w2, diag = optimizer_step(state, w, g)
    assert w2.shape == (2,)
    assert diag.step_norm > 0
    assert 0.0 <= diag.truncation_fraction <= 1.0
    # per-coordinate multiplier applied to the momentum buffer
    multiplier = (w - w2) / state.m
    assert 0.0 < multiplier.min() <= multiplier.max()
    assert diag.bhat_histogram is not None
    assert diag.bhat_histogram.sum() == 2


def test_optimizer_step_histogram_optional():
    hp = HyperParams(alpha=1e-3)
    state = init_state("agd", 2, hp)
    _, _, diag = optimizer_step(state, np.zeros(2), np.ones(2), collect_histogram=False)
    assert diag.bhat_histogram is None


def test_optimizer_step_rejects_state_with_bad_hyperparams():
    # a HyperParams checks itself when built, dataclasses.replace included,
    # so no state handed to the front door can hold one outside its domain
    with pytest.raises(ConfigError, match="beta1"):
        replace(HyperParams(alpha=1e-3), beta1=1.0)


def test_optimizer_step_rejects_a_population_state():
    # populations step through the run loop; the front door takes one run
    state = init_state("agd", 2, [HyperParams(alpha=1e-3)] * 3)
    with pytest.raises(ShapeError, match="population"):
        optimizer_step(state, np.zeros((3, 2)), np.ones((3, 2)))


def test_optimizer_step_rejects_shape_mismatch():
    hp = HyperParams(alpha=1e-3)
    with pytest.raises(ShapeError):
        optimizer_step(init_state("agd", 3, hp), np.zeros(3), np.ones(2))


@pytest.mark.parametrize("name", OPTIMIZER_NAMES)
def test_optimizer_step_rejects_state_of_wrong_size(name):
    # params and gradient agree with each other but not with the state
    hp = HyperParams(alpha=1e-3)
    with pytest.raises(ShapeError):
        optimizer_step(init_state(name, 1, hp), np.zeros(2), np.ones(2))


def test_optimizer_step_rejects_nonfinite_gradient():
    hp = HyperParams(alpha=1e-3)
    with pytest.raises(NumericError):
        optimizer_step(init_state("agd", 2, hp), np.zeros(2),
                       np.array([1.0, math.nan]))


def test_optimizer_step_flags_nonfinite_result():
    # an overflowing sgd step must raise instead of silently writing inf
    hp = HyperParams(alpha=1e308, beta1=0.0)
    state = init_state("sgd", 1, hp)
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        optimizer_step(state, np.zeros(1), np.array([1e10]))


def test_optimizer_step_applies_decoupled_decay():
    # zero gradient: adam leaves w alone, so only the decay factor acts
    hp = HyperParams(alpha=0.1, weight_decay=0.5)
    state = init_state("adam", 1, hp)
    w = np.array([2.0])
    _, w2, _ = optimizer_step(state, w, np.zeros(1))
    assert w2[0] == 2.0 * (1.0 - 0.1 * 0.5)


# ---------------------------------------------------------------- public names


def test_every_public_name_resolves():
    # __main__ runs the CLI when imported
    names = [m.name for m in pkgutil.iter_modules(agdopt.__path__) if m.name != "__main__"]
    for name in names:
        module = importlib.import_module(f"agdopt.{name}")
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"agdopt.{name}.{public}"
    # the checks README's module map gives core, which the library and the CLI share
    assert {"check_int", "check_num", "bounded", "one_of", "check_count", "check_positive",
            "check_hyperparams"} <= set(importlib.import_module("agdopt.core").__all__)
