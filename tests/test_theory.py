import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agdopt import theory
from agdopt.core import ConfigError, HyperParams
from agdopt.models import rng_stream
from agdopt.optim import agd_step, init_state
from agdopt.theory import (
    MC_BLOCK,
    STREAM_GRADS,
    STREAM_VARIANCE,
    _compensated_sum,
    alpha_hat_series,
    norm_bound_check,
    loglog_slope,
    make_quadratic_stream,
    online_regret,
    project_box,
    variance_ratio_analytic,
    variance_ratio_mc,
    verify_suite,
)
from conftest import peak_traced_bytes


# ------------------------------------------------------------ variance ratio


def test_variance_ratio_analytic_values():
    assert variance_ratio_analytic(0.9, 1) == 1.0
    # limit (1 - beta1)/(1 + beta1) = 1/19 for beta1 = 0.9
    assert abs(variance_ratio_analytic(0.9, 10_000) - 1 / 19) < 1e-15
    assert abs(variance_ratio_analytic(0.5, 2) - (1.25 * 0.5) / (0.75 * 1.5)) < 1e-15


def test_variance_ratio_analytic_decreases_in_t():
    vals = [variance_ratio_analytic(0.9, t) for t in range(1, 200)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v <= 1.0 for v in vals)


def test_variance_ratio_analytic_domain():
    with pytest.raises(ConfigError):
        variance_ratio_analytic(0.0, 5)
    with pytest.raises(ConfigError):
        variance_ratio_analytic(1.0, 5)
    with pytest.raises(ConfigError):
        variance_ratio_analytic(0.9, 0)
    for t in (2.5, True):  # each returned a ratio
        with pytest.raises(ConfigError, match="t must be an integer"):
            variance_ratio_analytic(0.5, t)
    for beta1 in ("0.5", True, math.nan):  # "0.5" raised TypeError
        with pytest.raises(ConfigError, match="beta1 must be a finite number"):
            variance_ratio_analytic(beta1, 5)


def test_variance_ratio_mc_close_to_analytic():
    [(emp, ana)] = variance_ratio_mc([(0.9, 10)], samples=40_000, seed=0)
    assert abs(emp - ana) / ana < 0.05


def test_variance_ratio_mc_sample_guard():
    with pytest.raises(ConfigError):
        variance_ratio_mc([(0.9, 10)], samples=5_000, seed=0)
    # each raised TypeError
    with pytest.raises(ConfigError, match="t must be an integer"):
        variance_ratio_mc([(0.5, 2.5)], 10_000, 0)
    with pytest.raises(ConfigError, match="samples must be an integer"):
        variance_ratio_mc([(0.9, 10)], samples=10_000.5, seed=0)
    # an integral float counts as the integer it equals, as every count does
    assert (variance_ratio_mc([(0.9, 10)], samples=1e4, seed=0)
            == variance_ratio_mc([(0.9, 10)], samples=10_000, seed=0))


def _variance_ratio_mc_per_combo(beta1, t, samples, seed):
    """Reference: one combo at a time, re-seeding the stream for each."""
    rng = rng_stream(seed, STREAM_VARIANCE)
    m = np.zeros(samples)
    for _ in range(t):
        m = beta1 * m + (1.0 - beta1) * rng.standard_normal(samples)
    mhat = m / (1.0 - beta1 ** t)
    mean = _compensated_sum(mhat) / samples
    var = _compensated_sum((mhat - mean) ** 2) / (samples - 1)
    return var, variance_ratio_analytic(beta1, t)


SUITE_COMBOS = [(b1, t) for b1 in (0.5, 0.9, 0.99) for t in (2, 10, 100)]


@pytest.mark.parametrize("combos, samples", [
    pytest.param(SUITE_COMBOS, 20_000, id="suite"),
    pytest.param([(0.9, 100), (0.5, 3), (0.9, 2), (0.99, 7), (0.5, 3), (0.9, 100)],
                 20_000, id="unsorted_repeated"),
    # a last block of one sample (one block plus one is below the 1e4 guard)
    pytest.param(SUITE_COMBOS, 2 * MC_BLOCK + 1, id="suite_last_block_of_one"),
])
def test_variance_ratio_mc_matches_per_combo_reference(combos, samples):
    got = variance_ratio_mc(combos, samples=samples, seed=3)
    want = [_variance_ratio_mc_per_combo(b1, t, samples, 3) for b1, t in combos]
    assert got == want  # exact float equality, combo order kept


def test_variance_ratio_mc_takes_statistics_one_slice_at_a_time():
    # the moments of the distinct beta1 values and the draws are the floor;
    # a whole debiased or squared-deviation vector would add one each
    samples, combos = 250_000, [(0.5, 2), (0.9, 3), (0.99, 3), (0.9, 2)]
    rng_stream(0, STREAM_VARIANCE)  # a first call imports numpy.random, 0.7 MiB
    peak = peak_traced_bytes(lambda: variance_ratio_mc(combos, samples=samples, seed=0))
    assert peak <= (3 + 1) * 8 * samples + 2**20, peak / (8 * samples)


@pytest.mark.parametrize("combos", [[], [(0.9, 10), (1.0, 10)],
                                    [(0.9, 10), (0.5, 0)]],
                         ids=["empty", "beta1_one", "t_zero"])
def test_variance_ratio_mc_rejects_bad_combos(combos, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew from the stream before validating")

    monkeypatch.setattr("agdopt.theory.rng_stream", no_draws)
    with pytest.raises(ConfigError):
        variance_ratio_mc(combos, samples=20_000, seed=0)


# --------------------------------------------------------- effective step size


def test_alpha_hat_first_value():
    series = alpha_hat_series(1e-3, 0.9, "constant", 0.999, 3)
    assert abs(series[0] - 0.00031622776601683816) < 1e-19


def test_alpha_hat_strictly_decreasing_samples():
    for b1, sched, b2 in [(0.9, "constant", 0.999), (0.9, "over_t", 0.0),
                          (0.0, "constant", 0.999), (0.5, "over_sqrt_t", 0.9)]:
        series = alpha_hat_series(1e-3, b1, sched, b2, 5000)
        assert (np.diff(series) < 0).all(), (b1, sched, b2)


def _alpha_hat_plain(alpha, beta1, beta1_schedule, beta2, T):
    """Reference: every power taken, as in the claim's formula."""
    t = np.arange(1, T + 1, dtype=np.float64)
    b1t = {"constant": np.full(T, beta1), "over_sqrt_t": beta1 / np.sqrt(t),
           "over_t": beta1 / t}[beta1_schedule]
    lr = alpha / np.sqrt(t)
    return lr * np.sqrt(1.0 - beta2 ** t) / (1.0 - b1t ** t)


@pytest.mark.parametrize("T", [1, 7, 600, 100_000])
def test_alpha_hat_matches_the_plain_expression_bits(T):
    for b1 in (0.0, 0.5, 0.9, 0.99):
        for b2 in (0.0, 0.9, 0.999, 0.9999):
            for sched in ("constant", "over_sqrt_t", "over_t"):
                got = alpha_hat_series(1e-3, b1, sched, b2, T)
                want = _alpha_hat_plain(1e-3, b1, sched, b2, T)
                assert got.tobytes() == want.tobytes(), (b1, b2, sched)


def test_alpha_hat_domain():
    with pytest.raises(ConfigError):
        alpha_hat_series(0.0, 0.9, "constant", 0.999, 10)
    with pytest.raises(ConfigError):
        alpha_hat_series(1e-3, 0.9, "constant", 1.0, 10)
    with pytest.raises(ConfigError):
        alpha_hat_series(1e-3, 0.9, "warmup", 0.999, 10)
    for alpha in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="alpha"):
            alpha_hat_series(alpha, 0.9, "constant", 0.999, 10)


# ---------------------------------------------------------------- projection


def test_project_box_clips():
    lo = np.array([-1.0, 0.0])
    hi = np.array([1.0, 2.0])
    w = np.array([-3.0, 5.0])
    assert np.array_equal(project_box(w, lo, hi), [-1.0, 2.0])


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=3,
                max_size=3))
def test_project_box_idempotent_and_interior_fixed(vals):
    lo = np.array([-2.0, -2.0, -2.0])
    hi = np.array([2.0, 2.0, 2.0])
    w = np.asarray(vals)
    p = project_box(w, lo, hi)
    assert np.array_equal(project_box(p, lo, hi), p)
    assert ((p >= lo) & (p <= hi)).all()
    inside = (w >= lo) & (w <= hi)
    assert np.array_equal(p[inside], w[inside])


# ---------------------------------------------------------------- regret


def test_quadratic_stream_geometry():
    exp = make_quadratic_stream(3, 500, seed=1)
    assert exp.centers.shape == (500, 3)
    assert (exp.centers >= exp.lo).all() and (exp.centers <= exp.hi).all()
    assert ((exp.w_star >= exp.lo) & (exp.w_star <= exp.hi)).all()
    np.testing.assert_allclose(exp.w_star, exp.centers.mean(axis=0))
    again = make_quadratic_stream(3, 500, seed=1)
    assert np.array_equal(exp.centers, again.centers)


@pytest.mark.parametrize("key, value", [("center_scale", 0.0), ("center_scale", math.nan),
                                        ("center_scale", "1"), ("margin", -5.0),
                                        ("margin", math.inf)])
def test_quadratic_stream_checks_like_the_cli(key, value):
    # margin=-5 gave an inverted box (lo > hi), and a NaN center_scale
    # raised NumPy's OverflowError
    with pytest.raises(ConfigError, match=key):
        make_quadratic_stream(2, 10, 0, **{key: value})


def test_online_regret_nonnegative_at_horizon():
    exp = make_quadratic_stream(2, 2000, seed=0)
    hp = HyperParams(alpha=0.5, lr_schedule="inverse_sqrt",
                     beta1_schedule="over_t")
    regret = online_regret(exp, hp)
    assert regret.shape == (2000,)
    assert regret[-1] >= 0.0


def test_online_regret_grows_sublinearly():
    exp = make_quadratic_stream(2, 4000, seed=0)
    hp = HyperParams(alpha=0.5, lr_schedule="inverse_sqrt",
                     beta1_schedule="over_t")
    regret = online_regret(exp, hp)
    assert loglog_slope(regret) < 0.8


def test_loglog_slope_recovers_power_laws():
    t = np.arange(1, 5001, dtype=float)
    assert abs(loglog_slope(10.0 * np.sqrt(t)) - 0.5) < 1e-6
    assert abs(loglog_slope(np.full(5000, 7.0)) - 0.0) < 1e-12
    assert abs(loglog_slope(0.3 * t) - 1.0) < 1e-6


def test_loglog_slope_needs_length():
    with pytest.raises(ConfigError):
        loglog_slope(np.ones(5))


# ---------------------------------------------------------------- norm bound


def test_norm_bound_holds_on_random_streams():
    hp = HyperParams(alpha=1e-3)
    rng = np.random.default_rng(0)
    stream = rng.uniform(-5.0, 5.0, size=(200, 40))
    max_ratio, bound = norm_bound_check(stream, hp, group_size=4)
    assert max_ratio < 1.0
    # bound per 4-wide group: 4 (2G + delta) / (1 - beta1)^2
    G = np.abs(stream).max()
    assert abs(bound - 4 * (2 * G + hp.delta) / 0.1**2) / bound < 1e-12


def test_norm_bound_group_size_must_divide():
    hp = HyperParams(alpha=1e-3)
    # 0 divided n by zero, and -5 "divided" 10 until the reshape failed;
    # 2.5 "divided" 10 until the reshape raised TypeError, and True ran as 1
    for size in (3, 0, -5, -10, 2.5, True):
        with pytest.raises(ConfigError, match="group_size"):
            norm_bound_check(np.zeros((10, 10)), hp, group_size=size)


def test_norm_bound_rejects_bad_hyperparams():
    # refused before the bound divides by 1 - beta1
    with pytest.raises(ConfigError, match="beta1"):
        norm_bound_check(np.ones((3, 2)), HyperParams(alpha=1e-3, beta1=1.0))
    # a list raised AttributeError after building a population state, and a
    # dict got a message about population rows
    for hp in ([HyperParams(alpha=1e-3)], {"alpha": 1e-3}, None):
        with pytest.raises(ConfigError, match="hp must be a HyperParams"):
            norm_bound_check(np.ones((3, 2)), hp)


def test_norm_bound_rejects_flat_stream():
    hp = HyperParams(alpha=1e-3)
    with pytest.raises(ConfigError):
        norm_bound_check(np.zeros(10), hp)


def _norm_bound_reference(stream, hp, group_size):
    """Reference: the (T, n) array whole, G from it first, one ratio a step."""
    G = float(np.abs(stream).max())
    bound = group_size * (2.0 * G + hp.delta) / (1.0 - hp.beta1) ** 2
    n = stream.shape[1]
    state, w, max_ratio = init_state("agd", n, hp), np.zeros(n), 0.0
    for t, g in enumerate(stream, 1):
        state, w, _ = agd_step(state, w, g, collect_histogram=False)
        v = np.maximum(np.sqrt(state.b), hp.delta * math.sqrt(1.0 - hp.beta2 ** t))
        max_ratio = max(max_ratio, float(v.reshape(-1, group_size).sum(axis=1).max()) / bound)
    return max_ratio, bound


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("group_size", [1, 4, None])
@pytest.mark.parametrize("T", [1, 40])
def test_norm_bound_rows_give_the_array_bits(seed, group_size, T):
    hp = HyperParams(alpha=1e-3, beta2=0.99)
    rng = np.random.default_rng(seed)
    stream = rng.uniform(-3.0, 3.0, size=(T, 24)) * rng.uniform(0.0, 2.0, size=24)
    want = _norm_bound_reference(stream, hp, group_size or 24)
    assert norm_bound_check(stream, hp, group_size) == want
    assert norm_bound_check((row.copy() for row in stream), hp, group_size) == want
    assert norm_bound_check(list(stream), hp, group_size) == want


def test_verify_suite_draws_the_norm_bound_stream_row_by_row(monkeypatch):
    rows = []

    def recorder(stream, hp, group_size):
        rows.extend(stream)
        return 0.0, 1.0

    monkeypatch.setattr(theory, "norm_bound_check", recorder)
    verify_suite(samples=5_000, seed=4)
    whole = rng_stream(4, STREAM_GRADS).uniform(-5.0, 5.0, size=(500, 4000))
    assert np.array_equal(np.stack(rows), whole)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_norm_bound_refuses_a_non_finite_row_before_stepping_it(bad, monkeypatch):
    # an inf or a nan returned (0.0, inf) or (0.0, nan), which read as a held claim
    steps = []

    def counted_step(*args, **kwargs):
        steps.append(1)
        return agd_step(*args, **kwargs)

    monkeypatch.setattr(theory, "agd_step", counted_step)
    stream = np.array([[1.0, 2.0], [1.0, bad], [1.0, 2.0]])
    with pytest.raises(ConfigError, match="row 2 must be 2 finite values"):
        norm_bound_check(stream, HyperParams(alpha=1e-3))
    assert len(steps) == 1


@pytest.mark.parametrize("stream", [np.zeros((0, 4)), iter(())], ids=["array", "generator"])
def test_norm_bound_refuses_an_empty_stream(stream):
    # a (0, n) array raised NumPy's zero-size reduction ValueError
    with pytest.raises(ConfigError, match="grad_stream is empty"):
        norm_bound_check(stream, HyperParams(alpha=1e-3))


def test_norm_bound_refuses_a_row_of_another_shape():
    # unchecked, a (1,) row would broadcast against the (4,) state
    for last in (np.ones(3), np.ones(1), np.ones((1, 4))):
        with pytest.raises(ConfigError, match="row 3 must be 4 finite values"):
            norm_bound_check(iter([np.ones(4), np.ones(4), last]), HyperParams(alpha=1e-3))
    for first in (np.ones((2, 2)), np.ones(0)):
        with pytest.raises(ConfigError, match="rows must be"):
            norm_bound_check([first], HyperParams(alpha=1e-3))
    with pytest.raises(ConfigError, match="iterable of rows"):
        norm_bound_check(5.0, HyperParams(alpha=1e-3))


def test_norm_bound_holds_one_row_at_a_time():
    # a 500-row stream drawn as it is read never sits in memory whole
    n = 4000
    rng = np.random.default_rng(0)
    peak = peak_traced_bytes(
        lambda: norm_bound_check((rng.uniform(-5.0, 5.0, size=n) for _ in range(500)),
                                 HyperParams(alpha=1e-3), group_size=4))
    assert peak < 16 * 8 * n, peak / (8 * n)


# ---------------------------------------------------------------- suite


def test_verify_suite_reports_shape():
    reports = verify_suite(samples=5_000, seed=0)
    claims = [r["claim"] for r in reports]
    assert claims == ["variance_identity", "alpha_hat_strictly_decreasing",
                      "preconditioner_norm_bound", "regret_sublinear"]
    for r in reports:
        assert set(r) == {"claim", "parameters", "observed", "bound", "passed"}


def test_verify_suite_small_samples_inconclusive():
    reports = verify_suite(samples=5_000, seed=0)
    variance = reports[0]
    assert variance["passed"] is None
    assert variance["observed"] is None
    # the sample-free checks still run to a verdict
    assert all(r["passed"] is True for r in reports[1:])


def test_verify_suite_moderate_samples_pass():
    reports = verify_suite(samples=20_000, seed=0)
    assert all(r["passed"] is True for r in reports)


def test_stream_and_suite_counts_are_integers():
    # each raised TypeError, or ran with a bool or a fractional count
    for dim, horizon in ((2.5, 10), (2, True), (2, 10.5)):
        with pytest.raises(ConfigError, match="must be an integer"):
            make_quadratic_stream(dim, horizon, 0)
    for samples in (1.5, True):
        with pytest.raises(ConfigError, match="samples must be an integer"):
            verify_suite(samples=samples)
    # 1.5 raised TypeError from `&` in rng_stream
    with pytest.raises(ConfigError, match="seed must be an integer"):
        verify_suite(samples=5000, seed=1.5)
    # an integral float counts as the integer it equals
    reports = verify_suite(samples=2e4, seed=0)
    assert reports[0]["parameters"]["samples"] == 20_000
    assert all(r["passed"] is True for r in reports)


def test_verify_suite_rejects_bad_hp(monkeypatch):
    with pytest.raises(ConfigError):
        verify_suite(samples=5_000, seed=0,
                     hp=HyperParams(alpha=1e-3, beta2=1.0))

    # refused before the Monte-Carlo check draws its first sample
    def no_draws(*args, **kwargs):
        raise AssertionError("the Monte-Carlo check ran")

    monkeypatch.setattr(theory, "variance_ratio_mc", no_draws)
    for hp in ([HyperParams(alpha=1e-3)], {"alpha": 1e-3}):
        with pytest.raises(ConfigError, match="hp must be a HyperParams"):
            verify_suite(samples=10_000, seed=0, hp=hp)
