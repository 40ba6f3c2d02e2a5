import numpy as np
import pytest

from agdopt.core import ConfigError, HyperParams, optimizer_step
from agdopt.diagnostics import (
    DIVERGENCE_LOSS,
    MlpProblem,
    TestFnProblem,
    race,
    record_run,
    run_steps,
)
from agdopt.models import MlpSpec, two_moons
from agdopt.testfns import TESTFNS
from agdopt.optim import init_state
from agdopt.theory import RegretProblem, make_quadratic_stream

HP = HyperParams(alpha=1e-3)


class ZeroGradProblem:
    """Flat loss; only weight decay can move the parameters."""

    name = "flat"
    optimum = None

    def __init__(self, dim=3, w0=2.0):
        self.dim = dim
        self.w0 = w0

    def init_params(self):
        return np.full(self.dim, self.w0)

    def loss_grad(self, w):
        return 0.0, np.zeros(self.dim)


# ---------------------------------------------------------------- problems


def test_testfn_problem_default_and_custom_start():
    p = TestFnProblem(TESTFNS["beale"])
    assert np.array_equal(p.init_params(), [2.0, 1.5])
    q = TestFnProblem(TESTFNS["beale"], start=(0.0, 0.0))
    assert np.array_equal(q.init_params(), [0.0, 0.0])
    loss, grad = q.loss_grad(q.init_params())
    assert loss == 14.203125
    # starts are copies: steps must not corrupt later runs
    w = p.init_params()
    w += 100.0
    assert np.array_equal(p.init_params(), [2.0, 1.5])


def test_mlp_problem_steps_per_epoch():
    ds = two_moons(256, 0.15, seed=42)
    p = MlpProblem(MlpSpec(2, 16, 1), ds, batch_size=8, seed=42)
    assert p.steps_per_epoch == 32
    q = MlpProblem(MlpSpec(2, 16, 1), ds, batch_size=100, seed=42)
    assert q.steps_per_epoch == 3  # 100 + 100 + 56


def test_mlp_problem_stream_is_stateful():
    ds = two_moons(64, 0.1, seed=1)
    p = MlpProblem(MlpSpec(2, 4, 1), ds, batch_size=32, seed=1)
    w = p.init_params()
    l1, _ = p.loss_grad(w)
    l2, _ = p.loss_grad(w)
    assert l1 != l2  # different minibatch each call


# ---------------------------------------------------------------- record_run


def test_record_run_shapes_and_cadence():
    p = TestFnProblem(TESTFNS["quad_skew"])
    traj = record_run(p, "agd", HP, steps=10, snapshot_every=4)
    assert len(traj.loss) == 10
    # scalar diagnostics at every step
    assert traj.step_norm.shape == traj.truncation_fraction.shape == (10,)
    assert np.isfinite(traj.step_norm).all()
    assert np.isfinite(traj.truncation_fraction).all()
    # histograms at the cadence plus the final step; params at the final step
    assert np.array_equal(traj.params, list(run_steps(p, "agd", HP, steps=10))[-1][2])
    assert traj.hist_t.tolist() == [4, 8, 10]
    assert traj.hists.shape == (3, 20)
    assert not traj.diverged


def test_record_run_losses_decrease_on_quadratic():
    p = TestFnProblem(TESTFNS["quad_skew"])
    traj = record_run(p, "agd", HP, steps=800, snapshot_every=800)
    losses = traj.loss
    assert losses[-1] < 0.1 * losses[0]


def test_record_run_validates():
    p = TestFnProblem(TESTFNS["quad_skew"])
    with pytest.raises(ConfigError):
        record_run(p, "agd", HP, steps=0)
    with pytest.raises(ConfigError):
        record_run(p, "agd", HP, steps=5, snapshot_every=0)
    with pytest.raises(ConfigError):
        record_run(p, "newton", HP, steps=5)


def test_record_run_flags_divergence():
    # heavy-ball at lr 10 blows up on the rosenbrock valley immediately
    p = TestFnProblem(TESTFNS["rosenbrock"])
    hp = HyperParams(alpha=10.0, beta1=0.9)
    traj = record_run(p, "sgd", hp, steps=50)
    assert traj.diverged
    assert traj.diverged_at == 2
    assert len(traj.loss) == 2  # stops at the flagged step
    assert traj.loss[-1] > DIVERGENCE_LOSS


def test_record_run_keeps_only_the_last_iterate():
    p = TestFnProblem(TESTFNS["rosenbrock"])
    hp = HyperParams(alpha=10.0, beta1=0.9)
    traj = record_run(p, "sgd", hp, steps=50)
    iterates = [w for _, _, w, _ in run_steps(p, "sgd", hp, steps=50)]
    # diverged at t=2: params holds w_1, where its loss was evaluated
    assert len(traj.loss) == 2
    assert np.array_equal(traj.params, iterates[1])


@pytest.mark.parametrize("name", ["rosenbrock", "beale"])
def test_record_run_oracle_overflow_is_divergence(name):
    # the first step moves each coordinate by alpha; evaluating the test
    # function that far out overflows Python's float power
    p = TestFnProblem(TESTFNS[name])
    traj = record_run(p, "agd", HyperParams(alpha=1e250), steps=50)
    assert traj.diverged
    assert traj.diverged_at == 2
    assert len(traj.loss) == 2
    assert traj.loss[-1] == float("inf")


def test_step_norm_is_the_update_in_both_paths():
    # with decoupled decay, the library step and the run loop report the
    # optimizer's own update, not the decay shrinkage on top of it
    p = TestFnProblem(TESTFNS["quad_skew"])
    hp = HyperParams(alpha=0.1, weight_decay=0.5)
    traj = record_run(p, "adamw", hp, steps=1)
    _, g = p.loss_grad(p.init_params())
    _, _, diag = optimizer_step(init_state("adamw", 2, hp), p.init_params(), g)
    assert diag.step_norm == traj.step_norm[0]
    assert abs(diag.step_norm - 0.1 * np.sqrt(2.0)) < 1e-8


def test_record_run_bounded_updates_stay_finite():
    # the auto-switch update is bounded per step, so the same rate survives
    p = TestFnProblem(TESTFNS["rosenbrock"])
    hp = HyperParams(alpha=10.0)
    traj = record_run(p, "agd", hp, steps=50)
    assert not traj.diverged
    assert np.isfinite(traj.loss).all()


def test_record_run_applies_weight_decay():
    hp = HyperParams(alpha=0.1, weight_decay=0.5)
    iterates = [w for t, _, w, _ in run_steps(ZeroGradProblem(dim=2, w0=2.0),
                                              "adam", hp, steps=3) if t]
    assert len(iterates) == 3
    # zero gradients: params shrink by exactly (1 - lr*decay) each step
    factor = 1.0 - 0.1 * 0.5
    expect = 2.0
    for w in iterates:
        expect *= factor
        assert np.allclose(w, expect, rtol=0, atol=1e-15)


def _columns_from_run_steps(p, optimizer, hp, steps, snapshot_every):
    """The Trajectory columns, rebuilt item by item from run_steps."""
    rows, hist_t, hists = [], [], []
    for t, loss, _, diag in run_steps(p, optimizer, hp, steps, snapshot_every):
        if t and diag is None:
            rows.append((loss, float("nan"), float("nan")))
        elif t:
            rows.append((loss, diag.step_norm, diag.truncation_fraction))
            if diag.bhat_histogram is not None:
                hist_t.append(t)
                hists.append(diag.bhat_histogram.tolist())
    return rows, hist_t, hists


def _assert_columns_match(traj, rows, hist_t, hists):
    # bit for bit, NaN rows included
    for i, name in enumerate(("loss", "step_norm", "truncation_fraction")):
        column = getattr(traj, name)
        assert column.dtype == np.float64
        assert column.tobytes() == np.array([r[i] for r in rows]).tobytes(), name
    assert traj.hist_t.dtype == traj.hists.dtype == np.int64
    assert traj.hist_t.tolist() == hist_t
    assert traj.hists.shape == (len(hist_t), 20)
    assert traj.hists.tolist() == hists


def test_switch_timeline_matches_points():
    # the columns are the switch timeline: every row matches run_steps
    p = TestFnProblem(TESTFNS["quad_skew"])
    for optimizer in ("agd", "adam", "sgd"):
        traj = record_run(p, optimizer, HP, steps=10, snapshot_every=4)
        rows, hist_t, hists = _columns_from_run_steps(p, optimizer, HP, 10, 4)
        _assert_columns_match(traj, rows, hist_t, hists)
        assert len(traj.loss) == 10
        assert all(0.0 <= f <= 1.0 for f in traj.truncation_fraction)
        if optimizer == "sgd":  # no second moment, so an empty histogram block
            assert traj.hist_t.shape == (0,) and traj.hists.shape == (0, 20)
        else:
            assert traj.hist_t.tolist() == [4, 8, 10]
    # a diverging step is a NaN row; the step before it overflowed step_norm
    p = TestFnProblem(TESTFNS["rosenbrock"])
    hp = HyperParams(alpha=1e250)
    traj = record_run(p, "agd", hp, steps=50, snapshot_every=1)
    with np.errstate(over="ignore"):  # the reference loop runs unguarded
        rows, hist_t, hists = _columns_from_run_steps(p, "agd", hp, 50, 1)
    _assert_columns_match(traj, rows, hist_t, hists)
    assert traj.step_norm.tolist()[0] == float("inf") and hist_t == [1]
    assert np.isnan(traj.step_norm[1]) and np.isnan(traj.truncation_fraction[1])


# ------------------------------------------------- tolerance tracking


def test_record_run_steps_to_tol_matches_race():
    p = TestFnProblem(TESTFNS["quad_skew"])
    traj = record_run(p, "agd", HP, steps=1200, snapshot_every=1200, tol=1e-2)
    assert traj.steps_to_tol == 1029  # the pinned race value; same accounting
    no_tol = record_run(p, "agd", HP, steps=10)
    assert no_tol.steps_to_tol is None


def test_record_run_tol_start_inside():
    p = TestFnProblem(TESTFNS["quad_skew"], start=(1e-3, 0.0))
    traj = record_run(p, "agd", HP, steps=5, tol=1e-2)
    assert traj.steps_to_tol == 0


def test_record_run_rejects_bad_tol():
    p = TestFnProblem(TESTFNS["quad_skew"])
    with pytest.raises(ConfigError):
        record_run(p, "agd", HP, steps=5, tol=0.0)


# ------------------------------------------------- projected online runs


def test_regret_problem_stays_in_box():
    exp = make_quadratic_stream(dim=3, horizon=300, seed=4)
    p = RegretProblem(exp)
    hp = HyperParams(alpha=0.5, lr_schedule="inverse_sqrt",
                     beta1_schedule="over_t")
    losses = []
    for t, loss, w, _ in run_steps(p, "agd_amsgrad", hp, steps=300):
        assert np.all(w >= exp.lo - 1e-15)
        assert np.all(w <= exp.hi + 1e-15)
        if t:
            losses.append(loss)
    # cumulative regret vs the offline box minimizer is nonnegative at the
    # full horizon
    assert len(losses) == 300
    assert float(np.sum(losses)) >= -1e-9


def test_regret_problem_stream_exhausts():
    exp = make_quadratic_stream(dim=2, horizon=5, seed=0)
    p = RegretProblem(exp)
    with pytest.raises(ConfigError, match="exhausted"):
        record_run(p, "agd", HP, steps=6)


# ---------------------------------------------------------------- races


def test_race_pinned_quad_skew():
    p = TestFnProblem(TESTFNS["quad_skew"])
    hp_map = {"agd": HP, "sgd": HyperParams(alpha=1e-6, beta1=0.9)}
    result = race(p, ["agd", "sgd"], hp_map, tol=1e-2, max_steps=2000)
    assert result.steps_to_tol == {"agd": 1029, "sgd": None}
    assert result.winner() == "agd"
    assert result.final_distance["agd"] <= 1e-2
    assert result.final_distance["sgd"] > 1e-2


def test_race_start_inside_ball_scores_zero():
    p = TestFnProblem(TESTFNS["quad_skew"], start=(1e-3, 0.0))
    result = race(p, ["agd"], {"agd": HP}, tol=1e-2, max_steps=10)
    assert result.steps_to_tol == {"agd": 0}


def test_race_order_independent():
    p = TestFnProblem(TESTFNS["quad_skew"])
    hp_map = {"agd": HP, "adabelief": HP}
    a = race(p, ["agd", "adabelief"], hp_map, tol=1e-2, max_steps=2000)
    b = race(p, ["adabelief", "agd"], hp_map, tol=1e-2, max_steps=2000)
    assert a.steps_to_tol == b.steps_to_tol


class CountingProblem(TestFnProblem):
    def __init__(self, fn):
        super().__init__(fn)
        self.calls = 0

    def loss_grad(self, w):
        self.calls += 1
        return super().loss_grad(w)


@pytest.mark.parametrize("name", sorted(TESTFNS))
def test_race_stops_a_diverging_entrant(name):
    p = CountingProblem(TESTFNS[name])
    with np.errstate(over="ignore"):
        result = race(p, ["agd"], {"agd": HyperParams(alpha=1e250)}, tol=1e-2,
                      max_steps=1000)
    assert result.steps_to_tol == {"agd": None}
    assert result.winner() is None
    assert p.calls <= 3  # the loss at step 2 is already beyond the limit


def test_race_requires_optimum():
    ds = two_moons(32, 0.1, seed=0)
    p = MlpProblem(MlpSpec(2, 4, 1), ds, batch_size=8, seed=0)
    with pytest.raises(ConfigError):
        race(p, ["agd"], {"agd": HP})


def test_race_rejects_bad_tol():
    p = TestFnProblem(TESTFNS["quad_skew"])
    with pytest.raises(ConfigError):
        race(p, ["agd"], {"agd": HP}, tol=0.0)
