import math
from dataclasses import replace

import numpy as np
import pytest

from agdopt import diagnostics
from agdopt.core import ConfigError, HyperParams, ShapeError, optimizer_step
from agdopt.diagnostics import (
    DIVERGENCE_LOSS,
    MlpProblem,
    TestFnProblem,
    race,
    record_run,
    record_runs,
)
from agdopt.models import MlpSpec, two_moons
from agdopt.testfns import TESTFNS
from agdopt.optim import CHUNK, FLOAT_MAX_N, dispatch_step, init_state
from agdopt.theory import RegretProblem, make_quadratic_stream
from conftest import peak_traced_bytes

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


def _pure_steps(problem, optimizer, hp, steps, snapshot_every=None):
    """Reference run loop of pure dispatch_step calls, yielding (t, loss, w,
    diag): first (0, None, w_0, None), then step t's loss at w_{t-1}, the
    projected w_t and the diagnostics, with a histogram every snapshot_every
    steps and at the last (never if None). A step whose loss diverges
    (non-finite, above DIVERGENCE_LOSS, or an OverflowError read as inf)
    yields (t, loss, w_{t-1}, None) and ends the run."""
    w = problem.init_params()
    state = init_state(optimizer, w.size, hp)
    project = getattr(problem, "project", None)
    yield 0, None, w, None
    for t in range(1, steps + 1):
        try:
            loss, g = problem.loss_grad(w)
        except OverflowError:
            loss = math.inf
        if not math.isfinite(loss) or loss > DIVERGENCE_LOSS:
            yield t, loss, w, None
            return
        snap = snapshot_every is not None and (t % snapshot_every == 0 or t == steps)
        state, w, diag = dispatch_step(state, w, g, collect_histogram=snap)
        if project is not None:
            w = project(w)
        yield t, loss, w, diag


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
    assert np.array_equal(traj.params, list(_pure_steps(p, "agd", HP, steps=10))[-1][2])
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


@pytest.mark.parametrize("kwargs", [{"steps": True}, {"steps": 2.5},
                                    {"steps": 5, "snapshot_every": 1.5}])
def test_record_run_rejects_a_count_that_is_not_an_integer(kwargs):
    # steps=True ran one step and snapshot_every=1.5 was accepted
    p = TestFnProblem(TESTFNS["quad_skew"])
    with pytest.raises(ConfigError, match="must be an integer"):
        record_run(p, "agd", HP, **kwargs)


@pytest.mark.parametrize("max_steps", [True, 2.5])
def test_race_rejects_a_budget_that_is_not_an_integer(max_steps):
    p = TestFnProblem(TESTFNS["quad_skew"])
    with pytest.raises(ConfigError, match="max_steps must be an integer"):
        race(p, ["agd"], {"agd": HP}, max_steps=max_steps)


class Float32Quadratic:
    """A quadratic whose oracle returns its gradient as float32."""

    name, optimum = "quad32", None

    def __init__(self, n):
        self.n = n

    def init_params(self):
        return np.linspace(-1.0, 1.0, self.n)

    def loss_grad(self, w):
        d = (w - 0.3) * np.linspace(1.0, 3.0, self.n)
        return float(d @ d), d.astype(np.float32)


@pytest.mark.parametrize("n", [2, 12])
@pytest.mark.parametrize("optimizer", ["agd", "adam", "sgd"])
def test_record_run_reads_a_float32_gradient_as_a_population_row_does(optimizer, n):
    # a population row takes its gradient as float64 through the (K, n)
    # block; a lone run reads it as float64 too, so both carry the same bits
    hp = HyperParams(alpha=1e-2)
    alone = record_run(Float32Quadratic(n), optimizer, hp, steps=50)
    row = record_runs([Float32Quadratic(n), Float32Quadratic(n)], optimizer, [hp, hp],
                      steps=50)[0]
    for k in ("loss", "step_norm", "truncation_fraction", "hists", "params"):
        assert np.array_equal(getattr(alone, k), getattr(row, k)), k


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
    iterates = [w for _, _, w, _ in _pure_steps(p, "sgd", hp, steps=50)]
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
    # zero gradients: params shrink by exactly (1 - lr*decay) each step
    factor = 1.0 - 0.1 * 0.5
    expect = 2.0
    for steps in (1, 2, 3):
        expect *= factor
        w = record_run(ZeroGradProblem(dim=2, w0=2.0), "adam", hp, steps).params
        assert np.allclose(w, expect, rtol=0, atol=1e-15)


def _columns_from_pure_steps(p, optimizer, hp, steps, snapshot_every):
    """The Trajectory columns and params, rebuilt item by item from
    _pure_steps."""
    rows, hist_t, hists = [], [], []
    for t, loss, w, diag in _pure_steps(p, optimizer, hp, steps, snapshot_every):
        if t and diag is None:
            rows.append((loss, float("nan"), float("nan")))
        elif t:
            rows.append((loss, diag.step_norm, diag.truncation_fraction))
            if diag.bhat_histogram is not None:
                hist_t.append(t)
                hists.append(diag.bhat_histogram.tolist())
    return rows, hist_t, hists, w


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
    # the columns are the switch timeline: every row matches a pure step
    p = TestFnProblem(TESTFNS["quad_skew"])
    for optimizer in ("agd", "adam", "sgd"):
        traj = record_run(p, optimizer, HP, steps=10, snapshot_every=4)
        rows, hist_t, hists, _ = _columns_from_pure_steps(p, optimizer, HP, 10, 4)
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
        rows, hist_t, hists, _ = _columns_from_pure_steps(p, "agd", hp, 50, 1)
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


@pytest.mark.parametrize("n", [2, 8])
def test_lone_tolerance_dot_has_the_population_bits(n):
    # a lone run checks its tolerance with a 1-D np.dot, a population with
    # np.vecdot: the same bits keep steps_to_tol the same either way
    d = np.random.default_rng(n).standard_normal((2000, n)) * 10.0 ** (
        np.random.default_rng(n + 1).uniform(-8, 3, size=(2000, 1)))
    rows = np.vecdot(d, d).tolist()
    assert [float(np.dot(row, row)) for row in d] == rows


def test_record_run_rejects_bad_tol():
    p = TestFnProblem(TESTFNS["quad_skew"])
    # NaN compares False both ways: as a tol it could never be reached
    for tol in (0.0, math.nan):
        with pytest.raises(ConfigError, match="tol"):
            record_run(p, "agd", HP, steps=5, tol=tol)


class NeverStepped(TestFnProblem):
    """A test-function problem whose oracle must not be called."""

    def loss_grad(self, w):
        raise AssertionError("a step ran")


TOL_CALLS = {
    "record_run": lambda p, tol: record_run(p, "agd", HP, steps=5, tol=tol),
    "record_runs": lambda p, tol: record_runs([p, p], "agd", [HP, HP], 5, tol=tol),
    "race": lambda p, tol: race(p, ["agd"], {"agd": HP}, tol=tol),
}


@pytest.mark.parametrize("tol", [True, math.inf, "0.01"])
@pytest.mark.parametrize("call", sorted(TOL_CALLS))
def test_tol_is_checked_before_any_step(call, tol):
    # True ran as 1.0 (a race reported "tol": True), inf was accepted and
    # "0.01" raised TypeError
    with pytest.raises(ConfigError, match="tol must be"):
        TOL_CALLS[call](NeverStepped(TESTFNS["quad_skew"]), tol)


HP_CALLS = {
    "record_run": (lambda p: record_run(p, "agd", [HP], 5), "^hp must"),
    "record_runs": (lambda p: record_runs([p], "agd", [{"alpha": 1e-3}], 5), "^hp must"),
    "race": (lambda p: race(p, ["agd"], {"agd": [HP]}), r"^hp_map\['agd'\] must"),
}


@pytest.mark.parametrize("call", sorted(HP_CALLS))
def test_hp_is_checked_before_any_step(call):
    # a list hp was bound as a one-row population and raised ShapeError at
    # step 1, and a dict was refused as a "population row"
    run, message = HP_CALLS[call]
    with pytest.raises(ConfigError, match=message + " be a HyperParams"):
        run(NeverStepped(TESTFNS["quad_skew"]))


@pytest.mark.parametrize("entrants, hp_map", [([], {}), (["agd", "agd"], {"agd": HP}),
                                              (["agd", "adam"], {"agd": HP}),
                                              (["agd", "newton"], {"agd": HP, "newton": HP})])
def test_race_checks_its_entrants_before_any_step(entrants, hp_map):
    # an empty race returned no winner, a duplicate ran twice and was
    # reported once, and a name missing from hp_map raised KeyError
    with pytest.raises(ConfigError):
        race(NeverStepped(TESTFNS["quad_skew"]), entrants, hp_map)


@pytest.mark.parametrize("start", [["1", "2"], [1.0], [1.0, 2.0, 3.0], [math.nan, 0.0],
                                   5.0, [[1.0, 2.0]]])
def test_testfn_problem_checks_its_start(start):
    # ["1", "2"] was coerced to floats, and a 1-element start failed mid-run
    # with IndexError, a 3-element one with ShapeError
    with pytest.raises(ConfigError, match="start must be"):
        NeverStepped(TESTFNS["quad_skew"], start)


def test_testfn_problem_takes_a_start_as_a_list_tuple_or_array():
    fn = TESTFNS["quad_skew"]
    for start in ([1, 2], (1.0, 2), np.array([1.0, 2.0])):
        w = TestFnProblem(fn, start).init_params()
        assert w.dtype == np.float64 and w.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("batch_size", [0, True, 65, 2.5])
def test_mlp_problem_checks_its_batch_size_when_built(batch_size):
    # 0 built and made steps_per_epoch raise ZeroDivisionError, True ran as
    # 1, and 65 (above n) and 2.5 failed only at step 1
    ds = two_moons(64, 0.1, seed=1)
    with pytest.raises(ConfigError, match="batch_size must be"):
        MlpProblem(MlpSpec(2, 4, 1), ds, batch_size=batch_size, seed=1)


# ------------------------------------------------- projected online runs


class BoxCheckingRegretProblem(RegretProblem):
    """A RegretProblem that checks every iterate its oracle sees is in the box."""

    def loss_grad(self, w):
        assert np.all(w >= self.exp.lo - 1e-15)
        assert np.all(w <= self.exp.hi + 1e-15)
        return super().loss_grad(w)


def test_regret_problem_stays_in_box():
    exp = make_quadratic_stream(dim=3, horizon=300, seed=4)
    p = BoxCheckingRegretProblem(exp)
    hp = HyperParams(alpha=0.5, lr_schedule="inverse_sqrt",
                     beta1_schedule="over_t")
    traj = record_run(p, "agd_amsgrad", hp, steps=300)
    # w_0 .. w_299 went through the checking oracle; w_300 is params
    assert np.all(traj.params >= exp.lo - 1e-15)
    assert np.all(traj.params <= exp.hi + 1e-15)
    # cumulative regret vs the offline box minimizer is nonnegative at the
    # full horizon
    assert len(traj.loss) == 300
    assert float(np.sum(traj.loss)) >= -1e-9


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


# races pinned by steps_to_tol and the bits of final_distance, with the
# benchmark's six entrants (recorded before lone small runs stepped on floats)
RACE_HPS = {"agd": HP, "agd_amsgrad": HP, "adam": HP,
            "adamw": HyperParams(alpha=1e-3, weight_decay=1e-4), "adabelief": HP,
            "sgd": HyperParams(alpha=1e-4, beta1=0.9)}
RACE_PINS = {
    "quad_skew": {
        "agd": (1029, "0x1.46899cc1a9876p-7"),
        "agd_amsgrad": (1306, "0x1.46f4ef4d67c01p-7"),
        "adam": (4930, "0x1.472551303ec78p-7"),
        "adamw": (4930, "0x1.46c3a565bde11p-7"),
        "adabelief": (1594, "0x1.45c87e68b674ap-7"),
        "sgd": (13351, "0x1.47adb35f84a5dp-7"),
    },
    "beale": {
        "agd": (5118, "0x1.47843b8b46aafp-7"),
        "agd_amsgrad": (23537, "0x1.47a3fe28fc622p-7"),
        "adam": (10150, "0x1.476d6e44ca8f4p-7"),
        "adamw": (10163, "0x1.4758beb78070fp-7"),
        "adabelief": (6428, "0x1.47774079a03f4p-7"),
        "sgd": (11760, "0x1.479e7d46e155bp-7"),
    },
    "rosenbrock": {
        "agd": (6305, "0x1.479565289b2fdp-7"),
        "agd_amsgrad": (44584, "0x1.47a755143d5b7p-7"),
        "adam": (10705, "0x1.472dedb2a5defp-7"),
        "adamw": (10708, "0x1.47228c6bcc69ep-7"),
        "adabelief": (7670, "0x1.46e5704e13758p-7"),
        "sgd": (11251, "0x1.478d913215234p-7"),
    },
}


@pytest.mark.parametrize("name", sorted(RACE_PINS))
def test_race_pins(name):
    result = race(TestFnProblem(TESTFNS[name]), list(RACE_HPS), RACE_HPS, tol=1e-2,
                  max_steps=100_000)
    assert {k: (result.steps_to_tol[k], result.final_distance[k].hex())
            for k in RACE_HPS} == RACE_PINS[name]


def test_race_pins_a_diverging_entrant():
    p = TestFnProblem(TESTFNS["rosenbrock"])
    with np.errstate(over="ignore"):
        result = race(p, ["sgd"], {"sgd": HyperParams(alpha=1.0)}, tol=1e-2,
                      max_steps=1000)
    assert result.steps_to_tol == {"sgd": None}
    assert result.final_distance["sgd"].hex() == "0x1.d50898f128d28p+31"


class FixedGradProblem:
    """Returns one gradient at every point; optimum at the origin."""

    name = "fixed"

    def __init__(self, start, grad):
        self.start, self.grad, self.optimum = start, grad, np.zeros(start.size)

    def init_params(self):
        return self.start.copy()

    def loss_grad(self, w):
        return 0.0, self.grad.copy()


def test_race_tolerance_check_near_the_boundary_follows_np_dot():
    # points a few ulps either side of ||p||^2 = tol**2, where a sum of
    # squares in Python and np.dot round differently on some of them: the
    # decision must be np.dot's, before the first step (a zero-gradient run
    # started at p) and after it (sgd at lr 1, beta1 0 stepping 2p to p)
    tol = 1e-2
    tol_sq, disagree = tol * tol, 0
    for i in range(64):
        a, b = tol * math.cos(0.1 + 0.023 * i), tol * math.sin(0.1 + 0.023 * i)
        for k in range(-4, 5):
            p = np.array([a + k * math.ulp(a), b])
            inside = float(np.dot(p, p)) <= tol_sq
            disagree += (float(p[0] * p[0] + p[1] * p[1]) <= tol_sq) != inside
            before = race(FixedGradProblem(p, np.zeros(2)), ["agd"], {"agd": HP},
                          tol=tol, max_steps=1)
            after = race(FixedGradProblem(2 * p, p), ["sgd"],
                         {"sgd": HyperParams(alpha=1.0, beta1=0.0)}, tol=tol, max_steps=1)
            assert before.steps_to_tol["agd"] == (0 if inside else None), p.tolist()
            assert after.steps_to_tol["sgd"] == (1 if inside else None), p.tolist()
    assert disagree  # the points do test the boundary


def test_race_requires_optimum():
    ds = two_moons(32, 0.1, seed=0)
    p = MlpProblem(MlpSpec(2, 4, 1), ds, batch_size=8, seed=0)
    with pytest.raises(ConfigError):
        race(p, ["agd"], {"agd": HP})


def test_race_rejects_bad_tol():
    p = TestFnProblem(TESTFNS["quad_skew"])
    # a NaN tol would make every entrant a DNF
    for tol in (0.0, math.nan):
        with pytest.raises(ConfigError, match="tol"):
            race(p, ["agd"], {"agd": HP}, tol=tol)


def test_race_rejects_an_optimum_of_another_size():
    p = TestFnProblem(TESTFNS["quad_skew"])
    p.optimum = np.zeros(3)
    with pytest.raises(ValueError):
        race(p, ["agd"], {"agd": HP})


def test_race_rejects_an_empty_budget():
    p = TestFnProblem(TESTFNS["quad_skew"])
    with pytest.raises(ConfigError, match="steps"):
        race(p, ["agd"], {"agd": HP}, max_steps=0)


def test_race_entrant_memory_does_not_grow_with_its_steps():
    # 20k steps of an entrant that never reaches the ball; per-step columns
    # of loss, step norm and fraction alone would take 480 KB
    p = TestFnProblem(TESTFNS["quad_skew"])
    hp = {"sgd": HyperParams(alpha=1e-7)}
    results = []
    peak = peak_traced_bytes(
        lambda: results.append(race(p, ["sgd"], hp, tol=1e-2, max_steps=20_000)))
    assert results[0].steps_to_tol == {"sgd": None}
    assert peak < 64 * 1024


# ------------------------------------------------------------ buffer path

BUFFER_CASES = {
    "agd": HyperParams(alpha=1e-2, delta=1e-3),
    "agd_amsgrad": HyperParams(alpha=1e-2, delta=1e-3, weight_decay=1e-2,
                               lr_schedule="inverse_sqrt"),
    "adam": HyperParams(alpha=1e-2, lr_schedule="milestones",
                        milestones=((3, 0.5), (5, 0.1))),
    "adamw": HyperParams(alpha=1e-2, weight_decay=1e-1),
    "adabelief": HyperParams(alpha=1e-2, beta1_schedule="over_t"),
    "sgd": HyperParams(alpha=1e-3, weight_decay=1e-2, lr_schedule="milestones",
                       milestones=((2, 0.5),)),
}


class NoisyQuadratic:
    """Quadratic loss plus a seeded noise stream; one draw per call, and
    every seventh gradient coordinate is exactly zero."""

    name = "noisy-quadratic"
    optimum = None

    def __init__(self, n):
        self.n = n
        self.rng = np.random.default_rng(n)
        self.curv = np.linspace(0.1, 10.0, n)

    def init_params(self):
        return np.random.default_rng(self.n + 1).standard_normal(self.n)

    def loss_grad(self, w):
        g = self.curv * w + self.rng.standard_normal(self.n)
        g[::7] = 0.0
        return float(0.5 * np.dot(self.curv * w, w)), g


def _bits(x):
    return None if x is None else np.asarray(x).tobytes()


@pytest.mark.parametrize("n", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("name", sorted(BUFFER_CASES))
def test_run_steps_buffers_match_pure_steps(name, n):
    # the run loop's one state, stepped in place, against fresh pure steps:
    # each loss is evaluated at the iterate before it, so every iterate is
    # checked bit for bit, and params is the last one
    hp = BUFFER_CASES[name]
    steps = 6
    traj = record_run(NoisyQuadratic(n), name, hp, steps, snapshot_every=2)
    rows, hist_t, hists, w = _columns_from_pure_steps(NoisyQuadratic(n), name, hp, steps, 2)
    _assert_columns_match(traj, rows, hist_t, hists)
    assert len(rows) == steps and _bits(traj.params) == _bits(w), (name, n)
    if name.startswith("agd") and n > 2:  # both branches of the switch ran
        assert 0.0 < traj.truncation_fraction[-1] < 1.0


class IdentityGradProblem:
    """Loss 0 with gradient w, a fresh array per call: a run's memory is then
    the run loop's and the kernel's own arrays."""

    name = "identity"
    optimum = None

    def __init__(self, n):
        self.n = n

    def init_params(self):
        return np.ones(self.n)

    def loss_grad(self, w):
        return 0.0, w.copy()


def _identity_run_peak(name):
    """The traced peak, in n-vectors, of a lone 4-step run on
    IdentityGradProblem that takes a histogram at its last step."""
    n = 4 * CHUNK + 1
    peak = peak_traced_bytes(
        lambda: record_run(IdentityGradProblem(n), name, HP, steps=4, snapshot_every=10))
    return peak / (8 * n)


@pytest.mark.parametrize("name, vectors", [("agd", {"m", "b"}),
                                           ("agd_amsgrad", {"m", "b"}),
                                           ("adam", {"m", "b"})])
def test_run_loop_holds_two_state_vectors_per_set(name, vectors):
    # AGD's state is two vectors, the size of Adam's; a third state vector
    # would add one to the run's peak (about 5.79 vectors, see
    # test_run_loop_steps_the_iterate_in_place for the tighter bound)
    assert {f for f, v in vars(init_state(name, 4 * CHUNK + 1, HP)).items()
            if isinstance(v, np.ndarray)} == vectors
    peak = _identity_run_peak(name)
    assert peak < 10, peak


@pytest.mark.parametrize("name, vectors", [("agd", 8), ("agd_amsgrad", 8), ("adam", 8),
                                           ("sgd", 6)])
def test_run_loop_steps_one_state_in_place(name, vectors):
    # one state set stepped in place: a second set would add two vectors (one
    # for SGD) to the run's peak
    peak = _identity_run_peak(name)
    assert peak < vectors, peak


@pytest.mark.parametrize("name, vectors", [("agd", 6), ("agd_amsgrad", 6), ("adam", 6),
                                           ("adamw", 6), ("adabelief", 6), ("sgd", 4.5)])
def test_run_loop_steps_the_iterate_in_place(name, vectors):
    # one state set of two vectors (one for SGD) stepped in place, w' written
    # into w, and the rms estimate one chunk's scratch even when a histogram
    # is taken (at the last step here): a moment optimizer's lone run peaks
    # at about 5.79 vectors (w, m, b, the gradient buffer, the oracle's fresh
    # gradient, which is copied into the buffer, and the kernel's chunk
    # scratches), SGD's at about 4.0. A third state vector, a fresh w' or a
    # whole-vector estimate would add one vector each
    fields = {f for f, v in vars(init_state(name, 4 * CHUNK + 1, HP)).items()
              if isinstance(v, np.ndarray)}
    assert fields == ({"m"} if name == "sgd" else {"m", "b"})
    peak = _identity_run_peak(name)
    assert peak < vectors, peak


def test_a_wide_mlp_run_holds_one_gradient():
    # the oracle writes its gradient into the run loop's buffer, over the
    # last step's update. The run peaks at about 4.79 vectors in the kernel
    # at a histogram step: w, m, b, the buffer, the kernel's two chunk
    # scratches and bhat_histogram's chunk-wide temporary, a quarter of a
    # vector each here.
    # The oracle peaks below that, at about 4.26 (batch 1: its hidden
    # activation, a quarter of a vector). A fresh gradient beside the buffer
    # would add one, and so would the start, kept while the state and the
    # buffer are allocated
    spec = MlpSpec(2, CHUNK, 1)
    n = spec.n_params
    assert n == 4 * CHUNK + 1
    problem = MlpProblem(spec, two_moons(16, 0.1, seed=0), 1, seed=0)
    peak = peak_traced_bytes(lambda: record_run(problem, "agd", HP, steps=4, snapshot_every=2))
    assert peak < 5.0 * 8 * n, peak / (8 * n)


class KeepsItsStart:
    """A quadratic bowl whose init_params returns the array it keeps."""

    name = "keeps-its-start"

    def __init__(self, n):
        self.start, self.optimum = np.linspace(-1.0, 1.0, n), np.zeros(n)

    def init_params(self):
        return self.start

    def loss_grad(self, w):
        return 0.5 * float(w @ w), w.copy()


@pytest.mark.parametrize("n", [2, FLOAT_MAX_N + 1])
def test_runs_leave_the_start_a_problem_keeps_unchanged(n):
    # the run loop steps its own copy of the start in place, on the float
    # lane and the NumPy body alike
    runs = {
        "record_run": lambda p: record_run(p, "agd", HP, 5),
        "record_runs": lambda p: record_runs([p, KeepsItsStart(n)], "agd", [HP, HP], 5),
        "race": lambda p: race(p, ["agd", "sgd"], {"agd": HP, "sgd": HP}, max_steps=5),
    }
    for verb, run in runs.items():
        problem = KeepsItsStart(n)
        run(problem)
        assert np.array_equal(problem.start, np.linspace(-1.0, 1.0, n)), verb


class HandsBackW:
    """Loss |w|**2 / 2, whose gradient is the array w itself."""

    name = "hands-back-w"
    optimum = None

    def __init__(self, n):
        self.n = n

    def init_params(self):
        return np.linspace(-1.0, 1.0, self.n)

    def loss_grad(self, w):
        return 0.5 * float(w @ w), w


@pytest.mark.parametrize("n", [2, 2 * CHUNK + 1])
@pytest.mark.parametrize("name", sorted(BUFFER_CASES))
def test_an_oracle_may_hand_back_w_as_its_gradient(name, n):
    # the run loop steps w in place, so g is w: each chunk (each coordinate
    # on the float lane) must be read as g before w' is written over it
    hp = BUFFER_CASES[name]
    traj = record_run(HandsBackW(n), name, hp, 5, snapshot_every=2)
    rows, hist_t, hists, w = _columns_from_pure_steps(HandsBackW(n), name, hp, 5, 2)
    _assert_columns_match(traj, rows, hist_t, hists)
    assert _bits(traj.params) == _bits(w), (name, n)


# ------------------------------------------------------------ populations


class BlowsUpAt(TestFnProblem):
    """A test function whose oracle reports a loss beyond DIVERGENCE_LOSS at
    its call number `at`."""

    def __init__(self, fn, at, start=None):
        super().__init__(fn, start)
        self.at, self.calls = at, 0

    def loss_grad(self, w):
        self.calls += 1
        loss, g = super().loss_grad(w)
        return (10 * DIVERGENCE_LOSS if self.calls == self.at else loss), g


def _assert_population_matches_runs(make, optimizer, hps, steps, snapshot_every=3,
                                    tol=None):
    """record_runs over fresh problems make(i) against one record_run per row,
    bit for bit."""
    runs = record_runs([make(i) for i in range(len(hps))], optimizer, hps, steps,
                       snapshot_every, tol)
    assert len(runs) == len(hps)
    for i, hp in enumerate(hps):
        with np.errstate(over="ignore"):
            ref = record_run(make(i), optimizer, hp, steps, snapshot_every, tol)
        got = runs[i]
        for name in ("loss", "step_norm", "truncation_fraction", "hist_t", "hists",
                     "params"):
            a, b = getattr(got, name), getattr(ref, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (i, name)
            assert a.tobytes() == b.tobytes(), (i, name)
        assert (got.diverged, got.diverged_at, got.steps_to_tol) == (
            ref.diverged, ref.diverged_at, ref.steps_to_tol), i
    return runs


# one row per sweepable hyperparameter and per schedule, around BASE_HP
BASE_HP = HyperParams(alpha=2e-2, delta=1e-3)
POPULATION_HPS = [
    BASE_HP,
    replace(BASE_HP, alpha=5e-2),
    replace(BASE_HP, beta1=0.5),
    replace(BASE_HP, beta2=0.99),
    replace(BASE_HP, delta=1e-8),
    replace(BASE_HP, weight_decay=0.1),
    replace(BASE_HP, lr_schedule="inverse_sqrt"),
    replace(BASE_HP, lr_schedule="milestones", milestones=((4, 0.5), (9, 0.1))),
    replace(BASE_HP, beta1_schedule="over_t", weight_decay=1e-2),
    BASE_HP,  # diverges at step 1
    BASE_HP,  # diverges mid-run
]


@pytest.mark.parametrize("optimizer", ["agd", "agd_amsgrad", "adam", "adamw",
                                       "adabelief", "sgd"])
def test_record_runs_matches_separate_runs(optimizer):
    fn = TESTFNS["quad_skew"]
    starts = [(2.0, -1.0), (1.5, 0.5), (-1.0, 2.0)]

    blowups = []

    def make(i):
        start = starts[i % len(starts)]
        if i == len(POPULATION_HPS) - 2:
            blowups.append(BlowsUpAt(fn, 1, start))
        elif i == len(POPULATION_HPS) - 1:
            blowups.append(BlowsUpAt(fn, 7, start))
        else:
            return TestFnProblem(fn, start)
        return blowups[-1]

    runs = _assert_population_matches_runs(make, optimizer, POPULATION_HPS, 14,
                                           tol=0.5)
    assert [r.diverged_at for r in runs] == [None] * (len(runs) - 2) + [1, 7]
    # a diverged row's oracle is never called again
    assert [p.calls for p in blowups] == [p.at for p in blowups]


def test_record_runs_rows_diverge_on_their_own():
    # heavy-ball on quad_skew grows past DIVERGENCE_LOSS at step 7 (alpha 3)
    # and at step 33 (alpha 1) while the third row goes on
    runs = _assert_population_matches_runs(
        lambda i: TestFnProblem(TESTFNS["quad_skew"]), "sgd",
        [HyperParams(alpha=a) for a in (3.0, 1.0, 1e-3)], 40, snapshot_every=1, tol=1e-2)
    assert [r.diverged_at for r in runs] == [7, 33, None]
    # an oracle that overflows at step 2 beside a row that goes on
    runs = _assert_population_matches_runs(
        lambda i: TestFnProblem(TESTFNS["rosenbrock"]), "agd",
        [HyperParams(alpha=a) for a in (1e250, 1e-3)], 40, snapshot_every=1, tol=1e-2)
    assert [r.diverged_at for r in runs] == [2, None]
    # a row that diverges at step 10 while its momentum would still carry it
    # into the tol ball (at step 27) never scores
    fn = TESTFNS["quad_skew"]
    runs = _assert_population_matches_runs(
        lambda i: BlowsUpAt(fn, 10) if i == 0 else TestFnProblem(fn), "sgd",
        [HyperParams(alpha=3e-2)] * 2, 40, tol=0.5)
    assert [r.steps_to_tol for r in runs] == [None, 16]


def test_record_runs_projected_regret_rows():
    hp = HyperParams(alpha=0.5, lr_schedule="inverse_sqrt", beta1_schedule="over_t")
    hps = [hp, replace(hp, alpha=0.1), replace(hp, delta=1e-2)]
    _assert_population_matches_runs(
        lambda i: RegretProblem(make_quadratic_stream(3, 50, seed=i)), "agd_amsgrad",
        hps, 50, snapshot_every=7)


def test_record_runs_mlp_rows_over_seed():
    spec = MlpSpec(2, 16, 1)

    def make(i):
        return MlpProblem(spec, two_moons(24, 0.15, seed=10 + i), 4, seed=10 + i)

    runs = _assert_population_matches_runs(make, "agd", [HyperParams(alpha=1e-2)] * 4,
                                           15, snapshot_every=4)
    assert all(r.params.size == spec.n_params for r in runs)


def test_record_runs_checks_its_rows():
    p = TestFnProblem(TESTFNS["quad_skew"])
    with pytest.raises(ConfigError):
        record_runs([p, p], "agd", [HP], 5)
    with pytest.raises(ConfigError):
        record_runs([], "agd", [], 5)
    with pytest.raises(ShapeError):
        record_runs([p, ZeroGradProblem(dim=3)], "agd", [HP, HP], 5)


class MisshapedGrad:
    """A flat loss whose gradient has the given shape, whatever w's size."""

    name, optimum = "misshaped", None

    def __init__(self, n, shape):
        self.n, self.shape = n, shape

    def init_params(self):
        return np.ones(self.n)

    def loss_grad(self, w):
        return 0.0, np.ones(self.shape)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [2, 12])
@pytest.mark.parametrize("shape", [(1,), "1n"])
def test_run_loop_refuses_a_misshaped_gradient(shape, n, k):
    # a population row used to broadcast a (1,) or (1, n) gradient into its
    # row of the (K, n) block and step on
    shape = (1, n) if shape == "1n" else shape
    with pytest.raises(ShapeError, match="gradient"):
        record_runs([MisshapedGrad(n, shape) for _ in range(k)], "agd", [HP] * k, 3)


class WritingQuadratic:
    """Loss |w - 1|**2 / 2 whose oracle can write its gradient into the run
    loop's array, and keeps each array it is handed."""

    name, optimum = "writing-quadratic", None

    def __init__(self, n):
        self.n, self.handed = n, []

    def init_params(self):
        return np.linspace(-1.0, 1.0, self.n)

    def _write(self, w, grad):
        np.subtract(w, 1.0, grad)
        return 0.5 * float(grad @ grad), grad

    def loss_grad(self, w):
        return self._write(w, np.empty(self.n))

    def loss_grad_into(self, w, grad):
        self.handed.append(grad)
        return self._write(w, grad)


class CopiedQuadratic(WritingQuadratic):
    loss_grad_into = None  # the run loop copies its fresh gradient


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [2, 12, 2 * CHUNK + 1])
def test_a_writing_oracle_is_handed_its_row_of_the_gradient_buffer(n, k):
    # on the NumPy lane each row's oracle writes into the same row of G at
    # every step; the float lane keeps the oracle's own array
    written, copied = ([cls(n) for _ in range(k)] for cls in (WritingQuadratic,
                                                               CopiedQuadratic))
    hps = [HyperParams(alpha=a) for a in (1e-2, 3e-2, 1e-1)[:k]]
    runs = record_runs(written, "adam", hps, 5, snapshot_every=2)
    refs = record_runs(copied, "adam", hps, 5, snapshot_every=2)
    for got, ref in zip(runs, refs):
        for name in ("loss", "step_norm", "truncation_fraction", "hists", "params"):
            assert _bits(getattr(got, name)) == _bits(getattr(ref, name)), name
    floats = k == 1 and n <= FLOAT_MAX_N
    for p in written:
        assert len(p.handed) == (0 if floats else 5)
        assert all(h is p.handed[0] for h in p.handed)
    assert floats or not any(np.may_share_memory(p.handed[0], q.handed[0])
                             for p in written for q in written if p is not q)


def test_a_diverged_row_steps_with_a_zero_gradient(monkeypatch):
    # the kernel leaves each step's update in the gradient buffer, so a
    # diverged row's must be zeroed again before every step
    seen = []

    def spy(state, w, g, *args):
        seen.append(g[0].copy())
        return dispatch_step(state, w, g, *args)

    monkeypatch.setattr(diagnostics, "dispatch_step", spy)
    fn = TESTFNS["quad_skew"]
    runs = record_runs([BlowsUpAt(fn, 2), TestFnProblem(fn)], "adam", [HP, HP], 6)
    assert runs[0].diverged_at == 2 and len(seen) == 6
    assert seen[0].any() and not any(g.any() for g in seen[1:])


def test_record_runs_diverging_rows_stop_with_a_huge_budget():
    # the columns grow with the steps run, not with the budget
    runs = record_runs([TestFnProblem(TESTFNS["rosenbrock"])] * 2, "agd",
                       [HyperParams(alpha=1e250)] * 2, 10**9)
    assert [len(r.loss) for r in runs] == [2, 2]
    assert math.isinf(runs[1].loss[-1])
