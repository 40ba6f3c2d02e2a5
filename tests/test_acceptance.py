"""End-to-end acceptance checks for the library's headline behaviors.

Each test covers one claim and prints a single PASS/FAIL line with the
observed numbers, so `pytest tests/test_acceptance.py` doubles as a
checklist. Tolerances and pinned values are frozen; loosening them to make
a failing check pass defeats the point of the file.
"""

import json
import math

import numpy as np

from agdopt.cli import main as cli_main
from agdopt.core import HyperParams
from agdopt.diagnostics import MlpProblem, TestFnProblem, race, record_run
from agdopt.models import MlpSpec, accuracy, mlp_loss_grad, rng_stream, two_moons
from agdopt.optim import agd_step, init_state
from agdopt.testfns import TESTFNS, get_testfn
from agdopt.theory import (
    alpha_hat_series,
    norm_bound_check,
    loglog_slope,
    make_quadratic_stream,
    online_regret,
    variance_ratio_mc,
)


def report(capsys, label: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {label}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. trajectory races: shared adaptive settings, committed starts; the
#    gradient-difference optimizer reaches tolerance in the fewest steps


def test_races_reach_tolerance_first(capsys):
    adaptive = HyperParams(alpha=1e-3)
    hp_map = {
        "agd": adaptive,
        "adam": adaptive,
        "adamw": HyperParams(alpha=1e-3, weight_decay=1e-2),
        "adabelief": adaptive,
        "sgd": HyperParams(alpha=1e-6, beta1=0.9),
    }
    entrants = list(hp_map)
    ok = True
    parts = []
    for name in ("quad_skew", "beale", "rosenbrock"):
        result = race(TestFnProblem(get_testfn(name)), entrants, hp_map,
                      tol=1e-2, max_steps=100_000)
        steps = result.steps_to_tol
        mine = steps["agd"]
        rivals = [steps[k] for k in entrants if k != "agd"]
        finished = [s for s in rivals if s is not None]
        ok = ok and mine is not None and all(mine <= s for s in finished)
        best_rival = min(finished) if finished else None
        parts.append(f"{name} agd={mine} best-rival={best_rival}")
    report(capsys, "races won", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# 2. first update moves every coordinate by exactly alpha (4 ulps) whenever
#    every gradient entry clears the switch threshold


def test_first_step_magnitude_is_alpha(capsys):
    # measured from w=0 so the update itself is read back exactly, free of
    # the subtraction rounding an arbitrary start point would add
    worst = 0.0
    for alpha in (1e-6, 1e-3, 0.25, 10.0):
        hp = HyperParams(alpha=alpha)
        for seed in range(5):
            rng = rng_stream(seed, 0)
            n = 32
            g = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=n))
            g *= rng.choice([-1.0, 1.0], size=n)
            _, w1, _ = agd_step(init_state("agd", n, hp), np.zeros(n), g,
                                collect_histogram=False)
            ulps = np.abs(np.abs(w1) - alpha) / np.spacing(alpha)
            worst = max(worst, float(ulps.max()))
    report(capsys, "first step = alpha", worst <= 4.0,
           f"worst error {worst:.2f} ulps (limit 4)")


# ---------------------------------------------------------------------------
# 3. constant unit gradient with delta=1e-2: the truncation fraction flips
#    from 0 to 1 exactly once, at the pinned step 2398


def test_constant_gradient_switches_once(capsys):
    hp = HyperParams(alpha=1e-3, delta=1e-2)
    n = 4
    state = init_state("agd", n, hp)
    w = np.zeros(n)
    g = np.ones(n)
    fractions = []
    for _ in range(3000):
        state, w, diag = agd_step(state, w, g, collect_histogram=False)
        fractions.append(diag.truncation_fraction)
    flips = [(i + 2, fractions[i + 1]) for i in range(len(fractions) - 1)
             if fractions[i + 1] != fractions[i]]
    ok = fractions[0] == 0.0 and flips == [(2398, 1.0)]
    report(capsys, "single auto-switch", ok,
           f"transitions at {[f[0] for f in flips]} (pinned [2398])")


# ---------------------------------------------------------------------------
# 4. scaling the gradient stream by c leaves the trajectory unchanged while
#    the adaptive branch is active everywhere, within 8 ulps per step


def test_adaptive_branch_scale_invariance(capsys):
    steps, n = 1000, 6
    rng = rng_stream(3, 0)
    grads = rng.uniform(0.5, 2.0, size=(steps, n))
    grads *= rng.choice([-1.0, 1.0], size=(steps, n))
    hp = HyperParams(alpha=1e-3)
    worst = 0.0
    for c in (10.0, 1000.0):
        sa, sb = init_state("agd", n, hp), init_state("agd", n, hp)
        wa, wb = np.zeros(n), np.zeros(n)
        for t in range(1, steps + 1):
            sa, wa, da = agd_step(sa, wa, grads[t - 1], collect_histogram=False)
            sb, wb, db = agd_step(sb, wb, c * grads[t - 1], collect_histogram=False)
            assert da.truncation_fraction == 0.0
            assert db.truncation_fraction == 0.0
            budget = 8.0 * t * np.spacing(max(float(np.abs(wa).max()), hp.alpha))
            worst = max(worst, float(np.abs(wa - wb).max()) / budget)
    report(capsys, "scale invariance", worst <= 1.0,
           f"worst gap {worst:.3f}x the 8-ulps-per-step budget (c in {{10, 1000}})")


# ---------------------------------------------------------------------------
# 5. debiased-momentum variance ratio matches
#    (1+b^t)(1-b)/((1-b^t)(1+b)) within 2% at 1e6 replicas, and sits
#    below 1 for every tested t >= 2


def test_variance_ratio_monte_carlo(capsys):
    worst = 0.0
    below_one = True
    combos = [(beta1, t) for beta1 in (0.5, 0.9, 0.99) for t in (2, 10, 100)]
    for emp, ana in variance_ratio_mc(combos, 1_000_000, seed=0):
        worst = max(worst, abs(emp - ana) / ana)
        below_one = below_one and ana < 1.0
    ok = worst < 0.02 and below_one
    report(capsys, "variance identity", ok,
           f"worst relative error {worst:.4f} (limit 0.02), all ratios < 1: {below_one}")


# ---------------------------------------------------------------------------
# 6. effective step size strictly decreasing over t in [1, 1e5] on a
#    20-combination grid of momentum schedules and beta2, beta2=0 included


def test_effective_lr_strictly_decreasing(capsys):
    grid = [(b1, sched, b2)
            for b1, sched in ((0.9, "constant"), (0.9, "over_sqrt_t"),
                              (0.9, "over_t"), (0.5, "constant"))
            for b2 in (0.0, 0.5, 0.9, 0.99, 0.999)]
    assert len(grid) == 20
    worst_rise = -math.inf
    for b1, sched, b2 in grid:
        series = alpha_hat_series(1e-3, b1, sched, b2, 100_000)
        worst_rise = max(worst_rise, float(np.diff(series).max()))
    report(capsys, "effective lr monotone", worst_rise < 0.0,
           f"largest consecutive rise {worst_rise:.3e} over 20 combos, T=1e5")


# ---------------------------------------------------------------------------
# 7. preconditioner norm bound: 1000 independent 4-dim runs, 500 steps,
#    |g| <= 5, sum(v) stays below n(2G+delta)/(1-beta1)^2 throughout


def test_preconditioner_norm_bound(capsys):
    runs, width, steps, G = 1000, 4, 500, 5.0
    rng = rng_stream(17, 0)
    stream = rng.uniform(-G, G, size=(steps, runs * width))
    max_ratio, bound = norm_bound_check(
        stream, HyperParams(alpha=1e-3), group_size=width)
    report(capsys, "norm bound", max_ratio < 1.0,
           f"max observed/bound = {max_ratio:.6f} (bound {bound:.3f}, 1000 runs)")


# ---------------------------------------------------------------------------
# 8. projected online quadratics, alpha/sqrt(t) and beta1/t schedules with
#    the max-clamp on: regret grows sublinearly (final-decade slope <= 0.6)
#    and is nonnegative at the horizon


def test_online_regret_sublinear(capsys):
    exp = make_quadratic_stream(dim=2, horizon=10_000, seed=0)
    hp = HyperParams(alpha=0.5, lr_schedule="inverse_sqrt",
                     beta1_schedule="over_t")
    regret = online_regret(exp, hp)
    slope = loglog_slope(regret)
    ok = slope <= 0.6 and regret[-1] >= 0.0
    report(capsys, "sublinear regret", ok,
           f"log-log slope {slope:.3f} (limit 0.6), final regret {regret[-1]:.3f} >= 0")


# ---------------------------------------------------------------------------
# 9. with the max-clamp, the second-moment state never decreases over 1e4
#    random-gradient steps


def test_max_clamp_keeps_b_monotone(capsys):
    n, steps = 8, 10_000
    rng = rng_stream(23, 0)
    hp = HyperParams(alpha=1e-3)
    state = init_state("agd_amsgrad", n, hp)
    w = np.zeros(n)
    prev = state.b.copy()
    min_delta = math.inf
    for _ in range(steps):
        state, w, _ = agd_step(state, w, rng.standard_normal(n),
                               collect_histogram=False)
        min_delta = min(min_delta, float((state.b - prev).min()))
        prev = state.b.copy()
    report(capsys, "clamped b monotone", min_delta >= 0.0,
           f"smallest per-step change {min_delta:.3e} over {steps} steps")


# ---------------------------------------------------------------------------
# 10. analytic derivatives beat central finite differences to 1e-6 relative:
#     every test-function gradient and Hessian diagonal, and backprop for
#     every activation/loss pairing, at 40 random points each


def _rel(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = max(float(np.abs(analytic).max()), 1.0)
    return float(np.abs(analytic - fd).max()) / scale


def _central_grad(f, x, h):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _central_hess_diag(f, x, h):
    d = np.empty_like(x)
    fx = f(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        d[i] = (f(x + e) - 2.0 * fx + f(x - e)) / (h * h)
    return d


def test_derivatives_match_finite_differences(capsys):
    worst_fn, worst_mlp = 0.0, 0.0
    points = 40
    for name in TESTFNS:
        fn = get_testfn(name)
        rng = rng_stream(7, 0)
        lo, hi = np.asarray(fn.sample_lo), np.asarray(fn.sample_hi)
        def value(x):
            return fn.fn(x)[0]

        for _ in range(points):
            x = rng.uniform(lo, hi)
            worst_fn = max(worst_fn,
                           _rel(fn.fn(x)[1], _central_grad(value, x, 1e-6)))
            # second differences need the wider step; 1e-5 already loses
            # ~1e-5 of the value to cancellation
            worst_fn = max(worst_fn,
                           _rel(fn.hess_diag(x),
                                _central_hess_diag(value, x, 1e-4)))
    configs = [("tanh", "logistic", 1), ("relu", "squared", 2),
               ("tanh", "softmax_ce", 3)]
    for activation, loss, out_dim in configs:
        spec = MlpSpec(2, 4, out_dim, activation, loss)
        rng = rng_stream(13, 0)
        for _ in range(points):
            params = rng.standard_normal(spec.n_params)
            inputs = rng.standard_normal((16, 2))
            if loss == "squared":
                targets = rng.standard_normal((16, out_dim))
            elif loss == "logistic":
                targets = rng.integers(0, 2, size=16)
            else:
                targets = rng.integers(0, out_dim, size=16)
            _, grad = mlp_loss_grad(spec, params, inputs, targets)
            fd = _central_grad(
                lambda p: mlp_loss_grad(spec, p, inputs, targets)[0],
                params, 1e-6)
            worst_mlp = max(worst_mlp, _rel(grad, fd))
    ok = worst_fn <= 1e-6 and worst_mlp <= 1e-6
    report(capsys, "derivative oracles", ok,
           f"worst rel: testfns {worst_fn:.2e}, backprop {worst_mlp:.2e} "
           f"(limit 1e-6, {3 * points} + {3 * points} points)")


# ---------------------------------------------------------------------------
# 11. two-moons MLP trained at delta in {1e-8..1e-2}: accuracies stay within
#     5 percentage points of each other and every run converges


def test_delta_robustness_two_moons(capsys):
    ds = two_moons(1024, 0.15, seed=42)
    spec = MlpSpec(2, 16, 1, "tanh", "logistic")
    accs, losses = [], []
    for delta in (1e-8, 1e-6, 1e-4, 1e-2):
        problem = MlpProblem(spec, ds, batch_size=8, seed=42)
        steps = 3 * problem.steps_per_epoch
        hp = HyperParams(alpha=2e-2, delta=delta)
        traj = record_run(problem, "agd", hp, steps=steps, snapshot_every=steps)
        accs.append(accuracy(spec, traj.params, ds))
        losses.append(float(np.mean(traj.loss[-problem.steps_per_epoch:])))
    spread = max(accs) - min(accs)
    ok = spread <= 0.05 and max(losses) < 0.3
    report(capsys, "delta robustness", ok,
           f"accuracies {[f'{a:.4f}' for a in accs]}, spread {spread * 100:.2f}pp "
           f"(limit 5pp), worst last-epoch loss {max(losses):.4f} (limit 0.3)")


# ---------------------------------------------------------------------------
# 12. running the same config twice produces byte-identical trajectories,
#     through the CLI including minibatch shuffling


def test_repeat_runs_are_byte_identical(capsys, tmp_path):
    configs = {
        "testfn": {
            "problem": {"kind": "testfn", "name": "rosenbrock"},
            "optimizer": "agd",
            "hyperparams": {"alpha": 1e-3},
            "seed": 5,
            "steps": 200,
        },
        "mlp": {
            "problem": {
                "kind": "mlp",
                "hidden_dim": 8,
                "activation": "tanh",
                "loss": "logistic",
                "dataset": {"name": "two_moons", "n": 128, "noise": 0.15},
                "batch_size": 16,
            },
            "optimizer": "agd",
            "hyperparams": {"alpha": 2e-2},
            "seed": 5,
            "epochs": 2,
        },
    }
    ok = True
    parts = []
    for label, cfg in configs.items():
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(cfg))
        a, b = tmp_path / f"{label}_a", tmp_path / f"{label}_b"
        assert cli_main(["run", "--config", str(path), "--out", str(a)]) == 0
        assert cli_main(["run", "--config", str(path), "--out", str(b)]) == 0
        same = (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        ok = ok and same
        parts.append(f"{label} identical={same}")
    report(capsys, "byte determinism", ok, "; ".join(parts))
