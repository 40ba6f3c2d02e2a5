"""The run loop, run recording and head-to-head races.

A Problem bundles a start point with a loss/gradient callback; fresh problem
objects are cheap and deterministic, so every run rebuilds its own. One
generator, `run_steps`, drives every run: it binds the validated
hyperparameters into the optimizer state once up front, steps through
`optim.dispatch_step` (which applies decoupled weight decay), projects
when the problem asks for it, and ends the run at divergence. `record_run` and
`race` consume it. `record_run` returns a `Trajectory` of per-step columns
(loss, step norm, truncation fraction, denominator histograms at the
snapshot cadence), which are the run's switch timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HIST_BINS, ConfigError, HyperParams, StepDiagnostics, as_param_vector
from .models import Dataset, MlpSpec, init_params, minibatch_stream, mlp_loss_grad
from .optim import dispatch_step, init_state
from .testfns import TestFunction

__all__ = [
    "DIVERGENCE_LOSS",
    "TestFnProblem",
    "MlpProblem",
    "Trajectory",
    "record_run",
    "RaceResult",
    "race",
]

# a loss above this (or any non-finite value) flags the run as diverged
DIVERGENCE_LOSS = 1e12
# the diagnostics row of a diverging step, which takes no optimizer step
_DIVERGED = StepDiagnostics(truncation_fraction=math.nan, step_norm=math.nan)


class TestFnProblem:
    """Deterministic full-gradient problem over an analytic test function."""

    def __init__(self, fn: TestFunction, start=None):
        self.fn = fn
        self.name = fn.name
        self.start = np.array(fn.default_start if start is None else start,
                              dtype=np.float64)
        self.optimum = fn.optimum

    def init_params(self) -> np.ndarray:
        return self.start.copy()

    def loss_grad(self, w):
        return self.fn.fn(w)


class MlpProblem:
    """Minibatch MLP training; the batch stream advances one step per call."""

    def __init__(self, spec: MlpSpec, ds: Dataset, batch_size: int, seed: int):
        spec.validate()
        self.spec = spec
        self.ds = ds
        self.batch_size = batch_size
        self.seed = seed
        self.name = f"mlp-{spec.activation}-{spec.loss}"
        self.optimum = None
        self._stream = minibatch_stream(ds, batch_size, seed)

    @property
    def steps_per_epoch(self) -> int:
        return math.ceil(self.ds.n / self.batch_size)

    def init_params(self) -> np.ndarray:
        return init_params(self.spec, self.seed)

    def loss_grad(self, w):
        inputs, targets = next(self._stream)
        return mlp_loss_grad(self.spec, w, inputs, targets)


@dataclass
class Trajectory:
    """A run recorded as columns, one row per step run; see record_run."""

    loss: np.ndarray
    step_norm: np.ndarray
    truncation_fraction: np.ndarray
    hist_t: np.ndarray
    hists: np.ndarray  # (len(hist_t), HIST_BINS) int64
    params: np.ndarray
    diverged: bool = False
    diverged_at: int | None = None
    steps_to_tol: int | None = None


def run_steps(problem, optimizer: str, hp: HyperParams, steps: int,
              snapshot_every: int | None = None):
    """Step `optimizer` on `problem`, yielding (t, loss, w, diag).

    The first item is the validated start, (0, None, w_0, None). Step t yields
    the loss at w_{t-1}, the new iterate w_t and the step's diagnostics, with
    a histogram every snapshot_every steps and at the last (never if None).
    A problem may define project(w), applied after every optimizer step.
    Divergence ends the run: a loss that is non-finite or above
    DIVERGENCE_LOSS, or an OverflowError in the oracle (loss inf), yields
    (t, loss, w_{t-1}, None) as the last item.
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if snapshot_every is not None and snapshot_every < 1:
        raise ConfigError(f"snapshot_every must be >= 1, got {snapshot_every}")
    w = as_param_vector(problem.init_params(), "start params")
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


def record_run(problem, optimizer: str, hp: HyperParams, steps: int,
               snapshot_every: int = 1, tol: float | None = None) -> Trajectory:
    """Run an optimizer and record it as the columns of a Trajectory.

    loss, step_norm and truncation_fraction have one row per step run (row
    t-1 is step t); hists has one histogram row per entry of hist_t, taken
    every snapshot_every steps and at the final step. params is the final
    iterate. Divergence (see run_steps) stops the run and flags it; it is a
    result, not an error: the last row holds the diverging loss, with NaN
    step_norm and truncation_fraction, and params the iterate w_{t-1} it was
    evaluated at. When the problem exposes a known optimum and tol is given,
    steps_to_tol records the first step whose post-step parameters are within
    tol of it (0 for a start already inside, None if never reached), with the
    same accounting as race().
    """
    if tol is not None and tol <= 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    optimum = getattr(problem, "optimum", None)
    track = tol is not None and optimum is not None
    # grown per step run, not preallocated: a step budget may be huge
    loss, step_norm, fraction, hist_t, hists = [], [], [], [], []
    diverged_at = steps_to_tol = None
    with np.errstate(over="ignore"):  # overflow on the way to divergence is a result
        for t, f, w, diag in run_steps(problem, optimizer, hp, steps, snapshot_every):
            if t and diag is None:
                diverged_at = t
                diag = _DIVERGED
            elif track and steps_to_tol is None:
                d = w - optimum
                if float(d @ d) <= tol * tol:
                    steps_to_tol = t
            if t:
                loss.append(f)
                step_norm.append(diag.step_norm)
                fraction.append(diag.truncation_fraction)
                if diag.bhat_histogram is not None:
                    hist_t.append(t)
                    hists.append(diag.bhat_histogram)
    return Trajectory(
        loss=np.array(loss, dtype=np.float64),
        step_norm=np.array(step_norm, dtype=np.float64),
        truncation_fraction=np.array(fraction, dtype=np.float64),
        hist_t=np.array(hist_t, dtype=np.int64),
        hists=np.array(hists, dtype=np.int64).reshape(-1, HIST_BINS),
        params=w,
        diverged=diverged_at is not None,
        diverged_at=diverged_at,
        steps_to_tol=steps_to_tol,
    )


@dataclass
class RaceResult:
    """steps_to_tol per optimizer; None means the budget ran out (DNF)."""

    steps_to_tol: dict[str, int | None]
    final_distance: dict[str, float]
    tol: float
    max_steps: int

    def winner(self) -> str | None:
        finished = {k: v for k, v in self.steps_to_tol.items() if v is not None}
        if not finished:
            return None
        return min(finished, key=finished.get)


def race(problem, optimizers, hp_map, tol: float = 1e-2,
         max_steps: int = 100_000) -> RaceResult:
    """Independent runs to tolerance: first t with ||w_t - optimum||_2 <= tol.

    The problem must be deterministic (stateless loss_grad) and expose a known
    optimum; every entrant restarts from problem.init_params(). Distance is
    checked before the first step, so a start inside the ball scores 0.
    Results do not depend on the order optimizers are listed in. An entrant
    that diverges (see run_steps) stops at that step and is DNF.
    """
    if tol <= 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    optimum = problem.optimum
    if optimum is None:
        raise ConfigError(f"problem {problem.name!r} has no known optimum to race to")
    tol_sq = tol * tol
    steps_to_tol: dict[str, int | None] = {}
    final_distance: dict[str, float] = {}
    with np.errstate(over="ignore"):  # overflow on the way to divergence is a DNF
        for name in optimizers:
            result: int | None = None
            for t, _, w, diag in run_steps(problem, name, hp_map[name], max_steps):
                if t and diag is None:
                    break
                d = w - optimum
                if float(d @ d) <= tol_sq:
                    result = t
                    break
            steps_to_tol[name] = result
            d = w - optimum
            final_distance[name] = math.sqrt(float(d @ d))
    return RaceResult(steps_to_tol=steps_to_tol, final_distance=final_distance,
                      tol=tol, max_steps=max_steps)

