"""The run loops, run recording and head-to-head races.

A Problem bundles a start point with a loss/gradient callback; fresh problem
objects are cheap and deterministic, so every run rebuilds its own. Both
loops bind the validated hyperparameters into the optimizer state once up
front, step through `optim.dispatch_step` (which works out decoupled weight
decay), project when the problem asks for it, and end a run at divergence.
Each owns two state sets and has each step overwrite the one the previous
step read, so a run allocates no optimizer state per step.

`record_runs` records K independent runs of one optimizer, each on its own
problem object with its own hyperparameters, stepped together as one (K, n)
population state (one row, the plain (n,) state), and returns one
`Trajectory` of per-step columns per run (loss, step norm, truncation
fraction, denominator histograms at the snapshot cadence), which are the
run's switch timeline. A run that diverges keeps its row until the loop
ends, stepped with a zero gradient and never read again. `record_run` is its
one-run call. `run_steps` is the generator of one run that `race` consumes;
each iterate it yields is a fresh array and stays valid after later steps.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import HIST_BINS, ConfigError, HyperParams, ShapeError, as_param_vector
from .models import Dataset, MlpSpec, init_params, minibatch_stream, mlp_loss_grad
from .optim import dispatch_step, init_state
from .testfns import TestFunction

__all__ = [
    "DIVERGENCE_LOSS",
    "TestFnProblem",
    "MlpProblem",
    "Trajectory",
    "record_runs",
    "record_run",
    "RaceResult",
    "race",
]

# a loss above this (or any non-finite value) flags the run as diverged
DIVERGENCE_LOSS = 1e12


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
    # two state sets used in turn: each step reads one and overwrites the other
    state, spare = init_state(optimizer, w.size, hp), init_state(optimizer, w.size, hp)
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
        new, w, diag = dispatch_step(state, w, g, collect_histogram=snap, out=spare)
        state, spare = new, state
        if project is not None:
            w = project(w)
        yield t, loss, w, diag


def record_runs(problems, optimizer: str, hps, steps: int, snapshot_every: int = 1,
                tol: float | None = None) -> Sequence[Trajectory]:
    """Record independent runs of one optimizer, stepped as one population.

    Run i optimizes problems[i] (its own object, oracle and optional
    project(w)) under hps[i]. The runs share the step budget, and their
    problems the number of coordinates. Returns a sequence of one Trajectory
    per run, as record_run documents it, each built when it is indexed; every
    row carries the bits that record_run gives its run alone.

    While the runs go, the columns grow as compact typed arrays (histogram
    counts in the narrowest unsigned type that holds n), never preallocated
    for the step budget. A run that diverges keeps its row, stepped with a
    zero gradient and never read again: every kernel op is per row, so it
    touches the other rows neither through their bits nor through warnings.
    The loop ends once every run has diverged.
    """
    if tol is not None and tol <= 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if snapshot_every < 1:
        raise ConfigError(f"snapshot_every must be >= 1, got {snapshot_every}")
    problems, hps = list(problems), tuple(hps)
    if not problems or len(problems) != len(hps):
        raise ConfigError(f"need one HyperParams per problem, got {len(hps)} "
                          f"for {len(problems)}")
    starts = [as_param_vector(p.init_params(), "start params") for p in problems]
    if len({w.size for w in starts}) > 1:
        raise ShapeError("the problems of a population must share their size")
    k, n = len(problems), starts[0].size
    one = k == 1  # a lone run steps the flat (n,) state of the library path
    state = init_state(optimizer, n, hps[0] if one else hps)
    spare = init_state(optimizer, n, hps[0] if one else hps)
    W = starts[0][None] if one else np.stack(starts)
    # every row's gradient is written at step 1; a diverged row keeps zeros
    G = None if one else np.empty((k, n))
    del starts
    projects = [getattr(p, "project", None) for p in problems]
    optima = [getattr(p, "optimum", None) for p in problems]
    pending = [tol is not None and o is not None for o in optima]  # per row
    tracking = any(pending)
    if tracking:  # rows without an optimum are never pending
        opt = np.array([np.zeros(n) if o is None else o for o in optima])

    # step-major columns: each step appends its k values (a snapshot its k
    # histograms), so run i's values are col[i::k]
    count_type = np.min_scalar_type(n)
    loss_col, norm_col, fraction_col = array("d"), array("d"), array("d")
    count_col, hist_t = array(count_type.char), []
    params, diverged_at, steps_to_tol = [None] * k, [None] * k, [None] * k

    def reached(t):
        nonlocal tracking
        d = W - opt
        for r, dist_sq in enumerate(np.vecdot(d, d).tolist()):
            if pending[r] and dist_sq <= tol * tol:
                steps_to_tol[r] = t
                pending[r] = False
        tracking = any(pending)

    with np.errstate(over="ignore"):  # overflow on the way to divergence is a result
        if tracking:
            reached(0)
        for t in range(1, steps + 1):
            for r, problem in enumerate(problems):
                if diverged_at[r] is not None:
                    loss_col.append(math.nan)
                    continue
                try:
                    loss, g = problem.loss_grad(W[r])
                except OverflowError:
                    loss = math.inf
                loss_col.append(loss)
                if not math.isfinite(loss) or loss > DIVERGENCE_LOSS:
                    diverged_at[r], params[r], pending[r] = t, W[r], False
                    g = 0.0
                if not one:
                    G[r] = g
            if None not in diverged_at:
                break
            snap = t % snapshot_every == 0 or t == steps
            if one:
                new, w, diag = dispatch_step(state, W[0], g, collect_histogram=snap,
                                             out=spare)
                W = w[None]
                norm_col.append(diag.step_norm)
                fraction_col.append(diag.truncation_fraction)
            else:
                new, W, diag = dispatch_step(state, W, G, collect_histogram=snap,
                                             out=spare)
                norm_col.extend(diag.step_norm.tolist())
                fractions = diag.truncation_fraction
                # a per-row array, or one float (Adam family, SGD) for every row
                fraction_col.extend(fractions.tolist() if isinstance(fractions, np.ndarray)
                                    else [fractions] * k)
            state, spare = new, state
            for r, project in enumerate(projects):
                if project is not None and diverged_at[r] is None:
                    W[r] = project(W[r])
            if diag.bhat_histogram is not None:
                count_col.frombytes(diag.bhat_histogram.astype(count_type).tobytes())
                hist_t.append(t)
            if tracking:
                reached(t)
    for r in range(k):
        if params[r] is None:
            params[r] = W[r]

    def trajectory(i: int) -> Trajectory:
        # run i's entries of each column, cut at its diverging step, which
        # has a loss and no diagnostics
        end = diverged_at[i]
        ran = len(loss_col) // k if end is None else end
        loss, step_norm, fraction = (np.array(np.frombuffer(col)[i::k][:ran])
                                     for col in (loss_col, norm_col, fraction_col))
        snaps = np.array(hist_t, dtype=np.int64)
        if end is not None:
            step_norm, fraction = (np.append(col[:end - 1], math.nan)
                                   for col in (step_norm, fraction))
            snaps = snaps[snaps < end]
        counts = np.frombuffer(count_col, count_type).reshape(-1, k, HIST_BINS)
        return Trajectory(
            loss=loss, step_norm=step_norm, truncation_fraction=fraction, hist_t=snaps,
            hists=counts[:len(snaps), i].astype(np.int64), params=params[i],
            diverged=end is not None, diverged_at=end, steps_to_tol=steps_to_tol[i],
        )

    return _Runs(trajectory, k)


class _Runs(Sequence):
    """The Trajectories of record_runs, each built when it is indexed."""

    def __init__(self, build, k: int):
        self._build, self._k = build, k

    def __len__(self) -> int:
        return self._k

    def __getitem__(self, i: int) -> Trajectory:
        return self._build(range(self._k)[i])


def record_run(problem, optimizer: str, hp: HyperParams, steps: int,
               snapshot_every: int = 1, tol: float | None = None) -> Trajectory:
    """Run an optimizer and record it as the columns of a Trajectory.

    loss, step_norm and truncation_fraction have one row per step run (row
    t-1 is step t); hists has one histogram row per entry of hist_t, taken
    every snapshot_every steps and at the final step. params is the final
    iterate. Divergence (a loss that is non-finite or above DIVERGENCE_LOSS,
    or an OverflowError in the oracle, read as loss inf) stops the run and
    flags it; it is a result, not an error: the last row holds the diverging
    loss, with NaN step_norm and truncation_fraction, and params the iterate
    w_{t-1} it was evaluated at. When the problem exposes a known optimum and
    tol is given, steps_to_tol records the first step whose post-step
    parameters are within tol of it (0 for a start already inside, None if
    never reached), with the same accounting as race(). This is the one-run
    call of record_runs.
    """
    return record_runs([problem], optimizer, [hp], steps, snapshot_every, tol)[0]


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

