"""The run loop, run recording and head-to-head races.

A Problem bundles a start point with a loss/gradient callback; fresh problem
objects are cheap and deterministic, so every run rebuilds its own. Its
init_params() gives the start, which the run loop copies; its
loss_grad(w) gives (loss, gradient), and an optional project(w) the
projected iterate. An optional loss_grad_into(w, grad) is loss_grad that
writes the gradient into grad, a float64 array of w's shape that the run
loop owns and that shares no memory with w, and returns (loss, grad); the
run loop calls it in place of loss_grad on its NumPy lane. The run loop
steps its iterate in place and writes over grad, so no oracle or project(w)
may keep the w or grad it is given past the call; a gradient may be w
itself.

`_Population` is the one run loop: it steps K independent runs of one
optimizer, each on its own problem object with its own hyperparameters, as
one (K, n) population state (one run, the plain (n,) state, whose vectors
stay Python floats at n <= optim.FLOAT_MAX_N) through `optim.dispatch_step`,
and allocates no optimizer state and no iterate per step, nor, on its NumPy
lane, an update: the kernel writes that into the gradient buffer, into which
an oracle with loss_grad_into writes its gradient.
`record_runs` records its runs as one `Trajectory` of per-step columns each
(loss, step norm, truncation fraction, denominator histograms at the
snapshot cadence), which are the run's switch timeline; `record_run` is its
one-run call. `race` steps each entrant through the same loop to tolerance
and records no columns.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (HIST_BINS, ConfigError, HyperParams, ShapeError, as_param_vector,
                   check_count, check_hyperparams, check_num, check_positive, one_of,
                   sum_squares)
from .models import Dataset, MlpSpec, init_params, minibatch_stream, mlp_loss_grad
from .optim import FLOAT_MAX_N, OPTIMIZER_NAMES, dispatch_step, init_state
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


def check_start(value, where: str, dim: int = 2) -> list:
    """A start point: a list, tuple or 1-D array of `dim` finite numbers (2,
    the dimension of every registered test function, by default), returned
    as a list of floats."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not (isinstance(value, (list, tuple)) and len(value) == dim):
        raise ConfigError(f"{where} must be a {dim}-element list, got {value!r}")
    return [check_num(v, where) for v in value]


class TestFnProblem:
    """Deterministic full-gradient problem over an analytic test function.

    A start, when given, is checked when the problem is built (see
    check_start); without one the run starts at the function's default.
    """

    def __init__(self, fn: TestFunction, start=None):
        self.fn = fn
        self.name = fn.name
        self.start = np.array(fn.default_start if start is None
                              else check_start(start, "start", fn.dim), dtype=np.float64)
        self.optimum = fn.optimum

    def init_params(self) -> np.ndarray:
        return self.start.copy()

    def loss_grad(self, w):
        return self.fn.fn(w)


class MlpProblem:
    """Minibatch MLP training; the batch stream advances one step per call."""

    def __init__(self, spec: MlpSpec, ds: Dataset, batch_size: int, seed: int):
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

    def loss_grad(self, w, grad=None):
        """(loss, gradient) on the next minibatch; see mlp_loss_grad for grad."""
        inputs, targets = next(self._stream)
        return mlp_loss_grad(self.spec, w, inputs, targets, grad)

    def loss_grad_into(self, w, grad):
        # through loss_grad, so that a wrapper of loss_grad sees the run loop's calls
        return self.loss_grad(w, grad)


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


class _Population:
    """K runs of one optimizer stepped as one population state.

    It validates its callers' inputs, the step budget `steps` among them,
    binds the hyperparameters into one state, which each step overwrites in
    place, steps every row through `optim.dispatch_step` and projects a row
    whose problem defines project(w). W holds the rows' current iterates,
    (K, n), or the flat (n,) iterate of a lone run, which steps a flat (n,)
    state. W is the population's own copy of the starts, and each step
    writes the new iterates into it. A lone run of at most FLOAT_MAX_N
    coordinates takes the float lane (see optim.FLOAT_MAX_N): its state holds
    Python floats, which each kernel steps in a loop over the coordinates.
    A row diverges when its oracle's loss is non-finite or above
    DIVERGENCE_LOSS, or the oracle raises OverflowError (loss inf): it keeps
    its row, stepped with a zero gradient and never read again. params[r] is
    row r of W until then, and from then a copy of the iterate w_{t-1} its
    loss diverged at. When tol is given, steps_to_tol[r] is the first step
    whose post-step iterate lies within tol of row r's known optimum, whose
    core.sum_squares of the difference is at most tol * tol (0 for a start
    inside). The caller runs the steps under
    np.errstate(over="ignore"), from construction on.
    """

    def __init__(self, problems, optimizer: str, hps, steps: int, tol: float | None):
        tol = None if tol is None else check_positive(tol, "tol")
        self.steps = check_count(steps, "steps")
        problems, hps = list(problems), tuple(map(check_hyperparams, hps))
        if not problems or len(problems) != len(hps):
            raise ConfigError(f"need one HyperParams per problem, got {len(hps)} "
                              f"for {len(problems)}")
        starts = [as_param_vector(p.init_params(), "start params") for p in problems]
        if len({w.size for w in starts}) > 1:
            raise ShapeError("the problems of a population must share their size")
        k, n = len(starts), starts[0].size
        one = k == 1
        # W is the population's own, stepped in place: a problem may keep the
        # array its init_params returned (np.stack copies). The starts go
        # before the state and G are allocated.
        self.W = starts[0].copy() if one else np.stack(starts)
        del starts
        self._state = state = init_state(optimizer, n, hps[0] if one else hps)
        self._floats = one and n <= FLOAT_MAX_N  # the float lane
        if self._floats:
            vars(state).update([(f, tuple(v.tolist())) for f, v in vars(state).items()
                                if isinstance(v, np.ndarray)])
        # G, W's shape, is each step's gradient and then its update: a row's
        # oracle writes its gradient into its row of G when it can (an
        # optional loss_grad_into), or the run loop copies it there, and the
        # kernel writes the update over it chunk by chunk, once that chunk of
        # the gradient is read. A diverged row's is zeroed before each step.
        # The float lane takes the oracle's own array and no update buffer.
        self._G = self._update = None if self._floats else np.empty(self.W.shape)
        self._grad_shape = (n,)
        grads = [None] if self._floats else [self._G] if one else list(self._G)
        self._oracles = [(p.loss_grad, None if dest is None else
                          getattr(p, "loss_grad_into", None), dest)
                         for p, dest in zip(problems, grads)]
        projects = [getattr(p, "project", None) for p in problems]
        self._projects = [(r, f) for r, f in enumerate(projects) if f is not None]
        # row r of W, a view that stays valid as W is stepped in place
        self.params = [self.W] if one else list(self.W)
        self.diverged_at, self.steps_to_tol = [None] * k, [None] * k
        optima = [getattr(p, "optimum", None) for p in problems]
        self._pending = [tol is not None and o is not None for o in optima]
        if any(self._pending):  # rows without an optimum are never pending
            self._tol_sq = tol_sq = tol * tol
            # near tol**2, sum_squares and a sum of at most FLOAT_MAX_N squares
            # in Python each land within FLOAT_MAX_N ulps of tol**2 of the
            # exact sum (a subnormal square adds under one more), so a sum
            # further than this from tol**2 is on sum_squares' side of it
            self._band = 8 * FLOAT_MAX_N * math.ulp(tol_sq)
            self._opt = np.array([np.zeros(n) if o is None else o for o in optima])
            self._lone_opt = self._opt.tolist()[0]  # read by the float lane
            self._reached(0)

    def _reached(self, t: int) -> None:
        if self._floats:  # a Python sum of squares, unless it may round across tol**2
            dist_sq = 0.0
            for w, o in zip(self.W.tolist(), self._lone_opt, strict=True):
                dist_sq += (w - o) * (w - o)
            if abs(dist_sq - self._tol_sq) > self._band:
                if dist_sq <= self._tol_sq:
                    self.steps_to_tol[0], self._pending[0] = t, False
                return
        for r, dist_sq in enumerate(sum_squares(self.W - self._opt).tolist()):
            if self._pending[r] and dist_sq <= self._tol_sq:
                self.steps_to_tol[r], self._pending[r] = t, False

    def step(self, t: int, snap: bool | None):
        """Step t of every row, with histograms if snap. Returns the rows'
        losses at w_{t-1} (NaN for a row diverged earlier) and the step's
        diagnostics, or None in their place once every row has diverged,
        when no step is taken. A snap of None asks for no diagnostics, which
        the float lane does not build (a race reads none)."""
        params, losses = self.params, []
        for r, (oracle, write, dest) in enumerate(self._oracles):
            if self.diverged_at[r] is not None:
                losses.append(math.nan)
                dest[...] = 0.0  # it holds the last step's update
                continue
            try:
                loss, g = oracle(params[r]) if write is None else write(params[r], dest)
            except OverflowError:
                loss = math.inf
            losses.append(loss)
            if not math.isfinite(loss) or loss > DIVERGENCE_LOSS:
                # a copy, as its row goes on stepping with a zero gradient
                self.diverged_at[r], params[r], self._pending[r] = t, params[r].copy(), False
                g = 0.0
            elif dest is not None and g is not dest:
                # checked, as assigning it to a row would broadcast it (the
                # float lane's own array goes to dispatch_step, which checks it)
                if type(g) is not np.ndarray:
                    g = np.asarray(g, np.float64)
                if g.shape != self._grad_shape:
                    raise ShapeError(f"run {r}'s gradient has shape {g.shape}, its params "
                                     f"{self._grad_shape}")
            if dest is None:  # the float lane
                self._G = np.asarray(g, np.float64)
            elif g is not dest:
                dest[...] = g
        if None not in self.diverged_at:
            return losses, None
        diag = dispatch_step(self._state, self.W, self._G, snap, self._state,
                             self._update)[2]
        for r, project in self._projects:
            if self.diverged_at[r] is None:
                params[r][...] = project(params[r])
        if any(self._pending):
            self._reached(t)
        return losses, diag


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
    snapshot_every = check_count(snapshot_every, "snapshot_every")
    # step-major columns: each step appends its k values (a snapshot its k
    # histograms), so run i's values are col[i::k]
    loss_col, norm_col, fraction_col, hist_t = array("d"), array("d"), array("d"), []
    with np.errstate(over="ignore"):  # overflow on the way to divergence is a result
        run = _Population(problems, optimizer, hps, steps, tol)
        k, n = len(run.params), run.W.shape[-1]
        count_type = np.min_scalar_type(n)
        count_col = array(count_type.char)
        for t in range(1, run.steps + 1):
            losses, diag = run.step(t, t % snapshot_every == 0 or t == run.steps)
            loss_col.extend(losses)
            if diag is None:
                break
            # one float for a lone run; per-row arrays for a population, but
            # one float for every row of the Adam family's and SGD's fraction
            norms, fractions = diag.step_norm, diag.truncation_fraction
            norm_col.extend(norms.tolist() if isinstance(norms, np.ndarray) else [norms])
            fraction_col.extend(fractions.tolist() if isinstance(fractions, np.ndarray)
                                else [fractions] * k)
            if diag.bhat_histogram is not None:
                count_col.frombytes(diag.bhat_histogram.astype(count_type).tobytes())
                hist_t.append(t)
    params, diverged_at, steps_to_tol = run.params, run.diverged_at, run.steps_to_tol

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
    that diverges (see record_run) stops at that step and is DNF, and its
    final distance is that of the iterate its loss diverged at. Each entrant
    steps through the run loop of record_runs and records no columns. The
    entrants are one or more distinct optimizer names, each with a
    HyperParams in hp_map.
    """
    tol, max_steps = check_positive(tol, "tol"), check_count(max_steps, "max_steps")
    if problem.optimum is None:
        raise ConfigError(f"problem {problem.name!r} has no known optimum to race to")
    names = [one_of(*OPTIMIZER_NAMES)(name, "entrant") for name in optimizers]
    if not names or len(set(names)) < len(names):
        raise ConfigError(f"a race needs one or more distinct entrants, got {names}")
    hps = [check_hyperparams(hp_map.get(name), f"hp_map[{name!r}]") for name in names]
    steps_to_tol: dict[str, int | None] = {}
    final_distance: dict[str, float] = {}
    with np.errstate(over="ignore"):  # overflow on the way to divergence is a DNF
        for name, hp in zip(names, hps):
            run = _Population([problem], name, [hp], max_steps, tol)
            for t in range(1, max_steps + 1):
                if run.steps_to_tol[0] is not None or run.diverged_at[0] is not None:
                    break
                run.step(t, None)
            steps_to_tol[name] = run.steps_to_tol[0]
            final_distance[name] = math.sqrt(sum_squares(run.params[0] - problem.optimum))
    return RaceResult(steps_to_tol=steps_to_tol, final_distance=final_distance,
                      tol=tol, max_steps=max_steps)
