"""Command-line harness: run / sweep / verify / race.

Configs are strict JSON: unknown keys are rejected, every value is validated
before any work starts, and a parsed config serializes back to the same
canonical dictionary. Output files are written atomically (temp file in the
target directory, then rename) with floats at 17 significant digits so they
round-trip exactly.

Exit codes: 0 success, 1 verification failure, 2 configuration error (with a
one-line JSON error object on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, HyperParams
from .diagnostics import MlpProblem, TestFnProblem, race, record_run
from .models import MlpSpec, two_moons
from .optim import OPTIMIZER_NAMES
from .testfns import get_testfn
from .theory import RegretProblem, make_quadratic_stream, verify_suite

__all__ = [
    "RunConfig",
    "parse_run_config",
    "parse_race_config",
    "derive_seed",
    "run_command",
    "sweep_command",
    "verify_command",
    "race_command",
    "main",
]

SWEEPABLE = (
    "hyperparams.alpha",
    "hyperparams.beta1",
    "hyperparams.beta2",
    "hyperparams.delta",
    "hyperparams.weight_decay",
    "seed",
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_dumps(obj, indent: int = 0) -> str:
    """json.dumps with floats at 17 significant digits.

    The stdlib encoder hardwires repr for floats; this walker matches the
    CSV float format instead. Non-finite floats become null (strict JSON
    has no NaN/Infinity tokens). Dict keys must already be strings.
    """
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad} {json.dumps(str(k))}: {_json_dumps(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if not len(seq):
            return "[]"
        items = ",\n".join(f"{pad} {_json_dumps(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _int(value, where: str) -> int:
    """A JSON integer. Bools and non-integral numbers are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _num(value, where: str) -> float:
    """A finite JSON number. Strings and bools are rejected, not coerced."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _require_keys(d: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


# ---------------------------------------------------------------- configs


@dataclass(frozen=True)
class ProblemConfig:
    kind: str  # testfn | mlp | regret
    # testfn fields
    name: str | None = None
    start: tuple[float, ...] | None = None
    # mlp fields
    hidden_dim: int = 16
    activation: str = "tanh"
    loss: str = "logistic"
    dataset_n: int = 1024
    dataset_noise: float = 0.15
    batch_size: int = 8
    # regret fields (the horizon is the run's steps count)
    dim: int = 2
    center_scale: float = 1.0
    margin: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemConfig
    optimizer: str
    hp: HyperParams
    seed: int
    steps: int | None = None
    epochs: int | None = None
    snapshot_every: int = 1
    tol: float = 1e-2


_HP_KEYS = {"alpha", "beta1", "beta2", "delta", "weight_decay",
            "lr_schedule", "milestones", "beta1_schedule"}


def _parse_hp(d: dict, where: str = "hyperparams") -> HyperParams:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    _require_keys(d, _HP_KEYS, {"alpha"}, where)
    milestones = d.get("milestones", [])
    if not isinstance(milestones, list):
        raise ConfigError(f"{where}.milestones must be a list of [step, factor] pairs")
    ms = []
    for entry in milestones:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ConfigError(f"bad milestone entry {entry!r} in {where}")
        ms.append((_int(entry[0], f"{where}.milestones step"),
                   _num(entry[1], f"{where}.milestones factor")))
    hp = HyperParams(
        alpha=_num(d["alpha"], f"{where}.alpha"),
        beta1=_num(d.get("beta1", 0.9), f"{where}.beta1"),
        beta2=_num(d.get("beta2", 0.999), f"{where}.beta2"),
        delta=_num(d.get("delta", 1e-8), f"{where}.delta"),
        weight_decay=_num(d.get("weight_decay", 0.0), f"{where}.weight_decay"),
        lr_schedule=str(d.get("lr_schedule", "constant")),
        milestones=tuple(ms),
        beta1_schedule=str(d.get("beta1_schedule", "constant")),
    )
    hp.validate()
    return hp


def _hp_to_dict(hp: HyperParams) -> dict:
    return {
        "alpha": hp.alpha,
        "beta1": hp.beta1,
        "beta2": hp.beta2,
        "delta": hp.delta,
        "weight_decay": hp.weight_decay,
        "lr_schedule": hp.lr_schedule,
        "milestones": [[s, f] for s, f in hp.milestones],
        "beta1_schedule": hp.beta1_schedule,
    }


def _parse_problem(d: dict) -> ProblemConfig:
    if not isinstance(d, dict):
        raise ConfigError("problem must be an object")
    kind = d.get("kind")
    if kind == "testfn":
        _require_keys(d, {"kind", "name", "start"}, {"kind", "name"}, "problem")
        name = str(d["name"])
        get_testfn(name)  # validates the name
        start = d.get("start")
        if start is not None:
            if not (isinstance(start, list) and len(start) == 2):
                raise ConfigError(f"problem.start must be a 2-element list, got {start!r}")
            start = tuple(_num(v, "problem.start") for v in start)
        return ProblemConfig(kind="testfn", name=name, start=start)
    if kind == "mlp":
        _require_keys(
            d,
            {"kind", "hidden_dim", "activation", "loss", "dataset", "batch_size"},
            {"kind", "dataset"},
            "problem",
        )
        ds = d["dataset"]
        _require_keys(ds, {"name", "n", "noise"}, {"name", "n"}, "problem.dataset")
        if ds["name"] != "two_moons":
            raise ConfigError(f"unknown dataset {ds['name']!r}")
        cfg = ProblemConfig(
            kind="mlp",
            hidden_dim=_int(d.get("hidden_dim", 16), "problem.hidden_dim"),
            activation=str(d.get("activation", "tanh")),
            loss=str(d.get("loss", "logistic")),
            dataset_n=_int(ds["n"], "problem.dataset.n"),
            dataset_noise=_num(ds.get("noise", 0.15), "problem.dataset.noise"),
            batch_size=_int(d.get("batch_size", 8), "problem.batch_size"),
        )
        # validates activation/loss/sizes
        MlpSpec(2, cfg.hidden_dim, 1 if cfg.loss == "logistic" else 2,
                cfg.activation, cfg.loss).validate()
        return cfg
    if kind == "regret":
        _require_keys(d, {"kind", "dim", "center_scale", "margin"}, {"kind"},
                      "problem")
        cfg = ProblemConfig(
            kind="regret",
            dim=_int(d.get("dim", 2), "problem.dim"),
            center_scale=_num(d.get("center_scale", 1.0), "problem.center_scale"),
            margin=_num(d.get("margin", 1.0), "problem.margin"),
        )
        if cfg.dim < 1:
            raise ConfigError(f"problem.dim must be >= 1, got {cfg.dim}")
        if not (cfg.center_scale > 0.0 and math.isfinite(cfg.center_scale)):
            raise ConfigError(
                f"problem.center_scale must be positive, got {cfg.center_scale}")
        if not (cfg.margin >= 0.0 and math.isfinite(cfg.margin)):
            raise ConfigError(f"problem.margin must be >= 0, got {cfg.margin}")
        return cfg
    raise ConfigError(
        f"problem.kind must be 'testfn', 'mlp', or 'regret', got {kind!r}")


def _problem_to_dict(p: ProblemConfig) -> dict:
    if p.kind == "testfn":
        out: dict = {"kind": "testfn", "name": p.name}
        if p.start is not None:
            out["start"] = list(p.start)
        return out
    if p.kind == "regret":
        return {"kind": "regret", "dim": p.dim, "center_scale": p.center_scale,
                "margin": p.margin}
    return {
        "kind": "mlp",
        "hidden_dim": p.hidden_dim,
        "activation": p.activation,
        "loss": p.loss,
        "dataset": {"name": "two_moons", "n": p.dataset_n, "noise": p.dataset_noise},
        "batch_size": p.batch_size,
    }


def parse_run_config(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigError("config root must be an object")
    _require_keys(
        d,
        {"problem", "optimizer", "hyperparams", "seed", "steps", "epochs",
         "snapshot_every", "tol"},
        {"problem", "optimizer", "hyperparams", "seed"},
        "config",
    )
    optimizer = str(d["optimizer"])
    if optimizer not in OPTIMIZER_NAMES:
        raise ConfigError(
            f"unknown optimizer {optimizer!r}; expected one of {OPTIMIZER_NAMES}"
        )
    problem = _parse_problem(d["problem"])
    steps = d.get("steps")
    epochs = d.get("epochs")
    if steps is None and epochs is None:
        raise ConfigError("config needs 'steps' (or 'epochs' for mlp problems)")
    if epochs is not None and problem.kind != "mlp":
        raise ConfigError("'epochs' only applies to mlp problems")
    cfg = RunConfig(
        problem=problem,
        optimizer=optimizer,
        hp=_parse_hp(d["hyperparams"]),
        seed=_int(d["seed"], "seed"),
        steps=None if steps is None else _int(steps, "steps"),
        epochs=None if epochs is None else _int(epochs, "epochs"),
        snapshot_every=_int(d.get("snapshot_every", 1), "snapshot_every"),
        tol=_num(d.get("tol", 1e-2), "tol"),
    )
    if cfg.steps is not None and cfg.steps < 1:
        raise ConfigError(f"steps must be >= 1, got {cfg.steps}")
    if cfg.epochs is not None and cfg.epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {cfg.epochs}")
    if cfg.snapshot_every < 1:
        raise ConfigError(f"snapshot_every must be >= 1, got {cfg.snapshot_every}")
    if cfg.tol <= 0:
        raise ConfigError(f"tol must be positive, got {cfg.tol}")
    return cfg


def run_config_to_dict(cfg: RunConfig) -> dict:
    out: dict = {
        "problem": _problem_to_dict(cfg.problem),
        "optimizer": cfg.optimizer,
        "hyperparams": _hp_to_dict(cfg.hp),
        "seed": cfg.seed,
        "snapshot_every": cfg.snapshot_every,
        "tol": cfg.tol,
    }
    if cfg.steps is not None:
        out["steps"] = cfg.steps
    if cfg.epochs is not None:
        out["epochs"] = cfg.epochs
    return out


def _build_problem(cfg: RunConfig):
    if cfg.problem.kind == "testfn":
        fn = get_testfn(cfg.problem.name)
        return TestFnProblem(fn, start=cfg.problem.start)
    if cfg.problem.kind == "regret":
        exp = make_quadratic_stream(cfg.problem.dim, cfg.steps, cfg.seed,
                                    center_scale=cfg.problem.center_scale,
                                    margin=cfg.problem.margin)
        return RegretProblem(exp)
    spec = MlpSpec(2, cfg.problem.hidden_dim,
                   1 if cfg.problem.loss == "logistic" else 2,
                   cfg.problem.activation, cfg.problem.loss)
    ds = two_moons(cfg.problem.dataset_n, cfg.problem.dataset_noise, cfg.seed)
    return MlpProblem(spec, ds, cfg.problem.batch_size, cfg.seed)


def _resolve_steps(cfg: RunConfig, problem) -> int:
    if cfg.steps is not None:
        return cfg.steps
    return cfg.epochs * problem.steps_per_epoch


# ---------------------------------------------------------------- run verb


def run_command(cfg: RunConfig, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    problem = _build_problem(cfg)
    steps = _resolve_steps(cfg, problem)
    t0 = time.perf_counter()
    traj = record_run(problem, cfg.optimizer, cfg.hp, steps,
                      snapshot_every=cfg.snapshot_every, tol=cfg.tol)
    wall = time.perf_counter() - t0

    rows = ["t,loss,step_norm,truncation_fraction"]
    for p in traj.points:
        sn = p.diag.step_norm if p.diag is not None else math.nan
        tf = p.diag.truncation_fraction if p.diag is not None else math.nan
        rows.append(f"{p.t},{_fmt(p.loss)},{_fmt(sn)},{_fmt(tf)}")
    _atomic_write(os.path.join(out_dir, "trajectory.csv"), "\n".join(rows) + "\n")

    hists = [
        {"t": p.t, "counts": p.diag.bhat_histogram.tolist()}
        for p in traj.points
        if p.diag is not None and p.diag.bhat_histogram is not None
    ]
    _atomic_write(os.path.join(out_dir, "histograms.json"),
                  _json_dumps(hists) + "\n")

    final = traj.points[-1]
    summary: dict = {
        "status": "diverged" if traj.diverged else "completed",
        "steps_run": final.t,
        "final_loss": final.loss,
        "diverged_at": traj.diverged_at,
        "wall_time_s": wall,
    }
    optimum = getattr(problem, "optimum", None)
    if optimum is not None:
        summary["steps_to_tol"] = traj.steps_to_tol
    if optimum is not None and final.params is not None and not traj.diverged:
        dist = float(np.linalg.norm(final.params - optimum))
        summary["final_distance"] = dist
        if dist <= cfg.tol:
            summary["status"] = "converged"
    if cfg.problem.kind == "regret" and not traj.diverged:
        summary["final_regret"] = float(np.sum(traj.losses()))
    _atomic_write(os.path.join(out_dir, "summary.json"),
                  _json_dumps(summary) + "\n")
    return summary


# ---------------------------------------------------------------- sweep verb

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def derive_seed(base_seed: int, index: int) -> int:
    """splitmix64 finalizer over base_seed + (index+1)*golden-gamma.

    Point i's seed depends only on (base_seed, i), so extending the sweep
    never changes existing points.
    """
    z = (base_seed + (index + 1) * _GAMMA) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def _apply_param(d: dict, path: str, value) -> dict:
    out = json.loads(json.dumps(d))  # deep copy
    node = out
    parts = path.split(".")
    for key in parts[:-1]:
        node = node[key]
    node[parts[-1]] = value
    return out


def _sweep_point(args):
    base_dict, path, value, index, out_dir = args
    pd = _apply_param(base_dict, path, value)
    if path != "seed":
        pd["seed"] = derive_seed(int(base_dict["seed"]), index)
    cfg = parse_run_config(pd)
    point_dir = os.path.join(out_dir, f"point_{index:03d}")
    summary = run_command(cfg, point_dir)
    return index, value, pd["seed"], summary


def sweep_command(base_dict: dict, path: str, values, out_dir: str,
                  jobs: int = 1) -> list:
    if path not in SWEEPABLE:
        raise ConfigError(f"cannot sweep {path!r}; choose one of {SWEEPABLE}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    parse_run_config(base_dict)  # fail fast before any point runs
    if path == "seed":
        values = [_int(v, "seed") for v in values]
    os.makedirs(out_dir, exist_ok=True)
    tasks = [(base_dict, path, v, i, out_dir) for i, v in enumerate(values)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    rows = ["index,value,seed,status,final_loss"]
    for index, value, seed, summary in results:
        rows.append(
            f"{index},{_fmt(value) if isinstance(value, float) else value},"
            f"{seed},{summary['status']},{_fmt(summary['final_loss'])}"
        )
    _atomic_write(os.path.join(out_dir, "sweep.csv"), "\n".join(rows) + "\n")
    return results


# ---------------------------------------------------------------- verify verb


def verify_command(samples: int, seed: int, hp: HyperParams, out_path: str | None):
    reports = verify_suite(samples=samples, seed=seed, hp=hp)
    width = max(len(r["claim"]) for r in reports)
    failed = False
    for r in reports:
        if r["passed"] is None:
            status = "INCONCLUSIVE"
        elif r["passed"]:
            status = "PASS"
        else:
            status = "FAIL"
            failed = True
        print(f"{r['claim']:<{width}}  {status}  observed={r['observed']!r}")
    if out_path:
        _atomic_write(out_path, _json_dumps(reports) + "\n")
    return 1 if failed else 0


# ---------------------------------------------------------------- race verb


def parse_race_config(d: dict):
    if not isinstance(d, dict):
        raise ConfigError("config root must be an object")
    _require_keys(d, {"problem", "entrants", "tol", "max_steps"},
                  {"problem", "entrants"}, "race config")
    problem = _parse_problem(d["problem"])
    if problem.kind != "testfn":
        raise ConfigError("races need a test-function problem with a known optimum")
    entrants = d["entrants"]
    if not isinstance(entrants, list) or not entrants:
        raise ConfigError("entrants must be a non-empty list")
    names: list[str] = []
    hp_map: dict[str, HyperParams] = {}
    for i, e in enumerate(entrants):
        _require_keys(e, {"optimizer", "hyperparams"}, {"optimizer", "hyperparams"},
                      f"entrants[{i}]")
        name = str(e["optimizer"])
        if name not in OPTIMIZER_NAMES:
            raise ConfigError(f"unknown optimizer {name!r} in entrants[{i}]")
        if name in hp_map:
            raise ConfigError(f"duplicate entrant {name!r}")
        names.append(name)
        hp_map[name] = _parse_hp(e["hyperparams"], f"entrants[{i}].hyperparams")
    tol = _num(d.get("tol", 1e-2), "tol")
    max_steps = _int(d.get("max_steps", 100_000), "max_steps")
    if tol <= 0 or max_steps < 1:
        raise ConfigError(f"bad tol/max_steps: {tol}, {max_steps}")
    return problem, names, hp_map, tol, max_steps


def race_command(d: dict, out_dir: str) -> dict:
    problem_cfg, names, hp_map, tol, max_steps = parse_race_config(d)
    fn = get_testfn(problem_cfg.name)
    problem = TestFnProblem(fn, start=problem_cfg.start)
    result = race(problem, names, hp_map, tol=tol, max_steps=max_steps)
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "problem": problem.name,
        "tol": tol,
        "max_steps": max_steps,
        "steps_to_tol": result.steps_to_tol,
        "final_distance": result.final_distance,
        "winner": result.winner(),
    }
    _atomic_write(os.path.join(out_dir, "race.json"),
                  _json_dumps(payload) + "\n")
    width = max(len(n) for n in names)
    for name in names:
        steps = result.steps_to_tol[name]
        print(f"{name:<{width}}  {'DNF' if steps is None else steps}")
    return payload


# ---------------------------------------------------------------- entry point


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as e:  # JSONDecodeError, or an int literal too long to convert
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="agdopt")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="record one optimization run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--snapshot-every", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="run a config across parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 1e-8,1e-6,1e-4")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_verify = sub.add_parser("verify", help="run the analytic-claim checks")
    p_verify.add_argument("--samples", type=int, default=1_000_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--beta1", type=float, default=0.9)
    p_verify.add_argument("--beta2", type=float, default=0.999)
    p_verify.add_argument("--delta", type=float, default=1e-8)
    p_verify.add_argument("--out", default=None)

    p_race = sub.add_parser("race", help="head-to-head steps-to-tolerance")
    p_race.add_argument("--config", required=True)
    p_race.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            d = _load_json(args.config)
            if args.seed is not None:
                d["seed"] = args.seed
            if args.snapshot_every is not None:
                d["snapshot_every"] = args.snapshot_every
            cfg = parse_run_config(d)
            summary = run_command(cfg, args.out)
            print(f"{summary['status']}: final loss {_fmt(summary['final_loss'])} "
                  f"after {summary['steps_run']} steps")
            return 0
        if args.verb == "sweep":
            d = _load_json(args.config)
            try:
                values = [float(v) for v in args.values.split(",") if v]
            except ValueError:
                raise ConfigError(f"--values must be comma-separated numbers, "
                                  f"got {args.values!r}") from None
            sweep_command(d, args.param, values, args.out, jobs=args.jobs)
            return 0
        if args.verb == "verify":
            hp = HyperParams(alpha=1e-3, beta1=args.beta1, beta2=args.beta2,
                             delta=args.delta)
            hp.validate()
            return verify_command(args.samples, args.seed, hp, args.out)
        if args.verb == "race":
            race_command(_load_json(args.config), args.out)
            return 0
    except ConfigError as e:
        # machine-readable; scripts that drive the CLI can parse stderr
        print(json.dumps({"error": "config", "message": str(e)}), file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
