"""Command-line harness: run / sweep / verify / race.

Configs are strict JSON: unknown keys are rejected and every value is
validated before any work starts. A parsed config is its own canonical dict:
every default is filled in, it serializes to JSON, and parsing it again
returns it unchanged. Output files are written atomically (temp file in the
target directory, then rename); JSON files take the stdlib's indent=1 layout.
Floats are printed at 17 significant digits so they round-trip exactly, and
non-finite floats in JSON as null.

Exit codes: 0 success, 1 verification failure or a failed sweep group (one
JSON line per group on stderr), 2 configuration error (with a one-line JSON
error object on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from itertools import chain

import numpy as np

from .core import (BETA1_KINDS, LR_KINDS, ConfigError, HyperParams, bounded, check_count,
                   check_int, check_num)
from .diagnostics import MlpProblem, TestFnProblem, race, record_run, record_runs
from .models import ACTIVATIONS, LOSSES, MlpSpec, two_moons
from .optim import CHUNK, OPTIMIZER_NAMES
from .testfns import TESTFNS, get_testfn
from .theory import RegretProblem, make_quadratic_stream, verify_suite

__all__ = [
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
_BLOCK = 512  # rows per `%` template in the writers, which bounds their transient strings


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_dumps(obj, indent: int = 0) -> str:
    """json.dumps(obj, indent=1), but with floats at 17 significant digits.

    The stdlib encoder hardwires repr for floats; this walker formats them
    like the CSV files instead, non-finite ones as null (strict JSON has no
    NaN/Infinity tokens), and hands every other leaf to json.dumps.
    """
    if isinstance(obj, float):
        return _fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, dict) and obj:
        items = [f"{json.dumps(k)}: {_json_dumps(v, indent + 1)}" for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)) and obj:
        items = [_json_dumps(v, indent + 1) for v in obj]
        brackets = "[]"
    else:
        return json.dumps(obj)
    close = "\n" + " " * indent
    pad = close + " "
    return brackets[0] + pad + ("," + pad).join(items) + close + brackets[1]


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:  # in slices: one write would encode a copy of it all
            fh.writelines(text[lo:lo + 65536] for lo in range(0, len(text), 65536))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------- configs

REQUIRED = object()  # the default of a key the config must give


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def _section(d, schema: dict, where: str) -> dict:
    """Check one JSON object against `schema`; return its canonical dict.

    `schema` maps each key to (check, default); check(value, where) returns
    the canonical value or raises ConfigError. Unknown and missing REQUIRED
    keys are rejected, and absent keys take their default. null stands for
    "absent" only where the default is None.
    """
    unknown = set(_object(d, where)) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = [k for k, (_, default) in schema.items()
               if default is REQUIRED and k not in d]
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {missing}")
    out = {}
    for key, (check, default) in schema.items():
        value = d.get(key, default)
        out[key] = (None if value is None and default is None
                    else check(value, f"{where}.{key}"))
    return out


def _one_of(*choices: str):
    def one_of(value, where: str) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"{where} must be one of {choices}, got {value!r}")
        return value
    return one_of


_POSITIVE = bounded(check_num, 0.0, strict=True)
_NONNEGATIVE = bounded(check_num, 0.0)


def _milestones(value, where: str) -> list:
    if not (isinstance(value, list)
            and all(isinstance(e, list) and len(e) == 2 for e in value)):
        raise ConfigError(f"{where} must be a list of [step, factor] pairs, got {value!r}")
    return [[check_int(step, f"{where} step"), check_num(factor, f"{where} factor")]
            for step, factor in value]


def _start(value, where: str) -> list:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{where} must be a 2-element list, got {value!r}")
    return [check_num(v, where) for v in value]


_HYPERPARAMS = {
    "alpha": (check_num, REQUIRED),
    "beta1": (check_num, 0.9),
    "beta2": (check_num, 0.999),
    "delta": (check_num, 1e-8),
    "weight_decay": (check_num, 0.0),
    "lr_schedule": (_one_of(*LR_KINDS), "constant"),
    "milestones": (_milestones, []),
    "beta1_schedule": (_one_of(*BETA1_KINDS), "constant"),
}


def _hp(d: dict) -> HyperParams:
    """The HyperParams of a canonical hyperparams dict."""
    return HyperParams(**dict(d, milestones=tuple(map(tuple, d["milestones"]))))


def _hyperparams(value, where: str) -> dict:
    hp = _section(value, _HYPERPARAMS, where)
    _hp(hp).validate()
    return hp


_DATASET = {"name": (_one_of("two_moons"), REQUIRED), "n": (bounded(check_int, 2), REQUIRED),
            "noise": (_NONNEGATIVE, 0.15)}
_PROBLEMS = {
    "testfn": {"name": (_one_of(*TESTFNS), REQUIRED), "start": (_start, None)},
    "mlp": {
        "hidden_dim": (check_count, 16),
        "activation": (_one_of(*ACTIVATIONS), "tanh"),
        "loss": (_one_of(*LOSSES), "logistic"),
        "dataset": (lambda v, where: _section(v, _DATASET, where), REQUIRED),
        "batch_size": (check_count, 8),
    },
    # the horizon is the run's steps count
    "regret": {"dim": (check_count, 2), "center_scale": (_POSITIVE, 1.0),
               "margin": (_NONNEGATIVE, 1.0)},
}


def _problem(value, where: str) -> dict:
    """A problem object; its kind picks the schema of its other keys."""
    kind = _one_of(*_PROBLEMS)(_object(value, where).get("kind"), f"{where}.kind")
    p = _section(value, {"kind": (_one_of(kind), REQUIRED), **_PROBLEMS[kind]}, where)
    if kind == "mlp" and p["batch_size"] > p["dataset"]["n"]:
        raise ConfigError(f"{where}.batch_size must be in [1, {p['dataset']['n']}], "
                          f"got {p['batch_size']}")
    return p


_RUN = {
    "problem": (_problem, REQUIRED),
    "optimizer": (_one_of(*OPTIMIZER_NAMES), REQUIRED),
    "hyperparams": (_hyperparams, REQUIRED),
    "seed": (check_int, REQUIRED),
    "steps": (check_count, None),
    "epochs": (check_count, None),
    "snapshot_every": (check_count, 1),
    "tol": (_POSITIVE, 1e-2),
}


def parse_run_config(d) -> dict:
    """The canonical dict of a run config (see the module docstring)."""
    cfg = _section(d, _RUN, "config")
    if (cfg["steps"] is None) == (cfg["epochs"] is None):
        raise ConfigError("config needs one of 'steps' and 'epochs' (epochs for mlp "
                          "problems), not both")
    if cfg["epochs"] is not None and cfg["problem"]["kind"] != "mlp":
        raise ConfigError("'epochs' only applies to mlp problems")
    return cfg


def _build_problem(cfg: dict):
    """The problem of a canonical run or race config."""
    p = cfg["problem"]
    if p["kind"] == "testfn":
        return TestFnProblem(get_testfn(p["name"]), start=p["start"])
    if p["kind"] == "regret":
        exp = make_quadratic_stream(p["dim"], cfg["steps"], cfg["seed"],
                                    center_scale=p["center_scale"],
                                    margin=p["margin"])
        return RegretProblem(exp)
    spec = MlpSpec(2, p["hidden_dim"], 1 if p["loss"] == "logistic" else 2,
                   p["activation"], p["loss"])
    ds = two_moons(p["dataset"]["n"], p["dataset"]["noise"], cfg["seed"])
    return MlpProblem(spec, ds, p["batch_size"], cfg["seed"])


# ---------------------------------------------------------------- run verb


def _steps(cfg: dict, problem) -> int:
    return cfg["steps"] or cfg["epochs"] * problem.steps_per_epoch


def run_command(cfg: dict, out_dir: str) -> dict:
    """Run a parsed config (see parse_run_config) and write its outputs."""
    problem = _build_problem(cfg)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    traj = record_run(problem, cfg["optimizer"], _hp(cfg["hyperparams"]),
                      _steps(cfg, problem), snapshot_every=cfg["snapshot_every"],
                      tol=cfg["tol"])
    return _write_run(cfg, problem, traj, time.perf_counter() - t0, out_dir)


def _trajectory_csv(traj) -> str:
    blocks = ["t,loss,step_norm,truncation_fraction\n"]
    for lo in range(0, len(traj.loss), _BLOCK):
        cols = [col[lo:lo + _BLOCK].tolist()
                for col in (traj.loss, traj.step_norm, traj.truncation_fraction)]
        cells = chain.from_iterable(zip(range(lo + 1, lo + _BLOCK + 1), *cols))
        blocks.append("%d,%.17g,%.17g,%.17g\n" * len(cols[0]) % tuple(cells))
    return "".join(blocks)


def _histograms_json(traj) -> str:
    """The layout of json.dumps(hists, indent=1), from one item template per
    block; each distinct counts row, keyed on its bytes, is formatted once."""
    bodies, blocks = {}, []
    for lo in range(0, len(traj.hist_t), _BLOCK):
        rows = np.ascontiguousarray(traj.hists[lo:lo + _BLOCK])
        keys = rows.view(np.dtype((np.void, rows[0].nbytes))).ravel().tolist()
        for key in set(keys) - bodies.keys():
            bodies[key] = ",\n   ".join(map(str, np.frombuffer(key, rows.dtype).tolist()))
        cells = chain.from_iterable(zip(traj.hist_t[lo:lo + _BLOCK].tolist(),
                                        map(bodies.__getitem__, keys)))
        blocks.append(' {\n  "t": %d,\n  "counts": [\n   %s\n  ]\n },\n' * len(keys)
                      % tuple(cells))
    if not blocks:
        return "[]\n"
    # the brackets replace the end blocks' edges, so the whole text is built once
    blocks[0] = "[\n" + blocks[0]
    blocks[-1] = blocks[-1][:-2] + "\n]\n"
    return "".join(blocks)


def _write_run(cfg: dict, problem, traj, wall: float, out_dir: str) -> dict:
    """Write a recorded run's trajectory.csv, histograms.json and summary.json;
    return the summary."""
    _atomic_write(os.path.join(out_dir, "trajectory.csv"), _trajectory_csv(traj))
    _atomic_write(os.path.join(out_dir, "histograms.json"), _histograms_json(traj))

    summary: dict = {
        "status": "diverged" if traj.diverged else "completed",
        "steps_run": len(traj.loss),
        "final_loss": float(traj.loss[-1]),
        "diverged_at": traj.diverged_at,
        "wall_time_s": wall,
    }
    optimum = getattr(problem, "optimum", None)
    if optimum is not None:
        summary["steps_to_tol"] = traj.steps_to_tol
    if optimum is not None and not traj.diverged:
        dist = float(np.linalg.norm(traj.params - optimum))
        summary["final_distance"] = dist
        if dist <= cfg["tol"]:
            summary["status"] = "converged"
    if cfg["problem"]["kind"] == "regret" and not traj.diverged:
        summary["final_regret"] = float(np.sum(traj.loss))
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


def _run_points(cfgs: list, dirs: list) -> list:
    """Run sweep points as one population and write each point's outputs.

    The points share all but their hyperparameters and seed; each gets its
    own problem. Every point's wall_time_s is the population's loop time. A
    group that raises is a result, not a crash: each of its points gets the
    summary {"status": "error", "message": ...}, and the other groups run on.
    """
    try:
        problems = [_build_problem(cfg) for cfg in cfgs]
        for out_dir in dirs:
            os.makedirs(out_dir, exist_ok=True)
        first = cfgs[0]
        t0 = time.perf_counter()
        trajs = record_runs(problems, first["optimizer"],
                            [_hp(cfg["hyperparams"]) for cfg in cfgs],
                            _steps(first, problems[0]),
                            snapshot_every=first["snapshot_every"], tol=first["tol"])
        wall = time.perf_counter() - t0
        return [_write_run(cfg, problem, traj, wall, out_dir)
                for cfg, problem, traj, out_dir in zip(cfgs, problems, trajs, dirs)]
    except Exception as e:  # the boundary of a group: its rows record the failure
        return [{"status": "error", "message": f"{type(e).__name__}: {e}"} for _ in cfgs]


def sweep_command(base_dict: dict, path: str, values, out_dir: str,
                  jobs: int = 1) -> list:
    """Run the base config once per value of `path`; return the summaries.

    Every point's config is parsed before any point runs. The points are
    split into at most `jobs` contiguous groups, and each group steps as one
    population (`record_runs`). Above optim.CHUNK coordinates, where vector
    work and not per-step overhead dominates, every point is a group of its
    own. The groups run in min(jobs, groups) worker processes when that is
    more than one, else in this process. A group that raises prints one JSON
    line on stderr, and its points' rows get status error.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if path not in SWEEPABLE:
        raise ConfigError(f"cannot sweep {path!r}; choose one of {SWEEPABLE}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    base = parse_run_config(base_dict)
    cfgs = []
    for i, value in enumerate(values):
        hp = dict(base["hyperparams"])
        if path == "seed":
            seed = value
        else:
            seed = derive_seed(base["seed"], i)
            hp[path.removeprefix("hyperparams.")] = value
        cfgs.append(parse_run_config(dict(base, seed=seed, hyperparams=hp)))
    dirs = [os.path.join(out_dir, f"point_{i:03d}") for i in range(len(cfgs))]
    os.makedirs(out_dir, exist_ok=True)
    k, n = len(cfgs), _build_problem(base).init_params().size
    groups = k if n > CHUNK else min(jobs, k)
    bounds = [k * g // groups for g in range(groups + 1)]
    parts = ([cfgs[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
             [dirs[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    workers = min(jobs, groups)  # a pool forks all its workers up front
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_points, *parts))
    else:
        done = list(map(_run_points, *parts))
    for lo, hi, group in zip(bounds, bounds[1:], done):
        if group[0]["status"] == "error":
            print(json.dumps({"error": "sweep", "points": list(range(lo, hi)),
                              "message": group[0]["message"]}), file=sys.stderr)
    summaries = [summary for group in done for summary in group]
    rows = ["index,value,seed,status,final_loss"]
    for i, (value, cfg, summary) in enumerate(zip(values, cfgs, summaries)):
        rows.append(
            f"{i},{_fmt(value) if isinstance(value, float) else value},"
            f"{cfg['seed']},{summary['status']},"
            + ("" if summary["status"] == "error" else _fmt(summary["final_loss"]))
        )
    _atomic_write(os.path.join(out_dir, "sweep.csv"), "\n".join(rows) + "\n")
    return summaries


# ---------------------------------------------------------------- verify verb


def verify_command(samples: int, seed: int, hp: HyperParams, out_path: str | None):
    reports = verify_suite(samples=samples, seed=seed, hp=hp)
    width = max(len(r["claim"]) for r in reports)
    for r in reports:
        status = {None: "INCONCLUSIVE", True: "PASS", False: "FAIL"}[r["passed"]]
        print(f"{r['claim']:<{width}}  {status}  observed={r['observed']!r}")
    if out_path:
        _atomic_write(out_path, _json_dumps(reports) + "\n")
    return 1 if any(r["passed"] is False for r in reports) else 0


# ---------------------------------------------------------------- race verb


_ENTRANT = {"optimizer": (_one_of(*OPTIMIZER_NAMES), REQUIRED),
            "hyperparams": (_hyperparams, REQUIRED)}


def _entrants(value, where: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
    return [_section(e, _ENTRANT, f"{where}[{i}]") for i, e in enumerate(value)]


_RACE = {
    "problem": (_problem, REQUIRED),
    "entrants": (_entrants, REQUIRED),
    "tol": (_POSITIVE, 1e-2),
    "max_steps": (check_count, 100_000),
}


def parse_race_config(d) -> dict:
    """The canonical dict of a race config (see the module docstring)."""
    cfg = _section(d, _RACE, "config")
    if cfg["problem"]["kind"] != "testfn":
        raise ConfigError("races need a test-function problem with a known optimum")
    names = [e["optimizer"] for e in cfg["entrants"]]
    if len(set(names)) < len(names):
        raise ConfigError(f"duplicate entrant in config.entrants: {names}")
    return cfg


def race_command(d: dict, out_dir: str) -> dict:
    cfg = parse_race_config(d)
    problem = _build_problem(cfg)
    hps = {e["optimizer"]: _hp(e["hyperparams"]) for e in cfg["entrants"]}
    result = race(problem, list(hps), hps, tol=cfg["tol"], max_steps=cfg["max_steps"])
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "problem": problem.name,
        "tol": cfg["tol"],
        "max_steps": cfg["max_steps"],
        "steps_to_tol": result.steps_to_tol,
        "final_distance": result.final_distance,
        "winner": result.winner(),
    }
    _atomic_write(os.path.join(out_dir, "race.json"),
                  _json_dumps(payload) + "\n")
    width = max(len(n) for n in hps)
    for name, steps in result.steps_to_tol.items():
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
            for key in ("seed", "snapshot_every"):
                if getattr(args, key) is not None and isinstance(d, dict):
                    d[key] = getattr(args, key)
            cfg = parse_run_config(d)
            summary = run_command(cfg, args.out)
            print(f"{summary['status']}: final loss {_fmt(summary['final_loss'])} "
                  f"after {summary['steps_run']} steps")
            return 0
        if args.verb == "sweep":
            d = _load_json(args.config)
            try:  # an integer seed stays exact; float() rounds it above 2**53
                values = [int(v) if args.param == "seed"
                          and v.strip().lstrip("+-").isdecimal() else float(v)
                          for v in args.values.split(",")]
            except ValueError:
                raise ConfigError(f"--values must be comma-separated numbers, "
                                  f"got {args.values!r}") from None
            summaries = sweep_command(d, args.param, values, args.out, jobs=args.jobs)
            return 1 if any(s["status"] == "error" for s in summaries) else 0
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
