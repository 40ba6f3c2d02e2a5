"""Command-line harness: run / sweep / verify / race.

Configs are strict JSON: unknown keys are rejected and every value is
validated before any work starts. A parsed config is its own canonical dict:
every default is filled in, it serializes to JSON, and parsing it again
returns it unchanged. Output files are written atomically (temp file in the
target directory, then rename); JSON files take the stdlib's indent=1 layout.
Floats are printed at 17 significant digits so they round-trip exactly, and
non-finite floats in JSON as null.

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

import numpy as np

from .core import BETA1_KINDS, LR_KINDS, ConfigError, HyperParams
from .diagnostics import MlpProblem, TestFnProblem, race, record_run
from .models import ACTIVATIONS, LOSSES, MlpSpec, two_moons
from .optim import OPTIMIZER_NAMES
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


def _bounded(check, lo, strict: bool = False):
    """`check`, then require the value >= lo (> lo when strict)."""
    def bounded(value, where: str):
        x = check(value, where)
        if x < lo or (strict and x == lo):
            raise ConfigError(f"{where} must be {'>' if strict else '>='} {lo}, got {x}")
        return x
    return bounded


def _one_of(*choices: str):
    def one_of(value, where: str) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"{where} must be one of {choices}, got {value!r}")
        return value
    return one_of


_COUNT = _bounded(_int, 1)
_POSITIVE = _bounded(_num, 0.0, strict=True)
_NONNEGATIVE = _bounded(_num, 0.0)


def _milestones(value, where: str) -> list:
    if not (isinstance(value, list)
            and all(isinstance(e, list) and len(e) == 2 for e in value)):
        raise ConfigError(f"{where} must be a list of [step, factor] pairs, got {value!r}")
    return [[_int(step, f"{where} step"), _num(factor, f"{where} factor")]
            for step, factor in value]


def _start(value, where: str) -> list:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{where} must be a 2-element list, got {value!r}")
    return [_num(v, where) for v in value]


_HYPERPARAMS = {
    "alpha": (_num, REQUIRED),
    "beta1": (_num, 0.9),
    "beta2": (_num, 0.999),
    "delta": (_num, 1e-8),
    "weight_decay": (_num, 0.0),
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


_DATASET = {"name": (_one_of("two_moons"), REQUIRED), "n": (_bounded(_int, 2), REQUIRED),
            "noise": (_NONNEGATIVE, 0.15)}
_PROBLEMS = {
    "testfn": {"name": (_one_of(*TESTFNS), REQUIRED), "start": (_start, None)},
    "mlp": {
        "hidden_dim": (_COUNT, 16),
        "activation": (_one_of(*ACTIVATIONS), "tanh"),
        "loss": (_one_of(*LOSSES), "logistic"),
        "dataset": (lambda v, where: _section(v, _DATASET, where), REQUIRED),
        "batch_size": (_COUNT, 8),
    },
    # the horizon is the run's steps count
    "regret": {"dim": (_COUNT, 2), "center_scale": (_POSITIVE, 1.0),
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
    "seed": (_int, REQUIRED),
    "steps": (_COUNT, None),
    "epochs": (_COUNT, None),
    "snapshot_every": (_COUNT, 1),
    "tol": (_POSITIVE, 1e-2),
}


def parse_run_config(d) -> dict:
    """The canonical dict of a run config (see the module docstring)."""
    cfg = _section(d, _RUN, "config")
    if cfg["steps"] is None and cfg["epochs"] is None:
        raise ConfigError("config needs 'steps' (or 'epochs' for mlp problems)")
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


def run_command(cfg: dict, out_dir: str) -> dict:
    """Run a parsed config (see parse_run_config) and write its outputs."""
    problem = _build_problem(cfg)
    steps = cfg["steps"] or cfg["epochs"] * problem.steps_per_epoch
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    traj = record_run(problem, cfg["optimizer"], _hp(cfg["hyperparams"]), steps,
                      snapshot_every=cfg["snapshot_every"], tol=cfg["tol"])
    wall = time.perf_counter() - t0

    rows = ["t,loss,step_norm,truncation_fraction"]
    for p in traj.points:
        sn = p.diag.step_norm if p.diag is not None else math.nan
        tf = p.diag.truncation_fraction if p.diag is not None else math.nan
        rows.append(f"{p.t},{_fmt(p.loss)},{_fmt(sn)},{_fmt(tf)}")
    _atomic_write(os.path.join(out_dir, "trajectory.csv"), "\n".join(rows) + "\n")

    # json.dumps(hists, indent=1) from preformatted rows: the stdlib's
    # indented encoder is pure Python and holds every token at once
    hists = [
        f' {{\n  "t": {p.t},\n  "counts": [\n   '
        + ",\n   ".join(map(str, p.diag.bhat_histogram.tolist())) + "\n  ]\n }"
        for p in traj.points
        if p.diag is not None and p.diag.bhat_histogram is not None
    ]
    text = "[\n" + ",\n".join(hists) + "\n]" if hists else "[]"
    _atomic_write(os.path.join(out_dir, "histograms.json"), text + "\n")

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
    if optimum is not None and not traj.diverged:
        dist = float(np.linalg.norm(final.params - optimum))
        summary["final_distance"] = dist
        if dist <= cfg["tol"]:
            summary["status"] = "converged"
    if cfg["problem"]["kind"] == "regret" and not traj.diverged:
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


def sweep_command(base_dict: dict, path: str, values, out_dir: str,
                  jobs: int = 1) -> list:
    """Run the base config once per value of `path`; return the summaries.

    Every point's config is parsed before any point runs.
    """
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
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(run_command, cfgs, dirs))
    else:
        summaries = list(map(run_command, cfgs, dirs))
    rows = ["index,value,seed,status,final_loss"]
    for i, (value, cfg, summary) in enumerate(zip(values, cfgs, summaries)):
        rows.append(
            f"{i},{_fmt(value) if isinstance(value, float) else value},"
            f"{cfg['seed']},{summary['status']},{_fmt(summary['final_loss'])}"
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
    "max_steps": (_COUNT, 100_000),
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
                          for v in args.values.split(",") if v]
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
