"""Seeded workloads of the agdopt benchmark and the checks on their outputs.

Each workload is one `agdopt` verb. The benchmark writes the verb's config
files from the workload seed; the program only ever sees those files. Every
workload has two sizes: "full" is what `wall_s` times, "setup" is the same
command cut to one step (`verify`, which has no step count, uses `--help`),
which is what `setup_s` times.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass

# the committed rosenbrock default start in agdopt.testfns
ROSENBROCK_START = (-1.2, 1.0)
# Sweep points run a fixed step count, so the start only moves the path.
SWEEP_JITTER = 0.1
# Race entrants stop at tolerance, and their step count is chaotic in the
# start: within +-0.1 the six entrants take 50k..117k steps in total
# (agd_amsgrad alone 14k..67k), so wall_s would measure the seed, not the
# code. Within +-0.003 the total stays within about 1% of 91k.
RACE_JITTER = 0.003

SWEEP_ALPHAS = ("1e-4", "2e-4", "5e-4", "1e-3", "2e-3", "5e-3", "1e-2", "2e-2")
SWEEP_STEPS = 6250
RACE_MAX_STEPS = 100_000
RACE_ENTRANTS = (
    ("agd", {"alpha": 1e-3}),
    ("agd_amsgrad", {"alpha": 1e-3}),
    ("adam", {"alpha": 1e-3}),
    ("adamw", {"alpha": 1e-3, "weight_decay": 1e-4}),
    ("adabelief", {"alpha": 1e-3}),
    ("sgd", {"alpha": 1e-4, "beta1": 0.9}),
)
MLP_HIDDEN = 262_144
MLP_PARAMS = 4 * MLP_HIDDEN + 1  # W1 (2h) + b1 (h) + W2 (h) + b2 (1)
MLP_STEPS = 120
VERIFY_SAMPLES = 250_000
# variance_ratio_mc draws t normal vectors for each of its 9 (beta1, t)
# combos: 3 * (2 + 10 + 100) = 336 draws per sample
VERIFY_DRAWS_PER_SAMPLE = 336

WHY = {
    "sweep-rosenbrock": "8-point alpha sweep at snapshot_every 1: the 17-digit "
                        "writers and the record loop dominate; the population "
                        "engine's target verb",
    "race-rosenbrock": "six optimizers to tolerance at n=2 with one small "
                       "output file: per-step cost of every kernel, bypasses "
                       "the writers",
    "run-mlp-wide": "one MLP run at n=1048577: vectorised kernel arithmetic "
                    "and memory traffic dominate, per-step Python overhead "
                    "is noise",
    "verify-mc": "verify at 250k samples: the only workload that calls "
                 "theory (Monte-Carlo variance, norm bound at n=4000, "
                 "online regret)",
}
WORKLOADS = tuple(WHY)
SIZES = ("full", "setup")

_WALL_TIME = re.compile(rb'("wall_time_s": )[^,\n}]+')


@dataclass(frozen=True)
class Command:
    """One prepared `agdopt` invocation: its arguments and output locations."""

    workload: str
    size: str
    args: tuple[str, ...]  # after `python -m agdopt`
    out_dir: str  # wiped before every execution
    stdout_path: str


def _jittered_start(seed: int, jitter: float) -> list[float]:
    rng = random.Random(seed)
    return [x + rng.uniform(-jitter, jitter) for x in ROSENBROCK_START]


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def prepare(workload: str, seed: int, size: str, base_dir: str) -> Command:
    """Write the configs of `workload` at `size` under base_dir."""
    if workload not in WHY or size not in SIZES:
        raise ValueError(f"unknown workload/size {workload!r}/{size!r}")
    one = size == "setup"
    os.makedirs(base_dir, exist_ok=True)
    out_dir = os.path.join(base_dir, "out")
    config = os.path.join(base_dir, "config.json")
    if workload == "sweep-rosenbrock":
        _write_json(config, {
            "problem": {"kind": "testfn", "name": "rosenbrock",
                        "start": _jittered_start(seed, SWEEP_JITTER)},
            "optimizer": "agd",
            "hyperparams": {"alpha": 1e-3},
            "seed": seed,
            "steps": 1 if one else SWEEP_STEPS,
            "snapshot_every": 1,
            "tol": 1e-2,
        })
        args = ("sweep", "--config", config, "--param", "hyperparams.alpha",
                "--values", ",".join(SWEEP_ALPHAS), "--out", out_dir,
                "--jobs", "1")
    elif workload == "race-rosenbrock":
        _write_json(config, {
            "problem": {"kind": "testfn", "name": "rosenbrock",
                        "start": _jittered_start(seed, RACE_JITTER)},
            "entrants": [{"optimizer": name, "hyperparams": hp}
                         for name, hp in RACE_ENTRANTS],
            "tol": 1e-2,
            "max_steps": 1 if one else RACE_MAX_STEPS,
        })
        args = ("race", "--config", config, "--out", out_dir)
    elif workload == "run-mlp-wide":
        _write_json(config, {
            "problem": {"kind": "mlp", "hidden_dim": MLP_HIDDEN,
                        "activation": "tanh", "loss": "logistic",
                        "dataset": {"name": "two_moons", "n": 1024},
                        "batch_size": 1},
            "optimizer": "agd",
            "hyperparams": {"alpha": 1e-5},  # logits overflow at 1e-3
            "seed": seed,
            "steps": 1 if one else MLP_STEPS,
            "snapshot_every": 20,
            "tol": 1e-2,
        })
        args = ("run", "--config", config, "--out", out_dir)
    elif one:
        args = ("verify", "--help")
    else:
        args = ("verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(seed),
                "--out", os.path.join(out_dir, "report.json"))
    return Command(workload, size, args, out_dir,
                   os.path.join(base_dir, "stdout.txt"))


def mask(relpath: str, data: bytes) -> bytes:
    """Blank the one field that legitimately differs between reruns."""
    if os.path.basename(relpath) == "summary.json":
        return _WALL_TIME.sub(rb'\1"masked"', data)
    return data


def digests(cmd: Command, stdout: bytes) -> dict[str, str]:
    """sha256 of every output file (wall time masked) and of the stdout."""
    out: dict[str, str] = {}
    for dirpath, _, files in os.walk(cmd.out_dir):
        for f in files:
            path = os.path.join(dirpath, f)
            rel = os.path.relpath(path, cmd.out_dir).replace(os.sep, "/")
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(mask(rel, fh.read())).hexdigest()
    # argparse help text depends on the terminal width and Python version
    if cmd.args[-1] != "--help":
        out["<stdout>"] = hashlib.sha256(stdout).hexdigest()
    return dict(sorted(out.items()))


def _check_run_dir(path: str, n: int, snapshot_every: int, errors: list) -> int:
    """Check one `run` output directory; return its steps_run."""
    with open(os.path.join(path, "summary.json")) as fh:
        summary = json.load(fh)
    steps = summary["steps_run"]
    with open(os.path.join(path, "trajectory.csv")) as fh:
        rows = fh.read().splitlines()
    if rows[0] != "t,loss,step_norm,truncation_fraction" or len(rows) - 1 != steps:
        errors.append(f"{path}: {len(rows) - 1} trajectory rows for {steps} steps")
    with open(os.path.join(path, "histograms.json")) as fh:
        hists = json.load(fh)
    snaps = sum(1 for t in range(1, steps + 1) if t % snapshot_every == 0 or t == steps)
    if summary["status"] != "diverged" and len(hists) != snaps:
        errors.append(f"{path}: {len(hists)} histograms, expected {snaps}")
    bad = [h["t"] for h in hists if sum(h["counts"]) != n]
    if bad:
        errors.append(f"{path}: histogram counts do not sum to n={n} at t={bad[:3]}")
    return steps


def check(cmd: Command, stdout: bytes) -> tuple[int, list[str]]:
    """Seed-independent output checks; returns (work units, errors).

    Work units are optimizer steps counted from the outputs (a race entrant
    that did not finish counts as max_steps), or nominal Monte-Carlo draws
    for verify.
    """
    errors: list[str] = []
    work = 0
    try:
        if cmd.workload == "sweep-rosenbrock":
            with open(os.path.join(cmd.out_dir, "sweep.csv")) as fh:
                rows = fh.read().splitlines()
            if len(rows) != 1 + len(SWEEP_ALPHAS):
                errors.append(f"sweep.csv has {len(rows) - 1} points")
            for i in range(len(SWEEP_ALPHAS)):
                work += _check_run_dir(os.path.join(cmd.out_dir, f"point_{i:03d}"),
                                       2, 1, errors)
        elif cmd.workload == "race-rosenbrock":
            with open(os.path.join(cmd.out_dir, "race.json")) as fh:
                race = json.load(fh)
            if any(d is None for d in race["final_distance"].values()):
                errors.append(f"null distance in race.json: {race['final_distance']}")
            names = [name for name, _ in RACE_ENTRANTS]
            if sorted(race["steps_to_tol"]) != sorted(names):
                errors.append(f"race.json entrants {sorted(race['steps_to_tol'])}")
            work = sum(race["max_steps"] if s is None else s
                       for s in race["steps_to_tol"].values())
            if len(stdout.splitlines()) != len(names):
                errors.append("race printed an unexpected table")
        elif cmd.workload == "run-mlp-wide":
            work = _check_run_dir(cmd.out_dir, MLP_PARAMS, 20, errors)
        elif cmd.size == "setup":
            if b"--samples" not in stdout:
                errors.append("verify --help printed no usage")
        else:
            with open(os.path.join(cmd.out_dir, "report.json")) as fh:
                reports = json.load(fh)
            if b"FAIL" in stdout or not all(r["passed"] is True for r in reports):
                errors.append("verify did not pass every claim: "
                              + stdout.decode(errors="replace").strip())
            work = VERIFY_DRAWS_PER_SAMPLE * VERIFY_SAMPLES
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        errors.append(f"unreadable output: {type(e).__name__}: {e}")
    return work, errors
