"""agdopt benchmark: four CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmark/run.py --workload race-rosenbrock --seed 1 --seconds 20 --trace 0

--trace 0 times the workload's `agdopt` command as a subprocess, one child at
a time, against the same command cut to one step (set-up), and reports the
end-to-end metrics. --trace 1 runs the command in-process through
`agdopt.cli.main` with every layer boundary wrapped (see spans.py) and
reports the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--smoke runs every workload at its set-up size, both ways, and checks the
outputs. --record-golden rewrites golden.json from the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "benchmark", "_work")
GOLDEN = os.path.join(ROOT, "benchmark", "golden.json")
GOLDEN_SEED = 0
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1"}
TIMEOUT_S = 30.0  # one command; the full-size commands take 2..7 s
MIN_ROUNDS = 3
HARD_STOP_S = 120.0  # no new command starts after this, whatever --seconds says
SETUPS_PER_ROUND = 2


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@dataclass
class Execution:
    """One checked command execution: timing, memory, outcome."""

    cmd: wl.Command
    wall_s: float
    maxrss_kib: int
    errors: list[str]
    work: int
    digests: dict[str, str]

    @property
    def ok(self) -> bool:
        return not self.errors


def _reset(cmd: wl.Command) -> None:
    shutil.rmtree(cmd.out_dir, ignore_errors=True)
    os.makedirs(cmd.out_dir)


def _finish(cmd: wl.Command, wall_s: float, maxrss_kib: int, status: str,
            stdout: bytes, golden: dict | None) -> Execution:
    errors = [] if status == "exit 0" else [f"{cmd.workload}/{cmd.size}: {status}"]
    work, digests = 0, {}
    if not errors:
        work, errors = wl.check(cmd, stdout)
        digests = wl.digests(cmd, stdout)
        if golden is not None and digests != golden[cmd.workload][cmd.size]:
            errors.append(f"{cmd.workload}/{cmd.size}: outputs differ from golden.json")
    return Execution(cmd, wall_s, maxrss_kib, errors, work, digests)


def execute(cmd: wl.Command, golden: dict | None) -> Execution:
    """Run `python -m agdopt <args>` as a child; time it and take its rusage.

    The child is killed after TIMEOUT_S. Its exit is observed with waitid
    (WNOWAIT) before it is reaped, so the kill timer can never hit a reused
    pid, and os.wait4 then gives this child's own peak RSS.
    """
    _reset(cmd)
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_PIN)
    argv = [sys.executable, "-m", "agdopt", *cmd.args]
    lock, state = threading.Lock(), {"exited": False, "killed": False}
    with open(cmd.stdout_path, "wb") as out, \
            open(cmd.stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill():
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(TIMEOUT_S, kill)
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with lock:
            state["exited"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(cmd.stdout_path, "rb") as fh:
        stdout = fh.read()
    if state["killed"]:
        outcome = f"timeout after {TIMEOUT_S:g} s"
    else:
        outcome = f"exit {proc.returncode}"
        if proc.returncode:
            with open(cmd.stdout_path + ".err", "rb") as fh:
                outcome += ": " + fh.read().decode(errors="replace").strip()[-300:]
    return _finish(cmd, wall, usage.ru_maxrss, outcome, stdout, golden)


def execute_in_process(cmd: wl.Command, golden: dict | None, tracer=None) -> Execution:
    """Run the command through agdopt.cli.main in this process."""
    from agdopt import cli
    import spans

    _reset(cmd)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = cli.main(list(cmd.args))
            else:
                code = spans.traced_main(tracer, list(cmd.args))
    except SystemExit as e:  # argparse exits after --help
        code = e.code
    wall = time.perf_counter() - t0
    stdout = buf.getvalue().encode()
    with open(cmd.stdout_path, "wb") as fh:
        fh.write(stdout)
    return _finish(cmd, wall, 0, f"exit {code}", stdout, golden)


def _import_agdopt() -> None:
    """Import agdopt from this checkout's src/, never from site-packages."""
    sys.path.insert(0, SRC)
    import agdopt

    if os.path.dirname(os.path.abspath(agdopt.__file__)) != os.path.join(SRC, "agdopt"):
        raise SystemExit(f"agdopt imported from {agdopt.__file__}, not {SRC}")


def _commands(workload: str, seed: int) -> tuple[wl.Command, wl.Command]:
    base = os.path.join(WORK, workload)
    shutil.rmtree(base, ignore_errors=True)
    return (wl.prepare(workload, seed, "full", os.path.join(base, "full")),
            wl.prepare(workload, seed, "setup", os.path.join(base, "setup")))


def _identical(execs: list[Execution]) -> list[str]:
    """Every repeat of one command must leave the same bytes."""
    first: dict[str, dict] = {}
    errors = []
    for e in execs:
        if not e.ok:
            continue
        ref = first.setdefault(e.cmd.size, e.digests)
        if e.digests != ref:
            errors.append(f"{e.cmd.workload}/{e.cmd.size}: repeat outputs differ")
    return errors


def measure(workload: str, seed: int, seconds: float):
    """End-to-end metrics with tracing off."""
    golden = _golden() if seed == GOLDEN_SEED else None
    full, setup = _commands(workload, seed)
    t_start = time.perf_counter()
    # warm-up: compiles __pycache__ and loads the interpreter into the page
    # cache, which a user pays once, not per command
    execs = [execute(setup, golden)]
    fulls: list[Execution] = []
    setups: list[Execution] = []
    last_round = 0.0
    while True:
        # a round starts only if it is predicted to end in time
        predicted_end = time.perf_counter() - t_start + last_round
        if fulls and predicted_end > HARD_STOP_S:
            break
        if len(fulls) >= MIN_ROUNDS and predicted_end > seconds:
            break
        r0 = time.perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            setups.append(execute(setup, golden))
        fulls.append(execute(full, golden))
        last_round = time.perf_counter() - r0
    execs += setups + fulls
    errors = [msg for e in execs for msg in e.errors] + _identical(execs)
    failed = sum(not e.ok for e in execs)
    wall_s = statistics.median(e.wall_s for e in fulls)
    setup_s = statistics.median(e.wall_s for e in setups)
    work = next((e.work for e in fulls if e.ok), 0)
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "work_per_s": (work / (wall_s - setup_s), "units/s"),
        "peak_rss_mb": (statistics.median(e.maxrss_kib for e in fulls) / 1024, "MiB"),
    }
    detail = {
        "wall_s.samples": len(fulls),
        "wall_s.min_max": [min(e.wall_s for e in fulls), max(e.wall_s for e in fulls)],
        "setup_s.samples": len(setups),
        "setup_s.min_max": [min(e.wall_s for e in setups), max(e.wall_s for e in setups)],
        "work_units": work,
    }
    return metrics, detail, len(execs), failed, errors


def traced(workload: str, seed: int, seconds: float):
    """Per-layer metrics from in-process runs with tracing on.

    Each round runs the command once untraced and once traced; the ratio of
    their wall times is the tracing overhead. Rounds repeat while time
    remains, and each metric is the median over the traced runs.
    """
    import spans

    _import_agdopt()
    golden = _golden() if seed == GOLDEN_SEED else None
    full, _ = _commands(workload, seed)
    t_start = time.perf_counter()
    execs: list[Execution] = []
    plain, runs = [], []
    while not runs or (time.perf_counter() - t_start) * (len(runs) + 1) / len(runs) <= seconds:
        plain.append(execute_in_process(full, golden))
        tracer = spans.Tracer(f"{workload}:{seed}:{len(runs)}")
        execs += [plain[-1], execute_in_process(full, golden, tracer)]
        m, shape, table = spans.layer_metrics(tracer)
        runs.append(m)
    tracer.write_csv(os.path.join(WORK, workload, "spans.csv"))
    errors = [msg for e in execs for msg in e.errors] + _identical(execs)
    for m in runs:
        attributed = sum(v for k, v in m.items()
                         if spans.UNITS[k] == "s" and k != "trace.wall_s")
        if abs(attributed - m["trace.wall_s"]) > 1e-6:
            errors.append(f"self times add up to {attributed}, not {m['trace.wall_s']}")
    metrics = {k: (statistics.median(m[k] for m in runs), spans.UNITS[k])
               for k in runs[0]}
    traced_wall = statistics.median(m["trace.wall_s"] for m in runs)
    untraced_wall = statistics.median(e.wall_s for e in plain)
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    detail = {"traced_runs": len(runs), "untraced_wall_s": untraced_wall,
              **shape, "kernels_computed": table}
    failed = sum(not e.ok for e in execs)
    return metrics, detail, len(execs), failed, errors


def metadata() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = {}
    if shutil.which("lscpu"):
        out = subprocess.run(["lscpu"], capture_output=True, text=True, check=False).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("Model name", "L3 cache"):
                cpu[key.strip()] = value.strip()
    lines = {}
    for name in sorted(os.listdir(os.path.join(SRC, "agdopt"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "agdopt", name), "rb") as fh:
                lines[name] = fh.read().count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("Model name", platform.processor()),
        "l3_cache": cpu.get("L3 cache", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pin": BLAS_PIN,
        "wc_l_src_agdopt": {**lines, "total": sum(lines.values())},
    }


def smoke() -> int:
    """Every workload at its set-up size, as a child and in-process."""
    _import_agdopt()
    golden = _golden()
    failures = 0
    for workload in wl.WORKLOADS:
        _, setup = _commands(workload, GOLDEN_SEED)
        for e in (execute(setup, golden), execute_in_process(setup, golden)):
            failures += not e.ok
            print(f"{workload:<18} setup  {e.wall_s:8.3f} s  "
                  f"{'ok' if e.ok else '; '.join(e.errors)}")
    return 1 if failures else 0


def record_golden() -> int:
    """Rewrite golden.json from the default seed, both sizes."""
    result: dict = {}
    for workload in wl.WORKLOADS:
        full, setup = _commands(workload, GOLDEN_SEED)
        for cmd in (full, setup):
            e = execute(cmd, None)
            if not e.ok:
                print("; ".join(e.errors), file=sys.stderr)
                return 1
            result.setdefault(workload, {})[cmd.size] = e.digests
    with open(GOLDEN, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "agdopt", "cli.py")):
        print(f"benchmark: no agdopt sources under {SRC}", file=sys.stderr)
        return 2
    # pins BLAS for the in-process runs; the children get it in their env
    os.environ.update(BLAS_PIN)
    os.makedirs(WORK, exist_ok=True)
    if args.smoke:
        return smoke()
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        p.error("--workload is required")

    run = traced if args.trace else measure
    metrics, detail, attempted, failed, errors = run(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"why: {wl.WHY[args.workload]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':<32} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} executions)")
    for msg in errors:
        print(f"  ERROR {msg}")
    print("detail " + json.dumps(detail))
    print("meta " + json.dumps(metadata()))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
