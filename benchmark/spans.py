"""In-process tracing of agdopt for the per-layer metrics.

The benchmark wraps each layer's public entry points at the names their
callers look up (module globals and class attributes), runs `agdopt.cli.main`
and restores the originals. Nothing inside the program changes. Spans stay in
memory as parallel lists and are written out once the run ends.

A span's self time is its duration minus the durations of its direct
children. The process is single-threaded, so children never overlap and the
self times of all spans add up to the root span's duration exactly.
"""

from __future__ import annotations

import argparse
import time
from collections import Counter, defaultdict

# minimum bytes a kernel call must move: each float64 vector of length n read
# or written once (AGD reads m, b, prev_corrected, w, g and writes m, b,
# corrected, w; Adam-family reads m, v, w, g and writes m, v, w; SGD reads
# buffer, w, g and writes buffer, w)
KERNEL_VECTORS = {"agd_step": 9, "adam_step": 7, "adabelief_step": 7,
                  "sgd_momentum_step": 5}
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0)


class Tracer:
    """Records nested spans; `clock` returns integer nanoseconds."""

    def __init__(self, command_id: str, clock=time.perf_counter_ns):
        self.command_id = command_id
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.sizes: dict[int, tuple[str, int]] = {}  # kernel span -> (kernel, n)
        self.counters: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, kernel: str | None = None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, sizes, clock = self._stack, self.sizes, self.clock

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            if kernel is not None:
                sizes[i] = (kernel, args[1].size)  # (state, w, g, t, hp, ...)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def count_bytes(self, key: str, fn):
        """Wrap fn(path, text) to count the bytes it writes, with no span."""
        counters = self.counters

        def counted(path, text):
            counters[key] += len(text.encode())
            return fn(path, text)

        return counted

    def self_times(self) -> list[int]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def write_csv(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            fh.write("command,span,parent,name,start_ns,end_ns,self_ns\n")
            t0 = self.starts[0] if self.starts else 0
            for i, name in enumerate(self.names):
                fh.write(f"{self.command_id},{i},{self.parents[i]},{name},"
                         f"{self.starts[i] - t0},{self.ends[i] - t0},{own[i]}\n")


def _targets():
    """(owner, attribute, span name, kernel) for every wrapped entry point."""
    from agdopt import cli, diagnostics, optim, theory

    verbs = [(cli, f, "cli.verb", None) for f in
             ("run_command", "sweep_command", "race_command", "verify_command")]
    parse = [(cli, f, "cli.parse", None) for f in
             ("_load_json", "parse_run_config", "parse_race_config")]
    parse.append((argparse.ArgumentParser, "parse_args", "cli.parse", None))
    kernels = [(optim, k, "optim.step", k) for k in KERNEL_VECTORS]
    kernels.append((theory, "agd_step", "optim.step", "agd_step"))
    return verbs + parse + kernels + [
        (cli, "record_run", "diagnostics", None),
        (cli, "race", "diagnostics", None),
        (diagnostics, "dispatch_step", "optim.dispatch", None),
        (optim, "bhat_histogram", "core.histogram", None),
        (diagnostics.TestFnProblem, "loss_grad", "testfns.loss_grad", None),
        (diagnostics.MlpProblem, "loss_grad", "models.loss_grad", None),
        (cli, "two_moons", "models.setup", None),
        (diagnostics, "init_params", "models.setup", None),
        (cli, "verify_suite", "theory.suite", None),
        (theory, "variance_ratio_mc", "theory.variance_mc", None),
        (theory, "norm_bound_check", "theory.norm_bound", None),
        (theory, "online_regret", "theory.regret", None),
        (theory, "alpha_hat_series", "theory.alpha_hat", None),
    ]


def traced_main(tracer: Tracer, argv: list[str]) -> int:
    """Run agdopt.cli.main(argv) with every layer boundary wrapped."""
    from agdopt import cli

    saved = []
    try:
        for owner, attr, name, kernel in _targets():
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, kernel))
        saved.append((cli, "_atomic_write", cli._atomic_write))
        cli._atomic_write = tracer.count_bytes("cli.out_bytes", cli._atomic_write)
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_values) * p // 100) - 1)
    return sorted_values[int(k)]


def tail_percentile(count: int) -> float:
    """Highest candidate percentile with at least ten calls beyond it."""
    for p in TAIL_CANDIDATES:
        if count * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict, list[dict]]:
    """Per-layer metrics of one traced command, the size of the trace (the n
    and percentile the step figures refer to, the span count) and the
    per-(kernel, n) table of computed bytes and bandwidth."""
    own = tracer.self_times()
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    per_call: dict[str, list[int]] = defaultdict(list)
    kernels: dict[tuple[str, int], list[int]] = defaultdict(list)
    for i, name in enumerate(tracer.names):
        self_s[name] += own[i] * 1e-9
        calls[name] += 1
        if name in ("testfns.loss_grad", "models.loss_grad"):
            per_call[name].append(own[i])
        if i in tracer.sizes:
            kernels[tracer.sizes[i]].append(own[i])

    table = []
    for (kernel, n), ns in sorted(kernels.items()):
        ns.sort()
        p50 = percentile(ns, 50) * 1e-9
        nbytes = KERNEL_VECTORS[kernel] * 8 * n
        table.append({"kernel": kernel, "n": n, "calls": len(ns),
                      "self_us.p50": p50 * 1e6, "bytes_computed": nbytes,
                      "gbps_computed": nbytes / p50 / 1e9 if p50 > 0 else 0.0})

    # the percentile, bytes and bandwidth figures describe the calls at the
    # workload's largest n, the size each workload is chosen for
    top_n = max((n for _, n in kernels), default=0)
    top = sorted(v for (_, n), ns in kernels.items() if n == top_n for v in ns)
    top_bytes = [KERNEL_VECTORS[k] * 8 * n for (k, n), ns in kernels.items()
                 if n == top_n for _ in ns]
    tail = tail_percentile(len(top))
    p50 = percentile(top, 50) * 1e-9 if top else 0.0
    mean_bytes = sum(top_bytes) / len(top_bytes) if top_bytes else 0.0
    dispatches = calls["optim.dispatch"]

    def p50_us(name):
        values = sorted(per_call[name])
        return percentile(values, 50) * 1e-3 if values else 0.0

    wall = (tracer.ends[0] - tracer.starts[0]) * 1e-9
    m = {
        "cli.self_s": self_s["cli.verb"],
        "cli.parse_s": self_s["cli.parse"],
        "cli.out_bytes": float(tracer.counters["cli.out_bytes"]),
        "diagnostics.self_s": self_s["diagnostics"],
        "diagnostics.loop_us": (self_s["diagnostics"] / dispatches * 1e6
                                if dispatches else 0.0),
        "optim.dispatch.self_s": self_s["optim.dispatch"],
        "optim.step.calls": float(calls["optim.step"]),
        "optim.step.self_s": self_s["optim.step"],
        "optim.step.self_us.p50": p50 * 1e6,
        "optim.step.self_us.ptail": percentile(top, tail) * 1e-3 if top else 0.0,
        "optim.step.bytes": mean_bytes,
        "optim.step.gbps": mean_bytes / p50 / 1e9 if p50 > 0 else 0.0,
        "core.histogram.calls": float(calls["core.histogram"]),
        "core.histogram.self_s": self_s["core.histogram"],
        "testfns.loss_grad.calls": float(calls["testfns.loss_grad"]),
        "testfns.loss_grad.self_s": self_s["testfns.loss_grad"],
        "testfns.loss_grad.self_us.p50": p50_us("testfns.loss_grad"),
        "models.loss_grad.self_s": self_s["models.loss_grad"],
        "models.loss_grad.self_us.p50": p50_us("models.loss_grad"),
        "models.setup_s": self_s["models.setup"],
        "theory.suite.self_s": self_s["theory.suite"],
        "theory.variance_mc.self_s": self_s["theory.variance_mc"],
        "theory.norm_bound.self_s": self_s["theory.norm_bound"],
        "theory.regret.self_s": self_s["theory.regret"],
        "theory.alpha_hat.self_s": self_s["theory.alpha_hat"],
        "trace.wall_s": wall,
        "trace.unattributed_s": self_s["cli.main"],
    }
    shape = {"optim.step.n": top_n, "optim.step.tail_pct": tail,
             "trace.spans": len(tracer.names)}
    return m, shape, table


# unit of every per-layer metric, in the order they are reported
UNITS = {
    "cli.self_s": "s", "cli.parse_s": "s", "cli.out_bytes": "count",
    "diagnostics.self_s": "s", "diagnostics.loop_us": "us",
    "optim.dispatch.self_s": "s",
    "optim.step.calls": "count", "optim.step.self_s": "s",
    "optim.step.self_us.p50": "us", "optim.step.self_us.ptail": "us",
    "optim.step.bytes": "B", "optim.step.gbps": "GB/s",
    "core.histogram.calls": "count", "core.histogram.self_s": "s",
    "testfns.loss_grad.calls": "count", "testfns.loss_grad.self_s": "s",
    "testfns.loss_grad.self_us.p50": "us",
    "models.loss_grad.self_s": "s", "models.loss_grad.self_us.p50": "us",
    "models.setup_s": "s",
    "theory.suite.self_s": "s", "theory.variance_mc.self_s": "s",
    "theory.norm_bound.self_s": "s", "theory.regret.self_s": "s",
    "theory.alpha_hat.self_s": "s",
    "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}
