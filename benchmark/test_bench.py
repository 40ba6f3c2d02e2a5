"""Self-tests of the benchmark: `python3 -m pytest benchmark -q`."""

import json
import os
import subprocess
import sys

import run
import spans
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_times_of_nested_spans_add_up_to_the_root():
    # root [0, 100] > a [10, 60] > b [20, 30], b [35, 45]; root > c [70, 90]
    tracer = spans.Tracer("t", clock=_fake_clock([0, 10, 20, 30, 35, 45, 60, 70, 90, 100]))
    leaf = tracer.wrap("b", lambda: None)
    mid = tracer.wrap("a", lambda: (leaf(), leaf()))
    other = tracer.wrap("c", lambda: None)
    tracer.wrap("root", lambda: (mid(), other()))()
    assert tracer.names == ["root", "a", "b", "b", "c"]
    assert tracer.parents == [-1, 0, 1, 1, 0]
    assert tracer.self_times() == [30, 30, 10, 10, 20]
    assert sum(tracer.self_times()) == tracer.ends[0] - tracer.starts[0]


def test_span_ends_when_the_call_raises():
    tracer = spans.Tracer("t", clock=_fake_clock([0, 5]))

    def boom():
        raise KeyError("x")

    try:
        tracer.wrap("boom", boom)()
    except KeyError:
        pass
    assert (tracer.starts, tracer.ends, tracer._stack) == ([0], [5], [-1])


def test_tail_percentile_keeps_ten_calls_beyond_it():
    assert spans.tail_percentile(120) == 90.0
    assert spans.tail_percentile(10_500) == 99.9
    assert spans.tail_percentile(100_000) == 99.99
    assert spans.tail_percentile(50) == 50.0
    assert spans.percentile(list(range(1, 101)), 50) == 50
    assert spans.percentile(list(range(1, 101)), 99) == 99


def test_mask_blanks_only_the_wall_time():
    a = b'{\n "status": "completed",\n "wall_time_s": 6.2029872100010834\n}\n'
    b = b'{\n "status": "completed",\n "wall_time_s": 0.5\n}\n'
    c = b'{\n "status": "diverged",\n "wall_time_s": 0.5\n}\n'
    assert wl.mask("point_003/summary.json", a) == wl.mask("summary.json", b)
    assert wl.mask("summary.json", b) != wl.mask("summary.json", c)
    assert wl.mask("trajectory.csv", a) == a


def test_generated_configs_depend_only_on_the_seed(tmp_path):
    one = wl.prepare("race-rosenbrock", 7, "full", str(tmp_path / "one"))
    two = wl.prepare("race-rosenbrock", 7, "full", str(tmp_path / "two"))
    other = wl.prepare("race-rosenbrock", 8, "full", str(tmp_path / "other"))
    read = lambda cmd: open(cmd.args[cmd.args.index("--config") + 1]).read()
    assert read(one) == read(two) != read(other)


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == wl.WHY
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.UNITS


def test_a_timeout_counts_as_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TIMEOUT_S", 0.05)
    cmd = wl.prepare("race-rosenbrock", 0, "full", str(tmp_path))
    e = run.execute(cmd, None)
    assert not e.ok and "timeout" in e.errors[0] and e.wall_s < 5


def test_smoke_runs_every_workload_at_its_setup_size():
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2 * len(wl.WORKLOADS)
    assert all(line.endswith(" ok") for line in lines)
