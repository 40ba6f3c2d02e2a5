"""The benchmark's `--trace 1` mode wraps agdopt functions by the names their
callers look up (`benchmark/spans.py:_targets`). Neither `--smoke` nor the
benchmark's own self-tests trace, so these checks keep a rename in `src/`
from breaking the traced mode unnoticed."""

import importlib.util
import json
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(spans):
    for owner, attr, name, _ in spans._targets():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} ({name})"
        assert callable(owner.__dict__[attr])


def _trace(spans, argv):
    tracer = spans.Tracer("test")
    assert spans.traced_main(tracer, argv) == 0
    return tracer


def test_traced_run_and_race_reach_every_layer(spans, tmp_path):
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "problem": {"kind": "testfn", "name": "rosenbrock"},
        "optimizer": "agd", "hyperparams": {"alpha": 1e-3},
        "seed": 0, "steps": 3,
    }))
    tracer = _trace(spans, ["run", "--config", str(run_cfg),
                            "--out", str(tmp_path / "run")])
    assert {"cli.verb", "diagnostics", "optim.dispatch", "optim.step",
            "core.histogram", "testfns.loss_grad"} <= set(tracer.names)

    race_cfg = tmp_path / "race.json"
    race_cfg.write_text(json.dumps({
        "problem": {"kind": "testfn", "name": "quad_skew"},
        "entrants": [{"optimizer": o, "hyperparams": {"alpha": 1e-3}}
                     for o in ("adam", "adabelief", "sgd")],
        "max_steps": 3,
    }))
    tracer = _trace(spans, ["race", "--config", str(race_cfg),
                            "--out", str(tmp_path / "race")])
    # each kernel span records its own name, adabelief included
    assert {kernel for kernel, _ in tracer.sizes.values()} == {
        "adam_step", "adabelief_step", "sgd_momentum_step"}


def test_traced_mlp_run_reaches_the_model_layers(spans, tmp_path):
    cfg = tmp_path / "mlp.json"
    cfg.write_text(json.dumps({
        "problem": {"kind": "mlp", "hidden_dim": 6,
                    "dataset": {"name": "two_moons", "n": 8}, "batch_size": 2},
        "optimizer": "agd", "hyperparams": {"alpha": 1e-3},
        "seed": 0, "steps": 3,
    }))
    tracer = _trace(spans, ["run", "--config", str(cfg), "--out", str(tmp_path / "mlp")])
    assert {"models.loss_grad", "models.setup", "optim.step"} <= set(tracer.names)
    # 2*6 + 6 + 6*1 + 1 parameters: each step went through the traced kernel
    assert list(tracer.sizes.values()) == [("agd_step", 25)] * 3


def test_traced_sweep_steps_its_points_as_one_population(spans, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "problem": {"kind": "testfn", "name": "rosenbrock"},
        "optimizer": "agd", "hyperparams": {"alpha": 1e-3},
        "seed": 0, "steps": 2,
    }))
    tracer = _trace(spans, ["sweep", "--config", str(cfg), "--param", "hyperparams.alpha",
                            "--values", "1e-4,2e-4,5e-4,1e-3,2e-3,5e-3,1e-2,2e-2",
                            "--out", str(tmp_path / "sweep")])
    # each step of the eight n = 2 points is one traced dispatch, one kernel
    # call on 16 coordinates and one histogram call; the oracle runs per point
    assert list(tracer.sizes.values()) == [("agd_step", 16)] * 2
    assert [tracer.names.count(name) for name in (
        "optim.dispatch", "optim.step", "core.histogram", "testfns.loss_grad")] == [
        2, 2, 2, 16]
