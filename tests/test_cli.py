import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import agdopt
from agdopt.cli import (
    SWEEPABLE,
    derive_seed,
    main,
    parse_race_config,
    parse_run_config,
    sweep_command,
)
from agdopt.core import BETA1_KINDS, LR_KINDS, ConfigError, HyperParams
from agdopt.models import ACTIVATIONS, LOSSES
from agdopt.testfns import TESTFNS

README = Path(__file__).resolve().parents[1] / "README.md"

BASE = {
    "problem": {"kind": "testfn", "name": "quad_skew", "start": [2.0, -1.0]},
    "optimizer": "agd",
    "hyperparams": {"alpha": 1e-3},
    "seed": 7,
    "steps": 60,
    "snapshot_every": 20,
}

MLP = {
    "problem": {
        "kind": "mlp",
        "hidden_dim": 8,
        "activation": "tanh",
        "loss": "logistic",
        "dataset": {"name": "two_moons", "n": 64, "noise": 0.15},
        "batch_size": 16,
    },
    "optimizer": "agd",
    "hyperparams": {"alpha": 2e-2},
    "seed": 42,
    "epochs": 2,
}

REGRET = {
    "problem": {"kind": "regret", "dim": 3, "center_scale": 1.0, "margin": 1.0},
    "optimizer": "agd_amsgrad",
    "hyperparams": {"alpha": 0.5, "lr_schedule": "inverse_sqrt",
                    "beta1_schedule": "over_t"},
    "seed": 0,
    "steps": 400,
}


def write_config(tmp_path, d, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def last_error(capsys):
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    return err["message"]


# ---------------------------------------------------------------- parsing


def test_parse_round_trip():
    canon = parse_run_config(BASE)
    assert parse_run_config(json.loads(json.dumps(canon))) == canon
    # canonical form materializes every default
    assert canon["hyperparams"]["beta1"] == 0.9
    assert canon["hyperparams"]["lr_schedule"] == "constant"
    assert canon["tol"] == 1e-2


def test_parse_mlp_round_trip():
    cfg = parse_run_config(MLP)
    assert cfg["problem"]["kind"] == "mlp"
    assert parse_run_config(json.loads(json.dumps(cfg))) == cfg


def test_parse_regret_round_trip():
    cfg = parse_run_config(REGRET)
    assert cfg["problem"]["kind"] == "regret" and cfg["problem"]["dim"] == 3
    assert parse_run_config(json.loads(json.dumps(cfg))) == cfg
    # the horizon comes from steps; epochs stays mlp-only
    bad = json.loads(json.dumps(REGRET))
    del bad["steps"]
    bad["epochs"] = 2
    with pytest.raises(ConfigError):
        parse_run_config(bad)
    zero_dim = json.loads(json.dumps(REGRET))
    zero_dim["problem"]["dim"] = 0
    with pytest.raises(ConfigError):
        parse_run_config(zero_dim)


hp_dicts = st.fixed_dictionaries(
    {"alpha": st.floats(min_value=1e-6, max_value=1.0)},
    optional={
        "beta1": st.floats(min_value=0.0, max_value=0.99),
        "beta2": st.floats(min_value=0.0, max_value=0.9999),
        "delta": st.floats(min_value=1e-12, max_value=1.0),
        "weight_decay": st.floats(min_value=0.0, max_value=0.1),
        "lr_schedule": st.sampled_from(["constant", "inverse_sqrt"]),
        "beta1_schedule": st.sampled_from(["constant", "over_sqrt_t", "over_t"]),
    },
)


@given(hp_dicts, st.sampled_from(["agd", "adam", "adabelief", "sgd"]),
       st.integers(min_value=0, max_value=2**31))
def test_parse_round_trip_property(hp, optimizer, seed):
    d = dict(BASE, hyperparams=hp, optimizer=optimizer, seed=seed)
    cfg = parse_run_config(d)
    assert parse_run_config(json.loads(json.dumps(cfg))) == cfg


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(extra=1),
    lambda d: d["hyperparams"].update(beta3=0.5),
    lambda d: d["problem"].update(dims=2),
    lambda d: d.update(optimizer="adagrad"),
    lambda d: d.update(steps=0),
    lambda d: d.update(tol=-1.0),
    lambda d: d.pop("seed"),
    lambda d: d.pop("steps"),
    lambda d: d.update(epochs=3),  # epochs is mlp-only
    lambda d: d["problem"].update(name="ackley"),
    lambda d: d["problem"].update(start=[1.0]),
])
def test_parse_rejects_bad_configs(mutate):
    d = json.loads(json.dumps(BASE))
    mutate(d)
    with pytest.raises(ConfigError):
        parse_run_config(d)


def test_parse_rejects_unknown_dataset():
    d = json.loads(json.dumps(MLP))
    d["problem"]["dataset"]["name"] = "spirals"
    with pytest.raises(ConfigError):
        parse_run_config(d)


def test_parse_race_config_checks_entrants():
    race = {
        "problem": {"kind": "testfn", "name": "quad_skew"},
        "entrants": [{"optimizer": "agd", "hyperparams": {"alpha": 1e-3}}],
    }
    cfg = parse_race_config(race)
    names = [e["optimizer"] for e in cfg["entrants"]]
    assert names == ["agd"] and cfg["tol"] == 1e-2 and cfg["max_steps"] == 100_000
    dup = json.loads(json.dumps(race))
    dup["entrants"].append(dup["entrants"][0])
    with pytest.raises(ConfigError):
        parse_race_config(dup)
    empty = dict(race, entrants=[])
    with pytest.raises(ConfigError):
        parse_race_config(empty)
    for bad in ({"max_steps": True}, {"max_steps": 10.5}, {"tol": "0.01"}):
        with pytest.raises(ConfigError):
            parse_race_config(dict(race, **bad))


def test_readme_config_examples_parse_to_canonical_form():
    text = README.read_text()
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", text, re.S)]
    assert {"entrants" in b for b in blocks} == {True, False}
    for block in blocks:
        parse = parse_race_config if "entrants" in block else parse_run_config
        cfg = parse(block)
        assert parse(json.loads(json.dumps(cfg))) == cfg


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    capsys.readouterr()


def test_readme_names_the_hyperparameters_and_sweepable_paths():
    # HyperParams states the keys, their schedule kinds and so the sweep paths
    text = README.read_text()
    keys = text.split("Hyperparameter keys:")[1].split("\n\n")[0]
    names = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", keys))
    assert names == [f.name for f in fields(HyperParams)]
    kinds = {key: tuple(re.findall(r"`(\w+)`", listed))
             for key, listed in re.findall(r"`(\w+_schedule)` \(([^)]*)\)", keys)}
    assert kinds == {"lr_schedule": LR_KINDS, "beta1_schedule": BETA1_KINDS}
    paths = text.split("Sweepable paths:")[1].split(". ")[0]
    assert tuple(re.findall(r"`([\w.]+)`", paths)) == SWEEPABLE


def test_readme_names_the_problem_keys_and_defaults():
    # README's object of each kind against the CLI's schema: the same keys,
    # each listed value passes its key's check, a listed default is the
    # schema's, and "a" | "b" alternatives are the key's choices, the first
    # one its default
    import agdopt.cli as cli

    text = " ".join(README.read_text().split("Problem kinds:")[1]
                    .split("Hyperparameter keys:")[0].split())
    choices = {"name": TESTFNS, "activation": ACTIVATIONS, "loss": LOSSES}

    def check(obj, schema, where):
        assert obj.keys() == schema.keys(), where
        for key, (check_value, default) in schema.items():
            value = obj[key]
            if isinstance(value, dict):
                check(value, cli._DATASET, f"{where}.{key}")
                continue
            listed = value if isinstance(value, list) else [value]
            if isinstance(value, list):
                assert set(value) == set(choices[key]), (where, key)
            if value is not None:
                for v in listed:
                    check_value(v, f"{where}.{key}")
            if default is not cli.REQUIRED:
                assert listed[0] == default, (where, key)

    kinds = re.findall(r"- `(\w+)`: `([^`]*)`", text)
    assert [kind for kind, _ in kinds] == list(cli._PROBLEMS)
    for kind, obj in kinds:
        obj = re.sub(r'"\w+"(?: \| "\w+")+', lambda m: f"[{m[0].replace(' |', ',')}]", obj)
        obj = json.loads(obj.replace("[x, y]", "null"))
        assert obj.pop("kind") == kind
        check(obj, cli._PROBLEMS[kind], kind)


def test_readme_quotes_the_cli_hyperparameter_errors(tmp_path, capsys):
    quoted = dict(re.findall(r"`(config\.hyperparams|config\.entrants\[0\]\.hyperparams): "
                             r"([^`]*)`", README.read_text()))
    cases = {
        "config.hyperparams": ("run", dict(BASE, hyperparams={"alpha": 1e-3, "beta1": 1.0})),
        "config.entrants[0].hyperparams": ("race", dict(RACE_QUAD, entrants=[
            {"optimizer": "agd", "hyperparams": {"alpha": "1e-3"}}])),
    }
    assert quoted.keys() == cases.keys()
    for section, (verb, config) in cases.items():
        out = tmp_path / verb
        assert main([verb, "--config", write_config(tmp_path, config), "--out", str(out)]) == 2
        assert last_error(capsys) == f"{section}: {quoted[section]}"
        assert not out.exists()


# ---------------------------------------------------------------- seeds


def test_derive_seed_is_stable_and_index_keyed():
    seeds = [derive_seed(7, i) for i in range(6)]
    assert len(set(seeds)) == 6
    assert all(0 <= s < 2**64 for s in seeds)
    # extending a sweep never perturbs existing points
    assert [derive_seed(7, i) for i in range(3)] == seeds[:3]
    assert derive_seed(8, 0) != derive_seed(7, 0)


# ---------------------------------------------------------------- run verb


def test_run_verb_outputs(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0

    rows = (out / "trajectory.csv").read_text().strip().split("\n")
    assert rows[0] == "t,loss,step_norm,truncation_fraction"
    assert len(rows) == 1 + BASE["steps"]
    # floats round-trip exactly through the 17-significant-digit format
    for row in rows[1:3]:
        t, loss, sn, tf = row.split(",")
        assert format(float(loss), ".17g") == loss

    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] in ("completed", "converged")
    assert summary["steps_run"] == BASE["steps"]
    assert summary["diverged_at"] is None
    assert "steps_to_tol" in summary  # known optimum, so always reported

    hists = json.loads((out / "histograms.json").read_text())
    assert [h["t"] for h in hists] == [20, 40, 60]
    assert all(sum(h["counts"]) == 2 for h in hists)


def test_run_verb_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "histograms.json").read_bytes() == (b / "histograms.json").read_bytes()


def test_run_verb_converged_status(tmp_path):
    d = dict(BASE, steps=3000, tol=0.5)
    cfg = write_config(tmp_path, d)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["final_distance"] <= 0.5
    assert 1 <= summary["steps_to_tol"] <= 3000


@pytest.mark.parametrize("optimizer", ["agd", "sgd"])
@pytest.mark.parametrize("start, inside", [
    # ||start|| rounds to tol, but its squared distance lies above tol**2
    ([0.01, 1.041250292910165e-10], False),
    # its squared distance is tol**2 exactly
    ([0.01, 0.0], True),
])
def test_run_verb_converged_takes_the_run_loops_tolerance_test(tmp_path, optimizer, start,
                                                               inside):
    # the step underflows, so the iterate stays at the start, which steps_to_tol
    # and status must both place on the same side of tol
    d = dict(BASE, optimizer=optimizer, hyperparams={"alpha": 5e-324}, steps=1, tol=0.01)
    d["problem"] = {"kind": "testfn", "name": "quad_skew", "start": start}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, d), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_distance"] == 0.01
    assert summary["steps_to_tol"] == (0 if inside else None)
    assert summary["status"] == ("converged" if inside else "completed")


def test_run_verb_steps_to_tol_matches_race(tmp_path):
    d = dict(BASE)
    d["problem"] = {"kind": "testfn", "name": "quad_skew"}
    d["steps"] = 1200
    cfg = write_config(tmp_path, d)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # same per-step accounting as the race verb, so the same pinned value
    assert summary["steps_to_tol"] == 1029
    assert summary["status"] == "converged"


def test_run_verb_regret_problem(tmp_path):
    cfg = write_config(tmp_path, REGRET)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().strip().split("\n")
    assert rows[0] == "t,loss,step_norm,truncation_fraction"
    assert len(rows) == 1 + REGRET["steps"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "completed"
    # regret against the offline box minimizer is nonnegative at the horizon
    assert summary["final_regret"] >= -1e-9
    losses = [float(r.split(",")[1]) for r in rows[1:]]
    assert abs(sum(losses) - summary["final_regret"]) < 1e-9 * max(
        1.0, abs(summary["final_regret"]))


def test_run_verb_mlp_epochs(tmp_path):
    cfg = write_config(tmp_path, MLP)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps_run"] == 2 * 4  # 64 points / batch 16 per epoch


def test_run_verb_rejects_steps_with_epochs(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(MLP, steps=3))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    message = last_error(capsys)
    assert "steps" in message and "epochs" in message
    assert not out.exists()


def test_run_verb_seed_override(tmp_path):
    cfg = write_config(tmp_path, MLP)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a), "--seed", "43"]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_text() != (b / "trajectory.csv").read_text()


def test_run_verb_config_errors_exit_2(tmp_path, capsys):
    bad = dict(BASE, bogus=1)
    cfg = write_config(tmp_path, bad)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "unknown key" in err["message"]
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    (tmp_path / "broken.json").write_text("{not json")
    assert main(["run", "--config", str(tmp_path / "broken.json"),
                 "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("mutate", [
    lambda d: d["hyperparams"].update(alpha="1e-3"),
    lambda d: d.update(steps=True),
    lambda d: d.update(seed=7.9),
    lambda d: d["hyperparams"].update(lr_schedule="milestones",
                                      milestones=[[1.7, 0.5]]),
    lambda d: d["hyperparams"].update(alpha=10 ** 400),
], ids=["alpha_string", "steps_bool", "seed_fractional", "milestone_fractional",
        "alpha_beyond_float_range"])
def test_run_verb_rejects_coercible_value_types(tmp_path, capsys, mutate):
    d = json.loads(json.dumps(BASE))
    mutate(d)
    cfg = write_config(tmp_path, d)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert not out.exists()


RACE_QUAD = {"problem": {"kind": "testfn", "name": "quad_skew"}}


@pytest.mark.parametrize("verb,config,extra", [
    ("run", dict(MLP, problem=dict(MLP["problem"], dataset=5)), []),
    ("race", dict(RACE_QUAD, entrants=[5]), []),
    ("race", dict(RACE_QUAD, entrants=[None]), []),
    ("run", [1], ["--seed", "3"]),
], ids=["run_dataset_number", "race_entrant_number", "race_entrant_null",
        "run_root_list_with_seed_override"])
def test_non_object_where_object_required_exits_2(tmp_path, capsys, verb, config, extra):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, config)
    assert main([verb, "--config", cfg, "--out", str(out), *extra]) == 2
    assert "must be an object" in last_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("problem", [
    {"dataset": {"name": "two_moons", "n": 8}, "batch_size": 64},
    {"dataset": {"name": "two_moons", "n": 1}, "batch_size": 1},
    {"dataset": {"name": "two_moons", "n": 64, "noise": -0.1}},
], ids=["batch_above_n", "one_point", "negative_noise"])
def test_run_verb_checks_mlp_sizes_before_any_work(tmp_path, capsys, problem):
    cfg = write_config(tmp_path, dict(MLP, problem=dict(MLP["problem"], **problem)))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    last_error(capsys)
    assert not out.exists()


BAD_HYPERPARAMS = {  # a hyperparams section, and a name its error must give
    "alpha_string": ({"alpha": "1e-3"}, "alpha"),
    "alpha_zero": ({"alpha": 0.0}, "alpha"),
    "beta1_one": ({"alpha": 1e-3, "beta1": 1.0}, "beta1"),
    "milestone_negative": ({"alpha": 1e-3, "lr_schedule": "milestones",
                            "milestones": [[2, -1.0]]}, "milestone"),
    "alpha_missing": ({"beta1": 0.5}, "alpha"),
    "key_unknown": ({"alpha": 1e-3, "gamma": 1}, "gamma"),
}


@pytest.mark.parametrize("case", BAD_HYPERPARAMS)
@pytest.mark.parametrize("verb", ["run", "sweep", "race"])
def test_hyperparam_errors_name_their_section_once(tmp_path, capsys, verb, case):
    # type errors named the key's path and range errors no path at all
    hp, name = BAD_HYPERPARAMS[case]
    if verb == "race":
        config = dict(RACE_QUAD, entrants=[{"optimizer": "agd", "hyperparams": hp}])
        section = "config.entrants[0].hyperparams"
    else:
        config, section = dict(BASE, hyperparams=hp), "config.hyperparams"
    extra = ["--param", "hyperparams.delta", "--values", "1e-8"] if verb == "sweep" else []
    out = tmp_path / "o"
    cfg = write_config(tmp_path, config)
    assert main([verb, "--config", cfg, "--out", str(out), *extra]) == 2
    message = last_error(capsys)
    assert message.count(section) == 1 and name in message
    assert not out.exists()


def test_parse_reads_integral_float_as_int():
    d = json.loads(json.dumps(BASE))
    d["steps"] = 60.0
    assert parse_run_config(d)["steps"] == 60


def test_atomic_write_removes_temp_file_on_failure(tmp_path, monkeypatch):
    import agdopt.cli as cli

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    target = tmp_path / "out.txt"
    with pytest.raises(OSError, match="replace failed"):
        cli._atomic_write(str(target), "payload\n")
    assert list(tmp_path.iterdir()) == []


def test_run_verb_divergence_is_a_result(tmp_path):
    d = dict(BASE)
    d["problem"] = {"kind": "testfn", "name": "rosenbrock"}
    d["optimizer"] = "sgd"
    d["hyperparams"] = {"alpha": 10.0, "beta1": 0.9}
    cfg = write_config(tmp_path, d)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "diverged"
    assert summary["diverged_at"] == 2


@pytest.mark.parametrize("name", ["rosenbrock", "beale", "quad_skew"])
def test_run_verb_overflow_divergence_is_a_result(tmp_path, name):
    # rosenbrock and beale overflow Python's float power at the first
    # iterate; that is divergence too, not a traceback
    d = dict(BASE)
    d["problem"] = {"kind": "testfn", "name": name}
    d["hyperparams"] = {"alpha": 1e250}
    cfg = write_config(tmp_path, d)
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "diverged"
    assert summary["diverged_at"] == 2


DIVERGING = {"problem": {"kind": "testfn", "name": "rosenbrock"},
             "hyperparams": {"alpha": 1e250}}


def test_diverging_run_and_race_warn_nothing(tmp_path, capsys):
    # divergence is a recorded result, so the overflow on the way to it
    # raises no numpy RuntimeWarning (an error under tests/, see conftest)
    cfg = write_config(tmp_path, dict(BASE, **DIVERGING))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    race = {"problem": DIVERGING["problem"],
            "entrants": [{"optimizer": "agd", "hyperparams": DIVERGING["hyperparams"]}]}
    cfg = write_config(tmp_path, race, "race.json")
    assert main(["race", "--config", cfg, "--out", str(tmp_path / "race")]) == 0
    assert capsys.readouterr().err == ""


def test_diverging_sweep_point_warns_nothing(tmp_path, capsys):
    # the diverging point leaves the population without a numpy warning, and
    # the points beside it run on
    cfg = write_config(tmp_path, dict(BASE, **DIVERGING))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--param", "hyperparams.alpha",
                 "--values", "1e-3,1e250,2e-3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert [r.split(",")[3] for r in rows[1:]] == ["completed", "diverged", "completed"]


def test_run_verb_diverging_with_a_huge_step_budget(tmp_path, capsys):
    # the run records the steps it ran, not the budget it was given
    cfg = write_config(tmp_path, dict(BASE, **DIVERGING, steps=1_000_000_000))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "diverged: final loss inf after 2 steps\n"
    assert (out / "trajectory.csv").read_text().splitlines()[1:] == [
        "1,24.199999999999996,inf,0", "2,inf,nan,nan"]


# ---------------------------------------------------------------- sweep verb


def test_sweep_verb(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--param", "hyperparams.delta",
                 "--values", "1e-8,1e-4", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "index,value,seed,status,final_loss"
    assert len(rows) == 3
    for i in range(2):
        point = out / f"point_{i:03d}"
        assert (point / "summary.json").exists()
        assert (point / "trajectory.csv").exists()
    # derived seeds recorded in the csv match the committed formula
    assert int(rows[1].split(",")[2]) == derive_seed(7, 0)
    assert int(rows[2].split(",")[2]) == derive_seed(7, 1)


def test_sweep_extension_keeps_existing_points(tmp_path):
    cfg = write_config(tmp_path, BASE)
    short, full = tmp_path / "s2", tmp_path / "s3"
    assert main(["sweep", "--config", cfg, "--param", "hyperparams.alpha",
                 "--values", "1e-3,2e-3", "--out", str(short)]) == 0
    assert main(["sweep", "--config", cfg, "--param", "hyperparams.alpha",
                 "--values", "1e-3,2e-3,4e-3", "--out", str(full)]) == 0
    a = (short / "point_001" / "trajectory.csv").read_bytes()
    b = (full / "point_001" / "trajectory.csv").read_bytes()
    assert a == b


def _masked_files(out):
    """Every file under out by relative path, wall_time_s masked."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        text = path.read_text()
        if path.name == "summary.json":
            text = re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": X', text)
        files[str(path.relative_to(out))] = text
    return files


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path, BASE)
    values = "1e-8,1e-6,1e-4,1e-3,1e-2,0.1,0.5,2"
    outs = {}
    for jobs in (1, 3, 8):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", cfg, "--param", "hyperparams.delta",
                     "--values", values, "--out", str(out), "--jobs", str(jobs)]) == 0
        outs[jobs] = _masked_files(out)
    assert len(outs[1]) == 1 + 8 * 3  # sweep.csv and three files per point
    assert outs[1] == outs[3] == outs[8]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swaps a serial stand-in for ProcessPoolExecutor that starts no process
    and records the max_workers of each pool asked for."""
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def test_sweep_asks_for_no_more_workers_than_groups(tmp_path, pool_sizes):
    cfg = write_config(tmp_path, BASE)
    # above optim.CHUNK coordinates (4 * 8192 + 1) each point is a group
    wide = dict(MLP, problem=dict(MLP["problem"], hidden_dim=8192), steps=2)
    del wide["epochs"]
    wide_cfg = write_config(tmp_path, wide, "wide.json")
    cases = [(cfg, 5, "1e-3,2e-3,4e-3"), (cfg, 2, "1e-3,2e-3,4e-3"), (cfg, 4, "1e-3"),
             (cfg, 1, "1e-3,2e-3"), (wide_cfg, 3, "1e-3,2e-3")]
    for i, (config, jobs, values) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert main(["sweep", "--config", config, "--param", "hyperparams.alpha",
                     "--values", values, "--out", str(out), "--jobs", str(jobs)]) == 0
    # one pool per sweep with two or more groups, and no more workers than
    # groups; one group runs in this process
    assert pool_sizes == [3, 2, 2]


def test_cli_import_leaves_process_pools_unloaded():
    # only `sweep --jobs N` with N > 1 needs the process pool machinery
    code = "import sys, agdopt.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(agdopt.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_sweep_rejects_unknown_param(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["sweep", "--config", cfg, "--param", "hyperparams.gamma",
                 "--values", "1,2", "--out", str(tmp_path / "o")]) == 2
    assert main(["sweep", "--config", cfg, "--param", "hyperparams.alpha",
                 "--values", "1e-3,zap", "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_sweep_divergent_row_isolated(tmp_path):
    d = dict(BASE)
    d["problem"] = {"kind": "testfn", "name": "rosenbrock"}
    d["optimizer"] = "sgd"
    d["hyperparams"] = {"alpha": 1e-6, "beta1": 0.9}
    cfg = write_config(tmp_path, d)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--param", "hyperparams.alpha",
                 "--values", "1e-6,10", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    statuses = [r.split(",")[3] for r in rows[1:]]
    assert statuses == ["completed", "diverged"]


def test_sweep_failed_group_is_rows_not_a_crash(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    values = "1e-3,2e-3,4e-3,8e-3"
    clean, out = tmp_path / "clean", tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--param", "hyperparams.alpha",
                 "--values", values, "--out", str(clean), "--jobs", "2"]) == 0
    out.mkdir()
    # a plain file where the second group's last point directory goes: its
    # os.makedirs fails in a worker process, and the first group runs on
    (out / "point_003").write_text("in the way\n")
    capsys.readouterr()
    assert main(["sweep", "--config", cfg, "--param", "hyperparams.alpha",
                 "--values", values, "--out", str(out), "--jobs", "2"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "sweep" and error["points"] == [2, 3]
    assert "point_003" in error["message"]
    rows = (out / "sweep.csv").read_text().split("\n")
    clean_rows = (clean / "sweep.csv").read_text().split("\n")
    assert rows[:3] == clean_rows[:3]  # the header and the first group
    assert [r.split(",")[3:] for r in rows[3:5]] == [["error", ""], ["error", ""]]
    assert [r.split(",")[:3] for r in rows[3:5]] == \
        [r.split(",")[:3] for r in clean_rows[3:5]]
    assert rows[5:] == [""]
    files, clean_files = _masked_files(out), _masked_files(clean)
    for point in ("point_000", "point_001"):
        for name in ("trajectory.csv", "histograms.json", "summary.json"):
            key = f"{point}/{name}"
            assert files[key] == clean_files[key]


def test_sweep_over_seed_uses_given_values(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "seeds"
    assert main(["sweep", "--config", cfg, "--param", "seed",
                 "--values", "11,12", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert int(rows[1].split(",")[2]) == 11
    assert int(rows[2].split(",")[2]) == 12


def test_sweep_checks_every_point_before_any_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--param", "hyperparams.beta1",
                 "--values", "0.5,0.9,1.5", "--out", str(out)]) == 2
    message = last_error(capsys)
    assert "beta1" in message and message.count("config.hyperparams") == 1
    assert not out.exists()


@pytest.mark.parametrize("values", ["1e-3,,2e-3", "1e-3,2e-3,"])
def test_sweep_rejects_empty_values(tmp_path, capsys, values):
    # a dropped entry would shift every later point's index and derived seed
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--param", "hyperparams.alpha",
                 "--values", values, "--out", str(out)]) == 2
    assert "--values" in last_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--param", "hyperparams.alpha",
                 "--values", "1e-3,2e-3", "--out", str(out), "--jobs", jobs]) == 2
    assert "jobs" in last_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("values", [[], ()])
def test_sweep_command_refuses_no_values_before_any_work(tmp_path, values):
    # the CLI's --values split never yields an empty list; a library call can
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match="at least one value"):
        sweep_command(BASE, "hyperparams.alpha", values, str(out))
    assert not out.exists()


@pytest.mark.parametrize("jobs", [True, "2", 2.5])
def test_sweep_command_checks_jobs_before_any_work(tmp_path, jobs):
    # True ran as 1 job, "2" raised TypeError, and 2.5 raised TypeError after
    # creating the out directory
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match="jobs must be an integer"):
        sweep_command(BASE, "hyperparams.alpha", [1e-3, 2e-3], str(out), jobs=jobs)
    assert not out.exists()


def test_sweep_seed_keeps_integer_precision(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "seeds"
    assert main(["sweep", "--config", cfg, "--param", "seed",
                 "--values", "9007199254740993", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert rows[1].split(",")[1:3] == ["9007199254740993", "9007199254740993"]


def test_sweep_rejects_fractional_seed_values(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "seeds"
    assert main(["sweep", "--config", cfg, "--param", "seed",
                 "--values", "7.9,8.2", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "seed" in err["message"]
    assert not out.exists()
    assert main(["sweep", "--config", cfg, "--param", "seed",
                 "--values", "7,8", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert [r.split(",")[2] for r in rows[1:]] == ["7", "8"]


def test_run_verb_overlong_integer_literal_exits_2(tmp_path, capsys):
    # beyond Python's int string-conversion limit json raises a plain
    # ValueError, not a JSONDecodeError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE).replace('"seed": 7', '"seed": ' + "9" * 5001))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "sweep", "race"])
@pytest.mark.parametrize("case", ["directory", "deep_nesting"])
def test_unreadable_or_too_deep_config_exits_2(tmp_path, capsys, verb, case):
    # a directory raises IsADirectoryError (an OSError) on open, and nesting
    # deeper than the interpreter's recursion limit a RecursionError in json
    path = tmp_path / "cfg.json"
    if case == "directory":
        path.mkdir()
    else:
        path.write_text("[" * 100_000)
    out = tmp_path / "o"
    extra = ["--param", "alpha", "--values", "1e-3"] if verb == "sweep" else []
    assert main([verb, "--config", str(path), "--out", str(out), *extra]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("verb,case", [
    ("run", "file"), ("sweep", "file"), ("race", "file"),
    ("verify", "directory"), ("verify", "missing_parent"),
])
def test_unusable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, verb, case):
    # an --out that cannot be created (makedirs over a file, a report path
    # that is a directory or lies in a missing one) is a config error, found
    # before the verb's work runs
    import agdopt.cli as cli

    for work in ("record_run", "record_runs", "race", "verify_suite"):
        monkeypatch.setattr(cli, work, lambda *a, _work=work, **k: pytest.fail(f"{_work} ran"))
    out = tmp_path / "o"
    if case == "file":
        out.write_text("kept")
    elif case == "directory":
        out.mkdir()
    else:
        out = tmp_path / "missing" / "report.json"
    race = dict(RACE_QUAD, entrants=[{"optimizer": "agd", "hyperparams": {"alpha": 1e-3}}])
    config = ["--config", write_config(tmp_path, race if verb == "race" else BASE)]
    args = {"run": config, "race": config, "verify": ["--samples", "1000"],
            "sweep": [*config, "--param", "hyperparams.alpha", "--values", "1e-3"]}[verb]
    assert main([verb, *args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "config" and str(out) in err["message"]
    assert captured.out == ""
    if case == "file":
        assert out.read_text() == "kept"
    elif case == "directory":
        assert not any(out.iterdir())
    else:
        assert not out.parent.exists()


# ---------------------------------------------------------------- race verb


def test_race_verb(tmp_path, capsys):
    d = {
        "problem": {"kind": "testfn", "name": "quad_skew"},
        "entrants": [
            {"optimizer": "agd", "hyperparams": {"alpha": 1e-3}},
            {"optimizer": "sgd", "hyperparams": {"alpha": 1e-6, "beta1": 0.9}},
        ],
        "tol": 1e-2,
        "max_steps": 2000,
    }
    cfg = write_config(tmp_path, d)
    out = tmp_path / "race"
    assert main(["race", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "race.json").read_text())
    assert payload["winner"] == "agd"
    assert payload["steps_to_tol"] == {"agd": 1029, "sgd": None}
    printed = capsys.readouterr().out
    assert "agd" in printed and "DNF" in printed


@pytest.mark.parametrize("name", ["rosenbrock", "beale", "quad_skew"])
def test_race_verb_diverging_entrant_is_dnf(tmp_path, capsys, name):
    d = {
        "problem": {"kind": "testfn", "name": name},
        "entrants": [{"optimizer": "agd", "hyperparams": {"alpha": 1e250}}],
        "tol": 1e-2,
        "max_steps": 1000,
    }
    cfg = write_config(tmp_path, d)
    out = tmp_path / "race"
    with np.errstate(over="ignore"):
        assert main(["race", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "race.json").read_text())
    assert payload["steps_to_tol"] == {"agd": None}
    assert payload["winner"] is None
    assert "DNF" in capsys.readouterr().out


def test_race_verb_rejects_mlp_problem(tmp_path):
    d = {
        "problem": MLP["problem"],
        "entrants": [{"optimizer": "agd", "hyperparams": {"alpha": 1e-3}}],
    }
    cfg = write_config(tmp_path, d)
    assert main(["race", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------- verify verb


def test_verify_verb_inconclusive_is_not_failure(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["verify", "--samples", "5000", "--out", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "INCONCLUSIVE" in out and "FAIL" not in out
    payload = json.loads(report.read_text())
    assert payload[0]["passed"] is None


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_verb_nonpositive_samples_exits_2(capsys, samples):
    assert main(["verify", "--samples", samples]) == 2
    assert "samples" in last_error(capsys)


def test_verify_verb_bad_hp_exits_2(capsys):
    assert main(["verify", "--beta2", "1.0"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "beta2" in err["message"]


def test_verify_verb_failure_exits_1(tmp_path, capsys, monkeypatch):
    import agdopt.cli as cli

    def fake_suite(samples, seed, hp):
        return [{"claim": "variance_identity", "parameters": {},
                 "observed": 0.5, "bound": 0.02, "passed": False}]

    monkeypatch.setattr(cli, "verify_suite", fake_suite)
    assert main(["verify", "--samples", "20000"]) == 1
    assert "FAIL" in capsys.readouterr().out
