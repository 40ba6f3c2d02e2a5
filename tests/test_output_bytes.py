"""The exact bytes of every file the CLI writes.

Reruns are byte-identical by contract, and a change to the writers that moves
a byte changes behaviour. These tests pin the layout (one-space indent, one
item per line), floats at 17 significant digits, integral floats without a
fraction, null for non-finite floats and absent values in JSON, and `nan`,
`inf` and `-inf` for non-finite CSV cells.
"""

import hashlib
import json
import math
import re

import numpy as np
import pytest

from agdopt.cli import _histograms_json, _trajectory_csv, main
from agdopt.core import HIST_BINS
from agdopt.diagnostics import Trajectory

QUAD = {
    "problem": {"kind": "testfn", "name": "quad_skew", "start": [2.0, -1.0]},
    "optimizer": "agd",
    "hyperparams": {"alpha": 1e-3},
    "seed": 7,
    "steps": 2,
}


def _run(tmp_path, cfg, argv_verb="run"):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([argv_verb, "--config", str(path), "--out", str(out)]) == 0
    return out


def _masked_summary(out):
    text = (out / "summary.json").read_text()
    masked, n = re.subn(r'"wall_time_s": [^,\n]+', '"wall_time_s": X', text)
    assert n == 1
    return masked


def _hist(t, counts):
    lines = [" {", f'  "t": {t},', '  "counts": [']
    lines += [f"   {c}," for c in counts[:-1]] + [f"   {counts[-1]}", "  ]", " }"]
    return "\n".join(lines)


def test_histograms_json_bytes(tmp_path):
    out = _run(tmp_path, QUAD)
    first = [0] * 17 + [2, 0, 0]
    second = [0] * 16 + [1, 1, 0, 0]
    expected = "[\n" + _hist(1, first) + ",\n" + _hist(2, second) + "\n]\n"
    assert (out / "histograms.json").read_text() == expected
    # the literal layout, spelled out once for the first item's head
    assert (out / "histograms.json").read_text().startswith(
        '[\n {\n  "t": 1,\n  "counts": [\n   0,\n   0,\n')


def test_summary_json_bytes_completed(tmp_path):
    out = _run(tmp_path, QUAD)
    assert _masked_summary(out) == """{
 "status": "completed",
 "steps_run": 2,
 "final_loss": 1.8960040000000005,
 "diverged_at": null,
 "wall_time_s": X,
 "steps_to_tol": null,
 "final_distance": 2.2349905672123125
}
"""


def test_summary_json_bytes_diverged(tmp_path):
    cfg = {"problem": {"kind": "testfn", "name": "rosenbrock"}, "optimizer": "agd",
           "hyperparams": {"alpha": 1e250}, "seed": 0, "steps": 50}
    with np.errstate(over="ignore"):
        out = _run(tmp_path, cfg)
    # the oracle overflows: an infinite final loss is written as null
    assert _masked_summary(out) == """{
 "status": "diverged",
 "steps_run": 2,
 "final_loss": null,
 "diverged_at": 2,
 "wall_time_s": X,
 "steps_to_tol": null
}
"""


def test_race_json_bytes(tmp_path):
    cfg = {
        "problem": {"kind": "testfn", "name": "quad_skew"},
        "entrants": [
            {"optimizer": "agd", "hyperparams": {"alpha": 1e-3}},
            {"optimizer": "sgd", "hyperparams": {"alpha": 1e-6, "beta1": 0.9}},
        ],
        "tol": 1e-2,
        "max_steps": 2000,
    }
    out = _run(tmp_path, cfg, "race")
    assert (out / "race.json").read_text() == """{
 "problem": "quad_skew",
 "tol": 0.01,
 "max_steps": 2000,
 "steps_to_tol": {
  "agd": 1029,
  "sgd": null
 },
 "final_distance": {
  "agd": 0.0099651351368488066,
  "sgd": 2.2034614320210988
 },
 "winner": "agd"
}
"""


def _combos():
    pairs = [(b1, t) for b1 in ("0.5", "0.90000000000000002", "0.98999999999999999")
             for t in (2, 10, 100)]
    return ",\n".join(f"    [\n     {b1},\n     {t}\n    ]" for b1, t in pairs)


def test_verify_report_bytes(tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", "--samples", "5000", "--out", str(report)]) == 0
    assert report.read_text() == """[
 {
  "claim": "variance_identity",
  "parameters": {
   "combos": [
""" + _combos() + """
   ],
   "samples": 5000,
   "seed": 0
  },
  "observed": null,
  "bound": 0.28284271247461901,
  "passed": null
 },
 {
  "claim": "alpha_hat_strictly_decreasing",
  "parameters": {
   "grid_size": 20,
   "T": 100000
  },
  "observed": -1.5803972455913292e-11,
  "bound": 0,
  "passed": true
 },
 {
  "claim": "preconditioner_norm_bound",
  "parameters": {
   "runs": 1000,
   "steps": 500,
   "n": 4,
   "G": 5,
   "delta": 1e-08,
   "beta1": 0.90000000000000002,
   "beta2": 0.999
  },
  "observed": 0.00024025260228224132,
  "bound": 1,
  "passed": true
 },
 {
  "claim": "regret_sublinear",
  "parameters": {
   "dim": 2,
   "horizon": 10000,
   "seed": 0,
   "alpha": 0.5
  },
  "observed": {
   "slope": 0.34079065717052925,
   "final_regret": 15.735245250052854
  },
  "bound": {
   "slope": 0.59999999999999998,
   "final_regret_min": 0
  },
  "passed": true
 }
]
"""


def test_verify_report_bytes_with_a_variance_verdict(tmp_path, capsys):
    # 10k samples is the fewest at which the Monte-Carlo check reaches a
    # verdict; stdout's repr pins each observed float to the bit
    report = tmp_path / "report.json"
    assert main(["verify", "--samples", "10000", "--seed", "0", "--out", str(report)]) == 0
    assert capsys.readouterr().out == (
        "variance_identity              PASS  observed=0.018851445679143725\n"
        "alpha_hat_strictly_decreasing  PASS  observed=-1.580397245591329e-11\n"
        "preconditioner_norm_bound      PASS  observed=0.00024025260228224132\n"
        "regret_sublinear               PASS  observed={'slope': 0.34079065717052925,"
        " 'final_regret': 15.735245250052854}\n")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "d1876397319e791a1276209d70c4ea89e2cdbda983b3c95042c044b6e22a15c1")


def _run_digest(out):
    """The sha256 of a run's trajectory.csv, histograms.json and masked
    summary.json."""
    digest = hashlib.sha256()
    for text in ((out / "trajectory.csv").read_text(),
                 (out / "histograms.json").read_text(), _masked_summary(out)):
        digest.update(text.encode())
    return digest.hexdigest()


# MLP runs, pinned by the sha256 of trajectory.csv, histograms.json and the
# masked summary.json. Ten points in batches of 4 leave a trailing batch of 2;
# hidden_dim 16384 (n = 65537 with the logistic head) spans several kernel
# chunks with a one-element tail.
MLP_CASES = {
    # (activation, loss, batch_size, optimizer, weight_decay, hidden_dim)
    ("tanh", "logistic", 1, "agd", 0.0, 6):
        "a9d61830d084892989bbca011b8e3da9141a54c3ab46be06aa2d0a9172ec5c76",
    ("relu", "softmax_ce", 4, "agd", 0.01, 6):
        "8f0fb261dc9a81a1cedce26c924b712a1226560da6bc9de2e75b7616e33ae1fb",
    ("tanh", "squared", 4, "agd_amsgrad", 0.0, 6):
        "5fe6652ea90479a6360d9ca130352e9bbd92a284eab5c2190582711128f7b309",
    ("relu", "logistic", 1, "agd_amsgrad", 0.01, 6):
        "95464d0115ba80936c115c3ffe0a2ff290c16acff67ebc0274c29545c0739e83",
    ("tanh", "softmax_ce", 4, "adam", 0.0, 6):
        "29b143bc9ee6998790d49d3c8be71b3a52c401d9c418fec8cd8047ca466f90b5",
    ("relu", "squared", 1, "adam", 0.01, 6):
        "e8be678ca1bf1d899c17d285c12f432abd1ff38b7287d8513981eee238a5f94e",
    ("tanh", "logistic", 4, "adamw", 0.0, 6):
        "739b354d9546f1f00e2968f7c1d8f419d5df7d17c58eb768858c87c5e157d8f4",
    ("relu", "softmax_ce", 1, "adamw", 0.01, 6):
        "1cc3579d6f6f8646086b086e8aebd1ab3cd88c4d108c3ba5d3d3d302c79c5b1b",
    ("tanh", "squared", 1, "adabelief", 0.0, 6):
        "d7ecec25d20008a36cdc0ce653d5ab4234068c415bf9e0391517d3598731ded3",
    ("relu", "logistic", 4, "adabelief", 0.01, 6):
        "32fe8490a653eb407a902b278c715554bc5b3e8d9502f3ba460283bc4250be33",
    ("tanh", "softmax_ce", 1, "sgd", 0.0, 6):
        "7c7a3f8c32dd782f8b71f819487df0aba743bb24a6a55597f37390e99a7f598a",
    ("relu", "squared", 4, "sgd", 0.01, 6):
        "849e05b0b94457f2e08565ece77d2754c0c8f8b018f0d975812880541c444d01",
    ("tanh", "logistic", 1, "agd", 0.01, 16384):
        "519c24ce4143136476c336416affac0c6ff84c7a10456c387fac7eda16479392",
    ("relu", "logistic", 4, "agd_amsgrad", 0.0, 16384):
        "e7f38e69e8e76cda9b975cf1c6bdbf869bc627fd9dadc1ea61c1c59330664965",
    ("relu", "softmax_ce", 1, "adam", 0.01, 16384):
        "9a218a26a7a892dba8040a4e87db93c318e1f5d0d0ec295eb558a35033ca2fd2",
    ("tanh", "squared", 4, "adabelief", 0.0, 16384):
        "b96bf4575ea4fc0b14879f9e31d388059ae7c9f71b127942d816b2f2824d4102",
    ("tanh", "softmax_ce", 1, "sgd", 0.01, 16384):
        "dc1e8cc5234117f88ffeeef44a2516ce903505532c768922597e693531d8301e",
    ("relu", "squared", 4, "adamw", 0.01, 16384):
        "e529ae64f689c1cc1b767301b64f6d667fd71fbdc393ccd4fcc8f92dafffd2f7",
    # a seventh entry is the beta1 schedule, so B_t is no power of beta1
    ("tanh", "logistic", 4, "agd", 0.0, 16384, "over_t"):
        "46ef2bc4fa25287e06ca0b88f7c95a4ab0ee0bbc191ef8bd7a85bc87065cb0c1",
}


@pytest.mark.parametrize("case", sorted(MLP_CASES), ids=lambda c: "-".join(map(str, c)))
def test_mlp_run_bytes(tmp_path, case):
    activation, loss, batch, optimizer, wd, hidden, *schedule = case
    cfg = {
        "problem": {"kind": "mlp", "hidden_dim": hidden, "activation": activation,
                    "loss": loss, "dataset": {"name": "two_moons", "n": 10},
                    "batch_size": batch},
        "optimizer": optimizer,
        "hyperparams": {"alpha": 1e-2, "weight_decay": wd},
        "seed": 5,
        "steps": 7,
        "snapshot_every": 3,
    }
    if schedule:
        cfg["hyperparams"]["beta1_schedule"] = schedule[0]
    assert _run_digest(_run(tmp_path, cfg)) == MLP_CASES[case]


# Sweeps, pinned by the sha256 of every file under --out (paths included),
# with wall_time_s masked in each point's summary.json.
def _sweep_digest(out):
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        text = path.read_text()
        if path.name == "summary.json":
            text, n = re.subn(r'"wall_time_s": [^,\n]+', '"wall_time_s": X', text)
            assert n == 1
        digest.update(f"{path.relative_to(out)}\n{text}".encode())
    return digest.hexdigest()


SWEEP_CASES = {
    # an agd alpha sweep on rosenbrock whose last point overflows at step 2
    "agd-rosenbrock-alpha": (
        {"problem": {"kind": "testfn", "name": "rosenbrock"}, "optimizer": "agd",
         "hyperparams": {"alpha": 1e-3}, "seed": 3, "steps": 40, "snapshot_every": 3},
        "hyperparams.alpha", "1e-3,2e-2,0.3,1e250",
        "414d6b9da1a47696f666d4f03c93de21961b663db7ca2f63fe188c57cfe72783"),
    "adamw-quad_skew-weight_decay": (
        {"problem": {"kind": "testfn", "name": "quad_skew", "start": [2.0, -1.0]},
         "optimizer": "adamw", "hyperparams": {"alpha": 1e-2}, "seed": 4,
         "steps": 25, "snapshot_every": 5},
        "hyperparams.weight_decay", "0,1e-2,0.5",
        "710209a5ba7227df0847537179966c4142ae204706a02d9ebc03803bc1aea66c"),
    "regret-seed": (
        {"problem": {"kind": "regret", "dim": 3}, "optimizer": "agd_amsgrad",
         "hyperparams": {"alpha": 0.5, "lr_schedule": "inverse_sqrt",
                         "beta1_schedule": "over_t"},
         "seed": 0, "steps": 30, "snapshot_every": 10},
        "seed", "3,4,5",
        "c5e9bfbc933c0651e4f9c5e94fbc78e31c77c0882a8a2642b041ef76adccf980"),
    # an adabelief population whose rows differ in beta1_t, with decoupled
    # decay; its beta1 = 0 point diverges
    "adabelief-beale-beta1": (
        {"problem": {"kind": "testfn", "name": "beale", "start": [1.0, 1.0]},
         "optimizer": "adabelief", "hyperparams": {"alpha": 1e-2, "weight_decay": 1e-3},
         "seed": 2, "steps": 30, "snapshot_every": 4},
        "hyperparams.beta1", "0,0.5,0.9,0.99",
        "432c9a49d29684fcec9b37cb6fbb3c830ae2b38dc857dd0f038a9579a6150ee7"),
    # an agd population whose rows carry a B_t column under a decaying beta1
    "agd-beale-beta1": (
        {"problem": {"kind": "testfn", "name": "beale", "start": [1.0, 1.0]},
         "optimizer": "agd",
         "hyperparams": {"alpha": 1e-2, "beta1_schedule": "over_sqrt_t",
                         "weight_decay": 1e-3},
         "seed": 2, "steps": 60, "snapshot_every": 4},
        "hyperparams.beta1", "0,0.5,0.9,0.99",
        "a8ec72e04ad3b433e7aff54f0d27c53bac52822ee7f854a34b652314a445596a"),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_bytes(tmp_path, case):
    cfg, param, values, expected = SWEEP_CASES[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--param", param,
                 "--values", values, "--out", str(out)]) == 0
    assert _sweep_digest(out) == expected


# A long run, pinned like the MLP runs: 2500 rows of trajectory.csv and 2500
# histograms span several of the writers' blocks, with a partial last one.
def test_long_run_bytes(tmp_path):
    cfg = {"problem": {"kind": "testfn", "name": "rosenbrock"}, "optimizer": "agd",
           "hyperparams": {"alpha": 1e-3}, "seed": 0, "steps": 2500, "snapshot_every": 1}
    assert _run_digest(_run(tmp_path, cfg)) == \
        "b9628f13de2d3330a494d5ef09c4c5ef06c7f39bf7c6321a7776a5753954f7ca"


# A lone run on the float lane (n = 2) under a decaying beta1, pinned the same
# way: the debiasing terms of consecutive steps differ at every step.
def test_float_lane_run_bytes(tmp_path):
    cfg = {"problem": {"kind": "testfn", "name": "rosenbrock"},
           "optimizer": "agd_amsgrad",
           "hyperparams": {"alpha": 1e-3, "beta1_schedule": "over_sqrt_t"},
           "seed": 0, "steps": 3000, "snapshot_every": 7}
    assert _run_digest(_run(tmp_path, cfg)) == \
        "1c7580eaa2229063e3a4f82606a92a5bd48ae76c0cc89b853571b474deae36d0"


def test_diverging_run_csv_tokens(tmp_path):
    cfg = {"problem": {"kind": "testfn", "name": "rosenbrock"}, "optimizer": "agd",
           "hyperparams": {"alpha": 1e250}, "seed": 0, "steps": 50}
    with np.errstate(over="ignore"):
        out = _run(tmp_path, cfg)
    # the diverging step: an overflowed loss, and no step
    assert (out / "trajectory.csv").read_text().splitlines()[-1] == "2,inf,nan,nan"


# The writers as they were before they formatted from one template per block:
# per-row f-strings, the reference that the template writers must match.
def _reference_trajectory_csv(traj) -> str:
    rows = [f"{t},{f:.17g},{sn:.17g},{tf:.17g}" for t, (f, sn, tf) in enumerate(zip(
        traj.loss.tolist(), traj.step_norm.tolist(), traj.truncation_fraction.tolist()), 1)]
    rows.insert(0, "t,loss,step_norm,truncation_fraction")
    rows.append("")
    return "\n".join(rows)


def _reference_histograms_json(traj) -> str:
    hist_t, hists = traj.hist_t.tolist(), []
    for lo in range(0, len(hist_t), 1024):
        hists += [f' {{\n  "t": {t},\n  "counts": [\n   ' + ",\n   ".join(map(str, counts))
                  + "\n  ]\n }" for t, counts in zip(hist_t[lo:lo + 1024],
                                                  traj.hists[lo:lo + 1024].tolist())]
    if not hists:
        return "[]\n"
    hists[0] = "[\n" + hists[0]
    hists[-1] += "\n]\n"
    return ",\n".join(hists)


SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, 1.0, 0.5)


def _synthetic(steps: int, hists, hist_t=None) -> Trajectory:
    """`steps` rows whose columns cycle through SPECIAL (10 values, so with a
    stride of 3 every column takes every value), and the given histograms."""
    cells = np.resize(np.array(SPECIAL), 3 * steps)
    hists = np.asarray(hists, dtype=np.int64).reshape(-1, HIST_BINS)
    if hist_t is None:
        hist_t = np.arange(1, len(hists) + 1)
    return Trajectory(loss=cells[0::3], step_norm=cells[1::3],
                      truncation_fraction=cells[2::3], hist_t=np.asarray(hist_t),
                      hists=hists, params=np.zeros(2))


def _many_hists(rows: int) -> np.ndarray:
    """`rows` histograms drawn from 6 distinct rows, half of them equal to
    another but for the last count."""
    rng = np.random.default_rng(0)
    base = rng.integers(0, 4, size=(3, HIST_BINS))
    near = base.copy()
    near[:, -1] += 1
    return np.concatenate([base, near])[rng.integers(0, 6, size=rows)]


def _boundary_hists() -> np.ndarray:
    # the narrowest count types of record_runs change at 256 and 65536
    rows = np.zeros((6, HIST_BINS), dtype=np.int64)
    rows[:, 0] = (255, 256, 65535, 65536, 2**32, 255)
    rows[:, -1] = (1, 255, 256, 65536, 0, 1)
    return np.asfortranarray(rows)  # the writer must not assume C order


WRITER_CASES = {
    "special-cells": lambda: _synthetic(12, [0] * 17 + [2, 0, 0], [12]),
    "diverged-at-step-1": lambda: Trajectory(
        loss=np.array([math.inf]), step_norm=np.array([math.nan]),
        truncation_fraction=np.array([math.nan]), hist_t=np.zeros(0, dtype=np.int64),
        hists=np.zeros((0, HIST_BINS), dtype=np.int64), params=np.zeros(2),
        diverged=True, diverged_at=1),
    "one-row": lambda: _synthetic(1, [1] * HIST_BINS),
    "count-type-boundaries": lambda: _synthetic(6, _boundary_hists()),
    "2500-rows": lambda: _synthetic(2500, _many_hists(2500)),
    "1024-rows": lambda: _synthetic(1024, _many_hists(1024)),
    "1025-rows": lambda: _synthetic(1025, _many_hists(1025)),
    "sparse-snapshots": lambda: _synthetic(3000, _many_hists(3), [1000, 2000, 3000]),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_writers_match_reference(case):
    traj = WRITER_CASES[case]()
    assert _trajectory_csv(traj) == _reference_trajectory_csv(traj)
    assert _histograms_json(traj) == _reference_histograms_json(traj)


def test_writer_tokens():
    traj = _synthetic(4, [0] * HIST_BINS)
    assert _trajectory_csv(traj) == (
        "t,loss,step_norm,truncation_fraction\n"
        "1,nan,inf,-inf\n"
        "2,-0,0,4.9406564584124654e-324\n"
        "3,1e+308,0.10000000000000001,1\n"
        "4,0.5,nan,inf\n")
    assert _histograms_json(WRITER_CASES["diverged-at-step-1"]()) == "[]\n"
