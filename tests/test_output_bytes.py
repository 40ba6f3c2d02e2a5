"""The exact bytes of every JSON file the CLI writes.

Reruns are byte-identical by contract, and a change to the writers that moves
a byte changes behaviour. These tests pin the layout (one-space indent, one
item per line), floats at 17 significant digits, integral floats without a
fraction, and null for non-finite floats and absent values.
"""

import json
import re

import numpy as np

from agdopt.cli import main

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
