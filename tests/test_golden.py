"""Golden digests: the README quick start, at a tenth of its scale, writes fixed bytes.

Each seed runs the quick start's commands in process through `cli.main`:
two synthesized datasets (476/4,706 and 362/4,377 records), a default
training, predict, explain, an evaluation with a tenth of its resamples and
the ROC band, three charts and the reporting-bias study. The sha256 of every
output file except the manifests (whose durations vary) must equal its entry
in `golden_digests.json`.

A changed digest is a changed output: it is listed in CHANGES.md and README
"Determinism", and the file is never rewritten to turn a failing run green.
NumPy picks its `exp` code by CPU at run time, and the digests of model.json
and of every output read from it hold for the dispatch targets they were
recorded under; a failure names the run's targets beside the recorded ones.
To record a deliberate change, run `PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from pcrboost.cli import main

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEEDS = (1, 2, 3)


def quickstart(root: Path, seed: int) -> None:
    """The README quick start in `root`; seeds derive from `seed` as in perfbench."""
    base = 1000 * seed
    commands = [
        ["synth", "--n-pos", "476", "--n-neg", "4706", "--seed", base + 1, "--out", "train.csv"],
        ["synth", "--n-pos", "362", "--n-neg", "4377", "--seed", base + 2, "--out", "test.csv"],
        ["train", "--data", "train.csv", "--out-model", "model.json", "--seed", seed],
        ["predict", "--model", "model.json", "--data", "test.csv", "--out", "scores.csv"],
        ["explain", "--model", "model.json", "--data", "test.csv", "--out", "shap.csv"],
        ["evaluate", "--model", "model.json", "--data", "test.csv", "--out-prefix", "eval_",
         "--bootstrap", "100", "--seed", base + 7, "--roc-band"],
        ["plot", "--kind", "roc", "--in", "eval_thresholds.csv", "--band", "eval_roc_band.csv",
         "--out", "roc.svg"],
        ["plot", "--kind", "pr", "--in", "eval_thresholds.csv", "--out", "pr.svg"],
        ["plot", "--kind", "beeswarm", "--in", "shap.csv", "--seed", base + 4,
         "--out", "beeswarm.svg"],
        ["simulate-bias", "--data", "test.csv", "--out-dir", "bias", "--seed", base + 3,
         "--fractions", "0.25,0.5,0.75"],
    ]
    cwd = os.getcwd()
    os.chdir(root)  # relative paths, as typed in the README
    try:
        for argv in commands:
            assert main([str(a) for a in argv]) == 0, argv
    finally:
        os.chdir(cwd)


def digests(root: Path) -> dict[str, str]:
    """sha256 of every output below root, manifests left out, by relative path."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and not path.name.endswith("manifest.json")}


def environment() -> dict[str, str]:
    try:  # NumPy 2
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy 1
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {"platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__,
            "numpy_cpu_dispatch": " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))}


@pytest.mark.parametrize("seed", SEEDS)
def test_quickstart_digests(seed, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    quickstart(tmp_path, seed)
    got, want = digests(tmp_path), golden["digests"][str(seed)]
    assert sorted(got) == sorted(want), f"seed {seed}: output files differ"
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, (f"seed {seed}: digest of {', '.join(changed)} differs; recorded under "
                         f"{golden['environment']}, run under {environment()}")


if __name__ == "__main__":
    import tempfile

    recorded = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            quickstart(Path(tmp), seed)
            recorded[str(seed)] = digests(Path(tmp))
    GOLDEN.write_text(json.dumps({"environment": environment(), "digests": recorded},
                                 indent=2) + "\n", encoding="utf-8")
