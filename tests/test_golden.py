"""Golden digests: the README quick start, at a tenth of its scale, writes fixed bytes.

Each seed runs the commands of README "Quick start" in process through `cli.main`, as
`oracles.tenth_scale_quickstart` derives them: record counts and resamples a tenth of
the README's, every seed derived from the run's seed. The sha256 of every output file
except the manifests (whose durations vary) must equal its entry in `golden_digests.json`,
so an edit to a quick-start command changes a digest and fails here.

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
from oracles import tenth_scale_quickstart

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEEDS = (1, 2, 3)


def quickstart(root: Path, seed: int) -> None:
    """The README quick start in `root`, at a tenth of its scale, for run `seed`."""
    cwd = os.getcwd()
    os.chdir(root)  # relative paths, as typed in the README
    try:
        for argv in tenth_scale_quickstart(seed):
            assert main(argv) == 0, argv
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
