"""Output checks. A failed check names the file, and the failure is charged to
the CLI call that wrote it, so ``failed`` counts calls, not checks."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from workloads import Workload

ROC_BAND_POINTS = 101


def data_rows(path: Path) -> int | None:
    """Rows below the header of an LF-terminated CSV, or None when the file
    is missing or its last line is cut short."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    if not data.endswith(b"\n"):
        return None
    return data.count(b"\n") - 1


def _expect_rows(path: Path, expected: int, failures: list) -> None:
    rows = data_rows(path)
    if rows != expected:
        failures.append((path, f"{rows} data rows, expected {expected}"))


def _column(path: Path, name: str, dtype):
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=header.index(name),
                      dtype=dtype, ndmin=1)


def _check_summary(wl: Workload, setup: Path, out: Path, failures: list) -> None:
    from pcrboost.metrics import ScoredLabels, auroc

    summary = out / "eval_summary.csv"
    try:
        with open(summary, newline="") as fh:
            rows = {r["metric"]: r for r in csv.DictReader(fh)}
        point = float(rows["auroc"]["point"])
        scores = _column(out / "scores.csv", "score", np.float64)
        labels = _column(setup / "test.csv", "label", np.uint8)
        recomputed = auroc(ScoredLabels(scores, labels))
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        failures.append((summary, f"cannot recompute auroc: {exc!r}"))
        return
    if point != recomputed:
        failures.append((summary, f"auroc {point!r} != {recomputed!r} from scores.csv"))
    if wl.bootstrap:
        lo, hi = float(rows["auroc"]["lo"] or "nan"), float(rows["auroc"]["hi"] or "nan")
        if not lo <= point <= hi:
            failures.append((summary, f"auroc {point!r} outside [{lo!r}, {hi!r}]"))
    distinct = len(np.unique(scores))
    _expect_rows(out / "eval_thresholds.csv", distinct, failures)


def check_setup(wl: Workload, setup: Path) -> list:
    failures: list = []
    _expect_rows(setup / "train.csv", wl.n_train, failures)
    _expect_rows(setup / "test.csv", wl.n_scored, failures)
    _expect_outputs(wl.setup, setup, setup, failures)
    return failures


def check_pass(wl: Workload, setup: Path, out: Path) -> list:
    failures: list = []
    _expect_outputs(wl.timed, setup, out, failures)
    _expect_rows(out / "shap.csv", 8 * wl.n_scored, failures)
    if wl.bootstrap:
        _expect_rows(out / "eval_roc_band.csv", ROC_BAND_POINTS, failures)
    if data_rows(out / "scores.csv") == wl.n_scored:
        _check_summary(wl, setup, out, failures)
    else:  # the summary cannot be checked against a broken scores.csv
        _expect_rows(out / "scores.csv", wl.n_scored, failures)
    return failures


def _expect_outputs(steps, setup: Path, out: Path, failures: list) -> None:
    for step in steps:
        for template in step.outputs:
            path = Path(template.format(setup=setup, out=out))
            if not path.is_file():
                failures.append((path, "missing"))


def _digests(root: Path) -> dict[str, str]:
    # manifests carry wall-clock durations and paths; the determinism
    # contract excludes them
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }


def compare_dirs(reference: Path, other: Path) -> list:
    """Files of `other` that are missing from, extra to, or differ from
    `reference` (byte comparison, manifests excluded)."""
    ref, got = _digests(reference), _digests(other)
    return [(other / name, "differs from the same-seed reference")
            for name in sorted(set(ref) | set(got)) if ref.get(name) != got.get(name)]


def charge(failures: list, steps, setup: Path, out: Path) -> set[int]:
    """Indices of the steps that wrote a failing file. A file no step
    declares is charged to the last step."""
    owner = {}
    for i, step in enumerate(steps):
        for template in step.outputs:
            owner[Path(template.format(setup=setup, out=out))] = i
    return {owner.get(path, len(steps) - 1) for path, _ in failures}
