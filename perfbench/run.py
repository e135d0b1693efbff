"""pcrboost benchmark: drives the ``pcrboost`` CLI the way a user does.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 40 --trace 0

One client, closed loop: one CLI child at a time, each timed wall clock
including process start and normalized by a fixed reference task run between
the calls; each child's peak RSS is read from its own rusage. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the workload's pass
in-process, once without and once with spans, and prints the per-layer split.
The last line of stdout is the JSON result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import stats
import tracing
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# Normalized times are "seconds at reference speed": each call's wall time
# times REFERENCE_S over the median time of the reference task run before,
# between and after the calls of its pass (or set-up). CPU speed on a shared
# host drifts by up to 1.7x over tens of seconds; the interleaved reference
# runs see the same drift. REFERENCE_S is the reference task's median on the
# machine the benchmark was defined on.
REFERENCE_S = 0.33
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
COMMAND_METRICS = {"train": "train_s", "predict": "predict_s", "explain": "explain_s",
                   "evaluate": "evaluate_s", "plot": "plot_s"}


def import_program() -> str:
    """Import pcrboost from this checkout's src/ and return that directory as
    an absolute path, derived from pcrboost.__file__, for the children's
    PYTHONPATH (children run in other directories)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pcrboost
        import pcrboost.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pcrboost from {src}: {exc}")
    pkg_src = Path(pcrboost.__file__).resolve().parent.parent
    if pkg_src != src.resolve():
        raise SystemExit(f"perfbench: pcrboost imported from {pkg_src}, not {src}")
    return str(pkg_src)


@dataclass
class Call:
    command: str
    seconds: float  # wall clock, process start included
    rss_mb: float  # the child's own peak RSS
    exit_code: int
    norm_s: float = 0.0  # seconds at reference speed


class Runner:
    """Runs children one at a time; records every CLI call."""

    def __init__(self, src_dir: str, log_path: Path):
        extra = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src_dir + (os.pathsep + extra if extra else ""))
        self.log_path = log_path
        self.calls: list[Call] = []
        self.reference_s: list[float] = []

    def child(self, command: str, argv: list[str], cwd: Path) -> Call:
        with open(self.log_path, "ab") as log:
            offset = log.tell()
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=log)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        call = Call(command, elapsed, usage.ru_maxrss / 1024.0, proc.returncode)
        if call.exit_code != 0:
            with open(self.log_path, "rb") as log:
                log.seek(offset)
                tail = log.read()[-2000:].decode(errors="replace")
            print(f"perfbench: {command} exited {call.exit_code}: {tail}", file=sys.stderr)
        return call

    def cli(self, argv: list[str], cwd: Path) -> Call:
        call = self.child(argv[0], [sys.executable, "-m", "pcrboost.cli", *argv], cwd)
        self.calls.append(call)
        return call

    def reference(self, cwd: Path) -> float:
        call = self.child("reference", [sys.executable, str(REFERENCE)], cwd)
        if call.exit_code != 0:
            raise SystemExit("perfbench: the reference task failed")
        self.reference_s.append(call.seconds)
        return call.seconds


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def report_failures(failures: list) -> None:
    for path, message in failures:
        print(f"perfbench: check failed: {path}: {message}", file=sys.stderr)


def run_steps(runner: Runner, steps, setup: Path, out: Path) -> list[Call]:
    """Run the steps with the reference task before, between and after them;
    normalize the calls by the median reference time of the group."""
    out.mkdir(parents=True, exist_ok=True)
    refs = [runner.reference(out)]
    calls = []
    for step in steps:
        calls.append(runner.cli(step.argv(str(setup), str(out)), out))
        refs.append(runner.reference(out))
    scale = REFERENCE_S / statistics.median(refs)
    for call in calls:
        call.norm_s = call.seconds * scale
    return calls


def failed_steps(calls: list[Call], failures: list, steps, setup: Path, out: Path) -> int:
    report_failures(failures)
    bad = checks.charge(failures, steps, setup, out)
    bad |= {i for i, call in enumerate(calls) if call.exit_code != 0}
    return len(bad)


def set_up(wl: Workload, runner: Runner, work: Path, repeats: int):
    """Run the set-up `repeats` times; return its call groups, the failed
    count and the first set-up's directory, which the passes read."""
    groups, failed = [], 0
    first = work / "setup0"
    for k in range(repeats):
        d = work / f"setup{k}"
        calls = run_steps(runner, wl.setup, d, d)
        groups.append(calls)
        failures = checks.check_setup(wl, d)
        if k:
            failures += checks.compare_dirs(first, d)
            shutil.rmtree(d)
        failed += failed_steps(calls, failures, wl.setup, d, d)
    return groups, failed, first


def run_timed(wl: Workload, runner: Runner, work: Path, seconds: float):
    """Set up, then run passes until `seconds` would be exceeded (at least
    one). Returns per-metric samples as (normalized, measured) lists."""
    setup_groups, failed, setup = set_up(wl, runner, work, SETUP_REPEATS)
    pass_groups: list[list[Call]] = []
    first = work / "pass0"
    started = time.perf_counter()
    while not pass_groups or (time.perf_counter() - started) * (
            1 + 1 / len(pass_groups)) <= seconds:
        out = work / f"pass{len(pass_groups)}"
        calls = run_steps(runner, wl.timed, setup, out)
        pass_groups.append(calls)
        failures = checks.check_pass(wl, setup, out)
        if out != first:
            failures += checks.compare_dirs(first, out)
            shutil.rmtree(out)
        failed += failed_steps(calls, failures, wl.timed, setup, out)

    def sums(groups, command=None):
        picked = [[c for c in g if command in (None, c.command)] for g in groups]
        return ([sum(c.norm_s for c in g) for g in picked if g],
                [sum(c.seconds for c in g) for g in picked if g])

    samples = {"setup_s": sums(setup_groups), "wall_s": sums(pass_groups)}
    rss = [max(c.rss_mb for c in g) for g in pass_groups]
    samples["peak_rss_mb"] = (rss, rss)
    for command, name in COMMAND_METRICS.items():
        # per pass, or per set-up for screen's train: the command's calls summed
        in_pass = sums(pass_groups, command)
        samples[name] = in_pass if in_pass[0] else sums(setup_groups, command)
    return samples, len(runner.calls), failed


def in_process_pass(wl: Workload, setup: Path, out: Path, rec=None):
    """Run the timed pass through pcrboost.cli.main; return (wall seconds,
    exit codes). With a recorder, each main() call is a `cli` span."""
    from pcrboost import cli

    out.mkdir(parents=True)
    codes = []
    started = time.perf_counter()
    for step in wl.timed:
        argv = step.argv(str(setup), str(out))
        try:
            codes.append(rec.call("cli", "main", cli.main, argv) if rec else cli.main(argv))
        except Exception:  # a traceback is a failed call, not a benchmark crash
            traceback.print_exc()
            codes.append(1)
    return time.perf_counter() - started, codes


def input_shares(setup: Path, out: Path) -> dict[str, float]:
    """Records per (pattern, label) cell of the training set, per distinct
    feature row of the scored set, and per distinct score."""
    train = np.loadtxt(setup / "train.csv", delimiter=",", skiprows=1, dtype=np.uint8)
    scored = np.loadtxt(setup / "test.csv", delimiter=",", skiprows=1, dtype=np.uint8)
    scores = np.loadtxt(out / "scores.csv", delimiter=",", skiprows=1, usecols=1)
    return {
        "input.records_per_cell": len(train) / len(np.unique(train, axis=0)),
        "input.records_per_row": len(scored) / len(np.unique(scored[:, :8], axis=0)),
        "input.records_per_score": len(scores) / len(np.unique(scores)),
    }


def run_traced(wl: Workload, runner: Runner, work: Path):
    _, failed, setup = set_up(wl, runner, work, 1)
    imports = [runner.child("import", [sys.executable, "-c", "import pcrboost.cli"], work)
               for _ in range(IMPORT_REPEATS)]
    failed += sum(call.exit_code != 0 for call in imports)

    plain_dir, traced_dir = work / "plain", work / "traced"
    plain_s, plain_codes = in_process_pass(wl, setup, plain_dir)
    rec = tracing.Recorder()
    with tracing.traced(rec):
        traced_s, traced_codes = in_process_pass(wl, setup, traced_dir, rec)
    for out, codes in ((plain_dir, plain_codes), (traced_dir, traced_codes)):
        failures = checks.check_pass(wl, setup, out)
        if out == traced_dir:
            failures += checks.compare_dirs(plain_dir, traced_dir)
        failed += failed_steps([Call(s.command, 0.0, 0.0, c) for s, c in zip(wl.timed, codes)],
                               failures, wl.timed, setup, out)

    metrics = {"cli.import_s": statistics.median(c.seconds for c in imports)}
    metrics.update(tracing.layer_metrics(rec))
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    metrics.update({
        "trace.pass_s": traced_s,
        "trace.untraced_pass_s": plain_s,
        "trace.overhead_s": traced_s - plain_s,
        "trace.unattributed_s": traced_s - self_sum,
        "trace.spans": len(rec.spans),
    })
    # layer self times must account for the traced pass's wall time, up to
    # the loop between main() calls, which is far below the tracing overhead
    consistent = abs(traced_s - self_sum) <= abs(traced_s - plain_s) + 1e-3
    if not consistent:
        print(f"perfbench: layer self times sum to {self_sum!r} s, traced pass took "
              f"{traced_s!r} s", file=sys.stderr)
    metrics.update(input_shares(setup, plain_dir))
    attempted = len(runner.calls) + len(imports) + 2 * len(wl.timed)
    return metrics, attempted, failed, consistent


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.startswith("input."):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src_dir = import_program()
    wl = WORKLOADS[args.workload](args.seed)
    work_root = ROOT / "perfbench" / ".work"
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=wl.name + "-", dir=work_root))
    runner = Runner(src_dir, work / "children.log")
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine()))
    try:
        if args.trace:
            values, attempted, failed, consistent = run_traced(wl, runner, work)
            metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
            for name, m in metrics.items():
                print(f"{name:32s} {m['value']:.6g} {m['unit']}")
        else:
            samples, attempted, failed = run_timed(wl, runner, work, args.seconds)
            consistent = True
            metrics = {}
            for name, (normalized, measured) in samples.items():
                unit = "MB" if name == "peak_rss_mb" else "s"
                summary = stats.summarize(normalized)
                metrics[name] = {"value": summary.p50, "unit": unit}
                line = f"{name:12s} {stats.describe(summary, unit)}"
                if normalized is not measured:
                    line += f"; measured {stats.describe(stats.summarize(measured), unit)}"
                print(line)
            print(f"{'reference':12s} {stats.describe(stats.summarize(runner.reference_s), 's')}"
                  f"; nominal {REFERENCE_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{'error_rate':12s} {failed / attempted:.6g} ratio ({failed} of {attempted} "
          f"operations failed)")
    correct = failed == 0 and consistent
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
