"""Command-line pipeline: synth, train, predict, explain, evaluate, simulate-bias, plot.

Exit codes: 0 success, 2 parse/format errors, 3 contract violations,
4 I/O failures. Every successful run writes a JSON manifest alongside
its outputs. Randomized commands require an explicit --seed; nothing
defaults to wall-clock entropy.

A --config file holds key=value lines (keys are long flag names, dashes
or underscores). Each becomes a --key=value token after the command name,
which argparse types, checks and requires as it does a flag; explicit
flags come later and so win. Abbreviated flags are refused.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import os
import sys
import time
from importlib import import_module

from . import __version__
from .errors import ContractError, DataFormatError
from .formatting import PatternRows, fmt_real, read_table, write_csv


def _deferred(module: str, name: str):
    """pcrboost.<module>.<name>, imported when first called: a command loads only its layers."""
    def call(*args, **kwargs):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    return call


# layer entry points, called as module globals so that a traced run can wrap them
load_csv = _deferred("dataset", "load_csv")
marginals_from = _deferred("dataset", "marginals_from")
reference_marginals = _deferred("dataset", "reference_marginals")
reporter_positive_rate = _deferred("dataset", "reporter_positive_rate")
save_csv = _deferred("dataset", "save_csv")
simulate_bias = _deferred("dataset", "simulate_bias")
synthesize = _deferred("dataset", "synthesize")
fit = _deferred("gbm", "fit")
load_model = _deferred("gbm", "load_model")
save_model = _deferred("gbm", "save_model")
explain_dataset = _deferred("shap", "explain_dataset")
ScoredLabels = _deferred("metrics", "ScoredLabels")
aupr = _deferred("metrics", "aupr")
auroc = _deferred("metrics", "auroc")
threshold_report = _deferred("metrics", "threshold_report")
unique_thresholds = _deferred("metrics", "unique_thresholds")
beeswarm_svg_parts = _deferred("plots", "beeswarm_svg_parts")
render_curve_svg = _deferred("plots", "render_curve_svg")


def _fractions_arg(raw: str):
    tokens = [t for t in raw.split(",") if t]
    if not tokens:
        raise argparse.ArgumentTypeError("empty fractions list")
    out = []
    for token in tokens:
        try:
            value = float(token)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad fraction {token!r}") from None
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError(f"fraction {token!r} outside [0,1]")
        if any(value == seen for _, seen in out):
            raise argparse.ArgumentTypeError(f"fraction {token!r} repeated")
        out.append((token, value))
    return out


def _seed_arg(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {raw!r}") from None
    if value < 0:  # PCG64 and SeedSequence take non-negative seeds only
        raise argparse.ArgumentTypeError(f"seed {raw!r} is negative")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pcrboost",
        description="Boosted-tree screening pipeline for RT-PCR outcomes "
        "from binary symptom reports.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"pcrboost {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="|".join(_HANDLERS))
    subparsers = {}

    def command(name: str, help: str):
        """Add a subcommand that takes --config; returns its add_argument."""
        p = subparsers[name] = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="key=value file; explicit flags win")
        return p.add_argument

    add = command("synth", "synthesize a dataset from class-conditional marginals")
    add("--out", required=True, help="output dataset CSV path")
    add("--n-pos", type=int, required=True, help="number of positive records")
    add("--n-neg", type=int, required=True, help="number of negative records")
    add("--seed", type=_seed_arg, required=True, help="generator seed")
    add("--marginals", help="dataset CSV whose marginals replace the bundled survey table")

    add = command("train", "fit the boosted ensemble")
    add("--data", required=True, help="training dataset CSV")
    add("--out-model", required=True, help="output model JSON path")
    add("--seed", type=_seed_arg, required=True, help="config-echo seed")
    add("--num-rounds", type=int)
    add("--learning-rate", type=float)
    add("--max-leaves", type=int)
    add("--min-samples-leaf", type=int)
    add("--l2-lambda", type=float)
    add("--min-split-gain", type=float)

    add = command("predict", "write per-record probabilities")
    add("--model", required=True, help="model JSON path")
    add("--data", required=True, help="dataset CSV")
    add("--out", required=True, help="output scores CSV path")

    add = command("explain", "write per-record SHAP attributions")
    add("--model", required=True, help="model JSON path")
    add("--data", required=True, help="dataset CSV")
    add("--out", required=True, help="output SHAP CSV path")

    add = command("evaluate", "threshold table plus auROC/auPRC with bootstrap CIs")
    add("--model", required=True, help="model JSON path")
    add("--data", required=True, help="labeled dataset CSV")
    add("--out-prefix", required=True, help="prefix for thresholds/summary/band CSVs")
    add("--bootstrap", type=int, default=1000, help="bootstrap resamples (0 disables CIs)")
    add("--alpha", type=float, default=0.05)
    add("--seed", type=_seed_arg, help="bootstrap seed (required when bootstrapping)")
    add("--roc-band", action="store_true",
        help="also bootstrap a TPR band on a 101-point FPR grid")

    add = command("simulate-bias", "drop asymptomatic negatives at several fractions")
    add("--data", required=True, help="input dataset CSV")
    add("--fractions", type=_fractions_arg, default="0.25,0.5,0.75",
        help="comma-separated drop fractions")
    add("--seed", type=_seed_arg, required=True, help="drop-selection seed")
    add("--out-dir", required=True, help="output directory")

    add = command("plot", "render an SVG chart")
    add("--kind", choices=("roc", "pr", "beeswarm"), required=True)
    add("--in", dest="in_path", required=True,
        help="thresholds CSV (roc/pr) or SHAP CSV (beeswarm)")
    add("--band", help="roc_band CSV for the shaded ROC band (roc only)")
    add("--out", required=True, help="output SVG path")
    add("--seed", type=_seed_arg, help="jitter seed (required for beeswarm)")

    return parser, subparsers


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is skipped
            text = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError:
        raise DataFormatError("config file is not UTF-8 text") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataFormatError(f"config line {lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_argv(subparser, config: dict[str, str]) -> list[str]:
    """A config file's values as --key=value tokens, for argparse to parse as flags.

    A key whose parser default is False names a switch: true/1 adds the flag,
    false/0 adds nothing.
    """
    tokens = []
    for key, value in config.items():
        if key == "config":
            raise DataFormatError("unknown config key 'config'")
        flag = "--" + key.replace("_", "-")
        if subparser.get_default(key) is not False:
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("true", "1"):
            tokens.append(flag)
        elif value.lower() not in ("false", "0"):
            raise DataFormatError(f"config key {key!r}: expected true/false")
    return tokens


def _scan_config_path(argv) -> str | None:
    """The last --config value: argparse, too, keeps a repeated flag's last value."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 < len(argv):
                path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    return path


def _load_dataset(path: str):
    with open(path, "rb") as fh:
        return load_csv(fh)


def _load_model(path: str):
    with open(path, "rb") as fh:
        return load_model(fh.read())


class _Staging:
    """A run's output files, written under temporary names and moved into place together.

    Calling it claims a temporary name for each of `paths`, records it and
    returns the names, which the caller writes; `moves` is the run's one list
    of outputs, in staging order. `makedirs` creates an output directory and
    records each directory it made. `commit` hard-links every existing path
    aside, then moves every staged file onto its path. `discard` puts the
    old files back and removes the temporaries, every path the commit
    created and, deepest first, each directory `makedirs` made that is still
    empty, so a failed run leaves its outputs as they were.
    """

    def __init__(self):
        self.moves: list[tuple[str, str]] = []  # (temporary, path)
        self.created: list[str] = []
        self.kept: list[tuple[str, str]] = []  # (link to an existing path's file, path)
        self.dirs: list[str] = []  # made by makedirs, parents first

    def __call__(self, *paths: str) -> list[str]:
        tmps = [f"{path}.{os.getpid()}.tmp" for path in paths]
        for tmp, path in zip(tmps, paths):
            open(tmp, "x").close()  # claimed first, so no one else's file is replaced or removed
            self.moves.append((tmp, path))
        return tmps

    def makedirs(self, path: str) -> None:
        """os.makedirs(path, exist_ok=True), recording each directory it makes."""
        parent = os.path.dirname(path.rstrip(os.sep))
        if parent and not os.path.exists(parent):
            self.makedirs(parent)
        if not os.path.isdir(path):
            os.mkdir(path)
            self.dirs.append(path)

    def commit(self) -> None:
        for tmp, path in self.moves:
            if os.path.lexists(path):  # a link never replaces a file: one already there fails it
                os.link(path, tmp + ".old", follow_symlinks=False)
                self.kept.append((tmp + ".old", path))
        for tmp, path in self.moves:
            if not os.path.lexists(path):
                self.created.append(path)
            os.replace(tmp, path)
        for old, _ in self.kept:  # every output is in place: the old files go
            with contextlib.suppress(OSError):
                os.remove(old)

    def discard(self) -> None:
        # a path not yet replaced is the same file as its link, which os.replace leaves alone
        for old, path in self.kept:
            with contextlib.suppress(OSError):
                os.replace(old, path)
        for name in [tmp for tmp, _ in self.moves] + self.created + [old for old, _ in self.kept]:
            with contextlib.suppress(OSError):
                os.remove(name)
        for name in reversed(self.dirs):  # rmdir leaves a directory that gained a file
            with contextlib.suppress(OSError):
                os.rmdir(name)


def _run(args, parser, started: float) -> None:
    """Run the command, then write its manifest: outputs and manifest move into place together."""
    staging = _Staging()
    try:
        inputs, manifest_path = _HANDLERS[args.command](args, parser, staging)
        manifest = {
            "command": args.command,
            "tool_version": __version__,
            "parameters": {k: v for k, v in vars(args).items() if k not in ("command", "config")},
            "inputs": inputs,
            "outputs": [path for _, path in staging.moves],
            "seed": getattr(args, "seed", None),
            "duration_seconds": time.perf_counter() - started,
        }
        with open(staging(manifest_path)[0], "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        staging.commit()
    except BaseException:
        staging.discard()
        raise


def cmd_synth(args, parser, stage):
    if args.marginals:
        marginals = marginals_from(_load_dataset(args.marginals))
        inputs = [args.marginals]
    else:
        marginals = reference_marginals()
        inputs = []
    ds = synthesize(marginals, args.n_pos, args.n_neg, args.seed)
    with open(stage(args.out)[0], "wb") as fh:
        save_csv(ds, fh)
    return inputs, args.out + ".manifest.json"


def cmd_train(args, parser, stage):
    from dataclasses import fields

    from .gbm import TrainConfig

    ds = _load_dataset(args.data)
    # a tuning flag not given takes TrainConfig's default
    given = {f.name: vars(args)[f.name] for f in fields(TrainConfig)
             if vars(args)[f.name] is not None}
    cfg = TrainConfig(**given)
    vars(args).update(vars(cfg))  # the manifest echoes every resolved hyperparameter
    text = save_model(fit(ds, cfg))
    with open(stage(args.out_model)[0], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return [args.data], args.out_model + ".manifest.json"


def cmd_predict(args, parser, stage):
    import numpy as np

    model = _load_model(args.model)
    ds = _load_dataset(args.data)
    # records with equal pattern codes have equal scores: one row text per pattern
    by_code = np.zeros(256)
    by_code[ds.codes] = model.predict_proba(ds.X)
    rows = PatternRows([[(float(score),)] for score in by_code], ds.codes)
    write_csv(stage(args.out)[0], ["record_index", "score"], rows)
    return [args.model, args.data], args.out + ".manifest.json"


def cmd_explain(args, parser, stage):
    from .dataset import FEATURE_NAMES, PATTERNS

    model = _load_model(args.model)
    ds = _load_dataset(args.data)
    base_value, phis = explain_dataset(model, ds)
    base_value = fmt_real(base_value)  # one cell text for every row
    # as in predict: one block of rows per pattern, each record writing its code's block
    rows = PatternRows([[(name, x[f], phi[f], base_value) for f, name in enumerate(FEATURE_NAMES)]
                        for x, phi in zip(PATTERNS.tolist(), phis.tolist())], ds.codes)
    write_csv(stage(args.out)[0],
              ["record_index", "feature", "feature_value", "shap_value", "base_value"], rows)
    return [args.model, args.data], args.out + ".manifest.json"


def cmd_evaluate(args, parser, stage):
    from .metrics import ThresholdReport, bootstrap

    if args.bootstrap and args.seed is None:
        parser.error("missing required flag --seed (needed when --bootstrap > 0)")
    if args.roc_band and not args.bootstrap:
        raise ContractError("--roc-band requires --bootstrap > 0")
    if not 0.0 < args.alpha < 1.0:  # false for NaN too; checked even without a bootstrap
        raise ContractError("alpha must be in (0, 1)")
    model = _load_model(args.model)
    ds = _load_dataset(args.data)
    sl = ScoredLabels(model.predict_proba(ds.X), ds.y)

    # every statistic that can fail is computed before the first file is written
    if args.bootstrap:
        result = bootstrap(sl, args.bootstrap, args.alpha, seed=args.seed)
        summary = [("auroc", *result.auroc), ("auprc", *result.aupr)]
    else:
        summary = [
            ("auroc", auroc(sl), None, None),
            ("auprc", aupr(sl), None, None),
        ]
    tables = [
        ("thresholds.csv", list(ThresholdReport._fields),
         [threshold_report(sl, float(t)) for t in unique_thresholds(sl)]),
        ("summary.csv", ["metric", "point", "lo", "hi"], summary),
    ]
    if args.roc_band:
        grid, lo, hi = result.roc_band
        tables.append(("roc_band.csv", ["fpr", "tpr_lo", "tpr_hi"],
                       [(float(g), float(l), float(h)) for g, l, h in zip(grid, lo, hi)]))
    tmps = stage(*[args.out_prefix + name for name, _, _ in tables])
    for tmp, (_, header, rows) in zip(tmps, tables):
        write_csv(tmp, header, rows)
    return [args.model, args.data], args.out_prefix + "manifest.json"


def cmd_simulate_bias(args, parser, stage):
    from .dataset import FEATURE_NAMES

    ds = _load_dataset(args.data)
    variants = [(token, simulate_bias(ds, fraction, args.seed))
                for token, fraction in args.fractions]

    def reporter_rate(d, feature: str):
        try:
            return reporter_positive_rate(d, feature)
        except ContractError:
            return None

    header = ["feature", "input"] + [f"drop_{token}" for token, _ in args.fractions]
    rows = []
    for feature in FEATURE_NAMES:
        row = [feature, reporter_rate(ds, feature)]
        row += [reporter_rate(out, feature) for _, out in variants]
        rows.append(tuple(row))
    stage.makedirs(args.out_dir)
    names = [f"biased_{token}.csv" for token, _ in variants] + ["reporter_rates.csv"]
    *biased, rates = stage(*[os.path.join(args.out_dir, name) for name in names])
    for tmp, (_, out) in zip(biased, variants):
        with open(tmp, "wb") as fh:
            save_csv(out, fh)
    write_csv(rates, header, rows)
    return [args.data], os.path.join(args.out_dir, "manifest.json")


def _read_cells(path: str, columns: tuple[str, ...]):
    """A plot CSV's distinct rows as their named cells, and each record's index among them.

    As in csv.DictReader: blank rows are skipped, a repeated name reads its last
    column and a short row's missing cells are None. A csv or UTF-8 error anywhere
    wins over every bad cell.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        header, rows, ids, error = read_table(fh, columns)
    if header is None and error is None or header is not None and not set(columns) <= set(header):
        raise DataFormatError(f"malformed input CSV: need columns {sorted(columns)}")
    if error is not None:
        raise DataFormatError(f"malformed input CSV: {error}")
    if () in rows:
        blank = rows.index(())
        del rows[blank]
        ids = [i - (i > blank) for i in ids if i != blank]
    cells = operator.itemgetter(*({name: i for i, name in enumerate(header)}[c] for c in columns))
    pad = (None,) * len(header)
    return [cells(row + pad) for row in rows], ids


def _real(text, name: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = math.nan
    # rates lie in [0, 1]; SHAP values must stay far enough inside the
    # float range for the beeswarm's axis span to be finite
    lo, hi = (-1e300, 1e300) if name == "shap_value" else (0.0, 1.0)
    if not lo <= value <= hi:  # false for NaN too
        raise DataFormatError(f"malformed input CSV: bad {name} value {text!r}")
    return value


def _beeswarm_strips(path: str) -> list[tuple]:
    """A SHAP CSV's (feature, SHAP values, feature values) strips, by descending mean |SHAP|.

    Equal means keep schema order: the feature earlier in FEATURE_NAMES is drawn first.
    """
    import numpy as np

    from .dataset import FEATURE_NAMES

    rows, ids = _read_cells(path, ("feature", "shap_value", "feature_value"))
    if not ids:
        raise DataFormatError("malformed input CSV: no SHAP rows")
    # each distinct row checked once, in file order (the first bad row is named)
    checked = []
    for name, value, cell in rows:
        if name not in FEATURE_NAMES:
            raise DataFormatError(f"malformed input CSV: unknown feature {name!r}")
        value = _real(value, "shap_value")
        if cell not in ("0", "1"):  # literal cells, as in a dataset CSV
            raise DataFormatError(f"malformed input CSV: bad feature_value value {cell!r}")
        checked.append((FEATURE_NAMES.index(name), value, int(cell)))
    code, shap, cell = np.array(checked)[np.fromiter(ids, np.intp, len(ids))].T  # per record
    strips = {name: (shap[code == i], cell[code == i].astype(np.uint8))
              for i, name in enumerate(FEATURE_NAMES) if i in code}
    # |SHAP| summed strictly left to right: from Python 3.12 the builtin sum compensates,
    # and a pairwise or count x |v| sum rounds otherwise; each can flip a near-tie
    means = {name: np.add.accumulate(np.abs(values))[-1] / len(values)
             for name, (values, _) in strips.items()}
    ranked = sorted(means, key=lambda name: (-means[name], FEATURE_NAMES.index(name)))
    return [(name, *strips[name]) for name in ranked]


def cmd_plot(args, parser, stage):
    inputs = [args.in_path]
    if args.band and args.kind != "roc":
        parser.error("--band applies only to --kind roc")
    if args.kind == "beeswarm":
        if args.seed is None:
            parser.error("missing required flag --seed (needed for beeswarm)")
        parts = beeswarm_svg_parts(_beeswarm_strips(args.in_path), seed=args.seed)
    else:
        rows, ids = _read_cells(args.in_path, ("fpr", "sensitivity", "ppv"))
        # each distinct row's point checked once, in file order
        if args.kind == "roc":
            if not ids:
                raise DataFormatError("malformed input CSV: no threshold rows")
            points = [(_real(fpr, "fpr"), _real(tpr, "sensitivity")) for fpr, tpr, _ in rows]
            points = [(0.0, 0.0)] + [points[i] for i in ids]
            band = None
            if args.band:
                columns = ("fpr", "tpr_lo", "tpr_hi")
                band_rows, band_ids = _read_cells(args.band, columns)
                if not band_ids:
                    raise DataFormatError("malformed input CSV: no ROC band rows")
                band = tuple([values[i] for i in band_ids]  # checked a column at a time
                             for values in ([_real(row[j], name) for row in band_rows]
                                            for j, name in enumerate(columns)))
                inputs.append(args.band)
            parts = [render_curve_svg(points, kind="roc", band=band)]
        else:
            points = [ppv != "" and (_real(tpr, "sensitivity"), _real(ppv, "ppv"))
                      for _, tpr, ppv in rows]
            points = [points[i] for i in ids if points[i]]
            if not points:
                raise DataFormatError("malformed input CSV: no defined precision values")
            parts = [render_curve_svg(points, kind="pr")]
    # rendered as it is written, under a temporary name: a failure leaves no partial SVG
    with open(stage(args.out)[0], "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(parts)
    return inputs, args.out + ".manifest.json"


_HANDLERS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "predict": cmd_predict,
    "explain": cmd_explain,
    "evaluate": cmd_evaluate,
    "simulate-bias": cmd_simulate_bias,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    if "numpy" not in sys.modules:  # a fresh process: pcrboost uses no BLAS, so no thread pool
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    started = time.perf_counter()
    try:
        command = next((t for t in argv if t in _HANDLERS), None)
        config_path = _scan_config_path(argv)
        if command is not None and config_path is not None:
            at = argv.index(command) + 1  # right after the command: a later explicit flag wins
            argv[at:at] = _config_argv(subparsers[command], _read_config(config_path))
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        _run(args, parser, started)
        return 0
    except SystemExit as exc:  # argparse, and parser.error from conditional requirements
        return int(exc.code or 0)
    except DataFormatError as exc:
        print(f"pcrboost: error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"pcrboost: error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, RecursionError) as exc:  # a run too large for this process
        detail = " ".join(str(exc).split())  # one line; a MemoryError may have none
        message = f"{type(exc).__name__}: {detail}" if detail else type(exc).__name__
        print(f"pcrboost: error: {message}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"pcrboost: I/O error: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    """The process entry point: flush, then end with main's code and no interpreter teardown.

    Every output is written and committed before main returns, so nothing is
    lost by skipping atexit handlers and the teardown of the interpreter and
    NumPy. A flush that fails (say, into a closed pipe) falls back to sys.exit,
    which reports it as Python does.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
