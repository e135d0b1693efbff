"""Command-line pipeline: synth, train, predict, explain, evaluate, simulate-bias, plot.

Exit codes: 0 success, 2 parse/format errors, 3 contract violations,
4 I/O failures. Every successful run writes a RunManifest JSON alongside
its outputs. Randomized commands require an explicit --seed; nothing
defaults to wall-clock entropy.

A --config file holds key=value lines (keys are long flag names, dashes
or underscores); explicit flags win over config values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

from . import __version__
from .dataset import (
    FEATURE_NAMES,
    BiasSimConfig,
    Dataset,
    distinct_patterns,
    load_csv,
    marginals_from,
    reference_marginals,
    reporter_positive_rate,
    save_csv,
    simulate_bias,
    synthesize,
)
from .errors import ContractError, DataFormatError
from .formatting import PatternRows, write_csv
from .gbm import TrainConfig, fit, load_model, save_model
from .metrics import (
    THRESHOLD_REPORT_FIELDS,
    ScoredLabels,
    aupr,
    auroc,
    bootstrap,
    threshold_report,
    unique_thresholds,
)
from .plots import render_beeswarm_svg, render_curve_svg
from .shap import explain_dataset, rank_features

# flags that must be resolved (CLI or config) before a command can run
_REQUIRED = {
    "synth": ("out", "n_pos", "n_neg", "seed"),
    "train": ("data", "out_model", "seed"),
    "predict": ("model", "data", "out"),
    "explain": ("model", "data", "out"),
    "evaluate": ("model", "data", "out_prefix"),
    "simulate-bias": ("data", "out_dir", "seed"),
    "plot": ("kind", "in_path", "out"),
}


@dataclass
class RunManifest:
    """Provenance of one CLI run, written alongside the command's outputs."""

    command: str
    tool_version: str
    parameters: dict
    inputs: list
    outputs: list
    seed: int | None
    duration_seconds: float

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(asdict(self), fh, indent=2, default=str)
            fh.write("\n")


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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pcrboost",
        description="Boosted-tree screening pipeline for RT-PCR outcomes "
        "from binary symptom reports.",
    )
    parser.add_argument("--version", action="version", version=f"pcrboost {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="|".join(_HANDLERS))
    subparsers = {}

    p = subparsers["synth"] = sub.add_parser(
        "synth", help="synthesize a dataset from class-conditional marginals"
    )
    p.add_argument("--out", help="output dataset CSV path")
    p.add_argument("--n-pos", type=int, help="number of positive records")
    p.add_argument("--n-neg", type=int, help="number of negative records")
    p.add_argument("--seed", type=int, help="generator seed (required)")
    p.add_argument(
        "--marginals",
        help="dataset CSV whose marginals replace the bundled survey table",
    )

    p = subparsers["train"] = sub.add_parser("train", help="fit the boosted ensemble")
    p.add_argument("--data", help="training dataset CSV")
    p.add_argument("--out-model", help="output model JSON path")
    p.add_argument("--seed", type=int, help="config-echo seed (required)")
    p.add_argument("--num-rounds", type=int, default=TrainConfig.num_rounds)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--max-leaves", type=int, default=TrainConfig.max_leaves)
    p.add_argument("--min-samples-leaf", type=int, default=TrainConfig.min_samples_leaf)
    p.add_argument("--l2-lambda", type=float, default=TrainConfig.l2_lambda)
    p.add_argument("--min-split-gain", type=float, default=TrainConfig.min_split_gain)

    p = subparsers["predict"] = sub.add_parser(
        "predict", help="write per-record probabilities"
    )
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--data", help="dataset CSV")
    p.add_argument("--out", help="output scores CSV path")

    p = subparsers["explain"] = sub.add_parser(
        "explain", help="write per-record SHAP attributions"
    )
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--data", help="dataset CSV")
    p.add_argument("--out", help="output SHAP CSV path")

    p = subparsers["evaluate"] = sub.add_parser(
        "evaluate", help="threshold table plus auROC/auPRC with bootstrap CIs"
    )
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--data", help="labeled dataset CSV")
    p.add_argument("--out-prefix", help="prefix for thresholds/summary/band CSVs")
    p.add_argument("--bootstrap", type=int, default=1000,
                   help="bootstrap resamples (0 disables CIs)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, help="bootstrap seed (required when bootstrapping)")
    p.add_argument("--roc-band", action="store_true",
                   help="also bootstrap a TPR band on a 101-point FPR grid")

    p = subparsers["simulate-bias"] = sub.add_parser(
        "simulate-bias", help="drop asymptomatic negatives at several fractions"
    )
    p.add_argument("--data", help="input dataset CSV")
    p.add_argument("--fractions", type=_fractions_arg, default="0.25,0.5,0.75",
                   help="comma-separated drop fractions")
    p.add_argument("--seed", type=int, help="drop-selection seed (required)")
    p.add_argument("--out-dir", help="output directory")

    p = subparsers["plot"] = sub.add_parser("plot", help="render an SVG chart")
    p.add_argument("--kind", choices=("roc", "pr", "beeswarm"))
    p.add_argument("--in", dest="in_path",
                   help="thresholds CSV (roc/pr) or SHAP CSV (beeswarm)")
    p.add_argument("--band", help="roc_band CSV for the shaded ROC band")
    p.add_argument("--out", help="output SVG path")
    p.add_argument("--seed", type=int, help="jitter seed (required for beeswarm)")

    for p in subparsers.values():
        p.add_argument("--config", help="key=value file; explicit flags win")

    return parser, subparsers


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
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


def _apply_config(subparser, config: dict[str, str]) -> None:
    actions = {a.dest: a for a in subparser._actions}
    defaults = {}
    for key, raw in config.items():
        if key == "in":  # the --in flag parses to dest in_path
            key = "in_path"
        action = None if key in ("help", "config") else actions.get(key)
        if action is None:
            raise DataFormatError(f"unknown config key {key!r}")
        if isinstance(action, argparse._StoreTrueAction):
            if raw.lower() not in ("true", "false", "0", "1"):
                raise DataFormatError(f"config key {key!r}: expected true/false")
            defaults[key] = raw.lower() in ("true", "1")
            continue
        try:
            defaults[key] = action.type(raw) if action.type else raw
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DataFormatError(f"config key {key!r}: {exc}") from None
        if action.choices and defaults[key] not in action.choices:
            raise DataFormatError(f"config key {key!r}: invalid choice {raw!r}")
    subparser.set_defaults(**defaults)


def _scan_config_path(argv) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 < len(argv):
                return argv[i + 1]
        elif token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _require(parser, args, names) -> None:
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"missing required flag --{name.replace('_', '-')}")


def _load_dataset(path: str) -> Dataset:
    with open(path, "rb") as fh:
        ds = load_csv(fh)
    return Dataset(ds.X, ds.y, provenance=f"csv:{path}")


def _load_model(path: str):
    with open(path, "rb") as fh:
        return load_model(fh.read())


def cmd_synth(args, parser):
    if args.marginals:
        marginals = marginals_from(_load_dataset(args.marginals))
        inputs = [args.marginals]
    else:
        marginals = reference_marginals()
        inputs = []
    ds = synthesize(marginals, args.n_pos, args.n_neg, args.seed)
    with open(args.out, "wb") as fh:
        save_csv(ds, fh)
    return inputs, [args.out], args.out + ".manifest.json"


def cmd_train(args, parser):
    ds = _load_dataset(args.data)
    cfg = TrainConfig(
        num_rounds=args.num_rounds,
        learning_rate=args.learning_rate,
        max_leaves=args.max_leaves,
        min_samples_leaf=args.min_samples_leaf,
        l2_lambda=args.l2_lambda,
        min_split_gain=args.min_split_gain,
        seed=args.seed,
    )
    model = fit(ds, cfg)
    with open(args.out_model, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(save_model(model))
    return [args.data], [args.out_model], args.out_model + ".manifest.json"


def cmd_predict(args, parser):
    model = _load_model(args.model)
    ds = _load_dataset(args.data)
    scores = model.predict_proba(ds.X)
    _, first, inverse = distinct_patterns(ds.X)
    rows = PatternRows([[(float(scores[i]),)] for i in first], inverse)
    write_csv(args.out, ["record_index", "score"], rows)
    return [args.model, args.data], [args.out], args.out + ".manifest.json"


def cmd_explain(args, parser):
    model = _load_model(args.model)
    ds = _load_dataset(args.data)
    base_value, phis = explain_dataset(model, ds)
    # each pattern's rows come from its first record; the others repeat them
    _, first, inverse = distinct_patterns(ds.X)
    rows = PatternRows([[(name, int(ds.X[i, f]), float(phis[i, f]), base_value)
                         for f, name in enumerate(FEATURE_NAMES)] for i in first], inverse)
    write_csv(
        args.out,
        ["record_index", "feature", "feature_value", "shap_value", "base_value"],
        rows,
    )
    return [args.model, args.data], [args.out], args.out + ".manifest.json"


def cmd_evaluate(args, parser):
    if args.bootstrap and args.seed is None:
        parser.error("missing required flag --seed (needed when --bootstrap > 0)")
    if args.roc_band and not args.bootstrap:
        raise ContractError("--roc-band requires --bootstrap > 0")
    model = _load_model(args.model)
    ds = _load_dataset(args.data)
    sl = ScoredLabels(model.predict_proba(ds.X), ds.y)

    # every statistic that can fail is computed before the first file is written
    if args.bootstrap:
        result = bootstrap(sl, args.bootstrap, args.alpha, seed=args.seed)
        summary = [
            ("auroc", result.auroc.point, result.auroc.lo, result.auroc.hi),
            ("auprc", result.aupr.point, result.aupr.lo, result.aupr.hi),
        ]
    else:
        summary = [
            ("auroc", auroc(sl), None, None),
            ("auprc", aupr(sl), None, None),
        ]
    thresholds_path = args.out_prefix + "thresholds.csv"
    rows = [threshold_report(sl, float(t)).row() for t in unique_thresholds(sl)]
    write_csv(thresholds_path, list(THRESHOLD_REPORT_FIELDS), rows)
    summary_path = args.out_prefix + "summary.csv"
    write_csv(summary_path, ["metric", "point", "lo", "hi"], summary)
    outputs = [thresholds_path, summary_path]

    if args.roc_band:
        grid, lo, hi = result.roc_band
        band_path = args.out_prefix + "roc_band.csv"
        write_csv(
            band_path,
            ["fpr", "tpr_lo", "tpr_hi"],
            [(float(g), float(l), float(h)) for g, l, h in zip(grid, lo, hi)],
        )
        outputs.append(band_path)

    return [args.model, args.data], outputs, args.out_prefix + "manifest.json"


def cmd_simulate_bias(args, parser):
    import os

    ds = _load_dataset(args.data)
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = []
    variants = []
    for token, fraction in args.fractions:
        out = simulate_bias(ds, BiasSimConfig(drop_fraction=fraction, seed=args.seed))
        path = os.path.join(args.out_dir, f"biased_{token}.csv")
        with open(path, "wb") as fh:
            save_csv(out, fh)
        outputs.append(path)
        variants.append((token, out))

    def rate_or_none(d: Dataset, feature: str):
        try:
            return reporter_positive_rate(d, feature)
        except ContractError:
            return None

    header = ["feature", "input"] + [f"drop_{token}" for token, _ in args.fractions]
    rows = []
    for feature in FEATURE_NAMES:
        row = [feature, rate_or_none(ds, feature)]
        row += [rate_or_none(out, feature) for _, out in variants]
        rows.append(tuple(row))
    rates_path = os.path.join(args.out_dir, "reporter_rates.csv")
    write_csv(rates_path, header, rows)
    outputs.append(rates_path)
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    return [args.data], outputs, manifest_path


def _read_table(path: str, required: set[str]) -> list[dict]:
    import csv as _csv

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = _csv.DictReader(fh)
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise DataFormatError(f"malformed input CSV: need columns {sorted(required)}")
            return list(reader)
    except _csv.Error as exc:
        raise DataFormatError(f"malformed input CSV: {exc}") from None
    except UnicodeDecodeError:
        raise DataFormatError("malformed input CSV: not UTF-8 text") from None


def _float_cell(row: dict, key: str) -> float:
    try:
        value = float(row[key])
    except (TypeError, ValueError):
        value = math.nan
    # rates lie in [0, 1]; SHAP values must stay far enough inside the
    # float range for the beeswarm's axis span to be finite
    lo, hi = (-1e300, 1e300) if key == "shap_value" else (0.0, 1.0)
    if not lo <= value <= hi:  # false for NaN too
        raise DataFormatError(f"malformed input CSV: bad {key} value {row[key]!r}")
    return value


def cmd_plot(args, parser):
    inputs = [args.in_path]
    if args.kind == "beeswarm":
        if args.seed is None:
            parser.error("missing required flag --seed (needed for beeswarm)")
        rows = _read_table(args.in_path, {"feature", "shap_value", "feature_value"})
        if not rows:
            raise DataFormatError("malformed input CSV: no SHAP rows")
        by_feature: dict[str, list[tuple[float, int]]] = {}
        for row in rows:
            name = row["feature"]
            if name not in FEATURE_NAMES:
                raise DataFormatError(f"malformed input CSV: unknown feature {name!r}")
            value = _float_cell(row, "shap_value")
            cell = row["feature_value"]
            if cell not in ("0", "1"):  # literal cells, as in a dataset CSV
                raise DataFormatError(f"malformed input CSV: bad feature_value value {cell!r}")
            by_feature.setdefault(name, []).append((value, int(cell)))
        means = {
            name: sum(abs(v) for v, _ in pts) / len(pts) for name, pts in by_feature.items()
        }
        points = [
            (name, value, feature_value)
            for name in rank_features(means)
            for value, feature_value in by_feature[name]
        ]
        svg = render_beeswarm_svg(points, seed=args.seed, title="SHAP beeswarm")
    else:
        rows = _read_table(args.in_path, {"sensitivity", "fpr", "ppv"})
        if args.kind == "roc":
            points = [(0.0, 0.0)]
            points += [(_float_cell(r, "fpr"), _float_cell(r, "sensitivity")) for r in rows]
            band = None
            if args.band:
                band_rows = _read_table(args.band, {"fpr", "tpr_lo", "tpr_hi"})
                band = (
                    [_float_cell(r, "fpr") for r in band_rows],
                    [_float_cell(r, "tpr_lo") for r in band_rows],
                    [_float_cell(r, "tpr_hi") for r in band_rows],
                )
                inputs.append(args.band)
            svg = render_curve_svg(points, kind="roc", title="ROC curve", band=band)
        else:
            points = []
            for r in rows:
                if r["ppv"] == "":
                    continue
                points.append((_float_cell(r, "sensitivity"), _float_cell(r, "ppv")))
            if not points:
                raise DataFormatError("malformed input CSV: no defined precision values")
            svg = render_curve_svg(points, kind="pr", title="Precision-recall curve")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return inputs, [args.out], args.out + ".manifest.json"


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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    started = time.perf_counter()
    try:
        command = next((t for t in argv if t in _HANDLERS), None)
        config_path = _scan_config_path(argv)
        if command is not None and config_path is not None:
            _apply_config(subparsers[command], _read_config(config_path))
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        try:
            _require(parser, args, _REQUIRED[args.command])
            result = _HANDLERS[args.command](args, parser)
        except SystemExit as exc:  # parser.error from conditional requirements
            return int(exc.code or 0)
        inputs, outputs, manifest_path = result
        parameters = {
            k: v for k, v in vars(args).items() if k not in ("command", "config")
        }
        manifest = RunManifest(
            command=args.command,
            tool_version=__version__,
            parameters=parameters,
            inputs=inputs,
            outputs=outputs,
            seed=getattr(args, "seed", None),
            duration_seconds=time.perf_counter() - started,
        )
        manifest.write(manifest_path)
        return 0
    except DataFormatError as exc:
        print(f"pcrboost: error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"pcrboost: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"pcrboost: I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
