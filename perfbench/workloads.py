"""The benchmark's workloads: the CLI calls of the set-up and of one timed pass.

Arguments are templates: ``{setup}`` is the set-up directory (generated
inputs, and for screen the trained model) and ``{out}`` the pass directory.
Each step names the files it writes, so a failed output check can be charged
to the call that produced the file. Every seed the program sees is derived
from the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

# survey scale (README quick start)
TRAIN_POS, TRAIN_NEG = 4769, 47062
TEST_POS, TEST_NEG = 3624, 43777
# quickstart runs at a tenth of the survey's scale so that a pass takes a few
# seconds and a run holds enough passes for a steady figure (README.md);
# screen's set-up trains its model on the same small training set
SMALL_TRAIN_POS, SMALL_TRAIN_NEG = TRAIN_POS // 10, TRAIN_NEG // 10
SMALL_TEST_POS, SMALL_TEST_NEG = TEST_POS // 10, TEST_NEG // 10


@dataclass(frozen=True)
class Step:
    command: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]

    def argv(self, setup: str, out: str) -> list[str]:
        return [self.command] + [a.format(setup=setup, out=out) for a in self.args]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Step, ...]
    timed: tuple[Step, ...]
    n_train: int
    n_scored: int
    bootstrap: bool


def _synth(out: str, n_pos: int, n_neg: int, seed: int) -> Step:
    return Step("synth", ("--n-pos", str(n_pos), "--n-neg", str(n_neg),
                          "--seed", str(seed), "--out", out), (out,))


def _score_steps(model: str, evaluate: tuple[str, ...], eval_outputs: tuple[str, ...]):
    return (
        Step("predict", ("--model", model, "--data", "{setup}/test.csv",
                         "--out", "{out}/scores.csv"), ("{out}/scores.csv",)),
        Step("explain", ("--model", model, "--data", "{setup}/test.csv",
                         "--out", "{out}/shap.csv"), ("{out}/shap.csv",)),
        Step("evaluate", ("--model", model, "--data", "{setup}/test.csv",
                          "--out-prefix", "{out}/eval_") + evaluate, eval_outputs),
    )


def quickstart(seed: int) -> Workload:
    base = 1000 * seed
    setup = (
        _synth("{setup}/train.csv", SMALL_TRAIN_POS, SMALL_TRAIN_NEG, base + 1),
        _synth("{setup}/test.csv", SMALL_TEST_POS, SMALL_TEST_NEG, base + 2),
    )
    timed = (
        Step("train", ("--data", "{setup}/train.csv", "--out-model", "{out}/model.json",
                       "--seed", str(seed)), ("{out}/model.json",)),
        *_score_steps(
            "{out}/model.json",
            ("--bootstrap", "1000", "--seed", str(base + 7), "--roc-band"),
            ("{out}/eval_thresholds.csv", "{out}/eval_summary.csv",
             "{out}/eval_roc_band.csv"),
        ),
        Step("plot", ("--kind", "roc", "--in", "{out}/eval_thresholds.csv",
                      "--band", "{out}/eval_roc_band.csv", "--out", "{out}/roc.svg"),
             ("{out}/roc.svg",)),
        Step("plot", ("--kind", "pr", "--in", "{out}/eval_thresholds.csv",
                      "--out", "{out}/pr.svg"), ("{out}/pr.svg",)),
        Step("plot", ("--kind", "beeswarm", "--in", "{out}/shap.csv",
                      "--seed", str(base + 4), "--out", "{out}/beeswarm.svg"),
             ("{out}/beeswarm.svg",)),
        Step("simulate-bias", ("--data", "{setup}/test.csv", "--out-dir", "{out}/bias",
                               "--seed", str(base + 3), "--fractions", "0.25,0.5,0.75"),
             tuple(f"{{out}}/bias/{name}" for name in (
                 "biased_0.25.csv", "biased_0.5.csv", "biased_0.75.csv",
                 "reporter_rates.csv"))),
    )
    return Workload("quickstart", setup, timed, SMALL_TRAIN_POS + SMALL_TRAIN_NEG,
                    SMALL_TEST_POS + SMALL_TEST_NEG, bootstrap=True)


def screen(seed: int) -> Workload:
    base = 1000 * seed
    setup = (
        _synth("{setup}/train.csv", SMALL_TRAIN_POS, SMALL_TRAIN_NEG, base + 1),
        _synth("{setup}/test.csv", TEST_POS, TEST_NEG, base + 2),
        Step("train", ("--data", "{setup}/train.csv", "--out-model", "{setup}/model.json",
                       "--seed", str(seed)), ("{setup}/model.json",)),
    )
    timed = (
        *_score_steps("{setup}/model.json", ("--bootstrap", "0"),
                      ("{out}/eval_thresholds.csv", "{out}/eval_summary.csv")),
        Step("plot", ("--kind", "roc", "--in", "{out}/eval_thresholds.csv",
                      "--out", "{out}/roc.svg"), ("{out}/roc.svg",)),
        Step("plot", ("--kind", "pr", "--in", "{out}/eval_thresholds.csv",
                      "--out", "{out}/pr.svg"), ("{out}/pr.svg",)),
    )
    return Workload("screen", setup, timed, SMALL_TRAIN_POS + SMALL_TRAIN_NEG,
                    TEST_POS + TEST_NEG, bootstrap=False)


WORKLOADS = {"quickstart": quickstart, "screen": screen}
