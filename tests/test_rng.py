"""NumPy's `Generator` methods, called as the program calls them, against raw-bit oracles.

NEP 19 keeps `PCG64`'s raw stream the same across NumPy versions, but not the algorithm of a
`Generator` method. A NumPy that draws differently fails here under the method's name, where
`test_golden` names only a digest. The arguments are the tenth-scale quick start's (seed 1).
`choice(replace=False)`, which simulate-bias calls, has no oracle yet.
"""

from __future__ import annotations

import numpy as np
import pytest

from pcrboost.dataset import N_FEATURES
from oracles import RawGenerator, option, quickstart_step


def generators(seed):
    return np.random.Generator(np.random.PCG64(seed)), RawGenerator(seed)


@pytest.mark.parametrize("caller", ["synth", "bootstrap", "beeswarm"])
def test_generator_calls_match_raw_bit_oracles(caller):
    synth = quickstart_step(1, "synth", "test.csv")
    n_pos, n_neg = int(option(synth, "--n-pos")), int(option(synth, "--n-neg"))
    n = n_pos + n_neg
    if caller == "synth":
        # dataset.synthesize: shuffle the labels, then one uniform per record and feature
        rng, raw = generators(int(option(synth, "--seed")))
        y = np.concatenate([np.ones(n_pos, dtype=np.uint8), np.zeros(n_neg, dtype=np.uint8)])
        got, want = y.copy(), y.copy()
        rng.shuffle(got)
        raw.shuffle(want)
        assert np.array_equal(got, want), "shuffle"
        assert np.array_equal(rng.random((n, N_FEATURES)), raw.random((n, N_FEATURES))), "random"
    elif caller == "bootstrap":
        # metrics.bootstrap: a child stream per resample, redrawn while a draw is single-class;
        # then an n at which about half of all 32-bit draws are rejected
        seed = int(option(quickstart_step(1, "evaluate"), "--seed"))
        for child in np.random.SeedSequence(seed).spawn(3):
            rng, raw = generators(child)
            for _ in range(3):
                got, want = rng.integers(0, n, size=n), raw.integers(0, n, size=n)
                assert np.array_equal(got, want), "integers"
        rng, raw = generators(seed)
        assert np.array_equal(rng.integers(0, 2**31 + 11, size=1001),
                              raw.integers(0, 2**31 + 11, size=1001)), "integers"
    else:
        # plots.beeswarm_svg_parts: one jitter draw per feature strip of n circles
        rng, raw = generators(int(option(quickstart_step(1, "beeswarm"), "--seed")))
        for _ in range(N_FEATURES):
            assert np.array_equal(rng.uniform(-1.2, 1.2, size=n),
                                  raw.uniform(-1.2, 1.2, size=n)), "uniform"
