"""Fixed reference task timed between the CLI calls to track machine speed.

It never changes and shares no code with pcrboost, but its mix resembles a
CLI call: interpreter start, importing NumPy, sorting arrays, formatting
floats at 17 digits and parsing CSV text. Editing it changes every normalized
figure, so it is frozen together with REFERENCE_S in run.py.
"""

import csv
import io

import numpy as np

values = np.random.default_rng(0).random(100_000)
for _ in range(5):
    np.sort(values, kind="mergesort")
text = "\n".join(",".join("%.17g" % v for v in values[i:i + 8])
                 for i in range(0, 40_000, 8))
cells = sum(len(row) for row in csv.reader(io.StringIO(text)))
if cells != 40_000:
    raise SystemExit("reference task miscounted")
