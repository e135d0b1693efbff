"""The README's examples run as written: the library example, and the quick start's flags.
CI reads the quick start through `oracles` outside pytest, so `oracles` imports neither pytest
nor hypothesis. Each oracle's docstring names a target that exists."""

from __future__ import annotations

import importlib
import inspect
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import oracles
from pcrboost.cli import build_parser
from oracles import README, clean_env, quickstart_commands, tenth_scale_quickstart


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out


@pytest.mark.parametrize("scale", ["as_written", "tenth"])
def test_quick_start_commands_parse(scale):
    # a mistyped or renamed flag fails here, also where no golden digest covers the command
    commands = quickstart_commands() if scale == "as_written" else tenth_scale_quickstart(1)
    assert commands
    parser, _ = build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README quick start: `pcrboost {' '.join(argv)}` does not parse")
        assert args.command == argv[0]


def test_oracles_import_neither_pytest_nor_hypothesis():
    env = clean_env()
    env["PYTHONPATH"] += os.pathsep + os.path.dirname(os.path.abspath(__file__))
    code = "import sys, oracles; print(sorted({'pytest', 'hypothesis'} & set(sys.modules)))"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")


def test_oracle_docstrings_name_real_targets():
    # an oracle's docstring opens with the backticked name it pins: a rename in src/ fails here
    targets = {}
    for name, obj in vars(oracles).items():
        if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        match = re.match(r"`([^`(']+)", inspect.getdoc(obj) or "")
        if obj.__module__ == "oracles" and match and "." in match.group(1):
            targets[name] = match.group(1)
    assert targets
    missing = []
    for name, target in sorted(targets.items()):
        module, *attrs = target.split(".")
        obj = np if module == "numpy" else importlib.import_module(f"pcrboost.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"{name}: `{target}`")
    assert not missing, f"oracle docstrings name targets that do not exist: {missing}"
