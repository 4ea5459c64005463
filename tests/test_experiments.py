"""Smoke test of scripts/experiments.py: each mode runs in-process on tiny
settings and writes its CSV."""

import csv
import importlib.util
from pathlib import Path

import pytest

from mimisbm.selection import CRITERIA

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "experiments.py"


def _experiments():
    spec = importlib.util.spec_from_file_location("experiments", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv, header",
    [
        (["recovery"], ["seed", "ari_z", "ari_w", "elbo", "iterations", "converged"]),
        (
            ["selection", "--component-k", "3,2", "--k-max", "4", "--q-max", "3"],
            ["seed"] + [f"{crit}_{axis}" for crit in CRITERIA for axis in "kq"],
        ),
        (["robustness", "--levels", "3"], ["switch", "seed", "ari_z", "ari_w"]),
    ],
)
def test_experiment_modes_write_their_csv(tmp_path, argv, header):
    out = tmp_path / f"{argv[0]}.csv"
    sizes = ["--n", "30", "--v", "6", "--k", "3", "--q", "2", "--seeds", "1", "--restarts", "1"]
    assert _experiments().main(argv + sizes + ["--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) == 1 + (3 if argv[0] == "robustness" else 1)
