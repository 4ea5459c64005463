"""Golden outputs: two fits and one grid on planted datasets at fixed seeds,
checked against the committed table golden.json next to this file.

The table holds partitions and grid picks exactly and bounds to a relative
1e-10, so it survives a BLAS change but not a change of behaviour. Every
case recovers its planted partitions (ARI 1 in z and w), and every grid pick
is the planted (K, Q) by a margin of more than a nat, so no pick sits on a
tie. A change that moves outputs on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and logs the update in CHANGES.md.
"""

import json
import warnings
from pathlib import Path

import pytest

from mimisbm import FitConfig, SimulationConfig, fit, generate_dataset, grid_search, rng_stream

TABLE = Path(__file__).with_name("golden.json")

_K3 = dict(n=60, v=8, k=3, q=2, p_in=0.8, p_out=0.1, component_k=(3, 2))
_K4 = dict(n=80, v=10, k=4, q=3, p_in=0.8, p_out=0.1, component_k=(4, 3, 2))

# name -> (simulation settings, dataset seed, fit settings, (k, q) of a fit
# or the (K, Q) ranges of a grid)
CASES = {
    "fit-random": (_K4, 3, dict(seed=3, n_restarts=3, init_strategy="random"), (4, 3)),
    "fit-spectral": (_K4, 4, dict(seed=4, n_restarts=3, init_strategy="per_view_spectral"), (4, 3)),
    "grid-spectral": (
        _K3, 2, dict(seed=2, n_restarts=1, init_strategy="per_view_spectral"), (range(2, 5), range(1, 4))
    ),
}


def outputs() -> dict:
    """Each case's outputs as the table stores them: a fit's MAP labels,
    final bound and restart bounds; a grid's picks and each cell's ilvb and
    icl_exact."""
    out = {}
    for name, (sim, data_seed, fit_cfg, (k, q)) in CASES.items():
        g, _ = generate_dataset(SimulationConfig(**sim), rng_stream(data_seed))
        cfg = FitConfig(**fit_cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # every case converges
            if name.startswith("fit"):
                rep = fit(g, k, q, cfg)
                out[name] = {
                    "z": rep.z_map.labels.tolist(),
                    "w": rep.w_map.labels.tolist(),
                    "bound": rep.elbo_trace[-1],
                    "restart_bounds": list(rep.restart_elbos),
                }
            else:
                res = grid_search(g, k, q, cfg)
                out[name] = {
                    "chosen": {crit: list(cell) for crit, cell in sorted(res.chosen.items())},
                    "cells": [[c.k, c.q, c.ilvb, c.icl_exact] for c in res.cells],
                }
    return out


def test_golden_outputs_match_the_table():
    want = json.loads(TABLE.read_text())
    got = outputs()
    assert sorted(got) == sorted(want)
    for name, case in want.items():
        have = got[name]
        if "chosen" in case:
            assert have["chosen"] == case["chosen"], name
            assert [c[:2] for c in have["cells"]] == [c[:2] for c in case["cells"]], name
            for cell, ref in zip(have["cells"], case["cells"]):
                assert cell[2:] == pytest.approx(ref[2:], rel=1e-10, abs=0.0), (name, ref[:2])
        else:
            assert have["z"] == case["z"] and have["w"] == case["w"], name
            assert have["bound"] == pytest.approx(case["bound"], rel=1e-10, abs=0.0), name
            assert have["restart_bounds"] == pytest.approx(case["restart_bounds"], rel=1e-10, abs=0.0), name


if __name__ == "__main__":
    # one case per line
    TABLE.write_text("{\n" + ",\n".join(f" {json.dumps(n)}: {json.dumps(c)}" for n, c in outputs().items()) + "\n}\n")
