"""Workload definitions of the benchmark.

Every workload is a plain dict so it can travel to the child process as
JSON. The set-up draws planted dataset d from rng_stream(seed, tag, 0, d),
writes it as .mlg and reads it back; an op makes the user-facing call (the
solve) on the graph that was read, with the fit seed of op i drawn from
rng_stream(seed, tag, 1, i). A timed run solves each dataset
`fits_per_dataset` times. The whole run is a function of --seed.

Sizes are scaled so that a 36 s run holds enough ops for a median: see
README.md next to this file for why each workload exists and what it is
predicted to move.
"""

import copy

WORKLOADS = {
    "fit-dense-spectral": {
        "kind": "fit",
        "tag": 1,
        "sim": {"n": 200, "v": 15, "k": 5, "q": 3, "component_k": [5, 3, 2]},
        "k": 5,
        "q": 3,
        "restarts": 5,
        "init": "per_view_spectral",
        "fits_per_dataset": 2,
    },
    "fit-sparse-random": {
        "kind": "fit",
        "tag": 2,
        "sim": {"n": 300, "v": 20, "k": 5, "q": 3, "p_in": 0.3, "p_out": 0.01, "component_k": [5, 3, 2]},
        "k": 5,
        "q": 3,
        "restarts": 5,
        "init": "random",
        "fits_per_dataset": 2,
    },
    "select-grid": {
        "kind": "grid",
        "tag": 3,
        "sim": {"n": 100, "v": 12, "k": 5, "q": 3, "component_k": [5, 3, 2]},
        "k_range": [2, 8],
        "q_range": [1, 5],
        "restarts": 1,
        "init": "per_view_spectral",
        "fits_per_dataset": 1,
    },
}


def tiny(spec):
    """A copy of `spec` small enough to run every code path in a second."""
    out = copy.deepcopy(spec)
    out["sim"]["n"] = 30
    out["sim"]["v"] = min(out["sim"]["v"], 6)
    if out["kind"] == "grid":
        out["k_range"] = [4, 5]
        out["q_range"] = [2, 3]
        out["restarts"] = 1
    else:
        out["restarts"] = 1
    return out
