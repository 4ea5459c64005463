"""Experiments on simulated data, one mode per subcommand.

recovery    per seed: draw a dataset, fit at the true (K, Q), and score both
            partitions against the planted truth with ARI; prints the medians.
selection   per seed: draw a dataset with known (K, Q), run the full grid, and
            record the winner under every criterion; prints how often each
            criterion recovered the truth.
robustness  per switch rate in {0, 1/(L-1), ..., 1} and seed: draw a dataset
            whose layers have a fraction of node labels reassigned to another
            block of the layer's component, fit at the true (K, Q), and score
            both partitions; prints the per-rate medians.

Each mode writes one CSV row per dataset.

Usage: python3 scripts/experiments.py recovery --seeds 20 --out recovery.csv
"""

import argparse
import csv
import sys

import numpy as np

from mimisbm import FitConfig, SimulationConfig, ari, fit, generate_dataset, grid_search, rng_stream
from mimisbm.selection import CRITERIA


def recovery(args):
    strategy = "per_view_spectral" if args.init == "spectral" else "random"
    rows = []
    for seed in range(args.seeds):
        cfg = SimulationConfig(n=args.n, v=args.v, k=args.k, q=args.q,
                               p_in=args.p_in, p_out=args.p_out)
        g, truth = generate_dataset(cfg, rng_stream(seed))
        rep = fit(g, args.k, args.q,
                  FitConfig(seed=seed, n_restarts=args.restarts, init_strategy=strategy))
        rows.append({
            "seed": seed,
            "ari_z": ari(rep.z_map, truth.z),
            "ari_w": ari(rep.w_map, truth.w),
            "elbo": max(rep.elbo_trace),
            "iterations": rep.iterations,
            "converged": rep.converged,
        })
        print(f"seed {seed}: ari_z={rows[-1]['ari_z']:.4f} ari_w={rows[-1]['ari_w']:.4f}")
    print(f"median ari_z={_median(rows, 'ari_z'):.4f} ari_w={_median(rows, 'ari_w'):.4f} ({args.seeds} seeds)")
    return rows


def selection(args):
    ck = tuple(int(p) for p in args.component_k.split(",")) if args.component_k else None
    rows = []
    for seed in range(args.seeds):
        cfg = SimulationConfig(n=args.n, v=args.v, k=args.k, q=args.q,
                               p_in=0.99, p_out=0.01, component_k=ck)
        g, _ = generate_dataset(cfg, rng_stream(2000 + seed))
        fc = FitConfig(seed=seed, n_restarts=args.restarts, init_strategy="per_view_spectral")
        res = grid_search(g, range(2, args.k_max + 1), range(1, args.q_max + 1),
                          fc, jobs=args.jobs)
        row = {"seed": seed}
        for crit in CRITERIA:
            row[f"{crit}_k"], row[f"{crit}_q"] = res.chosen[crit]
        rows.append(row)
        print(f"seed {seed}: " + " ".join(f"{c}={res.chosen[c]}" for c in CRITERIA))
    for crit in CRITERIA:
        hits = sum(1 for r in rows if (r[f"{crit}_k"], r[f"{crit}_q"]) == (args.k, args.q))
        print(f"{crit}: exact ({args.k},{args.q}) on {hits}/{args.seeds} seeds")
    return rows


def robustness(args):
    levels = [round(i / (args.levels - 1), 6) for i in range(args.levels)]
    rows = []
    for li, sw in enumerate(levels):
        level = []
        for seed in range(args.seeds):
            cfg = SimulationConfig(n=args.n, v=args.v, k=args.k, q=args.q,
                                   p_in=0.99, p_out=0.01, p_switch=sw)
            g, truth = generate_dataset(cfg, rng_stream(1000 + seed, li))
            rep = fit(g, args.k, args.q,
                      FitConfig(seed=seed, n_restarts=args.restarts,
                                init_strategy="per_view_spectral"))
            level.append({"switch": sw, "seed": seed,
                          "ari_z": ari(rep.z_map, truth.z),
                          "ari_w": ari(rep.w_map, truth.w)})
        rows += level
        print(f"switch {sw:.1f}: median ari_z={_median(level, 'ari_z'):.3f} ari_w={_median(level, 'ari_w'):.3f}")
    return rows


def _median(rows, key):
    return float(np.median([r[key] for r in rows]))


def _parser():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)

    def mode(run, n, v, seeds, restarts):
        p = sub.add_parser(run.__name__)
        p.set_defaults(run=run)
        p.add_argument("--n", type=int, default=n)
        p.add_argument("--v", type=int, default=v)
        p.add_argument("--k", type=int, default=5)
        p.add_argument("--q", type=int, default=3)
        p.add_argument("--seeds", type=int, default=seeds)
        p.add_argument("--restarts", type=int, default=restarts)
        p.add_argument("--out", default=f"{run.__name__}.csv")
        return p

    p = mode(recovery, n=200, v=15, seeds=20, restarts=5)
    p.add_argument("--p-in", type=float, default=0.99)
    p.add_argument("--p-out", type=float, default=0.01)
    p.add_argument("--init", choices=("random", "spectral"), default="spectral")

    p = mode(selection, n=100, v=12, seeds=20, restarts=3)
    p.add_argument("--component-k", default="5,3,2",
                   help="comma-separated local block counts, empty to sample")
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--q-max", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)

    p = mode(robustness, n=200, v=15, seeds=10, restarts=5)
    p.add_argument("--levels", type=int, default=11, help="switch rates 0, 1/(L-1), ..., 1")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    rows = args.run(args)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
