"""Command line interface.

Subcommands: simulate, fit, select, eval. Every command writes its files
under a single --out directory. The seed is taken from --seed, else from
the MIMISBM_SEED environment variable, else 0. Exit codes: 0 on success,
1 on runtime or I/O failures (unreadable or malformed files, a graph too
large to allocate), 2 on usage and validation failures (bad flags,
out-of-range dimensions, mismatched partition lengths).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .core import FitConfig, rng_stream
from .generator import SimulationConfig, generate_dataset
from .inference import fit as run_fit
from .io import (
    ParseError,
    _truth_payload,
    read_mlg,
    read_partition,
    write_mlg,
    write_partition,
    write_report,
)
from .metrics import ari
from .selection import CRITERIA, grid_search

_ENV_SEED = "MIMISBM_SEED"

_CRITERION_CHOICES = {
    "ilvb": "ilvb",
    "icl-exact": "icl_exact",
    "icl-var": "icl_variational",
    "icl-approx": "icl_approx",
}


def _parse_range(text: str) -> range:
    """Inclusive integer range: '2..8' -> range(2, 9); a bare '4' means 4..4."""
    lo, sep, hi = text.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if sep else lo_i
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'LO..HI' or a single integer, got {text!r}") from None
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo_i, hi_i + 1)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get(_ENV_SEED)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{_ENV_SEED} must be an integer, got {env!r}") from None


_INIT_CHOICES = {"random": "random", "spectral": "per_view_spectral"}


def _add_fit_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=1e-6, help="bound-change stopping threshold")
    p.add_argument("--max-iter", type=int, default=200, help="outer iteration cap")
    p.add_argument("--restarts", type=int, default=5, help="independent restarts")
    p.add_argument("--init", choices=tuple(_INIT_CHOICES), default="random",
                   help="initialization: random responsibilities or per-view spectral clustering")
    p.add_argument("--symmetrize", action="store_true", help="repair reversed edges when reading")


def _fit_config(args: argparse.Namespace, seed: int) -> FitConfig:
    return FitConfig(
        eps=args.eps,
        max_iter=args.max_iter,
        n_restarts=args.restarts,
        seed=seed,
        init_strategy=_INIT_CHOICES[args.init],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mimisbm", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="sample a dataset with planted structure")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--v", type=int, required=True)
    p_sim.add_argument("--k", type=int, required=True)
    p_sim.add_argument("--q", type=int, required=True)
    p_sim.add_argument("--p-in", type=float, default=0.99)
    p_sim.add_argument("--p-out", type=float, default=0.01)
    p_sim.add_argument("--switch", type=float, default=0.0)
    p_sim.add_argument("--component-k", type=_parse_int_list, default=None,
                       help="fix per-component block counts, e.g. 5,3,2")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="fit at fixed (k, q)")
    p_fit.add_argument("--graph", required=True)
    p_fit.add_argument("--k", type=int, required=True)
    p_fit.add_argument("--q", type=int, required=True)
    _add_fit_options(p_fit)
    p_fit.add_argument("--seed", type=int, default=None)
    p_fit.add_argument("--out", required=True)

    p_sel = sub.add_parser("select", help="grid search over (k, q)")
    p_sel.add_argument("--graph", required=True)
    p_sel.add_argument("--k-range", type=_parse_range, required=True, help="inclusive, e.g. 2..8")
    p_sel.add_argument("--q-range", type=_parse_range, required=True, help="inclusive, e.g. 1..5")
    p_sel.add_argument("--criterion", choices=tuple(_CRITERION_CHOICES) + ("all",), default="all",
                       help="which criterion's winner to report; 'all' prints every one")
    _add_fit_options(p_sel)
    p_sel.add_argument("--jobs", type=int, default=1,
                       help="worker processes, min(jobs, K values): each runs one K's cells in lockstep")
    p_sel.add_argument("--seed", type=int, default=None)
    p_sel.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="adjusted Rand index between two partition files")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--out", required=True)

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    cfg = SimulationConfig(
        n=args.n,
        v=args.v,
        k=args.k,
        q=args.q,
        p_in=args.p_in,
        p_out=args.p_out,
        p_switch=args.switch,
        component_k=args.component_k,
    )
    g, truth = generate_dataset(cfg, rng_stream(seed))
    os.makedirs(args.out, exist_ok=True)
    write_mlg(os.path.join(args.out, "graph.mlg"), g)
    write_partition(os.path.join(args.out, "z_true.part"), truth.z)
    write_partition(os.path.join(args.out, "w_true.part"), truth.w)
    write_report(os.path.join(args.out, "truth.json"), _truth_payload(cfg, truth, seed))
    print(f"simulate: wrote n={g.n} v={g.v} dataset to {args.out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    g = read_mlg(args.graph, symmetrize=args.symmetrize)
    report = run_fit(g, args.k, args.q, _fit_config(args, seed))
    os.makedirs(args.out, exist_ok=True)
    write_report(os.path.join(args.out, "fit.json"), report)
    write_partition(os.path.join(args.out, "z_map.part"), report.z_map)
    write_partition(os.path.join(args.out, "w_map.part"), report.w_map)
    print(
        f"fit: k={args.k} q={args.q} elbo={report.elbo_trace[-1]!r} "
        f"iterations={report.iterations} converged={report.converged}"
    )
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    g = read_mlg(args.graph, symmetrize=args.symmetrize)
    wanted = _CRITERION_CHOICES.get(args.criterion, "ilvb")
    result = grid_search(
        g, args.k_range, args.q_range, _fit_config(args, seed),
        criterion=wanted, jobs=args.jobs,
    )
    os.makedirs(args.out, exist_ok=True)
    write_report(os.path.join(args.out, "select.json"), result)
    csv_path = os.path.join(args.out, "select.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("k,q," + ",".join(CRITERIA) + ",converged\n")
        for c in result.cells:
            vals = [("" if getattr(c, crit) is None else repr(getattr(c, crit))) for crit in CRITERIA]
            conv = "" if c.converged is None else str(c.converged).lower()
            handle.write(f"{c.k},{c.q}," + ",".join(vals) + f",{conv}\n")
    shown = CRITERIA if args.criterion == "all" else (wanted,)
    for crit in shown:
        if crit in result.chosen:
            k, q = result.chosen[crit]
            print(f"select: {crit} -> k={k} q={q}")
        else:
            print(f"select: {crit} -> no successful cell")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    pred = read_partition(args.pred)
    truth = read_partition(args.truth)
    score = ari(pred, truth)
    os.makedirs(args.out, exist_ok=True)
    write_report(os.path.join(args.out, "eval.json"), {"kind": "eval", "ari": score})
    print(f"eval: ari={score!r}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "select": _cmd_select,
    "eval": _cmd_eval,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))  # exits 2
    except (ParseError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # DomainError, SelfLoopError, LinkMapError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
