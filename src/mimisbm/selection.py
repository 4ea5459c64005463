"""Model selection over a (K, Q) grid.

Four criteria are computed per cell, all on the natural-log scale:

ilvb             the bound itself, taken at the fitted state.
icl_exact        integrated completed likelihood of the hardened (MAP)
                 partitions: the conjugate normalizer ratios with counts
                 taken from one-hot assignments, no entropy terms.
icl_variational  the same normalizer ratios at the soft counts, i.e. the
                 bound with its responsibility entropies removed.
icl_approx       the bound minus the asymptotic penalty pen(K, Q).

The grid driver refits every cell from scratch; nothing is warm-started
across cells, so a cell's result depends only on (data, K, Q, seed). The
one thing cells share is the spectral basis of the graph's layers, which
depends on the data alone. A cell is scored from its fit's final bound; only
icl_exact evaluates a bound of its own, at the hardened state.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import log
from operator import attrgetter
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .core import (
    DomainError,
    FitConfig,
    HardPartition,
    MultilayerGraph,
    PriorHyperparams,
    VariationalState,
)
from .inference import _xlogx, compute_elbo, fit, m_step, spectral_basis, sufficient_stats

__all__ = [
    "pen",
    "icl_exact",
    "icl_variational",
    "icl_approx",
    "GridCell",
    "SelectionResult",
    "grid_search",
    "CRITERIA",
]

CRITERIA = ("ilvb", "icl_exact", "icl_variational", "icl_approx")


def pen(k: int, q: int, n: int, v: int) -> float:
    """Asymptotic model-complexity penalty.

    pen = 1/2 K(K+1)/2 Q log(V N(N-1)/2) + (K-1)/2 log N + (Q-1)/2 log V.
    """
    if k < 1 or q < 1 or n < 2 or v < 1:
        raise DomainError("need k, q >= 1, n >= 2, v >= 1")
    cells = v * (n * (n - 1) // 2)
    return 0.5 * (k * (k + 1) / 2) * q * log(cells) + 0.5 * (k - 1) * log(n) + 0.5 * (q - 1) * log(v)


def _hardened_state(g: MultilayerGraph, z: HardPartition, w: HardPartition, priors: PriorHyperparams) -> VariationalState:
    tau, nu = z.one_hot(), w.one_hot()
    return VariationalState(tau, nu, *m_step(sufficient_stats(g, tau), nu, priors))


def icl_exact(
    g: MultilayerGraph,
    z: HardPartition,
    w: HardPartition,
    priors: Optional[PriorHyperparams] = None,
) -> float:
    """Exact integrated completed likelihood of hard partitions.

    With one-hot assignments the responsibility entropies vanish, so the
    bound evaluated at the hardened state is exactly the sum of conjugate
    normalizer ratios; sharing that code path keeps the hard/soft criteria
    consistent to the last bit.
    """
    if z.n != g.n or w.n != g.v:
        raise DomainError("partition lengths must match the graph")
    if priors is None:
        priors = PriorHyperparams.jeffreys(z.k, w.k)
    elif priors.k != z.k or priors.q != w.k:
        raise DomainError("prior shapes must match the partitions")
    return compute_elbo(_hardened_state(g, z, w, priors), priors)


def icl_variational(elbo: float, state: VariationalState) -> float:
    """The normalizer-ratio part of the bound at soft counts: the bound
    `elbo`, taken at `state`, plus the (nonpositive) responsibility log
    masses sum tau log tau + sum nu log nu."""
    return elbo + _xlogx(state.tau) + _xlogx(state.nu)


def icl_approx(elbo: float, k: int, q: int, n: int, v: int) -> float:
    """Penalized bound: the given bound value minus pen(k, q) at size (n, v)."""
    return elbo - pen(k, q, n, v)


@dataclass(frozen=True)
class GridCell:
    """One (k, q) cell's outcome. A cell fails on a DomainError, LinAlgError
    or FloatingPointError; then `error` carries the message and every
    criterion is None, and failed cells never win the argmax. Any other
    exception propagates out of grid_search."""

    k: int
    q: int
    ilvb: Optional[float] = None
    icl_exact: Optional[float] = None
    icl_variational: Optional[float] = None
    icl_approx: Optional[float] = None
    converged: Optional[bool] = None
    iterations: Optional[int] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class SelectionResult:
    """All grid cells (sorted by (k, q)), the per-criterion winners, and the
    winner under the criterion the search was asked to optimize."""

    cells: Tuple[GridCell, ...]
    chosen: Dict[str, Tuple[int, int]]
    criterion: str
    best: Optional[Tuple[int, int]]


def _run_cell(args) -> GridCell:
    g, k, q, cfg, basis = args
    try:
        report = fit(g, k, q, cfg, basis=basis)
        bound = report.elbo_trace[-1]
        return GridCell(
            k=k,
            q=q,
            ilvb=bound,
            icl_exact=icl_exact(g, report.z_map, report.w_map),
            icl_variational=icl_variational(bound, report.state),
            icl_approx=icl_approx(bound, k, q, g.n, g.v),
            converged=report.converged,
            iterations=report.iterations,
        )
    except (DomainError, np.linalg.LinAlgError, FloatingPointError) as exc:
        # a domain or numerical failure is data, not a crash; anything else
        # is a bug and propagates
        return GridCell(k=k, q=q, error=f"{type(exc).__name__}: {exc}")


def grid_search(
    g: MultilayerGraph,
    k_values: Iterable[int],
    q_values: Iterable[int],
    cfg: FitConfig,
    criterion: str = "ilvb",
    jobs: int = 1,
) -> SelectionResult:
    """Fit every (k, q) in the product grid and rank the cells.

    Cells run independently, on min(jobs, cells) worker processes when that
    exceeds 1. Each cell derives its randomness from (cfg.seed, k, q), so
    the result is identical for any `jobs`. All four criteria are recorded
    for every cell and a winner is chosen per criterion by maximization,
    ties broken toward smaller k, then smaller q; `criterion` names the one
    reported as `best`.
    """
    ks = sorted(set(int(k) for k in k_values))
    qs = sorted(set(int(q) for q in q_values))
    if not ks or not qs:
        raise DomainError("k_values and q_values must be nonempty")
    if ks[0] < 1 or ks[-1] > g.n or qs[0] < 1 or qs[-1] > g.v:
        raise DomainError(
            f"grid values must lie in [1, {g.n}] x [1, {g.v}]"
        )
    if criterion not in CRITERIA:
        raise DomainError(f"criterion must be one of {CRITERIA}")
    if jobs < 1:
        raise DomainError("jobs must be >= 1")

    # the spectral basis depends on the graph alone: computed once here, every
    # cell (and worker process) slices it instead of eigendecomposing again
    basis = spectral_basis(g, ks[-1]) if cfg.init_strategy == "per_view_spectral" else None
    tasks = [(g, k, q, cfg, basis) for k in ks for q in qs]
    # a pool forks all its workers up front, so start no more than there are cells
    workers = min(jobs, len(tasks))
    if workers == 1:
        cells = [_run_cell(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell, tasks))
    cells.sort(key=lambda c: (c.k, c.q))

    chosen: Dict[str, Tuple[int, int]] = {}
    for crit in CRITERIA:
        scored = [c for c in cells if getattr(c, crit) is not None]
        if scored:
            # max keeps the first of equal values, i.e. the smallest (k, q)
            top = max(scored, key=attrgetter(crit))
            chosen[crit] = (top.k, top.q)
    return SelectionResult(
        cells=tuple(cells),
        chosen=chosen,
        criterion=criterion,
        best=chosen.get(criterion),
    )
