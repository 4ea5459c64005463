"""Variational Bayes EM for the mixture of multilayer block models.

The variational family is fully factorized: one categorical per node (tau),
one categorical per layer (nu), Dirichlet posteriors over the block and
component weights (beta, theta) and a Beta posterior per connectivity cell
(eta, xi). Every update below is an exact coordinate maximization of the
evidence lower bound, so the bound never decreases along the outer loop;
that property is load bearing and the test suite enforces it.

Update order per outer iteration: node sweep(s), layer update, closed-form
M-step, bound evaluation. A fit builds the graph's float layer stack once;
the node sweep reads it, and the layer update and the M-step see the graph
only through sufficient_stats, computed from it once per iteration on the
new node responsibilities. Each iteration builds one VariationalState. The
bound uses the simplified form that is exact right after an M-step, which is
the only place the loop evaluates it. One M-step runs before the first iteration
so the initial responsibilities are absorbed into the conjugate posteriors;
without it the first node sweep would start from flat priors and erase the
initialization. A fit's restarts iterate in lockstep: one node sweep call
per round serves every restart still iterating, and gives each the result
it would get alone.

Spectral init clusters every layer's embedding with k-means in one batch
per init, then the layers and the nodes: _kmeans draws all the k-means++
seeds of its problems first, in the order solving them one after another
would, and runs the seedings and the Lloyd passes on stacked arrays, so the
labels and the stream's end are those of the one-at-a-time loop.

Numerics: updates work on logits and are normalized by max-subtracted
softmax; responsibility rows are floored at 1e-12 (1e-10 at init) and
renormalized, so no log ever sees a zero during a fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    DomainError,
    FitConfig,
    HardPartition,
    MultilayerGraph,
    PriorHyperparams,
    VariationalState,
    _normalizer_log_gammas,
    rng_stream,
)
from .mathfn import digamma, log_gamma
from .metrics import map_assign

__all__ = [
    "ConvergenceWarning",
    "FitReport",
    "spectral_basis",
    "init_variational",
    "sufficient_stats",
    "vbe_update_tau",
    "vbe_update_nu",
    "m_step",
    "compute_elbo",
    "fit",
]

_UPDATE_FLOOR = 1e-12
_INIT_FLOOR = 1e-10
_REL_EPS = 1e-9
_SOFT_MIX = 0.9  # weight on the hard assignment when softening spectral labels

# (m, pair, t) as returned by sufficient_stats
Stats = Tuple[np.ndarray, np.ndarray, np.ndarray]


class ConvergenceWarning(UserWarning):
    """Raised as a warning, never an error, when max_iter is exhausted."""


@dataclass(frozen=True)
class FitReport:
    """Outcome of a fit: the winning restart's state and bookkeeping.

    elbo_trace holds one bound value per outer iteration of the winning
    restart. iterations == len(elbo_trace). restart_elbos holds each
    restart's final bound; best_restart is the argmax, ties toward the
    lower index.
    """

    state: VariationalState
    elbo_trace: Tuple[float, ...]
    converged: bool
    iterations: int
    best_restart: int
    z_map: HardPartition
    w_map: HardPartition
    restart_elbos: Tuple[float, ...]


# ---------------------------------------------------------------------------
# helpers


def _floor_rows(rows: np.ndarray, floor: float) -> np.ndarray:
    out = np.maximum(rows, floor)
    return out / out.sum(axis=1, keepdims=True)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _xlogx(a: np.ndarray) -> float:
    safe = np.where(a > 0.0, a, 1.0)
    return float(np.sum(a * np.log(safe)))


def _log_moments(state: VariationalState, conc: np.ndarray):
    """The Beta log-moments per cell, E[log alpha] - E[log(1 - alpha)] and
    E[log(1 - alpha)], and the Dirichlet log-moments psi(conc) -
    psi(sum conc) of the concentrations `conc` (state.beta or state.theta),
    from one digamma call on all their arguments."""
    eta, xi = state.eta.ravel(), state.xi.ravel()
    c = eta.size
    psi = digamma(np.concatenate([eta, xi, eta + xi, conc, [conc.sum()]]))
    d = (psi[:c] - psi[c : 2 * c]).reshape(state.eta.shape)
    e = (psi[c : 2 * c] - psi[2 * c : 3 * c]).reshape(state.eta.shape)
    return d, e, psi[3 * c : -1] - psi[-1]


# ---------------------------------------------------------------------------
# initialization


# (run, point, column) entries of one stacked seeding or Lloyd batch: bounds
# the batch's temporaries, a few arrays of this many float64 or int64
_BATCH_ENTRIES = 1 << 14


def _sq_dists(x: np.ndarray, x2: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances point-to-center of each run via the expanded product
    form, for runs stacked on the first axis: x (R, N, d) the points, x2
    (R, N) their squared norms, centers (R, c, d); returns (R, N, c)."""
    prod = np.matmul(x, centers.transpose(0, 2, 1))
    prod *= 2.0
    d = x2[:, :, None] + (centers * centers).sum(axis=2)[:, None, :]
    d -= prod
    return np.maximum(d, 0.0, out=d)


def _seed_draws(n: int, k: int, stops: np.ndarray, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """The draws of k-means++ seedings on n points, one run per entry of
    `stops`, in run order: the first center's index, then one uniform per
    step before the run's stop and one index per step from it on (the draw
    taken once every point sits on a center). Returns (picks (R, k): the
    drawn indices, column 0 and columns >= stop; u (R, k - 1): the
    uniforms)."""
    picks = np.zeros((stops.size, k), dtype=np.int64)
    u = np.zeros((stops.size, k - 1))
    for run, stop in enumerate(stops):
        picks[run, 0] = rng.integers(n)
        u[run, : stop - 1] = rng.random(stop - 1)
        for c in range(stop, k):
            picks[run, c] = rng.integers(n)
    return picks, u


def _seed(x, owner, picks, u, stops):
    """k-means++ centers of runs on the points x[owner] (R, N, d), from the
    draws of _seed_draws. Step c picks its center by the uniform, in
    proportion to each point's squared distance to its nearest center, when
    c < stop, and takes the drawn index otherwise. Returns (centers (R, k,
    d), wrong, zero): wrong is each run's first step whose draw was of the
    other kind than the one its sampling total calls for (k when none), and
    zero says whether that total was 0."""
    xa = x[owner]
    rows = np.arange(owner.size)
    k = picks.shape[1]
    by_index = np.arange(k) >= stops[:, None]
    centers = np.empty((owner.size, k, x.shape[2]))
    centers[:, 0] = xa[rows, picks[:, 0]]
    diff = np.empty_like(xa)  # the squares of x - center, in place

    def sq_to(center):
        np.square(np.subtract(xa, center, out=diff), out=diff)
        return diff.sum(axis=2)

    d2 = sq_to(centers[:, :1])
    totals = np.empty((owner.size, k - 1))
    for c in range(1, k):
        total = d2.sum(axis=1, out=totals[:, c - 1])
        # the count of cumulative sums below the target is searchsorted's index
        sampled = (np.cumsum(d2, axis=1) < (u[:, c - 1] * total)[:, None]).sum(axis=1)
        centers[:, c] = xa[rows, np.where(by_index[:, c], picks[:, c], sampled)]
        d2 = np.minimum(d2, sq_to(centers[:, c : c + 1]))
    zeros = totals <= 0
    bad = zeros != by_index[:, 1:]
    wrong = np.where(bad.any(axis=1), bad.argmax(axis=1) + 1, k)
    return centers, wrong, zeros[rows, np.minimum(wrong, k - 1) - 1]


def _lloyd(x, x2, owner, centers, max_iter):
    """Lloyd passes of runs on the points x[owner] with squared norms
    x2[owner], from the seeds `centers` (R, k, d), which are updated in
    place. Returns each run's labels (R, N) and inertia (R,).

    Every pass makes one distance evaluation for all runs still passing and
    for the runs whose last pass is done, which need only their inertia.
    A run stops when a pass leaves its labels as they were (the update
    would only recompute its labelled centers from the same rows), after a
    first pass that keeps the all-zero start labels, or at max_iter passes.
    A pass draws nothing, and a run's state after its first pass is fixed
    by its labels and the point that reseeds its empty clusters, so a
    state seen before recurs with its period and the run needs only the
    passes that lead to the state of pass max_iter; states are recorded
    for the runs with an empty cluster (k above the number of distinct
    points keeps them empty and unsettled), which changes only how many
    passes an unrecorded cycle takes, not where it ends.
    """
    r, k, dim = centers.shape
    n = x.shape[1]
    cols, points = np.arange(dim), np.arange(n)
    labels = np.zeros((r, n), dtype=np.int64)
    inertia = np.empty(r)
    stop = np.full(r, max_iter)
    seen = {}  # run -> {(labels, far): the pass that reached them}
    run = np.arange(r)
    passes = 0
    while run.size:
        own = owner[run]
        xa = x[own]
        dist = _sq_dists(xa, x2[own], centers[run])
        new = dist.argmin(axis=2)
        old = labels[run]
        same = (new == old).all(axis=1)
        end = stop[run] <= passes
        if passes > 0:
            end |= same
        some = end.any()
        if some:
            ended = np.flatnonzero(end)
            inertia[run[ended]] = dist[ended[:, None], points, old[ended]].sum(axis=1)
            for a in run[ended] if seen else ():
                seen.pop(a, None)
            if ended.size == run.size:
                break
        # every center sum is one bincount over (run, label, column) bins; it
        # adds a cluster's rows in index order, as numpy's mean over axis 0
        # does for two or more columns (one column it sums pairwise, so such
        # a center may differ in its last bit from the mean). The runs that
        # end here are updated too, and dropped after, which copies nothing.
        bins = new + k * np.arange(run.size)[:, None]
        counts = np.bincount(bins.ravel(), minlength=run.size * k).reshape(run.size, k)
        empty = counts == 0
        far = None
        if empty.any():
            far = np.full(run.size, -1)
            holed = empty.any(axis=1)
            far[holed] = dist[holed].min(axis=2).argmax(axis=1)
        del dist
        bins *= dim
        sums = np.bincount((bins[:, :, None] + cols).ravel(), weights=xa.ravel(), minlength=run.size * k * dim)
        moved = sums.reshape(run.size, k, dim) / np.maximum(counts, 1)[:, :, None]
        if far is not None:
            at, cl = np.nonzero(empty)
            moved[at, cl] = xa[at, far[at]]
        if some:
            keep = ~end
            run, new, moved, same = run[keep], new[keep], moved[keep], same[keep]
            far = None if far is None else far[keep]
        centers[run] = moved
        labels[run] = new
        passes += 1
        if passes == 1:
            stop[run[same]] = 1  # the first pass left the all-zero labels
        for j in () if far is None else np.flatnonzero(far >= 0):
            a = run[j]
            if stop[a] == max_iter:
                states = seen.setdefault(a, {})
                key = (new[j].tobytes(), int(far[j]))
                if key in states:
                    stop[a] = passes + (max_iter - passes) % (passes - states[key])
                else:
                    states[key] = passes
    return labels, inertia


def _kmeans(
    xs: Sequence[np.ndarray], ks: Sequence[int], rng: np.random.Generator, n_init: int = 4, max_iter: int = 100
) -> List[np.ndarray]:
    """Plain Lloyd k-means with k-means++ seeding of every problem p, the rows
    of xs[p] into ks[p] clusters, as one batch; returns each problem's
    labels. Written out so results are bit-reproducible under any thread or
    worker count, and each problem gets the labels, and the stream ends
    where, solving the problems one after another would give and leave it.

    Draw order: problem, then init; an init draws its first center's index,
    then one uniform per further center. The Lloyd passes draw nothing, so
    every seeding's draws are made first and the seedings and passes of all
    problems run stacked: problems of one cluster count and shape form a
    group, cut into batches of at most _BATCH_ENTRIES entries, and each
    batch makes one distance evaluation per pass. A problem takes the
    labels of its init of lowest inertia, ties to the earlier init. k >= n gives every
    point its own cluster and draws nothing; k = 1 makes only the seed
    draws.

    The guard: once every point sits on a center (fewer distinct rows than
    k) a seeding's sampling total is 0 and its later centers are drawn as
    indices instead. Each run carries the step from which it takes indices
    (k: never); after the stacked seeding, the first run in draw order
    whose totals disagree with its step gets the step they call for (and a
    zero total is assumed for the problem's later inits too), the stream is
    rewound and everything is drawn and seeded again. A run's draws up to
    its first disagreement are the sequential ones, so this ends, and it
    ends with every run's draws and centers those of the sequential
    seeding.
    """
    # k >= n: a cluster per point; k = 1: one cluster; else the best run's
    out = [np.arange(len(x)) % k if k >= len(x) else np.zeros(len(x), dtype=np.int64) for x, k in zip(xs, ks)]
    drawn = [p for p, (x, k) in enumerate(zip(xs, ks)) if k < len(x)]
    groups = {}  # (k, shape) -> its problems, in order
    for p in drawn:
        if ks[p] > 1:
            groups.setdefault((ks[p], xs[p].shape), []).append(p)
    stops = {p: np.full(n_init, ks[p]) for p in drawn}
    start = rng.bit_generator.state
    while True:
        draws = {p: _seed_draws(len(xs[p]), ks[p], stops[p], rng) for p in drawn}
        batches, wrong = [], []
        for (k, (n, dim)), members in groups.items():
            x = np.stack([xs[p] for p in members])
            x2 = (x * x).sum(axis=2)
            owner = np.repeat(np.arange(len(members)), n_init)
            picks = np.concatenate([draws[p][0] for p in members])
            u = np.concatenate([draws[p][1] for p in members])
            run_stops = np.concatenate([stops[p] for p in members])
            size = max(1, _BATCH_ENTRIES // (n * max(k, dim)))
            for lo in range(0, owner.size, size):
                part = slice(lo, lo + size)
                centers, bad, zero = _seed(x, owner[part], picks[part], u[part], run_stops[part])
                batches.append((x, x2, owner[part], centers, members))
                for j in np.flatnonzero(bad < k):
                    run = lo + j
                    wrong.append((drawn.index(members[owner[run]]), run % n_init, int(bad[j]), bool(zero[j])))
        if not wrong:
            break
        rng.bit_generator.state = start
        pos, init, step, zero = min(wrong)
        stop = stops[drawn[pos]]
        if zero:
            stop[init:] = step
        else:
            stop[init] = ks[drawn[pos]]

    best = {p: np.inf for members in groups.values() for p in members}  # lowest inertia so far
    for x, x2, owner, centers, members in batches:
        labels, inertia = _lloyd(x, x2, owner, centers, max_iter)
        for p, lab, val in zip((members[o] for o in owner), labels, inertia):
            if val < best[p]:
                best[p], out[p] = val, lab
    return out


def spectral_basis(g: MultilayerGraph, k_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-layer spectral basis for the per-view spectral init at any k <= k_max.

    Each layer's normalized adjacency D^-1/2 A D^-1/2 (isolated nodes get a
    zero row) is eigendecomposed once; only its m = min(k_max + 1, n)
    largest eigenpairs are kept, in the ascending order eigh returns them.
    Returns (vals, vecs) of shapes (V, m) and (V, N, m). The basis depends
    on the graph alone, so one basis serves every restart and every grid
    cell with k <= k_max, and keeps O(V N k_max) memory instead of O(V N^2).
    """
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    m = min(k_max + 1, g.n)
    vals = np.empty((g.v, m))
    vecs = np.empty((g.v, g.n, m))
    for lay in range(g.v):
        a = g.adj[:, :, lay].astype(float)
        deg = a.sum(axis=1)
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        w, u = np.linalg.eigh(inv_sqrt[:, None] * a * inv_sqrt[None, :])
        vals[lay] = w[-m:]
        vecs[lay] = u[:, -m:]
    return vals, vecs


def _check_basis(basis: Tuple[np.ndarray, np.ndarray], g: MultilayerGraph, k: int) -> None:
    vals, vecs = basis
    m = np.shape(vecs)[-1] if np.ndim(vecs) == 3 else 0
    if np.shape(vals) != (g.v, m) or np.shape(vecs) != (g.v, g.n, m) or not min(k + 1, g.n) <= m <= g.n:
        raise DomainError(
            f"spectral basis of shapes {np.shape(vals)}, {np.shape(vecs)} does not cover"
            f" k={k} on a graph with n={g.n}, v={g.v}"
        )


def _spectral_labels(vals: np.ndarray, vecs: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized spectral clustering of layers from their basis: vals (...,
    m) and vecs (..., N, m), one layer of spectral_basis or a stack of them;
    returns labels (..., N). All layers' k-means run as one _kmeans batch,
    in layer order.

    The group count is the layer's own effective one, chosen by the largest
    eigengap among the top k eigenvalues of the normalized adjacency (capped
    at k). Layers whose block structure is coarser than k then yield their
    true coarse co-membership instead of an arbitrary refinement, which is
    what makes co-membership features comparable across layers.
    """
    n, m = vecs.shape[-2:]
    top = vals.reshape(-1, m)[:, ::-1][:, : min(k + 1, n)]
    gaps = top[:, :-1] - top[:, 1:]
    counts = gaps.argmax(axis=1) + 1 if gaps.shape[1] else np.ones(top.shape[0], dtype=np.int64)
    vecs = vecs.reshape(-1, n, m)
    embs = [None] * counts.size
    for c in sorted(set(counts.tolist())):
        lays = np.flatnonzero(counts == c)
        emb = vecs[lays, :, -c:]
        norms = np.linalg.norm(emb, axis=2, keepdims=True)
        for lay, rows in zip(lays, emb / np.where(norms > 0, norms, 1.0)):
            embs[lay] = rows
    return np.stack(_kmeans(embs, counts.tolist(), rng)).reshape(vals.shape[:-1] + (n,))


def _comembership_embeddings(labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact low-dimensional stand-ins for the co-membership features of the
    layer partitions `labels` (V, N): the V flattened N x N matrices C_v with
    C_v[i, j] = [labels[v, i] == labels[v, j]], and the N rows of their mean.

    Let H be the N x C' one-hot matrix of the blocks of the distinct
    partitions and H = QR. Layer v with partition p maps to vec(R_p R_p^T) =
    vec(Q^T C_v Q), R_p being p's column block of R, and node i maps to row i
    of H D R^T / V = (mean_v C_v)[i] Q, D holding each partition's layer
    count. Both maps are linear and isometric on the span of the features, so
    distances, centroids and hence k-means are those of the dense features;
    <C_u, C_v> = ||H_u^T H_v||_F^2 is the contingency-table kernel. Memory is
    O(N C' + V C'^2) with C' <= V max_v(blocks of v) instead of O(V N^2).

    Labels are renamed by order of first appearance and equal partitions
    share one embedding, so equal partitions, and nodes with equal label
    tuples, get bit-equal rows: zero distances stay exact zeros, as in the
    dense features, which k-means++ seeding relies on.
    """
    v, n = labels.shape
    # (layer, label) keys in layer order; a key's rank by first appearance,
    # less the number of keys of the earlier layers, is its new label
    top = labels.max() + 1
    keys, first, inv = np.unique(labels + top * np.arange(v)[:, None], return_index=True, return_inverse=True)
    earlier = np.searchsorted(keys, keys // top * top)
    canon = (np.argsort(np.argsort(first)) - earlier)[inv].reshape(v, n)
    parts, which, mult = np.unique(canon, axis=0, return_inverse=True, return_counts=True)
    sizes = parts.max(axis=1) + 1
    starts = np.cumsum(sizes) - sizes
    cols = parts + starts[:, None]  # column of H holding each node's block, per partition
    h = np.zeros((n, int(sizes.sum())))
    h[np.arange(n), cols] = 1.0
    r = np.linalg.qr(h, mode="r")
    layer_rows = np.stack([(b @ b.T).ravel() for b in np.split(r, starts[1:], axis=1)])
    node_rows = np.zeros((n, r.shape[0]))
    for col, m in zip(cols, mult):
        node_rows += m * r.T[col]
    return layer_rows[which.ravel()], node_rows / v


def _soften(labels: np.ndarray, k: int) -> np.ndarray:
    out = np.full((labels.size, k), (1.0 - _SOFT_MIX) / k)
    out[np.arange(labels.size), labels] += _SOFT_MIX
    return out


def init_variational(
    g: MultilayerGraph,
    k: int,
    q: int,
    priors: PriorHyperparams,
    strategy: str = "random",
    rng: Optional[np.random.Generator] = None,
    basis: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> VariationalState:
    """Build a starting state: responsibilities by the chosen strategy, the
    conjugate posteriors set to the priors (the first M-step absorbs the
    responsibilities right after).

    random: rows drawn flat-Dirichlet. per_view_spectral: spectral labels
    per layer, layers grouped by k-means on their co-membership patterns,
    nodes by k-means on the mean co-membership matrix (both on the exact
    embeddings of _comembership_embeddings, no N x N matrix is formed);
    both softened to 0.9 on the assigned cluster plus 0.1 spread uniformly.
    The spectral labels come from `basis`, the output of
    spectral_basis(g, k_max) for some k_max >= k; when it is None it is
    computed here.
    """
    if k < 1 or q < 1:
        raise DomainError("k and q must be >= 1")
    if k > g.n or q > g.v:
        raise DomainError(
            f"k={k}, q={q} out of range for a graph with n={g.n}, v={g.v}"
        )
    if priors.k != k or priors.q != q:
        raise DomainError("prior shapes must match (k, q)")
    if basis is not None:
        _check_basis(basis, g, k)
    if rng is None:
        rng = rng_stream(0)

    if strategy == "random":
        tau = rng.dirichlet(np.ones(k), size=g.n)
        nu = rng.dirichlet(np.ones(q), size=g.v)
    elif strategy == "per_view_spectral":
        vals, vecs = spectral_basis(g, k) if basis is None else basis
        layer_rows, node_rows = _comembership_embeddings(_spectral_labels(vals, vecs, k, rng))
        w_labels = _kmeans([layer_rows], [q], rng)[0]
        z_labels = _kmeans([node_rows], [k], rng)[0]
        nu = _soften(w_labels, q)
        tau = _soften(z_labels, k)
    else:
        raise DomainError(f"unknown init strategy: {strategy!r}")

    tau = _floor_rows(tau, _INIT_FLOOR)
    nu = _floor_rows(nu, _INIT_FLOOR)
    return VariationalState(
        tau=tau,
        nu=nu,
        beta=priors.beta0,
        theta=priors.theta0,
        eta=priors.eta0,
        xi=priors.xi0,
    )


# ---------------------------------------------------------------------------
# updates


def sufficient_stats(a: np.ndarray, tau: np.ndarray) -> Stats:
    """The graph's sufficient statistics under node responsibilities tau.

    `a` is the graph's layer stack (MultilayerGraph.layer_stack, (V, N, N)).
    Returns (m, pair, t): the expected edge counts per block pair and layer,
    m[k, l, v] = sum_{i,j} A_ijv tau_ik tau_jl, symmetric in (k, l); the
    pair mass pair[k, l] = sum_{i != j} tau_ik tau_jl = t_k t_l -
    sum_i tau_ik tau_il; and the block sizes t = tau.sum(0). The layer
    update and the M-step see the graph only through these.
    """
    m = (tau.T @ (a @ tau)).transpose(1, 2, 0)
    m = (m + m.transpose(1, 0, 2)) / 2.0
    return (m, *_pair_mass(tau))


def _pair_mass(tau: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(pair, t) of sufficient_stats, which need only tau."""
    t = tau.sum(axis=0)
    gram = tau.T @ tau
    return np.outer(t, t) - (gram + gram.T) / 2.0, t


def vbe_update_tau(a: np.ndarray, states: Sequence[VariationalState]) -> List[np.ndarray]:
    """One full sweep of the node fixed point over the layer stack `a`
    (MultilayerGraph.layer_stack, (V, N, N)) for each state in `states`,
    which share N, V and K; returns the new tau of each, in order.

    Rows are updated in index order and each row sees the rows already
    updated in this sweep, which keeps the sweep a chain of exact
    coordinate ascents. Row i collects, over the other nodes j, layers v
    and components s,

        nu_vs tau_jl [ A_ijv (psi(eta_kls) - psi(xi_kls))
                       + psi(xi_kls) - psi(eta_kls + xi_kls) ]

    plus the Dirichlet term psi(beta_k) - psi(sum beta). Per state and
    sweep the weights form one matrix w: w[k, v K + l] = sum_s d[k, l, s]
    nu_vs for the edge term, K columns for the non-edge term (which needs
    only the column sums of nu) and the Dirichlet term. Row i's logits are
    w times the row's profile: a[:, i, :] @ tau (V x K), the column sums of
    tau less tau_i (kept as a running sum) and a 1. The states' rows are
    computed together, each product as a batch of same-shape 2-D products
    and each reduction along one state's row, so a state's result does not
    depend on which other states share the call.
    """
    v, n, _ = a.shape
    r, k = len(states), states[0].k
    vk = v * k
    weights = np.empty((r, k, vk + k + 1))
    for s, st in enumerate(states):
        d, e, weights[s, :, -1] = _log_moments(st, st.beta)
        weights[s, :, :vk] = (d @ st.nu.T).transpose(0, 2, 1).reshape(k, vk)
        weights[s, :, vk:-1] = e @ st.nu.sum(axis=0)

    tau = np.stack([st.tau for st in states])  # (R, N, K), updated in place
    colsum = tau.sum(axis=1)
    profile = np.empty((r, vk + k + 1, 1))
    profile[:, -1] = 1.0
    edge = profile[:, :vk, 0].reshape(r, v, k)
    rest = profile[:, vk:-1, 0]
    norm = np.empty((r, 1))
    floor = np.array(_UPDATE_FLOOR)
    # a few calls per row on K-wide rows: their overhead is the cost, so the
    # reductions call the ufuncs directly and the floor is an array
    rows = tau.transpose(1, 0, 2)  # rows[i] is row i of every state
    for a_i, row, logits in zip(a.transpose(1, 0, 2), rows, rows[..., None]):
        np.matmul(a_i, tau, out=edge)
        np.subtract(colsum, row, out=rest)
        np.matmul(weights, profile, out=logits)  # the logits, then the softmax in place
        np.maximum.reduce(row, axis=1, out=norm, keepdims=True)
        row -= norm
        np.exp(row, out=row)
        np.add.reduce(row, axis=1, out=norm, keepdims=True)
        row /= norm
        np.maximum(row, floor, out=row)
        np.add.reduce(row, axis=1, out=norm, keepdims=True)
        row /= norm
        np.add(rest, row, out=colsum)
    return list(tau)


def vbe_update_nu(stats: Stats, state: VariationalState) -> np.ndarray:
    """Update every layer's component responsibilities; returns the new nu.

    `stats` is sufficient_stats(a, tau) at the current node responsibilities;
    `state` supplies theta, eta and xi. Layer v scores component s by the
    expected log-likelihood of its dyads, sum over i < j of tau_ik tau_jl
    against the Beta log-moments. The ordered sums in stats visit every
    unordered (node pair, block pair) combination exactly twice, once per
    orientation, hence the single factor 1/2. Rows are mutually independent
    given tau.
    """
    m, pair, _ = stats
    d, e, base = _log_moments(state, state.theta)

    edge = np.einsum("klv,kls->vs", m, d)
    hole = np.einsum("kl,kls->s", pair, e)[None, :]
    logits = base[None, :] + 0.5 * (edge + hole)

    return _floor_rows(_softmax_rows(logits), _UPDATE_FLOOR)


def m_step(
    stats: Stats, nu: np.ndarray, priors: PriorHyperparams
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form update of the conjugate posteriors given (tau, nu), with
    tau entering through stats = sufficient_stats(a, tau).

    beta_k  = beta0_k + sum_i tau_ik
    theta_s = theta0_s + sum_v nu_vs
    eta[k, l, s] adds the expected edge count of block pair (k, l) in
    component s, xi the expected non-edge count; for k == l node pairs are
    counted once (i < j), hence the halved diagonal.
    """
    m, pair, t = stats
    beta = priors.beta0 + t
    theta = priors.theta0 + nu.sum(axis=0)

    edges = np.tensordot(m, nu, axes=([2], [0]))  # (K, K, Q)
    pairs = pair[:, :, None] * nu.sum(axis=0)[None, None, :]
    holes = pairs - edges

    idx = np.arange(t.size)
    edges[idx, idx, :] *= 0.5
    holes[idx, idx, :] *= 0.5

    eta = priors.eta0 + edges
    xi = priors.xi0 + holes
    return beta, theta, eta, xi


def compute_elbo(state: VariationalState, priors: PriorHyperparams) -> float:
    """Evidence lower bound in the simplified form that is exact after an
    M-step: prior-to-posterior normalizer ratios of the three conjugate
    families plus the responsibility entropies. The data enter only through
    the counts already absorbed into the posterior state, so the graph is
    not an argument. The prior's log-gamma values are fixed per fit and
    come from priors.log_gammas; the posterior's come from one call on all
    their arguments. The Beta cells are those with k <= l.
    """
    lg = _normalizer_log_gammas(log_gamma, state.beta, state.theta, state.eta, state.xi)
    lg_sums, lg_beta, lg_theta, lg_tot, lg_eta, lg_xi = lg
    lg_sums0, lg_beta0, lg_theta0, lg_tot0, lg_eta0, lg_xi0 = priors.log_gammas
    # log B(post) - log B(prior) per family, B the (multivariate) Beta function
    beta_term = float(lg_sums0[0] - lg_sums[0] + lg_beta.sum() - lg_beta0.sum())
    theta_term = float(lg_sums0[1] - lg_sums[1] + lg_theta.sum() - lg_theta0.sum())
    cell_term = float((lg_tot0 - lg_tot + lg_eta - lg_eta0 + lg_xi - lg_xi0).sum())
    return beta_term + theta_term + cell_term - _xlogx(state.tau) - _xlogx(state.nu)


# ---------------------------------------------------------------------------
# driver


def fit(
    g: MultilayerGraph,
    k: int,
    q: int,
    cfg: FitConfig,
    priors: Optional[PriorHyperparams] = None,
    basis: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> FitReport:
    """Fit the model at fixed (k, q) with restarts; return the best restart.

    Restart r draws its stream from rng_stream(cfg.seed, k, q, r), so a grid
    driver may schedule cells in any order or process count without changing
    any result. Restarts are ranked by final bound, ties toward the lower
    index. converged reflects the winning restart; when it ran into
    max_iter a ConvergenceWarning is emitted and the flag stays False.

    The restarts run in lockstep. Each draws its init and takes its
    absorbing M-step first; then each round sweeps the nodes of every
    restart still iterating in one vbe_update_tau call, and takes the
    statistics, layer update, M-step, bound and convergence test per
    restart. A restart leaves the batch when it converges or reaches
    max_iter. The sweep gives each state the result it would get alone, so
    every restart ends where it would if the restarts ran one after another.

    With spectral init every restart slices one spectral basis: `basis` when
    given (spectral_basis(g, k_max), k_max >= k, as a grid driver shares it
    across cells), else one computed here before the first restart.
    """
    if k < 1 or q < 1:
        raise DomainError("k and q must be >= 1")
    if k > g.n or q > g.v:
        raise DomainError(
            f"k={k}, q={q} out of range for a graph with n={g.n}, v={g.v}"
        )
    if priors is None:
        priors = PriorHyperparams.jeffreys(k, q)
    elif priors.k != k or priors.q != q:
        raise DomainError("prior shapes must match (k, q)")
    if basis is None and cfg.init_strategy == "per_view_spectral":
        basis = spectral_basis(g, k)
    a = g.layer_stack()

    states = []
    for r in range(cfg.n_restarts):
        state = init_variational(g, k, q, priors, cfg.init_strategy, rng_stream(cfg.seed, k, q, r), basis)
        stats = sufficient_stats(a, state.tau)
        states.append(VariationalState(state.tau, state.nu, *m_step(stats, state.nu, priors)))

    traces: list[list[float]] = [[] for _ in states]
    done = [False] * len(states)
    live = list(range(len(states)))
    for _ in range(cfg.max_iter):
        for r, tau in zip(live, vbe_update_tau(a, [states[r] for r in live])):
            stats = sufficient_stats(a, tau)
            nu = vbe_update_nu(stats, states[r])
            states[r] = VariationalState(tau, nu, *m_step(stats, nu, priors))
            trace = traces[r]
            trace.append(compute_elbo(states[r], priors))
            if len(trace) >= 2:
                delta = abs(trace[-1] - trace[-2])
                done[r] = delta < cfg.eps or delta < _REL_EPS * abs(trace[-2])
        live = [r for r in live if not done[r]]
        if not live:
            break

    restart_elbos = [trace[-1] for trace in traces]
    # max keeps the first of equal bounds, i.e. the lowest restart index
    best_restart = max(range(len(states)), key=restart_elbos.__getitem__)
    state, trace, converged = states[best_restart], tuple(traces[best_restart]), done[best_restart]
    if not converged:
        warnings.warn(
            f"fit(k={k}, q={q}) stopped at max_iter={cfg.max_iter} without meeting eps={cfg.eps}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return FitReport(
        state=state,
        elbo_trace=trace,
        converged=converged,
        iterations=len(trace),
        best_restart=best_restart,
        z_map=map_assign(state.tau),
        w_map=map_assign(state.nu),
        restart_elbos=tuple(restart_elbos),
    )
