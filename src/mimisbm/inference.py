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
only through the sufficient statistics, computed from it once per iteration
on the new node responsibilities. Each iteration builds one
VariationalState. The bound uses the simplified form that is exact right
after an M-step, which is the only place the loop evaluates it. One M-step
runs before the first iteration so the initial responsibilities are
absorbed into the conjugate posteriors; without it the first node sweep
would start from flat priors and erase the initialization.

The driver, _fit_cells, runs the jobs (cell, restart) of one K in
lockstep: fit is its one-cell case, and fit given several Q values (as
grid_search calls it, once per K) runs every restart of every cell in the
same batch, since a sweep's states need to share only N, V and K. It draws
the inits in (q, r) order. The loop draws nothing after the init, so a
restart whose init (tau, nu) is bit-equal to an earlier restart's of its
cell is not run: it takes that restart's state, bound trace and
convergence flag, and its entry in restart_elbos is that restart's bound.
Spectral init renames its node and layer labels by first appearance, so
its state is a function of the node and layer k-means partitions, and
restarts that find the same partitions repeat. The absorbing M-steps take
their statistics from one pass over the layer stack (_stats_pass, once per
distinct init tau), and one log_gamma call gives the prior side of every
cell's bound, fixed for the fit. A round then does its shared work once
for all the live jobs: one digamma call gives every job's Beta and
Dirichlet log-moments, which its node sweep and its layer update share;
one vbe_update_tau call sweeps them all; one _stats_pass gives every job's
statistics; and one log_gamma call, once the round's states are built,
gives the posterior side of every bound. The layer update, M-step, bound
and convergence test stay per job, under its cell's priors; the public
updates and the bound take the precomputed values as an optional
argument. A job stops when it converges or reaches max_iter. The special
functions are elementwise and every batched product has a solo call's
shape and layout, so each job gets bit for bit what it gets alone, and
each cell ends where its restarts would run one after another.

The loop keeps no failure state: an exception anywhere in a batch (a
spectral start, an init, an update, state validation, a bound that is not
finite) ends it and leaves fit. The selection module's failure rule then
fits the cells of a failed batch one by one.

Spectral init starts from spectral_basis, each layer's top k_max + 1
eigenpairs of D^-1/2 A D^-1/2, computed once per graph. Above a size rule
(N >= 8 max(k_max + 3, 8)) one Chebyshev-filtered subspace iteration solves
all the layers, and a layer stops once its Ritz pairs certify every
eigengap count at k <= k_max. That is exact where the init reads: the
counts equal dense eigh's, and the pairs they select have residual norm <=
1e-10. The remaining bulk Ritz values may be off by up to ~1e-2 and only
fix the counts. Below the rule, and for a layer not certified within the
round budget, a dense eigh gives that layer its bits.

The init then labels each layer by column-pivoted QR rounding of its
embedding (_spectral_labels), which draws nothing, and groups the nodes,
then the layers, by k-means on the co-membership embeddings of those
labels. _fit_cells computes the labels and embeddings once per K
(_spectral_starts); restart r's node grouping draws from the stream
rng_stream(seed, k, r, -1), and every cell (k, q) groups the layers on its
own stream rng_stream(seed, k, q, r): the cells of one K and restart start
from the same node partition. An init consumes the start, never the basis;
fit checks a basis a caller hands it once, before the first init. A
k-means++ init draws one index and k - 1 uniforms whatever the data; a
step whose sampling total is 0 (every point already on a center) takes row
0. So _kmeans makes the draws of all its inits first and runs the inits
stacked, with the labels and stream end of running them one by one.

Numerics: updates work on logits and are normalized by max-subtracted
softmax; responsibility rows are floored at 1e-12 (1e-10 at init) and
renormalized, so no log ever sees a zero during a fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    DomainError,
    FitConfig,
    HardPartition,
    MultilayerGraph,
    PriorHyperparams,
    VariationalState,
    _as_index,
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
    restart's final bound, one entry per restart; a restart whose init
    repeats an earlier restart's is not run and its entry is that
    restart's bound. best_restart is the argmax, ties toward the lower
    index, so it is always the first restart of its init.
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


def _one_call(fn, args: list, width: int) -> list:
    """fn, an elementwise special function, on every 1-D argument of `args`
    from one call on their concatenation, cut back into one part per
    argument; returns the parts in groups of `width`, one group per state or
    side. An argument's part does not depend on the others of the call."""
    values = fn(np.concatenate(args))
    ends = np.cumsum([len(arg) for arg in args]).tolist()
    parts = [values[end - len(arg) : end] for arg, end in zip(args, ends)]
    return [parts[at : at + width] for at in range(0, len(parts), width)]


def _log_moments(states: Sequence[VariationalState]) -> list:
    """Per state, (d, e, beta_base, theta_base): the Beta log-moments per
    cell, E[log alpha] - E[log(1 - alpha)] and E[log(1 - alpha)], and the
    Dirichlet log-moments psi(conc) - psi(sum conc) of its beta and of its
    theta, from one digamma call on the arguments of all the states. The
    node sweep reads (d, e, beta_base), the layer update (d, e, theta_base)."""
    args = []
    for st in states:
        eta, xi = st.eta.ravel(), st.xi.ravel()
        args += [eta, xi, eta + xi, st.beta, [st.beta.sum()], st.theta, [st.theta.sum()]]
    return [
        ((eta - xi).reshape(st.eta.shape), (xi - tot).reshape(st.eta.shape), beta - beta_sum, theta - theta_sum)
        for st, (eta, xi, tot, beta, beta_sum, theta, theta_sum) in zip(states, _one_call(digamma, args, 7))
    ]


def _normalizer_log_gammas(sides) -> list:
    """The bound's normalizer log-gammas of each side (beta, theta, eta, xi)
    in `sides`, prior or posterior, from one log_gamma call on the arguments
    of all the sides: per side, log_gamma of (sum beta, sum theta), of beta,
    of theta, and of eta + xi, eta and xi over the k <= l cells (flattened
    in (k, l, s) order). The k <= l indices are made once per call for each
    block count among the sides."""
    args, upper = [], {}
    for beta, theta, eta, xi in sides:
        if beta.size not in upper:
            upper[beta.size] = np.triu_indices(beta.size)
        iu, ju = upper[beta.size]
        eta, xi = eta[iu, ju, :].ravel(), xi[iu, ju, :].ravel()
        args += [[beta.sum(), theta.sum()], beta, theta, eta + xi, eta, xi]
    return _one_call(log_gamma, args, 6)


# the two sides of _normalizer_log_gammas: a PriorHyperparams, a VariationalState
_prior_side = attrgetter("beta0", "theta0", "eta0", "xi0")
_posterior_side = attrgetter("beta", "theta", "eta", "xi")


# ---------------------------------------------------------------------------
# initialization


# (run, point, column) entries of one stacked seeding or Lloyd batch: bounds
# the batch's temporaries, a few arrays of this many float64 or int64
_BATCH_ENTRIES = 1 << 14


def _sq_dists(x: np.ndarray, x2: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances point-to-center of each run via the expanded product
    form: x (N, d) the points, x2 (N,) their squared norms, centers (R, c, d)
    one set per run; returns (R, N, c)."""
    prod = np.matmul(x, centers.transpose(0, 2, 1))
    prod *= 2.0
    d = x2[None, :, None] + (centers * centers).sum(axis=2)[:, None, :]
    d -= prod
    return np.maximum(d, 0.0, out=d)


def _seed(x, first, u):
    """k-means++ centers (R, k, d) of runs on the points x (N, d), from each
    run's draws: its first center's index first (R,) and one uniform per
    further center, u (R, k - 1). Step c takes the first point whose
    cumulative squared distance to its nearest center is at least u[:, c -
    1] times their total; a zero total (every point already on a center, so
    any row will do) takes row 0."""
    runs, k = u.shape[0], u.shape[1] + 1
    centers = np.empty((runs, k, x.shape[1]))
    centers[:, 0] = x[first]
    diff = np.empty((runs,) + x.shape)  # the squares of x - center, in place

    def sq_to(center):
        np.square(np.subtract(x, center, out=diff), out=diff)
        return diff.sum(axis=2)

    d2 = sq_to(centers[:, :1])
    for c in range(1, k):
        total = d2.sum(axis=1)
        # the count of cumulative sums below the target is searchsorted's index
        sampled = (np.cumsum(d2, axis=1) < (u[:, c - 1] * total)[:, None]).sum(axis=1)
        centers[:, c] = x[sampled]
        d2 = np.minimum(d2, sq_to(centers[:, c : c + 1]))
    return centers


def _lloyd(x, x2, centers, max_iter):
    """Lloyd passes of runs on the points x (N, d) with squared norms x2,
    from the seeds `centers` (R, k, d), which are updated in place. Returns
    each run's labels (R, N) and inertia (R,).

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
    n = x.shape[0]
    cols, points = np.arange(dim), np.arange(n)
    labels = np.zeros((r, n), dtype=np.int64)
    inertia = np.empty(r)
    stop = np.full(r, max_iter)
    seen = {}  # run -> {(labels, far): the pass that reached them}
    run = np.arange(r)
    passes = 0
    while run.size:
        dist = _sq_dists(x, x2, centers[run])
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
        weights = np.broadcast_to(x, (run.size, n, dim)).ravel()
        sums = np.bincount((bins[:, :, None] + cols).ravel(), weights=weights, minlength=run.size * k * dim)
        moved = sums.reshape(run.size, k, dim) / np.maximum(counts, 1)[:, :, None]
        if far is not None:
            at, cl = np.nonzero(empty)
            moved[at, cl] = x[far[at]]
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


def _kmeans(x: np.ndarray, k: int, rng: np.random.Generator, n_init: int = 4, max_iter: int = 100) -> np.ndarray:
    """Plain Lloyd k-means with k-means++ seeding of the rows of x into k
    clusters; returns the labels. Written out so results are
    bit-reproducible under any thread or worker count.

    Draw order: init by init, each its first center's index, then k - 1
    uniforms, whatever the data (a step whose sampling total is 0 takes row
    0). The Lloyd passes draw nothing, so every seeding's draws are made
    first and the inits run stacked, in batches of at most _BATCH_ENTRIES
    entries; each batch is seeded once and makes one distance evaluation per
    pass. The labels are those of the init of lowest inertia, ties to the
    earlier init. k >= n gives every point its own cluster and draws
    nothing; k = 1 makes only the seed draws.
    """
    n, dim = x.shape
    if k >= n:
        return np.arange(n) % k
    draws = [(rng.integers(n), rng.random(k - 1)) for _ in range(n_init)]
    first, u = np.array([index for index, _ in draws]), np.stack([rest for _, rest in draws])
    out = np.zeros(n, dtype=np.int64)
    if k == 1:
        return out
    x2 = (x * x).sum(axis=1)
    best = np.inf  # lowest inertia so far
    size = max(1, _BATCH_ENTRIES // (n * max(k, dim)))
    for lo in range(0, n_init, size):
        part = slice(lo, lo + size)
        labels, inertia = _lloyd(x, x2, _seed(x, first[part], u[part]), max_iter)
        for lab, val in zip(labels, inertia):
            if val < best:
                best, out = val, lab
    return out


def spectral_basis(g: MultilayerGraph, k_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-layer spectral basis for the per-view spectral init at any k <= k_max.

    Keeps the m = min(k_max + 1, n) largest eigenpairs of each layer's
    normalized adjacency S = D^-1/2 A D^-1/2 (isolated nodes get a zero
    row), in the ascending order eigh returns them. Returns (vals, vecs) of
    shapes (V, m) and (V, N, m). The basis depends on the graph alone, so
    one basis serves every restart and every grid cell with k <= k_max, and
    keeps O(V N k_max) memory.

    Size rule: when N >= 8 max(m + 2, 8), the block of m + 2 columns is at
    most an eighth of N and every layer is solved at once by
    _filtered_basis, a Chebyshev-filtered subspace iteration that makes no
    N x N eigh call. What it returns is exact where the spectral init reads
    it: every eigengap count at k <= k_max equals the dense one, and the
    pairs those counts select have residual norm <= 1e-10. The other Ritz
    values of the m, bulk values, may be off by up to ~1e-2; they only fix
    the counts. A layer the iteration does not certify within its round
    budget, and every layer below the rule (m = N among them), gets dense
    eigh's values and vectors bit for bit.
    """
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    m = min(k_max + 1, g.n)
    s = _normalized_stack(g)
    vals = np.empty((g.v, m))
    vecs = np.empty((g.v, g.n, m))
    rest = _filtered_basis(s, vals, vecs) if g.n >= 8 * max(m + 2, 8) else range(g.v)
    for at, lay in enumerate(rest):
        w, u = np.linalg.eigh(s[at])
        vals[lay] = w[-m:]
        vecs[lay] = u[:, -m:]
    return vals, vecs


def _normalized_stack(g: MultilayerGraph) -> np.ndarray:
    """Every layer's S = D^-1/2 A D^-1/2 as one C-contiguous (V, N, N)
    float stack, entry (i, j) computed as (inv_i A_ij) inv_j. C order
    matters: the batched products on a transposed layout are several times
    slower."""
    s = g.layer_stack()
    deg = s.sum(axis=2)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    s *= inv_sqrt[:, :, None]
    s *= inv_sqrt[:, None, :]
    return s


# the filtered subspace iteration of spectral_basis: a Ritz pair whose
# residual norm is at most _BASIS_TOL is exact enough to read
_BASIS_TOL = 1e-10
_FILTER_DEGREE = 8
_BASIS_ROUNDS = 12  # Rayleigh-Ritz steps before a layer falls back to eigh


def _filtered_basis(s: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The top m = vals.shape[1] eigenpairs of every layer of the stack s
    (V, N, N), spectrum in [-1, 1], by one batched Chebyshev-filtered
    subspace iteration (Zhou, Saad, Tiago and Chelikowsky, J. Comput. Phys.
    219, 2006). Writes each certified layer's Ritz values and vectors
    (ascending) into vals and vecs, and returns the layers it did not
    certify within _BASIS_ROUNDS, whose matrices it has moved, in order, to
    the front of s.

    Every layer starts from one fixed-seed Gaussian block of b = m + 2
    columns, so the result is a function of the graph. A round
    orthonormalizes the block, takes the b x b Rayleigh-Ritz step (one
    batched eigh) and the residual norms of the Ritz pairs, then applies
    the degree-8 Chebyshev polynomial that is bounded by 1 on [-1, low] and
    grows fast above it, low being the layer's lowest Ritz value. A layer is
    done when _certified says its Ritz pairs fix every eigengap count; it
    then leaves the batch, and the stack is compacted in place."""
    v, n, _ = s.shape
    m = vals.shape[1]
    x = np.broadcast_to(rng_stream(0).standard_normal((n, m + 2)), (v, n, m + 2))
    live = np.arange(v)
    for rnd in range(_BASIS_ROUNDS):
        q = np.linalg.qr(x)[0]
        sq = np.matmul(s[: live.size], q)
        theta, w = np.linalg.eigh(np.matmul(q.transpose(0, 2, 1), sq))
        x, sx = np.matmul(q, w), np.matmul(sq, w)
        res = np.linalg.norm(sx - x * theta[:, None, :], axis=1)
        done = _certified(theta[:, -m:], res[:, -m:])
        if done.any():
            vals[live[done]] = theta[done, -m:]
            vecs[live[done]] = x[done, :, -m:]
            keep = np.flatnonzero(~done)
            for at, old in enumerate(keep):  # at <= old: a forward copy loses nothing
                if at != old:
                    s[at] = s[old]
            live, x, sx, theta = live[keep], x[keep], sx[keep], theta[keep]
        if not live.size or rnd == _BASIS_ROUNDS - 1:
            break
        # T_d((S - c) / e) by its three-term recurrence, with [-1, low] mapped
        # onto [-1, 1]
        low = theta[:, :1, None]
        e, c = (low + 1.0) / 2.0, (low - 1.0) / 2.0
        prev, x = x, (sx - c * x) / e
        for _ in range(_FILTER_DEGREE - 1):
            prev, x = x, 2.0 * (np.matmul(s[: live.size], x) - c * x) / e - prev
    return live


def _certified(vals: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Per layer, whether its Ritz values vals (L, m), ascending, with
    residual norms res fix the eigengap count of _spectral_labels at every
    k < m. A Ritz value lies within its residual norm of an eigenvalue. At
    each k the widest of the top k gaps must beat every other one by more
    than the residual norms of the values that form the two gaps, and the
    pairs the counts select (the top count of them) must have residual <=
    _BASIS_TOL."""
    top, bound = vals[:, ::-1], res[:, ::-1]
    gaps = top[:, :-1] - top[:, 1:]
    err = bound[:, :-1] + bound[:, 1:]
    rows = np.arange(len(vals))
    ok = np.ones(len(vals), dtype=bool)
    read = np.ones(len(vals), dtype=np.int64)  # k = 1 reads one gap: its count is 1
    for k in range(2, vals.shape[1]):
        win = gaps[:, :k].argmax(axis=1)
        margin = (gaps[rows, win] - err[rows, win])[:, None] - (gaps[:, :k] + err[:, :k])
        margin[rows, win] = np.inf
        ok &= (margin > 0).all(axis=1)
        read = np.maximum(read, win + 1)
    selected = np.arange(vals.shape[1]) < read[:, None]
    return ok & ~(selected & (bound > _BASIS_TOL)).any(axis=1)


def _check_basis(basis: Tuple[np.ndarray, np.ndarray], g: MultilayerGraph, k: int) -> None:
    vals, vecs = basis
    m = np.shape(vecs)[-1] if np.ndim(vecs) == 3 else 0
    if np.shape(vals) != (g.v, m) or np.shape(vecs) != (g.v, g.n, m) or not min(k + 1, g.n) <= m <= g.n:
        raise DomainError(
            f"spectral basis of shapes {np.shape(vals)}, {np.shape(vecs)} does not cover"
            f" k={k} on a graph with n={g.n}, v={g.v}"
        )


def _spectral_labels(vals: np.ndarray, vecs: np.ndarray, k: int) -> np.ndarray:
    """Normalized spectral clustering of layers from their basis: vals (...,
    m) and vecs (..., N, m), one layer of spectral_basis or a stack of them;
    returns labels (..., N), a function of the basis and k (no draw).

    The group count c is the layer's own effective one, chosen by the
    largest eigengap among the top k eigenvalues of the normalized adjacency
    (capped at k). Layers whose block structure is coarser than k then yield
    their true coarse co-membership instead of an arbitrary refinement,
    which is what makes co-membership features comparable across layers.
    The top c eigenvectors, rows normalized, are rounded by column-pivoted
    QR (Damle, Minden and Ying, Information and Inference 8, 2019): c pivot
    rows by greedy pivoted Gram-Schmidt, each of largest residual norm (the
    first of equal ones; orthonormal eigenvectors keep it nonzero), the
    polar factor P of those rows, and node i takes the argmax of |row_i P^T|.
    """
    n, m = vecs.shape[-2:]
    top = vals.reshape(-1, m)[:, ::-1][:, : min(k + 1, n)]
    gaps = top[:, :-1] - top[:, 1:]
    counts = gaps.argmax(axis=1) + 1 if gaps.shape[1] else np.ones(top.shape[0], dtype=np.int64)
    labels = np.empty((counts.size, n), dtype=np.int64)
    for lay, (c, u) in enumerate(zip(counts.tolist(), vecs.reshape(-1, n, m))):
        emb = u[:, -c:]
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        emb = emb / np.where(norms > 0, norms, 1.0)
        res = emb.copy()  # each row less its projection on the pivots so far
        pivots = []
        for _ in range(c):
            sq = (res * res).sum(axis=1)
            p = int(sq.argmax())
            pivots.append(p)
            res -= np.outer(res @ res[p] / sq[p], res[p])
        w, _, vt = np.linalg.svd(emb[pivots])
        labels[lay] = np.abs(emb @ (w @ vt).T).argmax(axis=1)
    return labels.reshape(vals.shape[:-1] + (n,))


def _first_appearance(labels: np.ndarray) -> np.ndarray:
    """Each row of the labels (..., N) renamed 0, 1, ... in order of first
    appearance, so equal partitions get equal labels."""
    rows = labels.reshape(-1, labels.shape[-1])
    # (row, label) keys in row order; a key's rank by first appearance, less
    # the number of keys of the earlier rows, is its new label
    top = rows.max() + 1
    keys, first, inv = np.unique(rows + top * np.arange(len(rows))[:, None], return_index=True, return_inverse=True)
    earlier = np.searchsorted(keys, keys // top * top)
    return (np.argsort(np.argsort(first)) - earlier)[inv].reshape(labels.shape)


def _distinct_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(rows, axis=0, return_inverse=True, return_counts=True) for
    integer rows, without its sort through a structured dtype: the distinct
    rows in lexicographic order, each row's index among them, and their
    counts."""
    keys = [row.tobytes() for row in rows]
    first = dict(zip(keys, rows))
    order = sorted(first, key=lambda key: first[key].tolist())
    rank = {key: i for i, key in enumerate(order)}
    which = np.array([rank[key] for key in keys])
    return np.stack([first[key] for key in order]), which, np.bincount(which)


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
    parts, which, mult = _distinct_rows(_first_appearance(labels))
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
    return layer_rows[which], node_rows / v


def _soften(labels: np.ndarray, k: int) -> np.ndarray:
    out = np.full((labels.size, k), (1.0 - _SOFT_MIX) / k)
    out[np.arange(labels.size), labels] += _SOFT_MIX
    return out


def _spectral_starts(
    basis: Tuple[np.ndarray, np.ndarray], k: int, rngs: Sequence[np.random.Generator]
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The part of a per-view spectral init that does not depend on q, one
    start per generator in `rngs`: the spectral labels per layer from
    `basis` and their co-membership embeddings, computed once, then per
    generator the nodes grouped by k-means on the node rows. Returns each
    start (layer_rows, tau): the layers' embedding rows, which
    init_variational groups into q components, and the node
    responsibilities, renamed by first appearance and softened. Only the
    node k-means draws."""
    vals, vecs = basis
    layer_rows, node_rows = _comembership_embeddings(_spectral_labels(vals, vecs, k))
    return [(layer_rows, _soften(_first_appearance(_kmeans(node_rows, k, rng)), k)) for rng in rngs]


def _check_cell(g: MultilayerGraph, k: int, q: Union[int, List[int]], priors: Optional[PriorHyperparams]) -> None:
    """The checks init_variational and fit share, in this order: k, q >= 1;
    k <= N, q <= V; and `priors`, when given, one PriorHyperparams of shape
    (k, q) for an int q (never for a list of q values)."""
    qs = q if isinstance(q, list) else [q]
    if k < 1 or min(qs) < 1:
        raise DomainError("k and q must be >= 1")
    if k > g.n or max(qs) > g.v:
        raise DomainError(f"k={k}, q={max(qs)} out of range for a graph with n={g.n}, v={g.v}")
    if priors is not None and not (isinstance(priors, PriorHyperparams) and (priors.k, priors.q) == (k, q)):
        raise DomainError("prior shapes must match (k, q)")


def init_variational(
    g: MultilayerGraph,
    k: int,
    q: int,
    priors: PriorHyperparams,
    strategy: str = "random",
    rng: Optional[np.random.Generator] = None,
    *,
    start: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> VariationalState:
    """Build a starting state: responsibilities by the chosen strategy, the
    conjugate posteriors set to the priors (the first M-step absorbs the
    responsibilities right after).

    random: rows drawn flat-Dirichlet from `rng`. per_view_spectral: spectral
    labels per layer (no draw), nodes grouped by k-means on the mean
    co-membership matrix, layers by k-means on their co-membership patterns
    (both on the exact embeddings of _comembership_embeddings, no N x N
    matrix is formed); both renamed by first appearance, so the state is a
    function of the two partitions alone, and softened to 0.9 on the
    assigned cluster plus 0.1 spread uniformly.
    Only the layer grouping depends on q. The rest is `start`, one
    (layer_rows, tau) of _spectral_starts: one embedding row per layer and
    the (N, k) node responsibilities; fit computes the layer rows once and
    draws tau once per restart on its own stream, and shares both across
    the q values. A start of other shapes raises DomainError. When it is
    None it is computed here on spectral_basis(g, k), its node grouping
    drawn from `rng` before the layer grouping.
    """
    _check_cell(g, k, q, priors)
    if rng is None:
        rng = rng_stream(0)

    if strategy == "random":
        tau = rng.dirichlet(np.ones(k), size=g.n)
        nu = rng.dirichlet(np.ones(q), size=g.v)
    elif strategy == "per_view_spectral":
        if start is None:
            start = _spectral_starts(spectral_basis(g, k), k, [rng])[0]
        layer_rows, tau = start
        if np.ndim(layer_rows) != 2 or len(layer_rows) != g.v or np.shape(tau) != (g.n, k):
            raise DomainError(
                f"spectral start of shapes {np.shape(layer_rows)}, {np.shape(tau)} does not fit"
                f" k={k} on a graph with n={g.n}, v={g.v}"
            )
        nu = _soften(_first_appearance(_kmeans(layer_rows, q, rng)), q)
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
    return _stats_pass(a, [tau])[0]


def _stats_pass(a: np.ndarray, taus: Sequence[np.ndarray]) -> List[Stats]:
    """sufficient_stats(a, tau) for each tau of `taus`, which share N and K,
    from one pass over the layer stack: one batched product gives a[v] @ tau
    for every layer v and distinct tau, layer by layer, so each layer is read
    once for all of them. Every 2-D product has the shape and layout of a
    solo call's, so each tau's statistics do not depend on the others; equal
    taus share one entry."""
    distinct = {}  # tau bytes -> tau, in order of first appearance
    for tau in taus:
        distinct.setdefault(tau.tobytes(), tau)
    at = np.matmul(a[:, None], np.stack(list(distinct.values()))[None])  # (V, R, N, K)
    stats = {}
    for j, (key, tau) in enumerate(distinct.items()):
        m = (tau.T @ at[:, j]).transpose(1, 2, 0)
        # C order, so that m_step's products do not depend on how m was computed
        m = np.ascontiguousarray((m + m.transpose(1, 0, 2)) / 2.0)
        stats[key] = (m, *_pair_mass(tau))
    return [stats[tau.tobytes()] for tau in taus]


def _pair_mass(tau: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(pair, t) of sufficient_stats, which need only tau."""
    t = tau.sum(axis=0)
    gram = tau.T @ tau
    return np.outer(t, t) - (gram + gram.T) / 2.0, t


def vbe_update_tau(
    a: np.ndarray, states: Sequence[VariationalState], moments: Optional[Sequence[tuple]] = None
) -> List[np.ndarray]:
    """One full sweep of the node fixed point over the layer stack `a`
    (MultilayerGraph.layer_stack, (V, N, N)) for each state in `states`,
    which share N, V and K; returns the new tau of each, in order.
    `moments` holds each state's log-moments as _log_moments gives them,
    of which the sweep reads (d, e, beta_base); when None they come from
    one digamma call here.

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
    if moments is None:
        moments = _log_moments(states)
    for s, (st, (d, e, base, _)) in enumerate(zip(states, moments)):
        weights[s, :, -1] = base
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


def vbe_update_nu(stats: Stats, state: VariationalState, moments: Optional[tuple] = None) -> np.ndarray:
    """Update every layer's component responsibilities; returns the new nu.

    `stats` is sufficient_stats(a, tau) at the current node responsibilities;
    `state` supplies theta, eta and xi, and `moments` the state's
    log-moments as _log_moments gives them, of which the update reads (d,
    e, theta_base); when None they come from one digamma call here. Layer
    v scores component s by the
    expected log-likelihood of its dyads, sum over i < j of tau_ik tau_jl
    against the Beta log-moments. The ordered sums in stats visit every
    unordered (node pair, block pair) combination exactly twice, once per
    orientation, hence the single factor 1/2. Rows are mutually independent
    given tau.
    """
    m, pair, _ = stats
    d, e, _, base = _log_moments([state])[0] if moments is None else moments

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


def compute_elbo(state: VariationalState, priors: PriorHyperparams, log_gammas: Optional[tuple] = None) -> float:
    """Evidence lower bound in the simplified form that is exact after an
    M-step: prior-to-posterior normalizer ratios of the three conjugate
    families plus the responsibility entropies. The data enter only through
    the counts already absorbed into the posterior state, so the graph is
    not an argument. `log_gammas` is the pair (prior side, posterior side)
    of _normalizer_log_gammas; a fit computes the prior side once and the
    posterior side once per round, for all its jobs. When None, both sides
    come from one log_gamma call here. The Beta cells are those with k <= l.
    A bound that is not finite (log_gamma overflowed) raises FloatingPointError.
    """
    if log_gammas is None:
        log_gammas = _normalizer_log_gammas([_prior_side(priors), _posterior_side(state)])
    (lg_sums0, lg_beta0, lg_theta0, lg_tot0, lg_eta0, lg_xi0), lg = log_gammas
    lg_sums, lg_beta, lg_theta, lg_tot, lg_eta, lg_xi = lg
    # log B(post) - log B(prior) per family, B the (multivariate) Beta function
    beta_term = float(lg_sums0[0] - lg_sums[0] + lg_beta.sum() - lg_beta0.sum())
    theta_term = float(lg_sums0[1] - lg_sums[1] + lg_theta.sum() - lg_theta0.sum())
    cell_term = float((lg_tot0 - lg_tot + lg_eta - lg_eta0 + lg_xi - lg_xi0).sum())
    elbo = beta_term + theta_term + cell_term - _xlogx(state.tau) - _xlogx(state.nu)
    if not np.isfinite(elbo):
        raise FloatingPointError(f"the bound is not finite: {elbo}")
    return elbo


# ---------------------------------------------------------------------------
# driver


def fit(
    g: MultilayerGraph,
    k: int,
    q: Union[int, Sequence[int]],
    cfg: FitConfig,
    priors: Optional[PriorHyperparams] = None,
    basis: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Union[FitReport, List[FitReport]]:
    """Fit the model at fixed (k, q) with restarts; return the best restart.

    Restart r of cell (k, q) draws from two streams. With spectral init,
    the per-layer spectral labels and their co-membership embedding draw
    nothing and are computed once for every restart and q; the node
    grouping comes from rng_stream(cfg.seed, k, r, -1), once per restart,
    and every q value starts from it; the layer grouping comes from
    rng_stream(cfg.seed, k, q, r). A random init draws all of (tau, nu)
    from rng_stream(cfg.seed, k, q, r). Both depend on (seed, k, q, r)
    alone, so a grid driver may schedule cells in any order or process
    count without changing any result, and a cell fitted alone gets its
    bits in the grid. Restarts are ranked by
    final bound, ties toward the lower index. converged reflects the
    winning restart; when it ran into max_iter a ConvergenceWarning is
    emitted and the flag stays False. The restarts run in lockstep and a
    restart whose init repeats an earlier one's is not run (the module
    docstring has the round); every restart ends where it would alone.
    `priors` is None (Jeffreys) or one PriorHyperparams of shape (k, q).

    With spectral init every restart slices one spectral basis: `basis` when
    given (spectral_basis(g, k_max), k_max >= k, as a grid driver shares it
    across cells), else one computed here before the first restart. A given
    basis is checked here, once, and one that does not cover k on g raises
    DomainError. k and q must be integers (operator.index), else DomainError.

    Several cells of one k, as grid_search fits them: `q` may be a sequence
    of component counts, each cell under its Jeffreys priors. Every restart
    of every cell (k, q) joins the one lockstep batch, and each cell ends
    bit for bit where it would alone; the result is the list of their
    FitReports. A failure anywhere in the batch propagates, as it does from
    a fit of one q; grid_search then fits the cells one by one (the
    selection module docstring has the failure rule).
    """
    one = np.ndim(q) == 0
    k = _as_index(k, "k")
    qs = [_as_index(x, "q") for x in ([q] if one else q)]
    if not qs:
        raise DomainError("q must name at least one component count")
    _check_cell(g, k, qs[0] if one else qs, priors)
    if basis is not None:
        _check_basis(basis, g, k)
    elif cfg.init_strategy == "per_view_spectral":
        basis = spectral_basis(g, k)
    cell_priors = [priors] if priors is not None else [PriorHyperparams.jeffreys(k, x) for x in qs]
    reports = _fit_cells(g, k, qs, cfg, cell_priors, basis)
    return reports[0] if one else reports


def _fit_cells(g, k, qs, cfg, priors, basis) -> List[FitReport]:
    """fit's lockstep loop for the cells (k, q), q in qs, under their priors
    and on the basis fit has checked; returns each cell's FitReport. The
    jobs are the (cell, restart) pairs, and the module docstring describes
    the round. The loop keeps no failure state: any exception ends it."""
    a = g.layer_stack()
    # restart r's spectral start, shared by every q: its node grouping draws
    # from a path that no cell stream (k, q, r), r >= 0, takes
    starts = [None] * cfg.n_restarts
    if cfg.init_strategy == "per_view_spectral":
        starts = _spectral_starts(basis, k, [rng_stream(cfg.seed, k, r, -1) for r in range(cfg.n_restarts)])
    states = {}
    for c, (q, pr) in enumerate(zip(qs, priors)):
        for r in range(cfg.n_restarts):
            rng = rng_stream(cfg.seed, k, q, r)
            states[c, r] = init_variational(g, k, q, pr, cfg.init_strategy, rng, start=starts[r])
    # source[job]: the first job of its cell whose init is bit-equal to job's;
    # only those run, the loop draws nothing and so the others repeat them
    inits = {}
    source = {job: inits.setdefault((job[0], st.tau.tobytes(), st.nu.tobytes()), job) for job, st in states.items()}
    live = [job for job in states if source[job] == job]
    # the absorbing M-steps, on one statistics pass over the live init taus
    for job, stats in zip(live, _stats_pass(a, [states[job].tau for job in live])):
        st = states[job]
        states[job] = VariationalState(st.tau, st.nu, *m_step(stats, st.nu, priors[job[0]]))
    prior_sides = _normalizer_log_gammas([_prior_side(pr) for pr in priors])  # fixed for the fit
    traces = {job: [] for job in live}
    done = dict.fromkeys(live, False)
    for _ in range(cfg.max_iter):
        live = [job for job in live if not done[job]]
        if not live:
            break
        moments = _log_moments([states[job] for job in live])
        taus = vbe_update_tau(a, [states[job] for job in live], moments)
        for job, tau, stats, mom in zip(live, taus, _stats_pass(a, taus), moments):
            nu = vbe_update_nu(stats, states[job], mom)
            states[job] = VariationalState(tau, nu, *m_step(stats, nu, priors[job[0]]))
        log_gammas = _normalizer_log_gammas([_posterior_side(states[job]) for job in live])
        for job, lg in zip(live, log_gammas):
            trace = traces[job]
            trace.append(compute_elbo(states[job], priors[job[0]], (prior_sides[job[0]], lg)))
            if len(trace) >= 2:
                delta = abs(trace[-1] - trace[-2])
                done[job] = delta < cfg.eps or delta < _REL_EPS * abs(trace[-2])

    out = []
    for c, q in enumerate(qs):
        restart_elbos = [traces[source[c, r]][-1] for r in range(cfg.n_restarts)]
        # max keeps the first of equal bounds, i.e. the lowest restart index
        best_restart = max(range(cfg.n_restarts), key=restart_elbos.__getitem__)
        run = source[c, best_restart]
        state, trace, converged = states[run], tuple(traces[run]), done[run]
        if not converged:
            warnings.warn(
                f"fit(k={k}, q={q}) stopped at max_iter={cfg.max_iter} without meeting eps={cfg.eps}",
                ConvergenceWarning,
                stacklevel=3,
            )
        out.append(
            FitReport(
                state=state,
                elbo_trace=trace,
                converged=converged,
                iterations=len(trace),
                best_restart=best_restart,
                z_map=map_assign(state.tau),
                w_map=map_assign(state.nu),
                restart_elbos=tuple(restart_elbos),
            )
        )
    return out
