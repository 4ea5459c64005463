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


def _sq_dists(x: np.ndarray, x2: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances point-to-center via the expanded product form;
    x2 holds the squared norms of the rows of x."""
    d = x2[:, None] + (centers * centers).sum(axis=1)[None, :] - 2.0 * (x @ centers.T)
    return np.maximum(d, 0.0)


def _kmeans(x: np.ndarray, k: int, rng: np.random.Generator, n_init: int = 4, max_iter: int = 100) -> np.ndarray:
    """Plain Lloyd k-means with k-means++ seeding, written out so results are
    bit-reproducible under any thread or worker count.

    A Lloyd pass is a deterministic function of the state (centers, labels)
    and draws nothing from rng, so two shortcuts return the labels the full
    loop would and leave the stream where it would. A pass that finds the
    labels unchanged stops before its center update, which would only
    recompute the non-empty centers from the same rows. A state seen before
    in the same init recurs with its period and never settles (k above the
    number of distinct points reseeds empty clusters on points already at
    distance 0), so the init runs only the passes that lead to the state of
    pass max_iter; after the first pass a state is fixed by its labels and
    the point that reseeds the clusters they leave empty. At k = 1 every
    init ends on all zeros, so only the seed draws are made.
    """
    n = x.shape[0]
    if k >= n:
        return np.arange(n) % k if k > 0 else np.zeros(n, dtype=np.int64)
    if k == 1:
        for _ in range(n_init):
            rng.integers(n)
        return np.zeros(n, dtype=np.int64)
    x2 = (x * x).sum(axis=1)
    # every center sum is one bincount over (label, column) bins; it adds a
    # cluster's rows in index order, as numpy's mean over axis 0 does for two
    # or more columns (one column it sums pairwise, so such a center may
    # differ in its last bit from the mean)
    dim = x.shape[1]
    cols = np.arange(dim)
    flat = x.ravel()
    best_labels = None
    best_inertia = np.inf
    for _ in range(n_init):
        centers = np.empty((k, x.shape[1]))
        centers[0] = x[int(rng.integers(n))]
        d2 = np.sum((x - centers[0]) ** 2, axis=1)
        for c in range(1, k):
            total = d2.sum()
            if total <= 0:
                centers[c] = x[int(rng.integers(n))]
            else:
                r = rng.random() * total
                centers[c] = x[int(np.searchsorted(np.cumsum(d2), r))]
            d2 = np.minimum(d2, np.sum((x - centers[c]) ** 2, axis=1))
        labels = np.zeros(n, dtype=np.int64)
        seen = {}  # state after the first pass -> passes run when it was reached
        passes, stop = 0, max_iter
        settled = False
        while passes < stop:
            dist = _sq_dists(x, x2, centers)
            new_labels = dist.argmin(axis=1)
            if passes > 0 and (new_labels == labels).all():
                settled = True
                break
            counts = np.bincount(new_labels, minlength=k)
            far = int(dist.min(axis=1).argmax()) if counts.min() == 0 else -1
            sums = np.bincount((new_labels[:, None] * dim + cols).ravel(), weights=flat, minlength=k * dim)
            centers = sums.reshape(k, dim) / np.maximum(counts, 1)[:, None]
            if far >= 0:
                centers[counts == 0] = x[far]
            passes += 1
            if (new_labels == labels).all():  # the first pass, from all-zero labels
                break
            labels = new_labels
            if stop == max_iter:
                key = (labels.tobytes(), far)
                if key in seen:
                    stop = passes + (max_iter - passes) % (passes - seen[key])
                else:
                    seen[key] = passes
        if not settled:
            dist = _sq_dists(x, x2, centers)
        # a settled pass left the centers of labelled clusters, the only
        # ones read here, as they were when dist was computed
        inertia = float(dist[np.arange(n), labels].sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels


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
    """Normalized spectral clustering of one layer from its basis (one layer
    of spectral_basis).

    The group count is the layer's own effective one, chosen by the largest
    eigengap among the top k eigenvalues of the normalized adjacency (capped
    at k). Layers whose block structure is coarser than k then yield their
    true coarse co-membership instead of an arbitrary refinement, which is
    what makes co-membership features comparable across layers.
    """
    top = vals[::-1][: min(k + 1, vecs.shape[0])]
    gaps = top[:-1] - top[1:]
    c = int(np.argmax(gaps)) + 1 if gaps.size else 1
    emb = vecs[:, -c:]
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    emb = emb / np.where(norms > 0, norms, 1.0)
    return _kmeans(emb, c, rng)


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
    canon = np.empty_like(labels)
    for lay, lab in enumerate(labels):
        _, first, inv = np.unique(lab, return_index=True, return_inverse=True)
        canon[lay] = np.argsort(np.argsort(first))[inv]
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
        labels = np.stack([_spectral_labels(vals[lay], vecs[lay], k, rng) for lay in range(g.v)])
        layer_rows, node_rows = _comembership_embeddings(labels)
        w_labels = _kmeans(layer_rows, q, rng)
        z_labels = _kmeans(node_rows, k, rng)
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
