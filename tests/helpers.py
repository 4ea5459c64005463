"""Shared builders and independent oracle routes for the test suite.

Every oracle here deliberately avoids the package's own numerics: special
functions come from scipy, reductions are plain Python loops over indices,
and the exact evidence is an exhaustive enumeration. Agreement between these
routes and the vectorized implementations is what the tests certify. The
exceptions are the reference implementations that must agree byte for byte
(the per-restart spectral init, the dense fit loop): they reuse the
package's numerics and differ only in what they compute once.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb, log
from typing import Tuple

import numpy as np
from scipy.special import betaln, digamma as sp_digamma, gammaln, logsumexp

from mimisbm import (
    CRITERIA,
    DomainError,
    FitConfig,
    FitReport,
    GridCell,
    GroundTruth,
    HardPartition,
    ModelParams,
    MultilayerGraph,
    PriorHyperparams,
    SelectionResult,
    SimulationConfig,
    VariationalState,
    apply_label_switch,
    build_component_alpha,
    compute_elbo,
    icl_approx,
    icl_variational,
    init_variational,
    m_step,
    map_assign,
    rng_stream,
    sample_partition,
    vbe_update_nu,
    vbe_update_tau,
)
from mimisbm.inference import (
    _INIT_FLOOR,
    _REL_EPS,
    _UPDATE_FLOOR,
    _floor_rows,
    _soften,
    _softmax_rows,
    _spectral_start,
    _xlogx,
    spectral_basis,
    sufficient_stats,
)
from mimisbm.generator import _sample_link_map
from mimisbm.io import ParseError
from mimisbm.mathfn import digamma, log_gamma


# ---------------------------------------------------------------------------
# builders


def random_graph(rng: np.random.Generator, n: int, v: int, p: float = 0.3) -> MultilayerGraph:
    """Erdos-Renyi layers, symmetrized, zero diagonal."""
    iu, ju = np.triu_indices(n, k=1)
    adj = np.zeros((n, n, v), dtype=np.uint8)
    for lay in range(v):
        hit = rng.random(iu.size) < p
        adj[iu[hit], ju[hit], lay] = 1
        adj[ju[hit], iu[hit], lay] = 1
    return MultilayerGraph(adj)


def random_post_m_state(
    rng: np.random.Generator,
    g: MultilayerGraph,
    k: int,
    q: int,
    priors: PriorHyperparams,
    cycles: int = 1,
) -> VariationalState:
    """A state whose posteriors come from an actual M-step, as the simplified
    bound requires. `cycles` extra update rounds move it off the start point."""
    a = g.layer_stack()
    state = init_variational(g, k, q, priors, "random", rng)
    beta, theta, eta, xi = m_step(sufficient_stats(a, state.tau), state.nu, priors)
    state = replace(state, beta=beta, theta=theta, eta=eta, xi=xi)
    for _ in range(cycles):
        state = replace(state, tau=vbe_update_tau(a, [state])[0])
        state = replace(state, nu=vbe_update_nu(sufficient_stats(a, state.tau), state))
        beta, theta, eta, xi = m_step(sufficient_stats(a, state.tau), state.nu, priors)
        state = replace(state, beta=beta, theta=theta, eta=eta, xi=xi)
    return state


def random_soft_state(
    rng: np.random.Generator, g: MultilayerGraph, k: int, q: int
) -> VariationalState:
    """A syntactically valid state with arbitrary positive posteriors, for
    update-rule oracles that do not require post-M-step consistency."""
    eta = rng.uniform(0.5, 3.0, size=(k, k, q))
    xi = rng.uniform(0.5, 3.0, size=(k, k, q))
    eta = (eta + eta.transpose(1, 0, 2)) / 2.0
    xi = (xi + xi.transpose(1, 0, 2)) / 2.0
    return VariationalState(
        tau=rng.dirichlet(np.ones(k), size=g.n),
        nu=rng.dirichlet(np.ones(q), size=g.v),
        beta=rng.uniform(0.5, 5.0, size=k),
        theta=rng.uniform(0.5, 5.0, size=q),
        eta=eta,
        xi=xi,
    )


# ---------------------------------------------------------------------------
# scalar oracles for the update rules (pure loops, scipy special functions)


def scalar_tau_sweep(g: MultilayerGraph, state: VariationalState) -> np.ndarray:
    """Sequential node sweep evaluated term by term from the update formula."""
    n, k, q = g.n, state.k, state.q
    d = sp_digamma(state.eta) - sp_digamma(state.xi)
    e = sp_digamma(state.xi) - sp_digamma(state.eta + state.xi)
    base = sp_digamma(state.beta) - sp_digamma(state.beta.sum())
    tau = np.array(state.tau, copy=True)
    for i in range(n):
        logits = np.zeros(k)
        for kk in range(k):
            acc = base[kk]
            for j in range(n):
                if j == i:
                    continue
                for ll in range(k):
                    for lay in range(g.v):
                        a = g.adj[i, j, lay]
                        for s in range(q):
                            w = tau[j, ll] * state.nu[lay, s]
                            if a:
                                acc += w * d[kk, ll, s]
                            acc += w * e[kk, ll, s]
            logits[kk] = acc
        row = np.exp(logits - logits.max())
        row /= row.sum()
        row = np.maximum(row, 1e-12)
        row /= row.sum()
        tau[i] = row
    return tau


def scalar_nu_update(g: MultilayerGraph, state: VariationalState) -> np.ndarray:
    """Layer update from the formula: unordered block pairs, ordered node
    pairs for distinct blocks, i < j for equal blocks."""
    n, k, q = g.n, state.k, state.q
    d = sp_digamma(state.eta) - sp_digamma(state.xi)
    e = sp_digamma(state.xi) - sp_digamma(state.eta + state.xi)
    base = sp_digamma(state.theta) - sp_digamma(state.theta.sum())
    tau = state.tau
    nu = np.zeros((g.v, q))
    for lay in range(g.v):
        logits = np.zeros(q)
        for s in range(q):
            acc = base[s]
            for kk in range(k):
                for ll in range(kk, k):
                    for i in range(n):
                        for j in range(n):
                            if i == j:
                                continue
                            if kk == ll and i > j:
                                continue
                            w = tau[i, kk] * tau[j, ll]
                            if g.adj[i, j, lay]:
                                acc += w * d[kk, ll, s]
                            acc += w * e[kk, ll, s]
            logits[s] = acc
        row = np.exp(logits - logits.max())
        row /= row.sum()
        row = np.maximum(row, 1e-12)
        row /= row.sum()
        nu[lay] = row
    return nu


def scalar_m_step(g: MultilayerGraph, state: VariationalState, priors: PriorHyperparams):
    """Posterior counts accumulated cell by cell."""
    n, v, k, q = g.n, g.v, state.k, state.q
    beta = np.array(priors.beta0, copy=True)
    for kk in range(k):
        beta[kk] += state.tau[:, kk].sum()
    theta = np.array(priors.theta0, copy=True)
    for s in range(q):
        theta[s] += state.nu[:, s].sum()
    eta = np.array(priors.eta0, copy=True)
    xi = np.array(priors.xi0, copy=True)
    for kk in range(k):
        for ll in range(kk, k):
            for s in range(q):
                e_acc = 0.0
                h_acc = 0.0
                for i in range(n):
                    for j in range(n):
                        if i == j:
                            continue
                        if kk == ll and i > j:
                            continue
                        w = state.tau[i, kk] * state.tau[j, ll]
                        for lay in range(v):
                            wv = w * state.nu[lay, s]
                            if g.adj[i, j, lay]:
                                e_acc += wv
                            else:
                                h_acc += wv
                eta[kk, ll, s] += e_acc
                xi[kk, ll, s] += h_acc
                if ll != kk:
                    eta[ll, kk, s] = eta[kk, ll, s]
                    xi[ll, kk, s] = xi[kk, ll, s]
    return beta, theta, eta, xi


def scalar_elbo(state: VariationalState, priors: PriorHyperparams) -> float:
    """Simplified bound assembled from scipy gammaln, term by term."""
    k, q = state.k, state.q

    def dir_block(prior, post):
        return (
            gammaln(prior.sum())
            - gammaln(post.sum())
            + sum(gammaln(post[i]) - gammaln(prior[i]) for i in range(prior.size))
        )

    total = dir_block(priors.beta0, state.beta) + dir_block(priors.theta0, state.theta)
    for kk in range(k):
        for ll in range(kk, k):
            for s in range(q):
                total += (
                    gammaln(priors.eta0[kk, ll, s] + priors.xi0[kk, ll, s])
                    - gammaln(state.eta[kk, ll, s] + state.xi[kk, ll, s])
                    + gammaln(state.eta[kk, ll, s])
                    - gammaln(priors.eta0[kk, ll, s])
                    + gammaln(state.xi[kk, ll, s])
                    - gammaln(priors.xi0[kk, ll, s])
                )
    for row in state.tau:
        for p in row:
            if p > 0:
                total -= p * log(p)
    for row in state.nu:
        for p in row:
            if p > 0:
                total -= p * log(p)
    return float(total)


# ---------------------------------------------------------------------------
# exact evidence by exhaustive enumeration


def hard_completed_loglik(
    g: MultilayerGraph, z: np.ndarray, w: np.ndarray, priors: PriorHyperparams
) -> float:
    """log p(A, Z, W) with pi, rho, alpha integrated out, for one hard (Z, W)."""
    k, q = priors.k, priors.q
    n, v = g.n, g.v
    nk = np.bincount(z, minlength=k)
    vq = np.bincount(w, minlength=q)
    total = (
        gammaln(priors.beta0.sum())
        - gammaln(priors.beta0.sum() + n)
        + sum(gammaln(priors.beta0[i] + nk[i]) - gammaln(priors.beta0[i]) for i in range(k))
    )
    total += (
        gammaln(priors.theta0.sum())
        - gammaln(priors.theta0.sum() + v)
        + sum(gammaln(priors.theta0[i] + vq[i]) - gammaln(priors.theta0[i]) for i in range(q))
    )
    edges = np.zeros((k, k, q))
    holes = np.zeros((k, k, q))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = sorted((z[i], z[j]))
            for lay in range(v):
                s = w[lay]
                if g.adj[i, j, lay]:
                    edges[a, b, s] += 1
                else:
                    holes[a, b, s] += 1
    for a in range(k):
        for b in range(a, k):
            for s in range(q):
                total += betaln(
                    priors.eta0[a, b, s] + edges[a, b, s],
                    priors.xi0[a, b, s] + holes[a, b, s],
                ) - betaln(priors.eta0[a, b, s], priors.xi0[a, b, s])
    return float(total)


def log_evidence_enumeration(g: MultilayerGraph, priors: PriorHyperparams) -> float:
    """Exact log p(A) as a log-sum-exp over every hard labeling pair."""
    k, q = priors.k, priors.q
    terms = [
        hard_completed_loglik(g, np.array(z), np.array(w), priors)
        for z in product(range(k), repeat=g.n)
        for w in product(range(q), repeat=g.v)
    ]
    return float(logsumexp(terms))


# ---------------------------------------------------------------------------
# pair-counting ARI oracle


def ari_bruteforce(x, y) -> float:
    """Adjusted Rand index by explicit enumeration of all item pairs."""
    x = np.asarray(x)
    y = np.asarray(y)
    n = x.size
    if n == 1:
        return 1.0
    ss = sd = ds = 0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs += 1
            same_x = x[i] == x[j]
            same_y = y[i] == y[j]
            if same_x and same_y:
                ss += 1
            elif same_x:
                sd += 1
            elif same_y:
                ds += 1
    a_pairs = ss + sd
    b_pairs = ss + ds
    expected = a_pairs * b_pairs / pairs
    maximum = (a_pairs + b_pairs) / 2.0
    num = ss - expected
    den = maximum - expected
    if den == 0.0:
        return 1.0 if num == 0.0 else 0.0
    return num / den


# ---------------------------------------------------------------------------
# planted structure under the label switch, in exact rationals


def switch_retention(c: int, rate: Fraction) -> Fraction:
    """Share of a c-block component's within-minus-between co-membership gap
    that survives a label switch at `rate`: lambda_c(r)^2, exactly.

    `apply_label_switch` moves each label, with probability r, to one of the
    other c - 1 blocks uniformly. That channel is lambda I + (1 - lambda) J / c
    with lambda_c(r) = 1 - r c / (c - 1), so two nodes of one original block
    share a switched label more often than two nodes of different blocks by
    exactly lambda^2. It is 0 only at r = (c - 1) / c and grows again past it.
    """
    lam = 1 - rate * Fraction(c, c - 1)
    return lam * lam


def z_planted(truth) -> bool:
    """The link maps together separate all K blocks: no two final blocks share
    a view-local label in every component, so the layers determine Z at rate 0."""
    codes = np.stack(truth.link_maps, axis=1)
    return len(np.unique(codes, axis=0)) == truth.z.k


def w_planted(truth) -> bool:
    """The components share one block count and have pairwise distinct block
    partitions of the K final blocks.

    Distinct partitions make W determined at rate 0. One shared count means the
    components' mean densities differ only through the gap share the switch
    keeps, so once it is erased density (condition A2) cannot tell them apart.
    """
    partitions = {
        frozenset(frozenset(np.flatnonzero(m == b).tolist()) for b in np.unique(m))
        for m in truth.link_maps
    }
    return len(set(truth.component_k)) == 1 and len(partitions) == len(truth.link_maps)


# ---------------------------------------------------------------------------
# per-restart spectral init: the oracle for the shared spectral basis


def kmeans_oracle(x: np.ndarray, k: int, rng: np.random.Generator, n_init: int = 4, max_iter: int = 100) -> np.ndarray:
    """Lloyd k-means with k-means++ seeding, recomputing the point norms at
    every distance evaluation."""

    def sq_dists(centers):
        d = (x * x).sum(axis=1)[:, None] + (centers * centers).sum(axis=1)[None, :] - 2.0 * (x @ centers.T)
        return np.maximum(d, 0.0)

    n = x.shape[0]
    if k >= n:
        return np.arange(n) % k if k > 0 else np.zeros(n, dtype=np.int64)
    best_labels = None
    best_inertia = np.inf
    for _ in range(n_init):
        centers = np.empty((k, x.shape[1]))
        centers[0] = x[int(rng.integers(n))]
        d2 = np.sum((x - centers[0]) ** 2, axis=1)
        for c in range(1, k):
            # a zero total (every point on a center) gives index 0
            r = rng.random() * d2.sum()
            centers[c] = x[int(np.searchsorted(np.cumsum(d2), r))]
            d2 = np.minimum(d2, np.sum((x - centers[c]) ** 2, axis=1))
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(max_iter):
            dist = sq_dists(centers)
            new_labels = dist.argmin(axis=1)
            for c in range(k):
                sel = new_labels == c
                if sel.any():
                    centers[c] = x[sel].mean(axis=0)
                else:
                    centers[c] = x[int(dist.min(axis=1).argmax())]
            if (new_labels == labels).all():
                break
            labels = new_labels
        inertia = float(sq_dists(centers)[np.arange(n), labels].sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels


def spectral_labels_oracle(a: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spectral labels of one layer's adjacency with its own full eigh: the
    group count is the largest eigengap among the top min(k + 1, n)
    eigenvalues of the normalized adjacency, then k-means on the row-normed
    top eigenvectors."""
    n = a.shape[0]
    deg = a.sum(axis=1).astype(float)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    s = inv_sqrt[:, None] * a * inv_sqrt[None, :]
    vals, vecs = np.linalg.eigh(s)
    top = vals[::-1][: min(k + 1, n)]
    gaps = top[:-1] - top[1:]
    c = int(np.argmax(gaps)) + 1 if gaps.size else 1
    emb = vecs[:, -c:]
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    emb = emb / np.where(norms > 0, norms, 1.0)
    return kmeans_oracle(emb, c, rng)


def normalized_adjacency(g: MultilayerGraph, lay: int) -> np.ndarray:
    """Layer lay's D^-1/2 A D^-1/2, isolated nodes given a zero row."""
    a = g.adj[:, :, lay].astype(float)
    deg = a.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def spectral_basis_oracle(g: MultilayerGraph, k_max: int):
    """spectral_basis by a full eigh of every layer's D^-1/2 A D^-1/2: the
    top m = min(k_max + 1, n) eigenpairs, ascending."""
    m = min(k_max + 1, g.n)
    vals, vecs = np.empty((g.v, m)), np.empty((g.v, g.n, m))
    for lay in range(g.v):
        w, u = np.linalg.eigh(normalized_adjacency(g, lay))
        vals[lay], vecs[lay] = w[-m:], u[:, -m:]
    return vals, vecs


def eigengap_counts(vals: np.ndarray, k_max: int) -> np.ndarray:
    """The eigengap count _spectral_labels reads off a basis's values (V,
    m) at each k = 1..k_max: (k_max, V)."""
    n = vals.shape[1]
    out = []
    for k in range(1, k_max + 1):
        top = vals[:, ::-1][:, : min(k + 1, n)]
        gaps = top[:, :-1] - top[:, 1:]
        out.append(gaps.argmax(axis=1) + 1 if gaps.shape[1] else np.ones(len(vals), dtype=np.int64))
    return np.array(out)


def comembership_features(labels: np.ndarray):
    """The dense co-membership features of the layer partitions `labels`
    (V, N): the V flattened N x N matrices C_v, and the N rows of their
    mean."""
    v, n = labels.shape
    coms = np.empty((v, n, n))
    for lay in range(v):
        coms[lay] = labels[lay][:, None] == labels[lay][None, :]
    return coms.reshape(v, -1), coms.mean(axis=0)


def first_appearance_oracle(labels) -> np.ndarray:
    """The labels renamed 0, 1, ... in order of first appearance."""
    names = {}
    return np.array([names.setdefault(x, len(names)) for x in np.asarray(labels).tolist()], dtype=np.int64)


def spectral_start_oracle(g, k, rng):
    """The q-free part of a spectral init with each layer eigendecomposed
    again: per-layer spectral labels, then the nodes grouped by k-means on
    the dense mean co-membership rows. Returns (the dense layer features,
    the softened node responsibilities)."""
    labels = np.stack([spectral_labels_oracle(g.adj[:, :, lay].astype(float), k, rng) for lay in range(g.v)])
    layer_features, node_features = comembership_features(labels)
    z_labels = first_appearance_oracle(kmeans_oracle(node_features, k, rng))
    return layer_features, _soften(z_labels, k)


def init_variational_oracle(g, k, q, priors, strategy="random", rng=None, *, start=None):
    """init_variational with every call eigendecomposing each layer again.
    Takes init_variational's arguments so it can stand in for it; random
    init is delegated. Without a `start`, the start is spectral_start_oracle's
    on `rng`; the layers are then grouped by k-means on the start's layer
    rows, on `rng`."""
    if strategy != "per_view_spectral":
        return init_variational(g, k, q, priors, strategy, rng)
    if rng is None:
        rng = rng_stream(0)
    layer_rows, tau = spectral_start_oracle(g, k, rng) if start is None else start
    w_labels = first_appearance_oracle(kmeans_oracle(layer_rows, q, rng))
    return VariationalState(
        tau=_floor_rows(tau, _INIT_FLOOR),
        nu=_floor_rows(_soften(w_labels, q), _INIT_FLOOR),
        beta=priors.beta0,
        theta=priors.theta0,
        eta=priors.eta0,
        xi=priors.xi0,
    )


def with_isolated_node(g: MultilayerGraph, node: int, layer: int) -> MultilayerGraph:
    """A copy of g in which `node` has degree 0 in `layer`."""
    adj = np.array(g.adj, copy=True)
    adj[node, :, layer] = 0
    adj[:, node, layer] = 0
    return MultilayerGraph(adj)


def count_calls(monkeypatch, owner, name: str) -> list:
    """Count the calls of owner.name for the rest of the test; the returned
    list grows by one entry per call."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_eigh(monkeypatch) -> list:
    """Count the numpy.linalg.eigh calls, as the inference module sees it,
    for the rest of the test: the returned list grows by each call's
    argument shape."""
    import mimisbm.inference as inference

    shapes = []
    real = inference.np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(inference.np.linalg, "eigh", recording)
    return shapes


# ---------------------------------------------------------------------------
# dense reference for the fit loop: connectivity recomputed by the layer
# update and again by the M-step, the state rebuilt after every update, the
# log-moments and the bound with one special-function call per argument; and
# the node sweep on the uint8 graph with one softmax call per row


def beta_log_moments_oracle(state: VariationalState):
    """E[log alpha] - E[log(1 - alpha)] and E[log(1 - alpha)] per cell, one
    digamma call per argument."""
    d = digamma(state.eta) - digamma(state.xi)
    e = digamma(state.xi) - digamma(state.eta + state.xi)
    return d, e


def compute_elbo_oracle(state: VariationalState, priors: PriorHyperparams) -> float:
    """The simplified bound with one log_gamma call per argument."""

    def dirichlet_term(prior: np.ndarray, post: np.ndarray) -> float:
        return float(
            log_gamma(float(prior.sum()))
            - log_gamma(float(post.sum()))
            + log_gamma(post).sum()
            - log_gamma(prior).sum()
        )

    iu, ju = np.triu_indices(state.k)
    eta0 = priors.eta0[iu, ju, :]
    xi0 = priors.xi0[iu, ju, :]
    eta = state.eta[iu, ju, :]
    xi = state.xi[iu, ju, :]
    beta_term = float(
        (
            log_gamma(eta0 + xi0)
            - log_gamma(eta + xi)
            + log_gamma(eta)
            - log_gamma(eta0)
            + log_gamma(xi)
            - log_gamma(xi0)
        ).sum()
    )
    return (
        dirichlet_term(priors.beta0, state.beta)
        + dirichlet_term(priors.theta0, state.theta)
        + beta_term
        - _xlogx(state.tau)
        - _xlogx(state.nu)
    )


def vbe_update_tau_oracle(g: MultilayerGraph, state: VariationalState) -> np.ndarray:
    """The node sweep contracting the (N, N, V) graph with nu at every call
    and keeping running column sums of tau for the non-edge term."""
    d, e = beta_log_moments_oracle(state)
    base = digamma(state.beta) - digamma(float(state.beta.sum()))
    # edge-weighted component mass per node pair: AN[i, j, s] = sum_v A_ijv nu_vs
    an = np.tensordot(g.adj, state.nu, axes=([2], [0]))
    # non-edge part only needs column sums of nu
    en = np.tensordot(e, state.nu.sum(axis=0), axes=([2], [0]))  # (K, K)

    tau = np.array(state.tau, copy=True)
    colsum = tau.sum(axis=0)
    for i in range(g.n):
        p = tau.T @ an[i]  # (K, Q); row i itself contributes nothing, A_iiv = 0
        s1 = np.einsum("lq,klq->k", p, d)
        s2 = en @ (colsum - tau[i])
        row = _softmax_rows((base + s1 + s2)[None, :])[0]
        row = np.maximum(row, _UPDATE_FLOOR)
        row /= row.sum()
        colsum += row - tau[i]
        tau[i] = row
    return tau


def connectivity_oracle(adj: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """M[k, l, v] = sum_{i,j} A_ijv tau_ik tau_jl; symmetric in (k, l)."""
    n, _, v = adj.shape
    k = tau.shape[1]
    m = np.empty((k, k, v))
    for lay in range(v):
        m[:, :, lay] = tau.T @ (adj[:, :, lay] @ tau)
    return (m + m.transpose(1, 0, 2)) / 2.0


def pair_mass_oracle(tau: np.ndarray) -> np.ndarray:
    """P[k, l] = sum_{i != j} tau_ik tau_jl = t_k t_l - sum_i tau_ik tau_il."""
    t = tau.sum(axis=0)
    gram = tau.T @ tau
    gram = (gram + gram.T) / 2.0
    return np.outer(t, t) - gram


def vbe_update_nu_oracle(g: MultilayerGraph, state: VariationalState) -> np.ndarray:
    """The layer update reading the graph and state.tau itself."""
    d, e = beta_log_moments_oracle(state)
    base = digamma(state.theta) - digamma(float(state.theta.sum()))
    m = connectivity_oracle(g.adj, state.tau)
    pair = pair_mass_oracle(state.tau)

    edge = np.einsum("klv,kls->vs", m, d)
    hole = np.einsum("kl,kls->s", pair, e)[None, :]
    logits = base[None, :] + 0.5 * (edge + hole)

    nu = _softmax_rows(logits)
    nu = np.maximum(nu, _UPDATE_FLOOR)
    return nu / nu.sum(axis=1, keepdims=True)


def m_step_oracle(g: MultilayerGraph, state: VariationalState, priors: PriorHyperparams):
    """The M-step reading the graph and (state.tau, state.nu) itself."""
    beta = priors.beta0 + state.tau.sum(axis=0)
    theta = priors.theta0 + state.nu.sum(axis=0)

    m = connectivity_oracle(g.adj, state.tau)
    edges = np.tensordot(m, state.nu, axes=([2], [0]))
    pairs = pair_mass_oracle(state.tau)[:, :, None] * state.nu.sum(axis=0)[None, None, :]
    holes = pairs - edges

    k = state.k
    idx = np.arange(k)
    edges[idx, idx, :] *= 0.5
    holes[idx, idx, :] *= 0.5

    eta = priors.eta0 + edges
    xi = priors.xi0 + holes
    return beta, theta, eta, xi


def fit_oracle(g, k, q, cfg: FitConfig, priors=None, basis=None) -> FitReport:
    """fit's restart loop on the dense reference updates, with the state
    rebuilt after the node sweep, the layer update and the M-step, and the
    restarts run one after another, each sweep on one state. A spectral
    restart r takes its start from rng_stream(cfg.seed, k, r, -1) and the
    rest of its init from rng_stream(cfg.seed, k, q, r). Takes fit's
    arguments so it can stand in for it; emits no ConvergenceWarning."""
    if priors is None:
        priors = PriorHyperparams.jeffreys(k, q)
    if basis is None and cfg.init_strategy == "per_view_spectral":
        basis = spectral_basis(g, k)

    a = g.layer_stack()

    best = None
    restart_elbos = []
    for r in range(cfg.n_restarts):
        start = None
        if cfg.init_strategy == "per_view_spectral":
            start = _spectral_start(basis, k, rng_stream(cfg.seed, k, r, -1))
        rng = rng_stream(cfg.seed, k, q, r)
        state = init_variational(g, k, q, priors, cfg.init_strategy, rng, start=start)
        beta, theta, eta, xi = m_step_oracle(g, state, priors)
        state = replace(state, beta=beta, theta=theta, eta=eta, xi=xi)

        trace = []
        converged = False
        for _ in range(cfg.max_iter):
            state = replace(state, tau=vbe_update_tau(a, [state])[0])
            state = replace(state, nu=vbe_update_nu_oracle(g, state))
            beta, theta, eta, xi = m_step_oracle(g, state, priors)
            state = replace(state, beta=beta, theta=theta, eta=eta, xi=xi)
            trace.append(compute_elbo_oracle(state, priors))
            if len(trace) >= 2:
                delta = abs(trace[-1] - trace[-2])
                if delta < cfg.eps or delta < _REL_EPS * abs(trace[-2]):
                    converged = True
                    break

        restart_elbos.append(trace[-1])
        if best is None or trace[-1] > best[0]:
            best = (trace[-1], r, state, tuple(trace), converged)

    _, best_restart, state, trace, converged = best
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


def hardened_state_oracle(g, z, w, priors) -> VariationalState:
    """The one-hot state of hard partitions (z, w), absorbed by the dense
    M-step."""
    state = VariationalState(
        tau=z.one_hot(), nu=w.one_hot(), beta=priors.beta0, theta=priors.theta0, eta=priors.eta0, xi=priors.xi0
    )
    beta, theta, eta, xi = m_step_oracle(g, state, priors)
    return VariationalState(tau=state.tau, nu=state.nu, beta=beta, theta=theta, eta=eta, xi=xi)


def grid_search_oracle(g, k_values, q_values, cfg: FitConfig, criterion: str = "ilvb") -> SelectionResult:
    """grid_search as a loop over its cells, each fitted alone by fit_oracle
    (restarts one after another, each sweep on one state) and scored on
    hardened_state_oracle; a cell's DomainError, LinAlgError or
    FloatingPointError becomes its error. The spectral basis is the grid's,
    spectral_basis(g, max k)."""
    ks, qs = sorted(set(k_values)), sorted(set(q_values))
    basis = spectral_basis(g, ks[-1]) if cfg.init_strategy == "per_view_spectral" else None
    cells = []
    for k, q in product(ks, qs):
        try:
            priors = PriorHyperparams.jeffreys(k, q)
            report = fit_oracle(g, k, q, cfg, priors=priors, basis=basis)
            bound = report.elbo_trace[-1]
            cells.append(
                GridCell(
                    k=k,
                    q=q,
                    ilvb=bound,
                    icl_exact=compute_elbo(hardened_state_oracle(g, report.z_map, report.w_map, priors), priors),
                    icl_variational=icl_variational(bound, report.state),
                    icl_approx=icl_approx(bound, k, q, g.n, g.v),
                    converged=report.converged,
                    iterations=report.iterations,
                )
            )
        except (DomainError, np.linalg.LinAlgError, FloatingPointError) as exc:
            cells.append(GridCell(k=k, q=q, error=f"{type(exc).__name__}: {exc}"))
    chosen = {}
    for crit in CRITERIA:
        scored = [c for c in cells if getattr(c, crit) is not None]
        if scored:
            top = max(scored, key=lambda c: getattr(c, crit))
            chosen[crit] = (top.k, top.q)
    return SelectionResult(cells=tuple(cells), chosen=chosen, criterion=criterion, best=chosen.get(criterion))


# ---------------------------------------------------------------------------
# link maps: the exact path with both surjection counts summed per entry


def link_map_exact_oracle(k: int, c: int, rng: np.random.Generator) -> np.ndarray:
    """The exact path of generator._sample_link_map, evaluating T(n, u) and
    T(n-1, u) by inclusion-exclusion at every entry."""

    def count(n: int, u: int) -> int:
        return sum((-1) ** j * comb(u, j) * (c - j) ** n for j in range(u + 1))

    draw = random.Random(int(rng.integers(2**63))).randrange
    m, u = np.empty(k, dtype=np.int64), c
    for j in range(k):
        old = count(k - j - 1, u)
        r = draw(count(k - j, u))
        if r < (c - u) * old:
            m[j] = r // old
        else:
            m[j], u = c - u, u - 1
    return rng.permutation(c)[m]


# ---------------------------------------------------------------------------
# datasets: the generator that fills an adjacency tensor


def generate_dataset_oracle(cfg: SimulationConfig, rng: np.random.Generator) -> Tuple[MultilayerGraph, GroundTruth]:
    """The generator that builds its adjacency tensor in place, as
    generator.generate_dataset did before it built through core's
    constructor from edges: sample a dataset and its ground truth under `cfg`.

    Every node draws its block and every layer its component equiprobably.
    Edges in layer v are Bernoulli(p_in) on dyads whose (possibly switched)
    view-local labels agree and Bernoulli(p_out) otherwise, where the local
    label of node i is link_maps[w_v][z_i].
    """
    pi = np.full(cfg.k, 1.0 / cfg.k)
    rho = np.full(cfg.q, 1.0 / cfg.q)

    z = sample_partition(cfg.n, pi, rng)
    w = sample_partition(cfg.v, rho, rng)

    if cfg.component_k is None:
        component_k = tuple(int(rng.integers(2, cfg.k + 1)) for _ in range(cfg.q))
    else:
        component_k = tuple(cfg.component_k)
    link_maps = tuple(_sample_link_map(cfg.k, ck, rng) for ck in component_k)

    alpha = np.stack(
        [build_component_alpha(cfg.k, ck, m, cfg.p_in, cfg.p_out) for m, ck in zip(link_maps, component_k)],
        axis=2,
    )
    params = ModelParams(pi=pi, rho=rho, alpha=alpha)

    iu, ju = np.triu_indices(cfg.n, k=1)
    adj = np.zeros((cfg.n, cfg.n, cfg.v), dtype=np.uint8)
    for view in range(cfg.v):
        comp = int(w.labels[view])
        local = link_maps[comp][z.labels]
        if cfg.p_switch > 0.0:
            local_part = apply_label_switch(
                HardPartition(labels=local, k=component_k[comp]), cfg.p_switch, rng
            )
            local = local_part.labels
        prob = np.where(local[iu] == local[ju], cfg.p_in, cfg.p_out)
        hit = rng.random(iu.size) < prob
        adj[iu[hit], ju[hit], view] = 1
        adj[ju[hit], iu[hit], view] = 1

    truth = GroundTruth(z=z, w=w, params=params, link_maps=link_maps, component_k=component_k)
    return MultilayerGraph._adopt(adj), truth


# ---------------------------------------------------------------------------
# .mlg and .part files: the per-line readers and the per-edge writer


def _content_lines(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            yield line_no, text


def _ints(path: str, line_no: int, text: str, count: int) -> list[int]:
    parts = text.split()
    if len(parts) != count:
        raise ParseError(f"{path}:{line_no}: expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"{path}:{line_no}: expected integers, got {text!r}") from None


def read_mlg_oracle(path: str, symmetrize: bool = False) -> MultilayerGraph:
    """The per-line reader that io.read_mlg replaced: Python's text-mode line
    iteration, str.strip/split and int() per field, checks per edge."""
    lines = _content_lines(path)
    try:
        line_no, text = next(lines)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected a header line 'N V'") from None
    n, v = _ints(path, line_no, text, 2)
    if n < 1 or v < 1:
        raise ParseError(f"{path}:{line_no}: need N >= 1 and V >= 1, got {n} {v}")
    adj = np.zeros((n, n, v), dtype=np.uint8)
    for line_no, text in lines:
        i, j, lay = _ints(path, line_no, text, 3)
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"{path}:{line_no}: node index out of range [0, {n})")
        if not (0 <= lay < v):
            raise ParseError(f"{path}:{line_no}: layer index out of range [0, {v})")
        if i == j:
            raise ParseError(f"{path}:{line_no}: self loop at node {i}")
        if i > j:
            if not symmetrize:
                raise ParseError(
                    f"{path}:{line_no}: edge ({i}, {j}) not in canonical i < j order; "
                    "pass symmetrize to repair"
                )
            i, j = j, i
        adj[i, j, lay] = 1
        adj[j, i, lay] = 1
    return MultilayerGraph(adj)


def write_mlg_oracle(path: str, g: MultilayerGraph) -> None:
    """The per-edge writer that io.write_mlg replaced, with the sorted list
    of edge tuples it wrote from."""
    i, j, v = np.nonzero(np.triu(g.adj.transpose(2, 0, 1), k=1).transpose(1, 2, 0))
    order = np.lexsort((v, j, i))
    edge_list = list(zip(i[order].tolist(), j[order].tolist(), v[order].tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{g.n} {g.v}\n")
        for i, j, lay in edge_list:
            handle.write(f"{i} {j} {lay}\n")


def read_partition_oracle(path: str) -> HardPartition:
    """The per-line reader that io.read_partition replaced: Python's
    text-mode line iteration, str.strip/split and int() per field."""
    lines = _content_lines(path)
    try:
        line_no, text = next(lines)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected a header line 'k K'") from None
    parts = text.split()
    if len(parts) != 2 or parts[0] != "k":
        raise ParseError(f"{path}:{line_no}: expected header 'k K', got {text!r}")
    try:
        k = int(parts[1])
    except ValueError:
        raise ParseError(f"{path}:{line_no}: expected an integer cluster count") from None
    if k < 1:
        raise ParseError(f"{path}:{line_no}: cluster count must be >= 1")
    labels = []
    for line_no, text in lines:
        (label,) = _ints(path, line_no, text, 1)
        if not (0 <= label < k):
            raise ParseError(f"{path}:{line_no}: label {label} outside [0, {k})")
        labels.append(label)
    if not labels:
        raise ParseError(f"{path}: no labels after the header")
    return HardPartition(labels=np.asarray(labels), k=k)
