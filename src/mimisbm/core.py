"""Domain types shared across the package.

Every type here is a frozen dataclass that validates its invariants at
construction time and locks its array fields, so instances can be passed
between processes and threads without defensive copying. Arrays handed to a
constructor are copied once; mutate-after-build is therefore a no-op on the
stored data.

Conventions: nodes, layers, blocks and components are 0-based everywhere;
partitions are label sequences, not sets of sets; all graph tensors are
binary, symmetric per layer, with a zero diagonal.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "DomainError",
    "SelfLoopError",
    "MultilayerGraph",
    "HardPartition",
    "ModelParams",
    "PriorHyperparams",
    "VariationalState",
    "FitConfig",
    "build_graph",
    "rng_stream",
]


class DomainError(ValueError):
    """A scalar or array argument lies outside its mathematical domain."""


class SelfLoopError(ValueError):
    """An edge joins a node to itself; the model has no self loops."""


def _locked(a: np.ndarray, dtype=None) -> np.ndarray:
    """Return an owned, read-only copy of `a`."""
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# deterministic RNG streams


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Derive an independent random stream from `seed` and an integer path.

    Uses the counter-based Philox bit generator keyed by (seed, h) where h
    folds the path integers through a splitmix-style mixer. The same
    (seed, path) always yields the same stream, on any platform and under
    any scheduling, which is what makes grid searches reproducible across
    worker counts.
    """
    mask = (1 << 64) - 1
    h = 0
    for p in path:
        h = (h ^ ((int(p) + 0x9E3779B97F4A7C15) & mask)) & mask
        h = (h * 0xBF58476D1CE4E5B9) & mask
        h ^= h >> 31
    key = np.array([int(seed) & mask, h], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# graphs


def _block_rows(n: int, v: int) -> int:
    """Rows per block of a whole-tensor pass: about max(N^2, 2^16) entries,
    so its temporaries stay O(N^2) rather than N^2 V (and small graphs take
    few blocks)."""
    return max(1, n // v, 2**16 // (n * v))


def _checked_adjacency(adj) -> np.ndarray:
    """`adj` as an array, once it has passed the graph checks: shape
    (N, N, V) with N, V >= 1, entries 0 or 1, zero diagonal, symmetric
    layers, checked in that order."""
    a = np.asarray(adj)
    if a.ndim != 3 or a.shape[0] != a.shape[1]:
        raise DomainError(f"adjacency tensor must be (N, N, V), got {a.shape}")
    if a.shape[0] < 1 or a.shape[2] < 1:
        raise DomainError("need at least one node and one layer")
    n, _, v = a.shape
    step = _block_rows(n, v)
    rows = [slice(r, r + step) for r in range(0, n, step)]
    if not all(((a[b] == 0) | (a[b] == 1)).all() for b in rows):
        raise DomainError("adjacency entries must be 0 or 1")
    if np.trace(a, axis1=0, axis2=1).any():
        raise SelfLoopError("nonzero diagonal in adjacency tensor")
    if any((a[b] != a[:, b].transpose(1, 0, 2)).any() for b in rows):
        raise DomainError("each layer must be symmetric")
    return a


@dataclass(frozen=True)
class MultilayerGraph:
    """A binary tensor of shape (N, N, V): V undirected layers on N shared nodes.

    Invariants: entries in {0, 1}, adj[:, :, v] symmetric for every layer v,
    zero diagonal. N >= 1, V >= 1.
    """

    adj: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "adj", _locked(_checked_adjacency(self.adj), dtype=np.uint8))

    @classmethod
    def _adopt(cls, adj: np.ndarray) -> "MultilayerGraph":
        """The graph of the uint8 tensor `adj`, which the caller hands over
        and no longer holds: checked as the constructor checks, then locked
        in place instead of copied, so building a graph holds one tensor."""
        g = object.__new__(cls)
        adj.setflags(write=False)
        object.__setattr__(g, "adj", _checked_adjacency(adj))
        return g

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def v(self) -> int:
        return self.adj.shape[2]

    def layer_stack(self) -> np.ndarray:
        """A new float64 copy of the adjacency, layer-major: shape (V, N, N),
        C-contiguous, so layer v is the matrix a[v]. Nothing is cached; each
        call allocates 8 V N^2 bytes, and fit builds one for all its
        restarts."""
        return np.ascontiguousarray(self.adj.transpose(2, 0, 1), dtype=float)

    def _edge_blocks(self, step: int) -> Iterator[np.ndarray]:
        """The rows of edge_list() in blocks, one per `step` nodes i: the
        C-order nonzeros of each block's upper triangle in (i, j, v) layout,
        split into rows, so a block's temporaries hold step * N * V entries."""
        n, v = self.n, self.v
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            upper = np.arange(lo, n) > np.arange(lo, hi)[:, None]
            flat = np.flatnonzero(np.logical_and(self.adj[lo:hi, lo:], upper[:, :, None]))
            e = np.empty((flat.size, 3), dtype=np.int64)
            np.divmod(flat, (n - lo) * v, out=(e[:, 0], flat))
            np.divmod(flat, v, out=(e[:, 1], e[:, 2]))
            e[:, :2] += lo
            yield e

    def edge_list(self) -> np.ndarray:
        """Canonical edges as an (E, 3) int64 array of rows (i, j, v) with
        i < j, sorted lexicographically: the blocks of _edge_blocks, which
        write_mlg writes one at a time, in order."""
        return np.concatenate(list(self._edge_blocks(_block_rows(self.n, self.v))))


def _first_bad_edge(e: np.ndarray, n: int, v: int, ordered: bool) -> Optional[Tuple[int, str]]:
    """The first row of the (E, 3) integer array `e` of (i, j, layer) rows
    that is not an edge of an (n, v) graph, and what is wrong with it, or
    None when every row is an edge. Within a row the checks run in this
    order: "node" (i or j outside [0, n)), "layer" (layer outside [0, v)),
    "loop" (i == j) and, only when `ordered`, "order" (i > j)."""
    i, j, lay = e.T
    faults = [
        ("node", (i < 0) | (i >= n) | (j < 0) | (j >= n)),
        ("layer", (lay < 0) | (lay >= v)),
        ("loop", i == j),
    ]
    if ordered:
        faults.append(("order", i > j))
    bad = np.logical_or.reduce([mask for _, mask in faults])
    if not bad.any():
        return None
    row = int(bad.argmax())
    return row, next(kind for kind, mask in faults if mask[row])


_SCATTER = 1 << 12  # edges set per block by _graph_from_edges


def _graph_from_edges(n: int, v: int, e: np.ndarray) -> MultilayerGraph:
    """The graph with edge rows `e`, of any integer type, which
    _first_bad_edge has accepted; each row sets both (i, j) and (j, i), so
    duplicates are idempotent.
    A size whose N * N * V bytes do not fit in memory, or overflow the
    address space, raises MemoryError."""
    try:
        a = np.zeros((n, n, v), dtype=np.uint8)
    except ValueError as exc:  # numpy's "array is too big" / "Maximum allowed dimension exceeded"
        raise MemoryError(f"a graph of {n} nodes and {v} layers is too large to allocate: {exc}") from None
    # scattered through flat indices a block of edges at a time, so the
    # index temporaries stay O(block) whatever the type and count of e
    flat = a.reshape(-1)
    for lo in range(0, len(e), _SCATTER):
        i, j, lay = e[lo : lo + _SCATTER].T.astype(np.intp)
        flat[(i * n + j) * v + lay] = 1
        flat[(j * n + i) * v + lay] = 1
    return MultilayerGraph._adopt(a)


def build_graph(n: int, v: int, edges: Iterable[Tuple[int, int, int]]) -> MultilayerGraph:
    """Assemble a MultilayerGraph from (i, j, layer) edges: an iterable of
    triples or an (E, 3) integer array.

    Edges are symmetrized; duplicates are idempotent. Raises SelfLoopError on
    i == j and IndexError when a node or layer index is out of range, for the
    first such edge.
    """
    if n < 1 or v < 1:
        raise DomainError("need at least one node and one layer")
    e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if e.size == 0:
        e = np.empty((0, 3), dtype=np.int64)
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError(f"edges must be (i, j, layer) triples, got shape {e.shape}")
    if not np.issubdtype(e.dtype, np.integer):
        raise IndexError(f"edge indices must be integers, got {e.dtype}")
    bad = _first_bad_edge(e, n, v, ordered=False)
    if bad is not None:
        row, kind = bad
        i, j, lay = e[row].tolist()
        if kind == "loop":
            raise SelfLoopError(f"self loop at node {i}, layer {lay}")
        raise IndexError(f"{kind} index out of range in edge ({i}, {j}, {lay})")
    return _graph_from_edges(n, v, e)


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class HardPartition:
    """A hard assignment of items to k clusters, stored as a label sequence.

    Labels are integers in [0, k). Clusters may be empty; k = 1 forces all
    labels to zero. The sequence must be nonempty.
    """

    labels: np.ndarray
    k: int

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 1 or lab.size == 0:
            raise DomainError("labels must be a nonempty 1-d sequence")
        if not np.issubdtype(lab.dtype, np.integer):
            if not np.equal(np.mod(lab, 1), 0).all():
                raise DomainError("labels must be integers")
            lab = lab.astype(np.int64)
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if lab.min() < 0 or lab.max() >= self.k:
            raise DomainError(f"labels must lie in [0, {self.k})")
        object.__setattr__(self, "labels", _locked(lab, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.labels.size

    def one_hot(self) -> np.ndarray:
        """(n, k) float matrix with a single 1 per row."""
        out = np.zeros((self.n, self.k))
        out[np.arange(self.n), self.labels] = 1.0
        return out


# ---------------------------------------------------------------------------
# model parameters and hyperparameters


def _check_simplex(name: str, p: np.ndarray, tol: float = 1e-12):
    if p.ndim != 1 or p.size < 1:
        raise DomainError(f"{name} must be a nonempty vector")
    if (p < 0).any() or abs(p.sum() - 1.0) > tol:
        raise DomainError(f"{name} must be a probability simplex vector")


def _check_symmetric_kkq(name: str, a: np.ndarray):
    if a.ndim != 3 or a.shape[0] != a.shape[1]:
        raise DomainError(f"{name} must have shape (K, K, Q)")
    if not np.array_equal(a, a.transpose(1, 0, 2)):
        raise DomainError(f"{name} must be symmetric in its first two axes")


def _as_index(value, name: str) -> int:
    """operator.index(value): a Python or numpy integer as an int. Anything
    else, an integral float too, raises DomainError instead of being
    truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _check_finite(fields) -> None:
    """DomainError naming the first of the (name, array) fields that holds a
    NaN or an infinity. Runs before the sign, sum and symmetry checks, which
    a NaN passes or fails under another name."""
    for name, arr in fields:
        if not np.isfinite(arr).all():
            raise DomainError(f"{name} must be finite")


@dataclass(frozen=True)
class ModelParams:
    """Generative parameters: block weights pi (K), component weights rho (Q),
    and Bernoulli tables alpha (K, K, Q), symmetric in (k, l).
    """

    pi: np.ndarray
    rho: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        _check_simplex("pi", pi)
        _check_simplex("rho", rho)
        _check_symmetric_kkq("alpha", alpha)
        if alpha.shape[0] != pi.size or alpha.shape[2] != rho.size:
            raise DomainError("alpha shape must match len(pi) and len(rho)")
        if (alpha < 0).any() or (alpha > 1).any():
            raise DomainError("alpha entries must lie in [0, 1]")
        object.__setattr__(self, "pi", _locked(pi))
        object.__setattr__(self, "rho", _locked(rho))
        object.__setattr__(self, "alpha", _locked(alpha))

    @property
    def k(self) -> int:
        return self.pi.size

    @property
    def q(self) -> int:
        return self.rho.size


@dataclass(frozen=True)
class PriorHyperparams:
    """Conjugate prior hyperparameters.

    beta0 (K) for the Dirichlet over pi, theta0 (Q) for the Dirichlet over
    rho, eta0 / xi0 (K, K, Q) for the Beta over each connectivity entry.
    All finite and strictly positive; eta0 and xi0 symmetric in (k, l), so
    only the k <= l triangle is meaningful.
    """

    beta0: np.ndarray
    theta0: np.ndarray
    eta0: np.ndarray
    xi0: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta0, dtype=float)
        t = np.asarray(self.theta0, dtype=float)
        e = np.asarray(self.eta0, dtype=float)
        x = np.asarray(self.xi0, dtype=float)
        if b.ndim != 1 or t.ndim != 1:
            raise DomainError("beta0 and theta0 must be vectors")
        _check_finite((("beta0", b), ("theta0", t), ("eta0", e), ("xi0", x)))
        _check_symmetric_kkq("eta0", e)
        _check_symmetric_kkq("xi0", x)
        if e.shape != x.shape or e.shape[0] != b.size or e.shape[2] != t.size:
            raise DomainError("hyperparameter shapes are inconsistent")
        for name, arr in (("beta0", b), ("theta0", t), ("eta0", e), ("xi0", x)):
            if (arr <= 0).any():
                raise DomainError(f"{name} must be strictly positive")
        object.__setattr__(self, "beta0", _locked(b))
        object.__setattr__(self, "theta0", _locked(t))
        object.__setattr__(self, "eta0", _locked(e))
        object.__setattr__(self, "xi0", _locked(x))

    @property
    def k(self) -> int:
        return self.beta0.size

    @property
    def q(self) -> int:
        return self.theta0.size

    @classmethod
    def jeffreys(cls, k: int, q: int) -> "PriorHyperparams":
        """The default noninformative choice: every hyperparameter 1/2."""
        if k < 1 or q < 1:
            raise DomainError("k and q must be >= 1")
        return cls(
            beta0=np.full(k, 0.5),
            theta0=np.full(q, 0.5),
            eta0=np.full((k, k, q), 0.5),
            xi0=np.full((k, k, q), 0.5),
        )


@dataclass(frozen=True)
class VariationalState:
    """The full set of variational parameters.

    tau (N, K): node responsibilities, rows on the simplex.
    nu (V, Q): layer responsibilities, rows on the simplex.
    beta (K), theta (Q): Dirichlet posteriors, strictly positive.
    eta, xi (K, K, Q): Beta posteriors, strictly positive, symmetric in (k, l).

    Every entry must be finite. Row sums are checked to 1e-10. Entries of
    tau and nu may be exactly zero (hardened states); the update rules
    themselves floor at 1e-12.
    """

    tau: np.ndarray
    nu: np.ndarray
    beta: np.ndarray
    theta: np.ndarray
    eta: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        xi = np.asarray(self.xi, dtype=float)
        if tau.ndim != 2 or nu.ndim != 2:
            raise DomainError("tau and nu must be matrices")
        _check_finite((("tau", tau), ("nu", nu), ("beta", beta), ("theta", theta), ("eta", eta), ("xi", xi)))
        k, q = tau.shape[1], nu.shape[1]
        if beta.shape != (k,) or theta.shape != (q,):
            raise DomainError("beta/theta shapes must match tau/nu columns")
        _check_symmetric_kkq("eta", eta)
        _check_symmetric_kkq("xi", xi)
        if eta.shape != (k, k, q) or xi.shape != (k, k, q):
            raise DomainError("eta/xi must have shape (K, K, Q)")
        for name, rows in (("tau", tau), ("nu", nu)):
            if (rows < 0).any():
                raise DomainError(f"{name} entries must be nonnegative")
            if np.abs(rows.sum(axis=1) - 1.0).max() > 1e-10:
                raise DomainError(f"{name} rows must sum to 1 within 1e-10")
        for name, arr in (("beta", beta), ("theta", theta), ("eta", eta), ("xi", xi)):
            if (arr <= 0).any():
                raise DomainError(f"{name} must be strictly positive")
        object.__setattr__(self, "tau", _locked(tau))
        object.__setattr__(self, "nu", _locked(nu))
        object.__setattr__(self, "beta", _locked(beta))
        object.__setattr__(self, "theta", _locked(theta))
        object.__setattr__(self, "eta", _locked(eta))
        object.__setattr__(self, "xi", _locked(xi))

    @property
    def n(self) -> int:
        return self.tau.shape[0]

    @property
    def v(self) -> int:
        return self.nu.shape[0]

    @property
    def k(self) -> int:
        return self.tau.shape[1]

    @property
    def q(self) -> int:
        return self.nu.shape[1]


_INIT_STRATEGIES = ("random", "per_view_spectral")


@dataclass(frozen=True)
class FitConfig:
    """Knobs for a single variational fit.

    eps: absolute bound-change stopping threshold.
    max_iter: cap on outer iterations; hitting it sets converged=False.
    n_restarts: independent initializations; the best final bound wins,
        ties broken toward the lower restart index.
    seed: root seed. Restart r of cell (k, q) draws its init from
        rng_stream(seed, k, q, r); with per_view_spectral init the part
        that does not depend on q (the per-layer spectral labels, their
        co-membership embedding and the node grouping) comes from
        rng_stream(seed, k, r, -1), which every q of that k and restart
        shares, and the layer grouping from rng_stream(seed, k, q, r). So
        results never depend on scheduling.
    init_strategy: "random" or "per_view_spectral".
    max_iter, n_restarts and seed must be integers (operator.index).
    """

    eps: float = 1e-6
    max_iter: int = 200
    n_restarts: int = 5
    seed: int = 0
    init_strategy: str = "random"

    def __post_init__(self):
        for name in ("max_iter", "n_restarts", "seed"):
            _as_index(getattr(self, name), name)
        if not self.eps > 0:
            raise DomainError("eps must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if self.n_restarts < 1:
            raise DomainError("n_restarts must be >= 1")
        if self.init_strategy not in _INIT_STRATEGIES:
            raise DomainError(f"init_strategy must be one of {_INIT_STRATEGIES}")
