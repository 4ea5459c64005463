"""Synthetic data with planted node blocks and planted layer components.

The scheme plants one node partition shared by all layers, then groups the
layers into components. Each component owns a surjective link map from the
final blocks onto its own, usually coarser, set of component blocks; its
connectivity table puts p_in on block pairs the link map merges and p_out
elsewhere. A per-layer label switch corrupts the node labels before edges
are drawn, which is the robustness knob.

All draws come from the single Generator passed in, in a fixed order:
node labels, layer labels, per component (size then link map), then per
layer (switch draws, then dyad draws). Rerunning with an equally seeded
generator reproduces the dataset bit for bit. The drawn dyads, as (i, j,
layer) rows, go to the one constructor from edges, which read_mlg also calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    DomainError,
    HardPartition,
    ModelParams,
    MultilayerGraph,
    _graph_from_edges,
    _locked,
)

__all__ = [
    "LinkMapError",
    "SimulationConfig",
    "GroundTruth",
    "sample_partition",
    "build_component_alpha",
    "apply_label_switch",
    "generate_dataset",
]

# link maps are drawn by rejection up to this many expected draws, as for every k <= 11
_MAX_EXPECTED_TRIES = 10**4


class LinkMapError(ValueError):
    """A link map fails to cover its component blocks or indexes outside them."""


@dataclass(frozen=True)
class SimulationConfig:
    """Planted-structure settings.

    n, v: node and layer counts. k, q: final block count (at most n) and
        component count.
    p_in / p_out: Bernoulli rates for merged and unmerged block pairs.
    p_switch: per (layer, node) probability of reassigning the node's
        view-local label to one of the other component blocks.
    component_k: optional per-component block counts; when omitted each
        component draws its count uniformly from {2, ..., k}.
    """

    n: int
    v: int
    k: int
    q: int
    p_in: float = 0.99
    p_out: float = 0.01
    p_switch: float = 0.0
    component_k: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("need at least two nodes")
        if self.v < 1:
            raise DomainError("need at least one layer")
        if self.k < 1 or self.q < 1:
            raise DomainError("k and q must be >= 1")
        if self.k > self.n:
            raise DomainError(f"k={self.k} blocks cannot exceed n={self.n} nodes")
        for name in ("p_in", "p_out", "p_switch"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1]")
        if self.component_k is not None:
            if len(self.component_k) != self.q:
                raise DomainError("component_k must have length q")
            for ck in self.component_k:
                if not (1 <= ck <= self.k):
                    raise DomainError("component block counts must lie in [1, k]")
        elif self.k < 2:
            raise DomainError("k must be >= 2 when component_k is not given")


@dataclass(frozen=True)
class GroundTruth:
    """Everything the generator decided: partitions, parameters, link maps."""

    z: HardPartition
    w: HardPartition
    params: ModelParams
    link_maps: Tuple[np.ndarray, ...]
    component_k: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "link_maps", tuple(_locked(m, dtype=np.int64) for m in self.link_maps))
        object.__setattr__(self, "component_k", tuple(int(c) for c in self.component_k))


def sample_partition(n_items: int, probs: Sequence[float], rng: np.random.Generator) -> HardPartition:
    """Draw n_items labels iid from the categorical distribution `probs`."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise DomainError("probs must be a nonempty vector")
    if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
        raise DomainError("probs must be a probability vector")
    if n_items < 1:
        raise DomainError("n_items must be >= 1")
    cum = np.cumsum(p)
    cum[-1] = 1.0
    labels = np.searchsorted(cum, rng.random(n_items), side="right")
    return HardPartition(labels=np.minimum(labels, p.size - 1), k=p.size)


def build_component_alpha(
    k: int, component_k: int, link_map: Sequence[int], p_in: float, p_out: float
) -> np.ndarray:
    """Connectivity slice (k, k) induced by one component's link map.

    Entry (k1, k2) is p_in when the map sends both final blocks to the same
    component block, p_out otherwise. The map must have length k and cover
    all of {0, ..., component_k - 1}; LinkMapError otherwise.
    """
    if k < 1 or component_k < 1:
        raise DomainError("k and component_k must be >= 1")
    m = np.asarray(link_map)
    if m.ndim != 1 or m.size != k:
        raise LinkMapError(f"link_map must be a vector of length k={k}")
    if not np.issubdtype(m.dtype, np.integer):
        raise LinkMapError("link_map entries must be integers")
    if m.min() < 0 or m.max() >= component_k:
        raise LinkMapError(f"link_map entries must lie in [0, {component_k})")
    if np.unique(m).size != component_k:
        raise LinkMapError("link_map must be surjective onto the component blocks")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise DomainError("p_in and p_out must lie in [0, 1]")
    same = m[:, None] == m[None, :]
    return np.where(same, p_in, p_out)


def apply_label_switch(z: HardPartition, rate: float, rng: np.random.Generator) -> HardPartition:
    """Independently reassign each label, with probability `rate`, to one of
    the k - 1 other clusters, uniformly.

    Requires k >= 2; at rate 0 the partition is returned unchanged, at rate 1
    no label survives in place.
    """
    if z.k < 2:
        raise DomainError("label switching needs at least two clusters")
    if not (0.0 <= rate <= 1.0):
        raise DomainError("rate must lie in [0, 1]")
    hit = rng.random(z.n) < rate
    draw = rng.integers(0, z.k - 1, size=z.n)
    # skip over the original label so the draw is uniform on the others
    switched = draw + (draw >= z.labels)
    labels = np.where(hit, switched, z.labels)
    return HardPartition(labels=labels, k=z.k)


def _sample_link_map(k: int, c: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform surjective map from k final blocks onto c component blocks.

    By rejection while that expects at most _MAX_EXPECTED_TRIES draws,
    c^k / T(k, c); else entry by entry, since T(n, u) = (c - u) T(n-1, u)
    + u T(n-1, u-1): a given covered label has weight T(n-1, u), the next
    new label u T(n-1, u-1), and a random permutation relabels the result.
    One inclusion-exclusion sum per entry: the next entry's total is T(n-1, u)
    after an old label and (T(n, u) - (c - u) T(n-1, u)) / u after a new one.
    """

    def count(n: int, u: int) -> int:  # T(n, u): n entries over c labels covering u given ones
        return sum((-1) ** j * comb(u, j) * (c - j) ** n for j in range(u + 1))

    if c > k:
        raise LinkMapError("cannot cover more component blocks than final blocks")
    total = count(k, c)
    if c**k <= _MAX_EXPECTED_TRIES * total:
        while True:
            m = rng.integers(0, c, size=k)
            if np.unique(m).size == c:
                return m
    draw = random.Random(int(rng.integers(2**63))).randrange  # exact for ints of any size
    m, u = np.empty(k, dtype=np.int64), c
    for j in range(k):  # total is T(k - j, u)
        old = count(k - j - 1, u)
        r = draw(total)
        if r < (c - u) * old:
            m[j], total = r // old, old
        else:
            # u >= 1 here: at u = 0 the old labels carry all of T(n, 0) = c T(n-1, 0)
            m[j], total, u = c - u, (total - (c - u) * old) // u, u - 1
    return rng.permutation(c)[m]


def generate_dataset(cfg: SimulationConfig, rng: np.random.Generator) -> Tuple[MultilayerGraph, GroundTruth]:
    """Sample a dataset and its ground truth under `cfg`.

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

    # one unsigned dtype holds every dyad position, node and layer index
    small = np.min_scalar_type(max(cfg.n * (cfg.n - 1) // 2, cfg.v))
    iu, ju = (idx.astype(small) for idx in np.triu_indices(cfg.n, k=1))
    hits = []  # per layer, the positions in (iu, ju) of the drawn dyads
    for view in range(cfg.v):
        comp = int(w.labels[view])
        local = link_maps[comp][z.labels]
        if cfg.p_switch > 0.0:
            local_part = apply_label_switch(
                HardPartition(labels=local, k=component_k[comp]), cfg.p_switch, rng
            )
            local = local_part.labels
        prob = np.where(local[iu] == local[ju], cfg.p_in, cfg.p_out)
        hits.append(np.flatnonzero(rng.random(iu.size) < prob).astype(small))
    del prob

    # the (i, j, layer) rows as the columns of one (3, E) array, filled layer
    # by layer
    edges = np.empty((3, sum(pos.size for pos in hits)), dtype=small)
    end = 0
    for view, pos in enumerate(hits):
        cols = edges[:, end : end + pos.size]
        np.take(iu, pos, out=cols[0])
        np.take(ju, pos, out=cols[1])
        cols[2] = view
        end += pos.size
    del hits
    truth = GroundTruth(z=z, w=w, params=params, link_maps=link_maps, component_k=component_k)
    return _graph_from_edges(cfg.n, cfg.v, edges.T), truth
