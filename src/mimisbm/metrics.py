"""Partition comparison and identifiability diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf
from typing import Sequence, Union

import numpy as np

from .core import DomainError, HardPartition, ModelParams

__all__ = ["ari", "map_assign", "check_identifiability", "IdentifiabilityReport"]

Labels = Union[HardPartition, Sequence[int], np.ndarray]


def _labels(x: Labels) -> np.ndarray:
    if isinstance(x, HardPartition):
        return x.labels
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("labels must be a nonempty 1-d sequence")
    return arr


def ari(a: Labels, b: Labels) -> float:
    """Adjusted Rand index between two labelings of the same items.

    Pair-counting form: (sum_ij C(n_ij, 2) - E) / (max - E) with
    E = sum_i C(a_i, 2) sum_j C(b_j, 2) / C(n, 2) and
    max = (sum_i C(a_i, 2) + sum_j C(b_j, 2)) / 2.

    Degenerate cases: when the denominator vanishes both partitions are
    trivial (all singletons or a single cluster); the index is 1.0 when the
    numerator also vanishes, 0.0 otherwise. Invariant under relabeling of
    either argument and symmetric in its arguments.
    """
    x = _labels(a)
    y = _labels(b)
    if x.size != y.size:
        raise DomainError(f"label sequences differ in length: {x.size} vs {y.size}")
    n = x.size
    if n == 1:
        return 1.0
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    nx = int(xi.max()) + 1
    ny = int(yi.max()) + 1
    cont = np.zeros((nx, ny), dtype=np.int64)
    np.add.at(cont, (xi, yi), 1)

    def pairs(counts: np.ndarray) -> int:
        return int(sum(comb(int(c), 2) for c in counts.ravel()))

    s = pairs(cont)
    sa = pairs(cont.sum(axis=1))
    sb = pairs(cont.sum(axis=0))
    total = comb(n, 2)
    expected = sa * sb / total
    maximum = (sa + sb) / 2.0
    num = s - expected
    den = maximum - expected
    if den == 0.0:
        return 1.0 if num == 0.0 else 0.0
    return num / den


def map_assign(resp: np.ndarray) -> HardPartition:
    """Harden a responsibility matrix row-wise; ties go to the lowest index."""
    r = np.asarray(resp, dtype=float)
    if r.ndim != 2 or r.size == 0:
        raise DomainError("responsibilities must be a nonempty matrix")
    return HardPartition(labels=np.argmax(r, axis=1), k=r.shape[1])


def _min_gap(values: np.ndarray) -> float:
    """Smallest pairwise absolute difference; inf for fewer than two values."""
    v = np.sort(values.ravel())
    if v.size < 2:
        return inf
    return float(np.min(np.diff(v)))


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Outcome of the five sufficient conditions for parameter identifiability.

    a1: the K values (pi^T alpha[k, :, :] rho) are pairwise distinct.
    a2: the Q values (pi^T alpha[:, :, s] pi) are pairwise distinct.
    a3: N >= 2K and V >= 2K (appendix form).
    a4: N >= 4Q. The theorem statement's size condition, V >= 2K and
        N >= max(2K, 4Q), is exactly a3 and a4.
    a5: the K(K+1)/2 values (alpha[k, l, :] rho), k <= l, pairwise distinct.

    gap_* carry the smallest pairwise margin behind each distinctness check;
    singleton index sets pass vacuously with an infinite gap.
    """

    a1: bool
    a2: bool
    a3: bool
    a4: bool
    a5: bool
    gap_a1: float
    gap_a2: float
    gap_a5: float

    @property
    def all_satisfied(self) -> bool:
        return self.a1 and self.a2 and self.a3 and self.a4 and self.a5


def check_identifiability(params: ModelParams, n: int, v: int, tol: float = 1e-9) -> IdentifiabilityReport:
    """Evaluate the identifiability conditions for a parameter set at size (n, v).

    Distinctness holds when the smallest pairwise gap exceeds `tol`.
    """
    if n < 1 or v < 1:
        raise DomainError("n and v must be >= 1")
    if tol < 0:
        raise DomainError("tol must be nonnegative")
    pi, rho, alpha = params.pi, params.rho, params.alpha
    k, q = params.k, params.q

    # r_k = pi^T alpha[k, :, :] rho
    r = np.einsum("l,kls,s->k", pi, alpha, rho)
    gap_a1 = _min_gap(r)

    # t_s = pi^T alpha[:, :, s] pi
    t = np.einsum("k,kls,l->s", pi, alpha, pi)
    gap_a2 = _min_gap(t)

    # rows alpha[k, l, :] rho over unordered block pairs k <= l
    iu, ju = np.triu_indices(k)
    c = alpha[iu, ju, :] @ rho
    gap_a5 = _min_gap(c)

    return IdentifiabilityReport(
        a1=gap_a1 > tol,
        a2=gap_a2 > tol,
        a3=(n >= 2 * k) and (v >= 2 * k),
        a4=n >= 4 * q,
        a5=gap_a5 > tol,
        gap_a1=gap_a1,
        gap_a2=gap_a2,
        gap_a5=gap_a5,
    )
