"""Partition scores and identifiability diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimisbm import (
    DomainError,
    HardPartition,
    ModelParams,
    ari,
    check_identifiability,
    map_assign,
)
from helpers import ari_bruteforce

labels_strategy = st.lists(st.integers(0, 3), min_size=1, max_size=8)


def test_ari_identical_partitions():
    assert ari([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0


def test_ari_relabeling_invariance():
    assert ari([0, 0, 1, 1, 2], [2, 2, 0, 0, 1]) == 1.0


def test_ari_pinned_example():
    assert ari([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(4.0 / 7.0, abs=1e-15)


def test_ari_single_cluster_vs_nontrivial_is_zero():
    assert ari([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0


def test_ari_accepts_hard_partitions():
    a = HardPartition(labels=np.array([0, 0, 1, 1]), k=2)
    b = HardPartition(labels=np.array([0, 0, 1, 2]), k=3)
    assert ari(a, b) == pytest.approx(4.0 / 7.0, abs=1e-15)


def test_ari_length_mismatch():
    with pytest.raises(DomainError):
        ari([0, 1], [0, 1, 1])


@given(labels_strategy, labels_strategy)
@settings(max_examples=300, deadline=None)
def test_ari_matches_bruteforce_pairs(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert ari(a, b) == pytest.approx(ari_bruteforce(a, b), abs=1e-12)


@given(labels_strategy, labels_strategy)
@settings(max_examples=200, deadline=None)
def test_ari_symmetric(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-15)


@given(labels_strategy, st.permutations(list(range(4))))
@settings(max_examples=200, deadline=None)
def test_ari_permutation_invariance(a, perm):
    relabeled = [perm[x] for x in a]
    assert ari(a, relabeled) == 1.0


def test_map_assign_examples():
    p = map_assign(np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]]))
    assert p.labels.tolist() == [1, 0, 0]
    assert p.k == 2


def test_map_assign_identity_like():
    p = map_assign(np.eye(4))
    assert p.labels.tolist() == [0, 1, 2, 3]


def _params(pi, rho, alpha):
    return ModelParams(pi=np.asarray(pi, dtype=float), rho=np.asarray(rho, dtype=float),
                       alpha=np.asarray(alpha, dtype=float))


def test_identifiability_constant_alpha_fails_a1():
    params = _params([0.5, 0.5], [1.0], np.full((2, 2, 1), 0.5))
    rep = check_identifiability(params, n=8, v=4)
    assert not rep.a1
    assert rep.gap_a1 == 0.0
    assert not rep.all_satisfied


def test_identifiability_singletons_pass():
    params = _params([1.0], [1.0], np.full((1, 1, 1), 0.3))
    rep = check_identifiability(params, n=4, v=2)
    assert rep.a1 and rep.a2 and rep.a3 and rep.a4 and rep.a5
    assert rep.all_satisfied
    assert rep.gap_a1 == float("inf")


def test_identifiability_symmetric_counterexample():
    # r_1 = r_2 = 0.5 for this symmetric two-block slice, so A1 must fail
    alpha = np.array([[[0.9], [0.1]], [[0.1], [0.9]]])
    params = _params([0.5, 0.5], [1.0], alpha)
    rep = check_identifiability(params, n=8, v=4)
    assert rep.gap_a1 == pytest.approx(0.0, abs=1e-15)
    assert not rep.a1
    # the a5 rows (0.9, 0.1, 0.9) contain a duplicate as well
    assert not rep.a5


def test_identifiability_size_conditions():
    alpha = np.zeros((2, 2, 1))
    alpha[0, 0, 0] = 0.9
    alpha[1, 1, 0] = 0.5
    alpha[0, 1, 0] = alpha[1, 0, 0] = 0.2
    params = _params([0.6, 0.4], [1.0], alpha)
    rep = check_identifiability(params, n=8, v=4)
    assert rep.a3 and rep.a4
    rep_small_n = check_identifiability(params, n=3, v=4)
    assert not rep_small_n.a3 and not rep_small_n.a4
    rep_small_v = check_identifiability(params, n=8, v=3)
    assert not rep_small_v.a3
    rep_theorem = check_identifiability(params, n=4, v=4)
    assert rep_theorem.a4  # 4 >= 4*1


def test_identifiability_tol_monotone():
    rng = np.random.default_rng(3)
    raw = rng.random((3, 3, 2))
    alpha = (raw + raw.transpose(1, 0, 2)) / 2.0
    params = _params([0.5, 0.3, 0.2], [0.6, 0.4], alpha)
    for tol in [1e-12, 1e-9, 1e-6, 1e-3, 1e-1]:
        lo = check_identifiability(params, n=20, v=10, tol=tol)
        hi = check_identifiability(params, n=20, v=10, tol=tol * 10)
        for cond in ["a1", "a2", "a5"]:
            # tightening tol can only turn passes into failures
            assert (not getattr(lo, cond)) or getattr(hi, cond) in (True, False)
            if getattr(hi, cond):
                assert getattr(lo, cond)


def test_identifiability_invalid_args():
    params = _params([1.0], [1.0], np.full((1, 1, 1), 0.3))
    with pytest.raises(DomainError):
        check_identifiability(params, n=0, v=2)
    with pytest.raises(DomainError):
        check_identifiability(params, n=4, v=2, tol=-1.0)
