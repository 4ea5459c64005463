"""Core data structures: graphs, partitions, hyperparameters, RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimisbm import (
    DomainError,
    HardPartition,
    ModelParams,
    MultilayerGraph,
    PriorHyperparams,
    SelfLoopError,
    VariationalState,
    build_graph,
    dyad_layer_count,
    rng_stream,
)
from mimisbm.core import _check_symmetric_kkq


def test_build_graph_empty():
    g = build_graph(3, 1, [])
    assert g.adj.shape == (3, 3, 1)
    assert g.adj.sum() == 0


def test_build_graph_single_edge_symmetric():
    g = build_graph(3, 1, [(0, 1, 0)])
    a = g.adj
    assert a[0, 1, 0] == 1 and a[1, 0, 0] == 1
    assert a.sum() == 2


def test_build_graph_duplicates_and_reversal_idempotent():
    g = build_graph(2, 2, [(0, 1, 0), (0, 1, 0), (1, 0, 1)])
    for layer in range(2):
        a = g.adj[:, :, layer]
        assert a[0, 1] == 1 and a[1, 0] == 1
        assert a.sum() == 2


def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(3, 1, [(1, 1, 0)])


@pytest.mark.parametrize("edge", [(0, 3, 0), (3, 0, 0), (0, 1, 1), (-1, 0, 0), (0, -2, 0), (0, 1, -1)])
def test_build_graph_rejects_out_of_range(edge):
    with pytest.raises(IndexError):
        build_graph(3, 1, [edge])


def test_dyad_layer_count_examples():
    assert dyad_layer_count(build_graph(2, 1, [])) == 1
    assert dyad_layer_count(build_graph(10, 4, [])) == 180
    assert dyad_layer_count(build_graph(50, 15, [])) == 18375


def test_graph_invariants_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        v = int(rng.integers(1, 4))
        edges = []
        for _ in range(int(rng.integers(0, 3 * n))):
            i, j = rng.choice(n, size=2, replace=False)
            edges.append((int(i), int(j), int(rng.integers(0, v))))
        g = build_graph(n, v, edges)
        for layer in range(v):
            a = g.adj[:, :, layer]
            assert np.array_equal(a, a.T)
            assert int(np.trace(a)) == 0
            assert int(a.sum()) % 2 == 0


edges_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 2)).filter(lambda e: e[0] != e[1]),
    max_size=40,
)


@given(edges_strategy)
@settings(max_examples=100, deadline=None)
def test_build_graph_round_trip(edges):
    g = build_graph(8, 3, edges)
    g2 = build_graph(8, 3, g.edge_list())
    assert np.array_equal(g.adj, g2.adj)


def test_edge_list_canonical_order():
    g = build_graph(4, 2, [(3, 2, 1), (1, 0, 0), (2, 0, 0)])
    assert g.edge_list() == [(0, 1, 0), (0, 2, 0), (2, 3, 1)]


def test_hard_partition_validation():
    p = HardPartition(labels=np.array([0, 1, 0]), k=2)
    assert p.n == 3
    with pytest.raises(DomainError):
        HardPartition(labels=np.array([0, 2]), k=2)
    with pytest.raises(DomainError):
        HardPartition(labels=np.array([-1, 0]), k=2)
    with pytest.raises(DomainError):
        HardPartition(labels=np.array([], dtype=int), k=1)


def test_hard_partition_k1_all_zero():
    p = HardPartition(labels=np.zeros(5, dtype=int), k=1)
    assert set(p.labels.tolist()) == {0}


def test_hard_partition_one_hot_and_counts():
    p = HardPartition(labels=np.array([0, 1, 1, 2]), k=3)
    oh = p.one_hot()
    assert oh.shape == (4, 3)
    assert np.array_equal(oh.sum(axis=1), np.ones(4))
    assert np.array_equal(np.bincount(p.labels, minlength=p.k), np.array([1, 2, 1]))


def test_model_params_validation():
    alpha = np.full((2, 2, 1), 0.5)
    ModelParams(pi=np.array([0.5, 0.5]), rho=np.array([1.0]), alpha=alpha)
    with pytest.raises(DomainError):
        ModelParams(pi=np.array([0.6, 0.6]), rho=np.array([1.0]), alpha=alpha)
    bad = alpha.copy()
    bad[0, 1, 0] = 0.9
    with pytest.raises(DomainError):
        ModelParams(pi=np.array([0.5, 0.5]), rho=np.array([1.0]), alpha=bad)
    with pytest.raises(DomainError):
        ModelParams(pi=np.array([0.5, 0.5]), rho=np.array([1.0]), alpha=alpha + 1.0)


@pytest.mark.parametrize(
    "upper, lower, diagonal, accepted",
    [
        (np.nan, np.nan, 0.5, False),  # NaN never equals itself
        (0.5, 0.5, np.nan, False),
        (np.inf, np.inf, 0.5, True),
        (-np.inf, -np.inf, np.inf, True),
        (np.inf, -np.inf, 0.5, False),
        (-0.0, 0.0, 0.5, True),
        (0.5, 0.7, 0.5, False),
    ],
)
def test_check_symmetric_kkq_is_exact_equality(upper, lower, diagonal, accepted):
    a = np.full((2, 2, 2), 0.5)
    a[0, 1, 1], a[1, 0, 1], a[1, 1, 0] = upper, lower, diagonal
    if accepted:
        _check_symmetric_kkq("a", a)
    else:
        with pytest.raises(DomainError, match="symmetric"):
            _check_symmetric_kkq("a", a)


def test_prior_hyperparams_jeffreys():
    pr = PriorHyperparams.jeffreys(3, 2)
    assert np.all(pr.beta0 == 0.5) and pr.beta0.shape == (3,)
    assert np.all(pr.theta0 == 0.5) and pr.theta0.shape == (2,)
    assert pr.eta0.shape == (3, 3, 2) and np.all(pr.eta0 == 0.5)
    assert np.all(pr.xi0 == 0.5)
    with pytest.raises(DomainError):
        PriorHyperparams(
            beta0=np.array([0.5, 0.0]),
            theta0=np.array([0.5]),
            eta0=np.full((2, 2, 1), 0.5),
            xi0=np.full((2, 2, 1), 0.5),
        )


def test_variational_state_validation():
    pr = PriorHyperparams.jeffreys(2, 1)
    tau = np.full((3, 2), 0.5)
    nu = np.ones((2, 1))
    VariationalState(tau=tau, nu=nu, beta=pr.beta0, theta=pr.theta0, eta=pr.eta0, xi=pr.xi0)
    with pytest.raises(DomainError):
        VariationalState(tau=tau * 0.9, nu=nu, beta=pr.beta0, theta=pr.theta0, eta=pr.eta0, xi=pr.xi0)
    asym = pr.eta0.copy()
    asym[0, 1, 0] = 0.7
    with pytest.raises(DomainError):
        VariationalState(tau=tau, nu=nu, beta=pr.beta0, theta=pr.theta0, eta=asym, xi=pr.xi0)


def test_multilayer_graph_locked_against_mutation():
    g = build_graph(3, 1, [(0, 1, 0)])
    with pytest.raises((ValueError, RuntimeError)):
        g.adj[0, 1, 0] = 0


def test_rng_stream_deterministic_and_distinct():
    a = rng_stream(7, 1, 2).random(4)
    b = rng_stream(7, 1, 2).random(4)
    c = rng_stream(7, 1, 3).random(4)
    d = rng_stream(8, 1, 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_stream_path_order_matters():
    x = rng_stream(0, 1, 2).random(3)
    y = rng_stream(0, 2, 1).random(3)
    assert not np.array_equal(x, y)
