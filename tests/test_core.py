"""Core data structures: graphs, partitions, hyperparameters, RNG streams."""

import ast
import dataclasses
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimisbm.core as core
from mimisbm import (
    DomainError,
    FitConfig,
    HardPartition,
    ModelParams,
    MultilayerGraph,
    PriorHyperparams,
    SelfLoopError,
    VariationalState,
    build_graph,
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
    e = g.edge_list()
    assert e.dtype == np.int64 and e.tolist() == [[0, 1, 0], [0, 2, 0], [2, 3, 1]]


_ENTRY_VALUES = {
    "b": [False, True],
    "u": [0, 1, 2, 255],
    "i": [0, 1, 2, -1],
    "f": [0.0, -0.0, 1.0, 0.5, -1.0, 2.0, np.nan, np.inf],
}


@pytest.mark.parametrize(
    "dtype",
    [np.bool_, np.uint8, np.uint64, np.int8, np.int64, np.float16, np.float32, np.float64],
)
def test_graph_entries_are_zero_or_one_in_every_dtype(dtype):
    # np.isin(a, (0, 1)) is the oracle for the entry check
    for x in _ENTRY_VALUES[np.dtype(dtype).kind]:
        a = np.zeros((3, 3, 2), dtype=dtype)
        a[0, 2, 1] = a[2, 0, 1] = x
        a[0, 1, 0] = a[1, 0, 0] = 1
        if np.isin(a, (0, 1)).all():
            assert MultilayerGraph(a).adj[0, 2, 1] == x
        else:
            with pytest.raises(DomainError, match="0 or 1"):
                MultilayerGraph(a)


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


def _with_entry(arr, value):
    """A float copy of `arr` with its first entry, and for a (K, K, Q) array
    its mirror, set to `value`."""
    out = np.array(arr, dtype=float)
    out.flat[0] = value
    if out.ndim == 3 and out.shape[0] > 1:
        out[0, 1, 0] = out[1, 0, 0] = value
    return out


_NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("value", _NON_FINITE, ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", ["tau", "nu", "beta", "theta", "eta", "xi"])
def test_variational_state_rejects_non_finite_entries(name, value):
    # a NaN tau entry passed the row-sum check (nan > 1e-10 is False) and an
    # infinite posterior the positivity check; each is now named
    pr = PriorHyperparams.jeffreys(2, 2)
    fields = dict(
        tau=np.full((3, 2), 0.5), nu=np.full((2, 2), 0.5), beta=pr.beta0, theta=pr.theta0, eta=pr.eta0, xi=pr.xi0
    )
    VariationalState(**fields)
    fields[name] = _with_entry(fields[name], value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            VariationalState(**fields)


@pytest.mark.parametrize("value", _NON_FINITE, ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", ["beta0", "theta0", "eta0", "xi0"])
def test_prior_hyperparams_reject_non_finite_entries(name, value):
    # +inf and NaN would give a NaN bound, or log_gamma's message, in every
    # fit under these priors; both fail at construction instead
    pr = PriorHyperparams.jeffreys(2, 2)
    fields = dict(beta0=pr.beta0, theta0=pr.theta0, eta0=pr.eta0, xi0=pr.xi0)
    fields[name] = _with_entry(fields[name], value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            PriorHyperparams(**fields)


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


def test_graph_from_edges_peaks_near_its_two_tensors():
    # the built tensor plus the graph's one owned copy; the checks work on
    # row blocks, so their temporaries stay O(N^2) (the full-tensor checks
    # peaked at 3 adj.nbytes)
    import tracemalloc

    from mimisbm.core import _graph_from_edges

    n, v = 300, 20
    rng = np.random.default_rng(0)
    iu, ju = np.triu_indices(n, k=1)
    lay, pair = np.nonzero(rng.random((v, iu.size)) < 0.1)
    e = np.stack([iu[pair], ju[pair], lay], axis=1)
    tracemalloc.start()
    try:
        g = _graph_from_edges(n, v, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * g.adj.nbytes


def test_graph_from_edges_adopts_its_tensor():
    # nothing else holds the tensor _graph_from_edges builds, so the graph
    # locks it in place: the build peaks at one tensor plus the row-block
    # temporaries of the checks
    import tracemalloc

    from mimisbm.core import _graph_from_edges

    n, v = 300, 20
    rng = np.random.default_rng(0)
    iu, ju = np.triu_indices(n, k=1)
    lay, pair = np.nonzero(rng.random((v, iu.size)) < 0.1)
    e = np.stack([iu[pair], ju[pair], lay], axis=1)
    tracemalloc.start()
    try:
        g = _graph_from_edges(n, v, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * g.adj.nbytes
    assert not g.adj.flags.writeable and g.adj.dtype == np.uint8
    assert np.array_equal(g.adj, build_graph(n, v, e).adj)


def test_public_constructor_still_copies():
    a = np.zeros((3, 3, 1), dtype=np.uint8)
    a[0, 1, 0] = a[1, 0, 0] = 1
    g = MultilayerGraph(a)
    assert not np.shares_memory(g.adj, a) and a.flags.writeable
    a[0, 1, 0] = 0
    assert g.adj[0, 1, 0] == 1


@pytest.mark.parametrize(
    "fault, error",
    [("value", DomainError), ("loop", SelfLoopError), ("asym", DomainError), ("shape", DomainError)],
)
def test_adopted_tensor_gets_every_check(fault, error):
    from mimisbm.core import _graph_from_edges

    a = np.zeros((5, 5, 2), dtype=np.uint8)
    if fault == "value":
        a[1, 2, 1] = a[2, 1, 1] = 2
    elif fault == "loop":
        a[3, 3, 0] = 1
    elif fault == "asym":
        a[0, 4, 1] = 1
    else:
        a = np.zeros((5, 4, 2), dtype=np.uint8)
    with pytest.raises(error):
        MultilayerGraph(a.copy())
    with pytest.raises(error):
        MultilayerGraph._adopt(a)
    assert isinstance(_graph_from_edges(5, 2, np.empty((0, 3), dtype=np.int64)), MultilayerGraph)


def _edge_list_nonzero(g):
    # reference: the nonzeros of the masked (N, N, V) tensor
    upper = np.triu(np.ones((g.n, g.n), dtype=np.uint8), k=1)
    return np.stack(np.nonzero(g.adj * upper[:, :, None]), axis=1)


def test_edge_list_matches_the_masked_nonzeros():
    rng = np.random.default_rng(12)
    graphs = [build_graph(4, 3, []), build_graph(1, 1, []), build_graph(6, 1, [(0, 5, 0), (2, 1, 0), (4, 3, 0)])]
    for n, v, p in ((7, 1, 0.5), (12, 3, 0.3), (40, 5, 0.1), (25, 4, 0.9)):
        iu, ju = np.triu_indices(n, k=1)
        lay, pair = np.nonzero(rng.random((v, iu.size)) < p)
        graphs.append(build_graph(n, v, np.stack([iu[pair], ju[pair], lay], axis=1)))
    for g in graphs:
        got, want = g.edge_list(), _edge_list_nonzero(g)
        assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "faults, error, match",
    [
        ({"asym": (0, 190), "value": (1, 2)}, DomainError, "0 or 1"),
        ({"value": (0, 190), "loop": (1, 7)}, DomainError, "0 or 1"),
        ({"asym": (0, 9), "loop": (1, 190)}, SelfLoopError, "diagonal"),
        ({"loop": (0, 190), "asym": (1, 7)}, SelfLoopError, "diagonal"),
        ({"asym": (1, 190)}, DomainError, "symmetric"),
    ],
)
def test_graph_checks_keep_their_order_across_layers_and_row_blocks(faults, error, match):
    # entries first, then the diagonal, then symmetry, whichever layer and
    # row block each fault sits in (N = 200, V = 2: rows 0-162 and 163-199)
    a = np.zeros((200, 200, 2), dtype=np.int64)
    for kind, (lay, i) in faults.items():
        j = (i + 1) % 200
        if kind == "asym":
            a[i, j, lay] = 1
        elif kind == "value":
            a[i, j, lay] = a[j, i, lay] = 2
        else:
            a[i, i, lay] = 1
    with pytest.raises(error, match=match):
        MultilayerGraph(a)


def test_core_imports_no_package_module():
    # core is the bottom layer: every other module imports it, so an import
    # of the package from it, even inside a function, is a cycle
    tree = ast.parse(inspect.getsource(core))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "mimisbm"):
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "mimisbm"]
    assert found == []


def test_prior_hyperparams_hold_only_their_hyperparameters():
    # the bound's special-function values are computed by inference, not kept here
    assert [f.name for f in dataclasses.fields(PriorHyperparams)] == ["beta0", "theta0", "eta0", "xi0"]


@pytest.mark.parametrize("field", ["max_iter", "n_restarts", "seed"])
def test_fit_config_takes_only_integer_counts_and_seeds(field):
    # a float is refused, not truncated (seed 1.5 ran as seed 1, and
    # max_iter 2.5 or n_restarts 1.5 raised TypeError inside the fit)
    for bad in (1.5, 2.0, "3", None):
        with pytest.raises(DomainError, match=f"^{field} must be an integer"):
            FitConfig(**{field: bad})
    assert getattr(FitConfig(**{field: np.int64(3)}), field) == 3
