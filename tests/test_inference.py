"""Variational EM: update equations, bound evaluation, and the fit loop."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mimisbm.inference as inference
from mimisbm import (
    ConvergenceWarning,
    DomainError,
    FitConfig,
    MultilayerGraph,
    PriorHyperparams,
    SimulationConfig,
    VariationalState,
    ari,
    build_graph,
    compute_elbo,
    fit,
    generate_dataset,
    init_variational,
    m_step,
    rng_stream,
    vbe_update_nu,
    vbe_update_tau,
)
from mimisbm.inference import spectral_basis, sufficient_stats
from mimisbm.selection import grid_search, icl_exact
from helpers import (
    beta_log_moments_oracle,
    comembership_features,
    compute_elbo_oracle,
    connectivity_oracle,
    count_calls,
    count_eigh,
    eigengap_counts,
    first_appearance_oracle,
    fit_oracle,
    grid_search_oracle,
    init_variational_oracle,
    kmeans_oracle,
    normalized_adjacency,
    pair_mass_oracle,
    random_graph,
    random_post_m_state,
    random_soft_state,
    scalar_elbo,
    scalar_m_step,
    scalar_nu_update,
    scalar_tau_sweep,
    spectral_basis_oracle,
    spectral_labels_oracle,
    spectral_start_oracle,
    vbe_update_tau_oracle,
    with_isolated_node,
)


def _absorbed(g, state, priors):
    beta, theta, eta, xi = m_step(sufficient_stats(g.layer_stack(), state.tau), state.nu, priors)
    return replace(state, beta=beta, theta=theta, eta=eta, xi=xi)


# ---------------------------------------------------------------- init


def test_init_single_cluster_columns():
    g = build_graph(4, 2, [(0, 1, 0)])
    pr = PriorHyperparams.jeffreys(1, 1)
    st = init_variational(g, 1, 1, pr, "random", rng_stream(0))
    assert np.array_equal(st.tau, np.ones((4, 1)))
    assert np.array_equal(st.nu, np.ones((2, 1)))


def test_init_random_deterministic():
    g = random_graph(np.random.default_rng(0), 6, 2)
    pr = PriorHyperparams.jeffreys(3, 2)
    a = init_variational(g, 3, 2, pr, "random", rng_stream(5))
    b = init_variational(g, 3, 2, pr, "random", rng_stream(5))
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.nu, b.nu)


def test_init_copies_priors():
    g = random_graph(np.random.default_rng(1), 5, 2)
    pr = PriorHyperparams.jeffreys(2, 2)
    st = init_variational(g, 2, 2, pr, "random", rng_stream(1))
    assert np.array_equal(st.beta, pr.beta0)
    assert np.array_equal(st.theta, pr.theta0)
    assert np.array_equal(st.eta, pr.eta0)
    assert np.array_equal(st.xi, pr.xi0)


def test_init_spectral_recovers_exact_blocks():
    cfg = SimulationConfig(n=24, v=3, k=3, q=1, p_in=1.0, p_out=0.0, component_k=(3,))
    g, truth = generate_dataset(cfg, rng_stream(11))
    # force the identity link map by regenerating until the map is bijective
    seed = 11
    while np.unique(truth.link_maps[0]).size != 3:
        seed += 1
        g, truth = generate_dataset(cfg, rng_stream(seed))
    pr = PriorHyperparams.jeffreys(3, 1)
    st = init_variational(g, 3, 1, pr, "per_view_spectral", rng_stream(0))
    z = np.argmax(st.tau, axis=1)
    assert ari(z, truth.z.labels) == 1.0


def test_init_rejects_out_of_range():
    g = build_graph(3, 2, [])
    pr = PriorHyperparams.jeffreys(4, 1)
    with pytest.raises(DomainError):
        init_variational(g, 4, 1, pr, "random", rng_stream(0))
    pr = PriorHyperparams.jeffreys(2, 3)
    with pytest.raises(DomainError):
        init_variational(g, 2, 3, pr, "random", rng_stream(0))


def test_init_rows_positive_and_normalized():
    g = random_graph(np.random.default_rng(2), 10, 3)
    pr = PriorHyperparams.jeffreys(3, 2)
    for strategy in ("random", "per_view_spectral"):
        st = init_variational(g, 3, 2, pr, strategy, rng_stream(2))
        assert np.all(st.tau > 0) and np.all(st.nu > 0)
        assert np.allclose(st.tau.sum(axis=1), 1.0, atol=1e-10)
        assert np.allclose(st.nu.sum(axis=1), 1.0, atol=1e-10)


def _spectral_graphs():
    """A planted dataset, a random graph with a node isolated in one layer,
    and a graph small enough that k = n."""
    planted, _ = generate_dataset(
        SimulationConfig(n=40, v=6, k=4, q=2, p_in=0.9, p_out=0.05, component_k=(4, 2)), rng_stream(3)
    )
    isolated = with_isolated_node(random_graph(np.random.default_rng(61), 12, 3, p=0.4), node=5, layer=1)
    tiny = random_graph(np.random.default_rng(62), 5, 2, p=0.5)
    return [(planted, 4, 2), (isolated, 3, 2), (tiny, 5, 2)]


def test_spectral_basis_shapes_and_spectrum():
    g = random_graph(np.random.default_rng(63), 9, 3, p=0.4)
    for k_max, m in ((2, 3), (8, 9), (9, 9)):
        vals, vecs = spectral_basis(g, k_max)
        assert vals.shape == (3, m) and vecs.shape == (3, 9, m)
        assert np.all(np.diff(vals, axis=1) >= 0)
    # at k_max = n the basis is the whole spectrum of D^-1/2 A D^-1/2 (zero
    # rows for isolated nodes) of every layer
    vals, vecs = spectral_basis(g, g.n)
    for lay in range(g.v):
        a = g.adj[:, :, lay].astype(float)
        d = a.sum(axis=1)
        inv = np.zeros_like(d)
        inv[d > 0] = d[d > 0] ** -0.5
        s = inv[:, None] * a * inv[None, :]
        assert np.allclose(vals[lay], np.linalg.eigvalsh(s), atol=1e-12)
        assert np.allclose(s @ vecs[lay], vecs[lay] * vals[lay][None, :], atol=1e-12)
    with pytest.raises(DomainError):
        spectral_basis(g, 0)


# ---------------------------------------------------------------- basis solver


def _assert_basis_matches_dense(g, k_max, shapes):
    """spectral_basis(g, k_max) against a full eigh per layer: equal eigengap
    counts at every k <= k_max, and on the pairs they select (a layer's top
    C, C its largest count) residual norms and values to 1e-10 and
    projectors to 1e-8. Leaves in `shapes`, the list of count_eigh, only
    spectral_basis's calls."""
    want_vals, want_vecs = spectral_basis_oracle(g, k_max)
    shapes.clear()
    vals, vecs = spectral_basis(g, k_max)
    counts = eigengap_counts(vals, k_max)
    assert np.array_equal(counts, eigengap_counts(want_vals, k_max)), (g.n, k_max)
    for lay, c in enumerate(counts.max(axis=0)):
        np.testing.assert_allclose(vals[lay, -c:], want_vals[lay, -c:], rtol=0, atol=1e-10)
        pairs = vecs[lay, :, -c:]
        assert np.linalg.norm(normalized_adjacency(g, lay) @ pairs - pairs * vals[lay, -c:], axis=0).max() <= 1e-10
        if c == 1 and want_vals[lay, -1] - want_vals[lay, -2] < 1e-8:
            continue  # a double top eigenvalue leaves the vector open, and one cluster ignores it
        got, want = vecs[lay, :, -c:], want_vecs[lay, :, -c:]
        np.testing.assert_allclose(got @ got.T, want @ want.T, rtol=0, atol=1e-8)
    return vals, vecs


def _acceptance_graph(*stream, p_switch=0.0):
    """The acceptance 4 (p_switch 0) and 6 graphs, drawn from rng_stream(*stream)."""
    cfg = SimulationConfig(n=200, v=15, k=5, q=3, p_in=0.99, p_out=0.01, p_switch=p_switch)
    return generate_dataset(cfg, rng_stream(*stream))[0]


def _layers(*layers):
    return MultilayerGraph(np.stack(layers, axis=2).astype(np.uint8))


def test_filtered_basis_matches_dense_eigh_without_an_n_by_n_eigh(monkeypatch):
    # above the size rule: an acceptance-4 graph at the grid's k_max and
    # beyond, and a p_in 0.3 graph, whose bulk reaches further up
    sparse, _ = generate_dataset(
        SimulationConfig(n=300, v=20, k=5, q=3, p_in=0.3, p_out=0.01, component_k=(5, 3, 2)), rng_stream(7919, 2, 0, 0)
    )
    shapes = count_eigh(monkeypatch)
    for g, k_max in ((_acceptance_graph(0), 5), (_acceptance_graph(0), 8), (sparse, 5)):
        _assert_basis_matches_dense(g, k_max, shapes)
        assert shapes and all(shape[-1] == k_max + 3 for shape in shapes), shapes


def test_filtered_basis_matches_dense_eigh_on_degenerate_layers(monkeypatch):
    # an empty layer (every gap ties, so above k_max = 1 it falls back to
    # eigh), a complete layer, a planted layer with an isolated node, and
    # two equal disjoint cliques, whose top eigenvalue 1 is double
    n = 200
    planted = with_isolated_node(_acceptance_graph(0), node=7, layer=0).adj[:, :, 0]
    complete = 1 - np.eye(n, dtype=np.uint8)
    cliques = np.kron(np.eye(2, dtype=np.uint8), np.ones((n // 2, n // 2), dtype=np.uint8)) - np.eye(n, dtype=np.uint8)
    g = _layers(np.zeros((n, n)), complete, planted, cliques)
    shapes = count_eigh(monkeypatch)
    for k_max in (1, 3, 5):
        vals, _ = _assert_basis_matches_dense(g, k_max, shapes)
        assert shapes.count((n, n)) == (k_max > 1), (k_max, shapes)  # k = 1 reads one gap, whatever it is
    assert np.array_equal(eigengap_counts(vals, 5)[1:, 3], [2, 2, 2, 2])


def test_filtered_basis_equals_dense_fits_on_acceptance_6_data():
    # spectral labels are renamed by first appearance, so a basis that fixes
    # the same counts and subspaces gives the fits of the dense one
    cfg = FitConfig(seed=0, n_restarts=5, init_strategy="per_view_spectral")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        for p_switch in (0.0, 0.3, 0.7):
            g = _acceptance_graph(1001, int(p_switch * 10), p_switch=p_switch)
            _assert_same_report(fit(g, 5, 3, cfg), fit(g, 5, 3, cfg, basis=spectral_basis_oracle(g, 5)), p_switch)


def test_spectral_basis_size_rule(monkeypatch):
    # the iteration runs when N >= 8 max(m + 2, 8), m = k_max + 1; one step
    # below, every layer gets its own N x N eigh and the dense bits
    shapes = count_eigh(monkeypatch)
    for n, k_max, iterative in ((64, 5, True), (63, 5, False), (96, 9, True), (96, 10, False), (64, 2, True)):
        g, _ = generate_dataset(
            SimulationConfig(n=n, v=4, k=4, q=2, p_in=0.9, p_out=0.05, component_k=(4, 2)), rng_stream(n, k_max)
        )
        vals, vecs = _assert_basis_matches_dense(g, k_max, shapes)
        if iterative:
            assert shapes and (n, n) not in shapes, (n, k_max, shapes)
        else:
            assert shapes == [(n, n)] * g.v, (n, k_max)
            want = spectral_basis_oracle(g, k_max)
            assert vals.tobytes() == want[0].tobytes() and vecs.tobytes() == want[1].tobytes()


def test_spectral_basis_is_the_full_spectrum_at_k_max_n_minus_1():
    g = _acceptance_graph(0)
    for k_max in (g.n - 1, g.n):
        vals, vecs = spectral_basis(g, k_max)
        assert vals.shape == (g.v, g.n)
        for lay in range(g.v):
            s = normalized_adjacency(g, lay)
            np.testing.assert_allclose(vals[lay], np.linalg.eigvalsh(s), rtol=0, atol=1e-12)
            np.testing.assert_allclose(s @ vecs[lay], vecs[lay] * vals[lay], rtol=0, atol=1e-12)


def test_uncertified_layer_alone_gets_dense_eigh(monkeypatch):
    # a sparse Erdos-Renyi layer falls apart into many components, so its
    # top eigenvalues all equal 1 and its gaps are rounding: no round
    # certifies its counts, and after the budget it alone is solved by eigh,
    # bit for bit; the planted layers around it keep the iteration's basis
    planted = _acceptance_graph(0)
    sparse = random_graph(np.random.default_rng(5), planted.n, 1, p=0.01).adj[:, :, 0]
    g = _layers(planted.adj[:, :, 0], sparse, planted.adj[:, :, 1])
    want_vals, want_vecs = spectral_basis_oracle(g, 5)
    assert np.all(want_vals[1] > 1.0 - 1e-12)
    shapes = count_eigh(monkeypatch)
    vals, vecs = _assert_basis_matches_dense(g, 5, shapes)
    assert shapes.count((g.n, g.n)) == 1
    assert len(shapes) == inference._BASIS_ROUNDS + 1
    assert vals[1].tobytes() == want_vals[1].tobytes() and vecs[1].tobytes() == want_vecs[1].tobytes()
    assert vecs[0].tobytes() != want_vecs[0].tobytes() and vecs[2].tobytes() != want_vecs[2].tobytes()


def test_init_spectral_matches_per_restart_oracle():
    # slicing one shared basis gives the same bytes as eigendecomposing each
    # layer again per call, whether the init draws its own start or takes
    # one drawn on a basis computed at k or wider
    for g, k, q in _spectral_graphs():
        pr = PriorHyperparams.jeffreys(k, q)
        for seed in range(3):
            want = init_variational_oracle(g, k, q, pr, "per_view_spectral", rng_stream(seed))
            got = [init_variational(g, k, q, pr, "per_view_spectral", rng_stream(seed))]
            for basis in (spectral_basis(g, k), spectral_basis(g, g.n)):
                rng = rng_stream(seed)
                start = inference._spectral_start(basis, k, rng)
                got.append(init_variational(g, k, q, pr, "per_view_spectral", rng, start=start))
            for state in got:
                assert state.tau.tobytes() == want.tau.tobytes()
                assert state.nu.tobytes() == want.nu.tobytes()


def _label_sets():
    """Layer partitions (V, N) with a relabelled duplicate layer, an exact
    duplicate, two nodes sharing every label, a singleton block, an
    all-singleton layer (k = n) and a one-block layer."""
    rng = np.random.default_rng(68)
    a = rng.integers(0, 4, size=(6, 30))
    a[:, 5] = a[:, 3]
    a[1] = rng.permutation(4)[a[0]]
    a[3] = a[2]
    a[4, 7] = 4
    b = np.stack([np.arange(8), rng.permutation(8), np.zeros(8, dtype=np.int64), rng.integers(0, 3, size=8)])
    c = rng.integers(0, 5, size=(1, 20))
    return [a, b, c]


def _pair_sq_dists(x, y):
    return ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)


def test_comembership_embeddings_keep_distances_of_dense_features():
    # pairwise distances, and distances to centroids made of the points, are
    # those of the flattened co-membership matrices and of their mean's rows
    rng = np.random.default_rng(69)
    for labels in _label_sets():
        for dense, emb in zip(comembership_features(labels), inference._comembership_embeddings(labels)):
            weights = rng.dirichlet(np.ones(dense.shape[0]), size=3)
            for want, got in (
                (_pair_sq_dists(dense, dense), _pair_sq_dists(emb, emb)),
                (_pair_sq_dists(dense, weights @ dense), _pair_sq_dists(emb, weights @ emb)),
            ):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(want.max(), 1.0))


def test_comembership_embeddings_equal_partitions_give_equal_rows():
    a, b, _ = _label_sets()
    layers, nodes = inference._comembership_embeddings(a)
    assert layers[0].tobytes() == layers[1].tobytes()
    assert layers[2].tobytes() == layers[3].tobytes()
    assert nodes[3].tobytes() == nodes[5].tobytes()
    assert len({row.tobytes() for row in layers}) == len({tuple(first_appearance_oracle(row)) for row in a})
    layers, nodes = inference._comembership_embeddings(b)
    assert layers[0].tobytes() == layers[1].tobytes()
    assert len({row.tobytes() for row in layers}) == 3


def test_first_appearance_renames_each_row():
    rng = np.random.default_rng(91)
    for trial in range(100):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 30)))
        labels = rng.integers(0, int(rng.integers(1, 9)), size=shape) * int(rng.integers(1, 4))
        got = inference._first_appearance(labels)
        assert np.array_equal(got, np.stack([first_appearance_oracle(row) for row in labels])), trial
        assert np.array_equal(inference._first_appearance(labels[0]), first_appearance_oracle(labels[0])), trial


def test_distinct_rows_match_numpy_unique():
    # random partitions, V = 1, all partitions equal, and a relabelled copy
    # that first appearance makes equal
    rng = np.random.default_rng(92)
    cases = []
    for trial in range(60):
        v, n = int(rng.integers(1, 16)), int(rng.integers(1, 40))
        labels = rng.integers(0, int(rng.integers(1, 6)), size=(v, n))
        if trial % 3 == 1:
            labels = labels[rng.integers(0, max(1, v // 3), size=v)]
        cases.append(labels)
    cases += [np.zeros((1, 7), dtype=np.int64), np.tile(np.arange(5), (4, 1)), np.array([[1, 0, 1], [0, 1, 0]])]
    for trial, labels in enumerate(cases):
        canon = inference._first_appearance(labels)
        got = inference._distinct_rows(canon)
        want = np.unique(canon, axis=0, return_inverse=True, return_counts=True)
        assert np.array_equal(got[0], want[0]), trial
        assert np.array_equal(got[1], want[1].ravel()), trial
        assert np.array_equal(got[2], want[2]), trial


def test_init_spectral_memory_is_below_one_byte_per_comembership_entry():
    # the dense features alone took 8 V N^2 bytes
    g, _ = generate_dataset(
        SimulationConfig(n=400, v=10, k=5, q=3, p_in=0.9, p_out=0.05, component_k=(5, 3, 2)), rng_stream(70)
    )
    pr = PriorHyperparams.jeffreys(5, 3)
    basis = spectral_basis(g, 5)
    rng = rng_stream(0)
    tracemalloc.start()
    try:
        start = inference._spectral_start(basis, 5, rng)
        init_variational(g, 5, 3, pr, "per_view_spectral", rng, start=start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.v * g.n**2, peak


def test_spectral_labels_match_oracle_for_any_wider_basis():
    # two disjoint triangles: the top two eigenvalues tie at 1 and the next
    # four at -1/2, so at k = 1 a gap search that looked past the top k + 1
    # eigenvalues would split the layer in two
    triangles = build_graph(6, 1, [(0, 1, 0), (0, 2, 0), (1, 2, 0), (3, 4, 0), (3, 5, 0), (4, 5, 0)])
    for g in [triangles] + [g for g, _, _ in _spectral_graphs()]:
        for k in sorted({1, 2, 3, g.n}):
            for k_max in (k, g.n):
                vals, vecs = spectral_basis(g, k_max)
                for lay in range(g.v):
                    got = inference._spectral_labels(vals[lay], vecs[lay], k, rng_stream(k, lay))
                    want = spectral_labels_oracle(g.adj[:, :, lay].astype(float), k, rng_stream(k, lay))
                    assert np.array_equal(got, want), (g.n, k, k_max, lay)


def test_init_rejects_mismatched_basis(monkeypatch):
    # fit checks a caller's basis once, before any init, under either init
    # strategy and for one q or a sequence of them
    g = random_graph(np.random.default_rng(64), 8, 3, p=0.4)
    vals, vecs = spectral_basis(g, 3)
    other = random_graph(np.random.default_rng(65), 9, 3, p=0.4)
    bad = [
        spectral_basis(g, 2),  # covers k = 2 only
        spectral_basis(other, 3),  # another node count
        (vals[:2], vecs[:2]),  # too few layers
        (vals, vecs[:, :, :-1]),  # vals and vecs disagree
        (vals[0], vecs[0]),  # one layer without its axis
    ]
    inits = count_calls(monkeypatch, inference, "init_variational")
    for basis in bad:
        for strategy in ("random", "per_view_spectral"):
            cfg = FitConfig(seed=0, n_restarts=1, init_strategy=strategy)
            for q in (2, [1, 2]):
                with pytest.raises(DomainError, match="spectral basis of shapes"):
                    fit(g, 3, q, cfg, basis=basis)
    assert inits == []
    checks = count_calls(monkeypatch, inference, "_check_basis")
    fit(g, 3, [1, 2], FitConfig(seed=0, n_restarts=3, init_strategy="per_view_spectral"), basis=(vals, vecs))
    assert len(checks) == 1


def test_init_rejects_a_start_of_another_graph_or_k():
    # a start of another graph's layers, node count or block count, or one
    # that is not a start at all, raises before the layer grouping
    g = random_graph(np.random.default_rng(64), 8, 6, p=0.4)
    pr = PriorHyperparams.jeffreys(3, 2)

    def start(h, k):
        return inference._spectral_start(spectral_basis(h, k), k, rng_stream(0))

    for bad in (
        start(random_graph(np.random.default_rng(65), 8, 4, p=0.4), 3),  # 4 layer rows on 6 layers
        start(random_graph(np.random.default_rng(66), 9, 6, p=0.4), 3),  # 9 nodes
        start(g, 2),  # tau for k = 2
        spectral_basis(g, 3),  # a basis is not a start
    ):
        with pytest.raises(DomainError, match="spectral start of shapes"):
            init_variational(g, 3, 2, pr, "per_view_spectral", rng_stream(0), start=bad)
    ok = init_variational(g, 3, 2, pr, "per_view_spectral", rng_stream(0), start=start(g, 3))
    assert ok.nu.shape == (6, 2)
    with pytest.raises(TypeError):
        init_variational(g, 3, 2, pr, "per_view_spectral", rng_stream(0), spectral_basis(g, 3))


def test_kmeans_matches_oracle_on_tied_and_duplicate_points():
    # duplicate rows, integer ties, k = 1, k above the number of distinct rows
    # and short max_iter: same labels and same stream position as plain Lloyd
    rng = np.random.default_rng(73)
    for trial in range(300):
        distinct = int(rng.integers(1, 8))
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, min(n, distinct + 4) + 1))
        base = rng.normal(size=(distinct, int(rng.integers(1, 4))))
        if trial % 3 == 0:
            base = np.round(base)
        x = base[rng.integers(0, distinct, size=n)]
        max_iter = (100, 1, 2, 7, 13)[trial % 5]
        got_rng, want_rng = rng_stream(trial), rng_stream(trial)
        got = inference._kmeans([x], [k], got_rng, max_iter=max_iter)[0]
        want = kmeans_oracle(x, k, want_rng, max_iter=max_iter)
        assert np.array_equal(got, want), trial
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state), trial


def _same_partition(a, b):
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def test_kmeans_matches_oracle_on_one_column():
    # one column: continuous values, rounded values with ties, all rows equal
    # (the only one-column input init_variational gives k-means at k >= 2:
    # node or layer embeddings when every layer's spectral labels are one
    # block), and duplicated values with k above the number of distinct ones
    # (empty clusters at every pass)
    rng = np.random.default_rng(79)
    for trial in range(400):
        n = int(rng.integers(2, 80))
        k = int(rng.integers(1, min(n, 9) + 1))
        x = rng.normal(size=(n, 1)) * 10.0 ** rng.integers(-3, 4)
        kind = trial % 4
        if kind == 1:
            x = np.round(x)
        elif kind == 2:
            x = np.full_like(x, x[0, 0])
        elif kind == 3:
            x = x[rng.integers(0, max(1, k - 2), size=n)]
        max_iter = (100, 1, 2, 7, 13)[trial % 5]
        got_rng, want_rng = rng_stream(trial), rng_stream(trial)
        got = inference._kmeans([x], [k], got_rng, max_iter=max_iter)[0]
        want = kmeans_oracle(x, k, want_rng, max_iter=max_iter)
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state), trial
        if kind < 3:
            assert np.array_equal(got, want), trial
        else:
            # the oracle's mean of one column sums pairwise, _kmeans in index
            # order; a cluster's center may then differ from a reseeded
            # center on the same point in its last bit, and which of the two
            # takes the point's copies differs: the same partition
            assert _same_partition(got, want), trial


@pytest.mark.parametrize("seed", [3984, 6598])
def test_kmeans_matches_oracle_when_a_cluster_empties_mid_run(monkeypatch, seed):
    # distinct points, so k-means++ gives every cluster a point of its own and
    # a cluster found empty is one a Lloyd update emptied: it is reseeded at
    # the point farthest from its center. These seeds were found by search.
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(15, 60)), int(rng.integers(4, 9))
    x = rng.normal(size=(n, 2)) * rng.standard_exponential(size=(n, 1)) ** 3
    assert np.unique(x, axis=0).shape[0] == n
    empty = []
    real = inference._sq_dists

    def watching(x, x2, centers):
        dist = real(x, x2, centers)  # one (N, k) slice per run
        empty.append(any(np.bincount(lab, minlength=k).min() == 0 for lab in dist.argmin(axis=2)))
        return dist

    monkeypatch.setattr(inference, "_sq_dists", watching)
    got_rng, want_rng = rng_stream(seed), rng_stream(seed)
    got = inference._kmeans([x], [k], got_rng)[0]
    assert any(empty)
    want = kmeans_oracle(x, k, want_rng)
    assert np.array_equal(got, want)
    assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)


def test_kmeans_stops_early_when_k_exceeds_distinct_points(monkeypatch):
    # 100 points on 5 distinct rows, k = 7: empty clusters are reseeded on
    # points at distance 0, the labels never settle and every init used to
    # run all max_iter = 100 passes (404 distance evaluations)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3))[rng.permutation(np.arange(100) % 5)]
    calls = count_calls(monkeypatch, inference, "_sq_dists")
    got_rng, want_rng = rng_stream(0), rng_stream(0)
    got = inference._kmeans([x], [7], got_rng)[0]
    want = kmeans_oracle(x, 7, want_rng)
    assert np.array_equal(got, want)
    assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)
    assert len(calls) < 40, len(calls)


def test_layer_grouping_seeds_once_when_q_exceeds_the_distinct_partitions(monkeypatch):
    # a select-grid-sized cell (N=100, V=12, switch 0) with q above the
    # number of distinct layer partitions: the seeding's totals reach 0, yet
    # it is seeded once, with the labels and stream end of kmeans_oracle
    g, _ = generate_dataset(
        SimulationConfig(n=100, v=12, k=5, q=3, p_in=0.99, p_out=0.01, component_k=(5, 3, 2)), rng_stream(2000)
    )
    vals, vecs = spectral_basis(g, 5)
    layer_rows, _ = inference._comembership_embeddings(inference._spectral_labels(vals, vecs, 5, rng_stream(1)))
    q = 5
    assert len({row.tobytes() for row in layer_rows}) < q
    seeds = count_calls(monkeypatch, inference, "_seed")
    batches = count_calls(monkeypatch, inference, "_lloyd")
    got_rng, want_rng = rng_stream(7), rng_stream(7)
    got = inference._kmeans([layer_rows], [q], got_rng)[0]
    assert len(seeds) == len(batches) == 1
    assert np.array_equal(got, kmeans_oracle(layer_rows, q, want_rng))
    assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)
    # in the init, the layer grouping is the one-problem call on V rows
    grouping = []
    real = inference._kmeans

    def recording(xs, ks, rng, **kwargs):
        before = len(seeds)
        out = real(xs, ks, rng, **kwargs)
        if len(xs) == 1 and len(xs[0]) == g.v:
            grouping.append(len(seeds) - before)
        return out

    monkeypatch.setattr(inference, "_kmeans", recording)
    init_variational(g, 5, q, PriorHyperparams.jeffreys(5, q), "per_view_spectral", rng_stream(1))
    assert grouping == [1]


def test_kmeans_draws_do_not_depend_on_the_data():
    # fewer distinct rows than k: the sampling total reaches 0 and the
    # seeding still draws one index and k - 1 uniforms per init
    rng = np.random.default_rng(94)
    x = rng.normal(size=(3, 2))[np.arange(20) % 3]
    n_init = 4
    for k in (4, 6):
        got_rng, want_rng = rng_stream(k), rng_stream(k)
        inference._kmeans([x], [k], got_rng, n_init=n_init)
        for _ in range(n_init):
            want_rng.integers(len(x))
            want_rng.random(k - 1)
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state), k


def _basis_labels_oracle(vals, vecs, k, rng):
    """The per-layer loop on a given basis: each layer's eigengap count,
    row-normed embedding and its own kmeans_oracle call, on one stream."""
    out = []
    for w, u in zip(vals, vecs):
        top = w[::-1][: min(k + 1, u.shape[0])]
        gaps = top[:-1] - top[1:]
        c = int(np.argmax(gaps)) + 1 if gaps.size else 1
        emb = u[:, -c:]
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        out.append(kmeans_oracle(emb / np.where(norms > 0, norms, 1.0), c, rng))
    return np.stack(out)


def _degenerate_basis(rng, n, v):
    """A basis whose layers have eigengap counts 1 to 4 at k = 5, some with
    fewer distinct embedding rows than their count (so a k-means++ total
    reaches 0 and the seeding takes row 0), and one with ties."""
    m = 6
    vals = np.empty((v, m))
    vecs = rng.normal(size=(v, n, m))
    for lay in range(v):
        c = 1 + lay % 4
        vals[lay] = np.sort(np.r_[rng.uniform(-0.5, 0.1, m - c), 1.0 - 0.01 * np.arange(c)])
        if lay % 3 == 1:  # c - 1 distinct rows
            vecs[lay] = vecs[lay, rng.integers(0, max(1, c - 1), size=n)]
        elif lay % 3 == 2:  # rows on a few integer points
            vecs[lay] = np.round(vecs[lay])[rng.integers(0, c + 1, size=n)]
    return vals, vecs


def test_spectral_labels_batch_matches_per_layer_oracle():
    # one batch per init against the per-layer loop on one shared stream:
    # same labels, same stream position. Planted layers with several
    # eigengap counts (one-block components give c = 1), a k = n graph, the
    # two-disjoint-triangles tie, and made-up bases whose embeddings have
    # fewer distinct rows than their count (zero seeding totals)
    triangles = build_graph(6, 1, [(0, 1, 0), (0, 2, 0), (1, 2, 0), (3, 4, 0), (3, 5, 0), (4, 5, 0)])
    mixed, _ = generate_dataset(  # eigengap counts 1, 1, 2, 2, 2, 4, 4, 4
        SimulationConfig(n=40, v=8, k=4, q=3, p_in=0.9, p_out=0.05, component_k=(4, 2, 1)), rng_stream(86)
    )
    graphs = [triangles, mixed] + [g for g, _, _ in _spectral_graphs()]
    for g in graphs:
        for k in sorted({1, 2, 3, 4, g.n}):
            vals, vecs = spectral_basis(g, g.n)
            got_rng, want_rng = rng_stream(k, g.n), rng_stream(k, g.n)
            got = inference._spectral_labels(vals, vecs, k, got_rng)
            want = np.stack([spectral_labels_oracle(g.adj[:, :, lay].astype(float), k, want_rng) for lay in range(g.v)])
            assert np.array_equal(got, want), (g.n, k)
            assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state), (g.n, k)
    rng = np.random.default_rng(82)
    for trial in range(40):
        vals, vecs = _degenerate_basis(rng, int(rng.integers(6, 40)), int(rng.integers(1, 9)))
        got_rng, want_rng = rng_stream(trial), rng_stream(trial)
        got = inference._spectral_labels(vals, vecs, 5, got_rng)
        want = _basis_labels_oracle(vals, vecs, 5, want_rng)
        assert np.array_equal(got, want), trial
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state), trial


def test_kmeans_batch_matches_one_problem_at_a_time():
    # several problems in one call against kmeans_oracle per problem on one
    # stream: k = 1, k >= n, k above the number of distinct rows (zero
    # seeding totals and the recurrence stop), ties, equal shapes sharing a
    # group, and short max_iter
    rng = np.random.default_rng(83)
    for trial in range(150):
        xs, ks = [], []
        for _ in range(int(rng.integers(1, 7))):
            n = int(rng.integers(2, 30))
            distinct = int(rng.integers(1, 8))
            base = rng.normal(size=(distinct, 2 + trial % 3))
            if trial % 2:
                base = np.round(base)
            xs.append(base[rng.integers(0, distinct, size=n)])
            ks.append(int(rng.integers(1, min(n, distinct + 3) + 1)) if trial % 5 else n + int(rng.integers(0, 2)))
        if trial % 4 == 0:  # a second problem of the first one's shape and k
            xs.append(rng.normal(size=xs[0].shape))
            ks.append(ks[0])
        max_iter = (100, 1, 2, 7)[trial % 4]
        got_rng, want_rng = rng_stream(trial), rng_stream(trial)
        got = inference._kmeans(xs, ks, got_rng, max_iter=max_iter)
        want = [kmeans_oracle(x, k, want_rng, max_iter=max_iter) for x, k in zip(xs, ks)]
        for p, (a, b) in enumerate(zip(got, want)):
            assert np.array_equal(a, b), (trial, p)
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state), trial


def test_spectral_labels_evaluate_distances_once_per_pass_per_group(monkeypatch):
    # the per-layer loop made one distance evaluation per pass per layer (its
    # inits batched); the batch makes one per pass per eigengap count: as
    # many as the slowest layer of each count needs alone
    g, _ = generate_dataset(
        SimulationConfig(n=40, v=8, k=4, q=3, p_in=0.9, p_out=0.05, component_k=(4, 2, 1)), rng_stream(86)
    )
    vals, vecs = spectral_basis(g, 4)
    problems = []
    real_kmeans = inference._kmeans

    def recording(xs, ks, rng, **kwargs):
        problems.extend(zip(xs, ks))
        return real_kmeans(xs, ks, rng, **kwargs)

    monkeypatch.setattr(inference, "_kmeans", recording)
    calls = count_calls(monkeypatch, inference, "_sq_dists")
    inference._spectral_labels(vals, vecs, 4, rng_stream(0))
    batched = len(calls)
    alone = {}  # eigengap count -> evaluations of each layer alone
    rng = rng_stream(0)
    for x, c in problems:
        del calls[:]
        real_kmeans([x], [c], rng)
        alone.setdefault(c, []).append(len(calls))
    assert len([c for c in alone if c > 1]) >= 2, alone  # several groups
    assert batched == sum(max(counts) for counts in alone.values()), (batched, alone)
    assert batched < sum(sum(counts) for counts in alone.values()), (batched, alone)


# ---------------------------------------------------------------- VBE updates


def test_tau_update_single_class_all_ones():
    g = build_graph(4, 1, [(0, 1, 0), (2, 3, 0)])
    pr = PriorHyperparams.jeffreys(1, 1)
    st = _absorbed(g, init_variational(g, 1, 1, pr, "random", rng_stream(0)), pr)
    tau = vbe_update_tau(g.layer_stack(), [st])[0]
    assert np.array_equal(tau, np.ones((4, 1)))


def test_tau_update_flat_when_uninformative():
    # eta == xi everywhere and uniform beta make the bracket k-independent
    g = build_graph(5, 2, [(0, 1, 0), (1, 2, 1)])
    k, q = 3, 2
    pr = PriorHyperparams.jeffreys(k, q)
    rng = np.random.default_rng(0)
    tau = np.full((5, k), 1.0 / k)
    nu = rng.dirichlet(np.ones(q), size=2)
    st = VariationalState(
        tau=tau,
        nu=nu,
        beta=np.full(k, 2.0),
        theta=np.full(q, 1.5),
        eta=np.full((k, k, q), 0.8),
        xi=np.full((k, k, q), 0.8),
    )
    out = vbe_update_tau(g.layer_stack(), [st])[0]
    assert np.allclose(out, 1.0 / k, atol=1e-12)


def test_tau_update_matches_scalar_formula():
    rng = np.random.default_rng(7)
    for trial in range(8):
        n = int(rng.integers(3, 8))
        v = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, min(v, 3) + 1))
        g = random_graph(rng, n, v, p=0.4)
        pr = PriorHyperparams.jeffreys(k, q)
        st = random_post_m_state(rng, g, k, q, pr)
        expected = scalar_tau_sweep(g, st)
        got = vbe_update_tau(g.layer_stack(), [st])[0]
        assert np.allclose(got, expected, atol=1e-12), f"trial {trial}"


def test_tau_update_hand_checked_single_edge():
    # N=3, K=2, V=1, Q=1, single edge (0,1): row 2 sees no edges, so its
    # logits only carry the hole terms; checked against the scalar oracle
    g = build_graph(3, 1, [(0, 1, 0)])
    pr = PriorHyperparams.jeffreys(2, 1)
    rng = np.random.default_rng(3)
    st = random_post_m_state(rng, g, 2, 1, pr)
    assert np.allclose(vbe_update_tau(g.layer_stack(), [st])[0], scalar_tau_sweep(g, st), atol=1e-13)


def _kernel_cases():
    """(graph, state) pairs: the graphs of acceptance 1 with a post-M-step
    state each, the graphs and states of acceptance 7, a graph with a node of
    degree 0 in every layer, and a k = n cell."""
    cases = []
    rng = np.random.default_rng(101)
    for trial in range(100):
        n = int(rng.integers(4, 31))
        v = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, min(v, 2) + 1))
        g = random_graph(rng, n, v, p=float(rng.uniform(0.05, 0.6)))
        st_rng = np.random.default_rng(trial)
        cases.append((g, random_post_m_state(st_rng, g, k, q, PriorHyperparams.jeffreys(k, q), cycles=trial % 3)))
    rng = np.random.default_rng(707)
    for _ in range(30):
        n = int(rng.integers(3, 20))
        v = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        q = int(rng.integers(1, v + 1))
        g = random_graph(rng, n, v, p=0.3)
        pr = PriorHyperparams.jeffreys(k, q)
        cases.append((g, random_post_m_state(rng, g, k, q, pr, cycles=int(rng.integers(0, 3)))))
    rng = np.random.default_rng(74)
    lonely = random_graph(rng, 12, 3, p=0.4)
    for lay in range(lonely.v):
        lonely = with_isolated_node(lonely, node=4, layer=lay)
    tiny = random_graph(rng, 5, 2, p=0.5)
    for g, k, q in ((lonely, 3, 2), (tiny, 5, 2)):
        cases.append((g, random_post_m_state(rng, g, k, q, PriorHyperparams.jeffreys(k, q), cycles=2)))
    return cases


def test_tau_sweep_matches_per_row_oracle():
    # one product per row on the float layer stack against the sweep on the
    # uint8 graph with running column sums
    for case, (g, st) in enumerate(_kernel_cases()):
        got = vbe_update_tau(g.layer_stack(), [st])[0]
        np.testing.assert_allclose(got, vbe_update_tau_oracle(g, st), rtol=0, atol=1e-12, err_msg=str(case))


def test_tau_sweep_gives_each_state_its_solo_result():
    # a state's sweep does not depend on which states share the call: 1-5
    # states with their own nu, beta and posteriors on every kernel graph
    for case, (g, st) in enumerate(_kernel_cases()):
        rng = np.random.default_rng(case)
        a = g.layer_stack()
        states = [st] + [random_soft_state(rng, g, st.k, st.q) for _ in range(4)]
        solo = [vbe_update_tau(a, [s])[0] for s in states]
        for size in range(1, 6):
            batch = states[:size] if case % 2 else states[5 - size :]
            want = solo[:size] if case % 2 else solo[5 - size :]
            got = vbe_update_tau(a, batch)
            assert len(got) == size
            for j, (x, y) in enumerate(zip(got, want)):
                assert x.tobytes() == y.tobytes(), (case, size, j)


def test_stats_pass_gives_each_job_its_solo_statistics():
    # a job's statistics do not depend on which jobs share the pass: 1-5
    # jobs of mixed q (one repeating another's tau) on every kernel graph
    for case, (g, st) in enumerate(_kernel_cases()):
        rng = np.random.default_rng(case)
        a = g.layer_stack()
        taus = [st.tau] + [random_soft_state(rng, g, st.k, int(rng.integers(1, g.v + 1))).tau for _ in range(3)]
        taus.append(taus[case % 4].copy())
        solo = [sufficient_stats(a, tau) for tau in taus]
        for size in range(1, 6):
            batch = taus[:size] if case % 2 else taus[5 - size :]
            want = solo[:size] if case % 2 else solo[5 - size :]
            got = inference._stats_pass(a, batch)
            assert len(got) == size
            for j, (x, y) in enumerate(zip(got, want)):
                assert [part.tobytes() for part in x] == [part.tobytes() for part in y], (case, size, j)


def _sweep_batches(monkeypatch) -> list:
    """Record the number of states of each inference.vbe_update_tau call
    for the rest of the test."""
    batches = []
    real = inference.vbe_update_tau

    def sweep(a, states, moments=None):
        batches.append(len(states))
        return real(a, states, moments)

    monkeypatch.setattr(inference, "vbe_update_tau", sweep)
    return batches


def _distinct_inits(monkeypatch) -> list:
    """Record the (tau, nu) bytes of each inference.init_variational call
    for the rest of the test."""
    inits = []
    real = inference.init_variational

    def init(*args, **kwargs):
        state = real(*args, **kwargs)
        inits.append((state.tau.tobytes(), state.nu.tobytes()))
        return state

    monkeypatch.setattr(inference, "init_variational", init)
    return inits


def test_fit_sweeps_the_live_restarts_once_per_round(monkeypatch):
    # the batch, one state per distinct init, shrinks as restarts converge
    # or run out of iterations, and every restart in a round's batch
    # evaluates one bound in that round
    g = random_graph(np.random.default_rng(90), 30, 4, p=0.3)
    batches = _sweep_batches(monkeypatch)
    bounds = count_calls(monkeypatch, inference, "compute_elbo")
    inits = _distinct_inits(monkeypatch)
    seen = {}
    for strategy, restarts, max_iter in (("random", 5, 200), ("random", 4, 3), ("per_view_spectral", 3, 200)):
        batches.clear()
        bounds.clear()
        inits.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            rep = fit(g, 3, 2, FitConfig(seed=6, n_restarts=restarts, max_iter=max_iter, init_strategy=strategy))
        assert len(inits) == restarts
        assert batches[0] == len(set(inits)) and rep.iterations <= len(batches) <= max_iter
        assert all(x >= y for x, y in zip(batches, batches[1:])), batches
        assert sum(batches) == len(bounds)
        seen[strategy, max_iter] = list(batches)
    assert seen["random", 3] == [4, 4, 4]
    assert seen["random", 200][-1] < 5  # some random restarts stop before others


def test_sufficient_stats_bytes_match_dense_oracles():
    for case, (g, st) in enumerate(_kernel_cases()):
        m, pair, t = sufficient_stats(g.layer_stack(), st.tau)
        assert m.tobytes() == connectivity_oracle(g.adj, st.tau).tobytes(), case
        assert pair.tobytes() == pair_mass_oracle(st.tau).tobytes(), case
        assert t.tobytes() == st.tau.sum(axis=0).tobytes(), case


def test_layer_stack_is_a_new_float_copy():
    g = random_graph(np.random.default_rng(75), 7, 3, p=0.5)
    a = g.layer_stack()
    assert a.dtype == np.float64 and a.flags.c_contiguous and a.shape == (3, 7, 7)
    assert np.array_equal(a, g.adj.transpose(2, 0, 1))
    assert a is not g.layer_stack()
    assert list(vars(g)) == ["adj"]


def test_nu_update_single_component_all_ones():
    g = build_graph(4, 3, [(0, 1, 0)])
    pr = PriorHyperparams.jeffreys(2, 1)
    st = _absorbed(g, init_variational(g, 2, 1, pr, "random", rng_stream(1)), pr)
    nu = vbe_update_nu(sufficient_stats(g.layer_stack(), st.tau), st)
    assert np.array_equal(nu, np.ones((3, 1)))


def test_nu_update_flat_when_uninformative():
    g = build_graph(4, 2, [(0, 1, 0), (2, 3, 1)])
    k, q = 2, 2
    rng = np.random.default_rng(1)
    tau = rng.dirichlet(np.ones(k), size=4)
    st = VariationalState(
        tau=tau,
        nu=np.full((2, q), 0.5),
        beta=np.full(k, 1.0),
        theta=np.full(q, 3.0),
        eta=np.full((k, k, q), 1.1),
        xi=np.full((k, k, q), 1.1),
    )
    out = vbe_update_nu(sufficient_stats(g.layer_stack(), st.tau), st)
    assert np.allclose(out, 0.5, atol=1e-12)


def test_nu_update_contrasting_layers():
    # one empty and one complete layer with K=1: the dense slice must pull
    # the complete layer toward the edge-favoring component
    n = 5
    complete = [(i, j, 1) for i in range(n) for j in range(i + 1, n)]
    g = build_graph(n, 2, complete)
    eta = np.zeros((1, 1, 2))
    xi = np.zeros((1, 1, 2))
    eta[0, 0, 0], xi[0, 0, 0] = 0.5, 9.5  # component 0 favors holes
    eta[0, 0, 1], xi[0, 0, 1] = 9.5, 0.5  # component 1 favors edges
    st = VariationalState(
        tau=np.ones((n, 1)),
        nu=np.full((2, 2), 0.5),
        beta=np.array([1.0]),
        theta=np.array([1.0, 1.0]),
        eta=eta,
        xi=xi,
    )
    out = vbe_update_nu(sufficient_stats(g.layer_stack(), st.tau), st)
    assert np.allclose(out, scalar_nu_update(g, st), atol=1e-12)
    assert out[0, 0] > 0.99  # empty layer -> hole-favoring component
    assert out[1, 1] > 0.99  # complete layer -> edge-favoring component


def test_nu_update_matches_scalar_formula():
    rng = np.random.default_rng(17)
    for trial in range(8):
        n = int(rng.integers(3, 8))
        v = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        if q > v:
            q = v
        g = random_graph(rng, n, v, p=0.4)
        pr = PriorHyperparams.jeffreys(k, q)
        st = random_post_m_state(rng, g, k, q, pr)
        assert np.allclose(vbe_update_nu(sufficient_stats(g.layer_stack(), st.tau), st), scalar_nu_update(g, st), atol=1e-12), f"trial {trial}"


def test_updates_keep_rows_normalized():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 9, 3, p=0.3)
    pr = PriorHyperparams.jeffreys(3, 2)
    st = random_post_m_state(rng, g, 3, 2, pr)
    a = g.layer_stack()
    tau = vbe_update_tau(a, [st])[0]
    nu = vbe_update_nu(sufficient_stats(a, tau), st)
    assert np.allclose(tau.sum(axis=1), 1.0, atol=1e-10)
    assert np.allclose(nu.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(tau > 0) and np.all(nu > 0)


# ---------------------------------------------------------------- M-step


def test_m_step_beta_column_sums():
    g = build_graph(3, 1, [(0, 1, 0)])
    pr = PriorHyperparams.jeffreys(2, 1)
    tau = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    st = VariationalState(tau=tau, nu=np.ones((1, 1)), beta=pr.beta0, theta=pr.theta0,
                          eta=pr.eta0, xi=pr.xi0)
    beta, theta, eta, xi = m_step(sufficient_stats(g.layer_stack(), st.tau), st.nu, pr)
    assert np.allclose(beta, [2.5, 1.5], atol=1e-15)
    assert np.allclose(theta, [1.5], atol=1e-15)


def test_m_step_complete_triangle_counts():
    # K=1, Q=1, N=3 complete single layer: 3 edges, 0 holes
    g = build_graph(3, 1, [(0, 1, 0), (0, 2, 0), (1, 2, 0)])
    pr = PriorHyperparams.jeffreys(1, 1)
    st = VariationalState(tau=np.ones((3, 1)), nu=np.ones((1, 1)), beta=pr.beta0,
                          theta=pr.theta0, eta=pr.eta0, xi=pr.xi0)
    _, _, eta, xi = m_step(sufficient_stats(g.layer_stack(), st.tau), st.nu, pr)
    assert eta[0, 0, 0] == pytest.approx(3.5, abs=1e-12)
    assert xi[0, 0, 0] == pytest.approx(0.5, abs=1e-12)


def test_m_step_hard_partition_exact_counts():
    # planted 2-block graph, hard tau: eta increments equal exact pair counts
    rng = np.random.default_rng(5)
    n = 10
    z = np.array([0] * 5 + [1] * 5)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = 0.9 if z[i] == z[j] else 0.2
            if rng.random() < p:
                edges.append((i, j, 0))
    g = build_graph(n, 1, edges)
    pr = PriorHyperparams.jeffreys(2, 1)
    tau = np.eye(2)[z]
    st = VariationalState(tau=tau, nu=np.ones((1, 1)), beta=pr.beta0, theta=pr.theta0,
                          eta=pr.eta0, xi=pr.xi0)
    _, _, eta, xi = m_step(sufficient_stats(g.layer_stack(), st.tau), st.nu, pr)
    a = g.adj[:, :, 0]
    within0 = sum(a[i, j] for i in range(5) for j in range(i + 1, 5))
    within1 = sum(a[i, j] for i in range(5, n) for j in range(i + 1, n))
    between = sum(a[i, j] for i in range(5) for j in range(5, n))
    assert eta[0, 0, 0] - 0.5 == pytest.approx(within0, abs=1e-12)
    assert eta[1, 1, 0] - 0.5 == pytest.approx(within1, abs=1e-12)
    assert eta[0, 1, 0] - 0.5 == pytest.approx(between, abs=1e-12)


def test_m_step_matches_scalar_formula():
    rng = np.random.default_rng(29)
    for _ in range(6):
        n = int(rng.integers(3, 7))
        v = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, v + 1))
        g = random_graph(rng, n, v, p=0.5)
        pr = PriorHyperparams.jeffreys(k, q)
        st = random_post_m_state(rng, g, k, q, pr)
        beta, theta, eta, xi = m_step(sufficient_stats(g.layer_stack(), st.tau), st.nu, pr)
        b2, t2, e2, x2 = scalar_m_step(g, st, pr)
        assert np.allclose(beta, b2, atol=1e-10)
        assert np.allclose(theta, t2, atol=1e-10)
        assert np.allclose(eta, e2, atol=1e-10)
        assert np.allclose(xi, x2, atol=1e-10)


def test_m_step_conservation():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        v = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, v + 1))
        g = random_graph(rng, n, v, p=0.4)
        pr = PriorHyperparams.jeffreys(k, q)
        st = random_post_m_state(rng, g, k, q, pr)
        beta, theta, eta, xi = m_step(sufficient_stats(g.layer_stack(), st.tau), st.nu, pr)
        assert beta.sum() - pr.beta0.sum() == pytest.approx(n, abs=1e-8)
        assert theta.sum() - pr.theta0.sum() == pytest.approx(v, abs=1e-8)
        iu, ju = np.triu_indices(k)
        mass = ((eta - pr.eta0) + (xi - pr.xi0))[iu, ju, :].sum()
        assert mass == pytest.approx(g.v * (g.n * (g.n - 1) // 2), abs=1e-6)


# ---------------------------------------------------------------- bound


def test_elbo_single_edge_value():
    g = build_graph(2, 1, [(0, 1, 0)])
    pr = PriorHyperparams.jeffreys(1, 1)
    st = VariationalState(tau=np.ones((2, 1)), nu=np.ones((1, 1)), beta=pr.beta0,
                          theta=pr.theta0, eta=pr.eta0, xi=pr.xi0)
    st = _absorbed(g, st, pr)
    assert compute_elbo(st, pr) == pytest.approx(-math.log(2.0), abs=1e-12)


def test_elbo_hard_state_entropy_free():
    g = build_graph(4, 2, [(0, 1, 0), (2, 3, 1)])
    pr = PriorHyperparams.jeffreys(2, 2)
    tau = np.eye(2)[[0, 0, 1, 1]].astype(float)
    nu = np.eye(2).astype(float)
    st = _absorbed(g, VariationalState(tau=tau, nu=nu, beta=pr.beta0, theta=pr.theta0,
                                       eta=pr.eta0, xi=pr.xi0), pr)
    # adding back zero entropies changes nothing
    assert compute_elbo(st, pr) == pytest.approx(scalar_elbo(st, pr), abs=1e-10)


def test_elbo_prior_only_uniform_state():
    # no data absorbed: every Gamma ratio is 1 and only the entropy terms
    # -sum tau log tau - sum nu log nu remain, which are positive here
    n, v, k, q = 6, 4, 3, 2
    pr = PriorHyperparams.jeffreys(k, q)
    st = VariationalState(tau=np.full((n, k), 1.0 / k), nu=np.full((v, q), 1.0 / q),
                          beta=pr.beta0, theta=pr.theta0, eta=pr.eta0, xi=pr.xi0)
    assert compute_elbo(st, pr) == pytest.approx(n * math.log(k) + v * math.log(q), abs=1e-10)


def test_elbo_matches_scalar_formula():
    rng = np.random.default_rng(37)
    for _ in range(8):
        n = int(rng.integers(3, 8))
        v = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, v + 1))
        g = random_graph(rng, n, v, p=0.4)
        pr = PriorHyperparams.jeffreys(k, q)
        st = random_post_m_state(rng, g, k, q, pr)
        assert compute_elbo(st, pr) == pytest.approx(scalar_elbo(st, pr), abs=1e-9)


# ---------------------------------------------------------------- fit loop


def test_fit_trivial_dimensions_converges_fast():
    g = build_graph(6, 2, [(0, 1, 0), (2, 3, 1)])
    rep = fit(g, 1, 1, FitConfig(seed=0, n_restarts=1))
    assert rep.converged
    assert rep.iterations <= 2
    assert rep.z_map.labels.tolist() == [0] * 6
    assert rep.w_map.labels.tolist() == [0] * 2


def test_fit_same_seed_bit_identical():
    rng = np.random.default_rng(41)
    g = random_graph(rng, 12, 3, p=0.3)
    cfg = FitConfig(seed=9, n_restarts=2)
    a = fit(g, 2, 2, cfg)
    b = fit(g, 2, 2, cfg)
    assert a.elbo_trace == b.elbo_trace
    assert np.array_equal(a.state.tau, b.state.tau)
    assert np.array_equal(a.state.nu, b.state.nu)
    assert np.array_equal(a.z_map.labels, b.z_map.labels)
    assert a.best_restart == b.best_restart


def test_fit_rejects_out_of_range_dims():
    g = build_graph(4, 2, [])
    with pytest.raises(DomainError):
        fit(g, 5, 1, FitConfig())
    with pytest.raises(DomainError):
        fit(g, 2, 3, FitConfig())
    with pytest.raises(DomainError):
        fit(g, 0, 1, FitConfig())


def test_fit_monotone_trace_small_instances():
    rng = np.random.default_rng(43)
    for trial in range(15):
        n = int(rng.integers(4, 15))
        v = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, v + 1))
        g = random_graph(rng, n, v, p=0.35)
        strategy = "random" if trial % 2 == 0 else "per_view_spectral"
        rep = fit(g, k, q, FitConfig(seed=trial, n_restarts=1, init_strategy=strategy))
        trace = np.array(rep.elbo_trace)
        assert np.all(np.diff(trace) >= -1e-8), f"trial {trial}: {trace}"


def test_fit_z_map_consistent_with_tau():
    rng = np.random.default_rng(47)
    g = random_graph(rng, 10, 2, p=0.4)
    rep = fit(g, 3, 2, FitConfig(seed=1, n_restarts=2))
    assert np.array_equal(rep.z_map.labels, np.argmax(rep.state.tau, axis=1))
    assert np.array_equal(rep.w_map.labels, np.argmax(rep.state.nu, axis=1))


def test_fit_max_iter_flags_non_convergence():
    rng = np.random.default_rng(53)
    g = random_graph(rng, 12, 3, p=0.3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = fit(g, 3, 2, FitConfig(seed=0, n_restarts=1, max_iter=1))
    assert not rep.converged
    assert rep.iterations == 1
    assert any(issubclass(w.category, ConvergenceWarning) for w in caught)


def test_fit_label_permutation_equivariance():
    # permuting the initialization's columns permutes the fitted tau columns
    # and leaves the bound unchanged
    rng = np.random.default_rng(59)
    g = random_graph(rng, 8, 2, p=0.4)
    k, q = 3, 2
    pr = PriorHyperparams.jeffreys(k, q)
    base = init_variational(g, k, q, pr, "random", rng_stream(3))
    perm = np.array([2, 0, 1])
    a = g.layer_stack()

    def run(state):
        state = _absorbed(g, state, pr)
        for _ in range(12):
            state = replace(state, tau=vbe_update_tau(a, [state])[0])
            state = replace(state, nu=vbe_update_nu(sufficient_stats(a, state.tau), state))
            state = _absorbed(g, state, pr)
        return state, compute_elbo(state, pr)

    s1, l1 = run(base)
    s2, l2 = run(replace(base, tau=base.tau[:, perm]))
    assert l2 == pytest.approx(l1, abs=1e-8)
    # column c of the permuted run tracks column perm[c] of the base run
    assert np.allclose(s2.tau, s1.tau[:, perm], atol=1e-8)


def test_fit_easy_dataset_recovery():
    # the flagship recovery check: 20 seeds, both partitions recovered with
    # ARI >= 0.95 on at least 90% of them
    hits = 0
    for seed in range(20):
        cfg = SimulationConfig(n=200, v=15, k=5, q=3, p_in=0.99, p_out=0.01, p_switch=0.0)
        g, truth = generate_dataset(cfg, rng_stream(seed))
        rep = fit(g, 5, 3, FitConfig(seed=seed, n_restarts=5, init_strategy="per_view_spectral"))
        if ari(rep.z_map, truth.z) >= 0.95 and ari(rep.w_map, truth.w) >= 0.95:
            hits += 1
    assert hits >= 18, f"only {hits}/20 seeds recovered both partitions"


def test_fit_spectral_matches_per_restart_oracle(monkeypatch):
    cfg = dict(seed=4, n_restarts=3, init_strategy="per_view_spectral")
    graphs = _spectral_graphs()
    got = [fit(g, k, q, FitConfig(**cfg)) for g, k, q in graphs]
    monkeypatch.setattr(inference, "init_variational", init_variational_oracle)
    want = []
    for g, k, q in graphs:
        monkeypatch.setattr(inference, "_spectral_start", lambda basis, k, rng, g=g: spectral_start_oracle(g, k, rng))
        want.append(fit(g, k, q, FitConfig(**cfg)))
    for a, b in zip(got, want):
        assert a.state.tau.tobytes() == b.state.tau.tobytes()
        assert a.state.nu.tobytes() == b.state.nu.tobytes()
        assert np.array(a.elbo_trace).tobytes() == np.array(b.elbo_trace).tobytes()
        assert np.array(a.restart_elbos).tobytes() == np.array(b.restart_elbos).tobytes()
        assert a.best_restart == b.best_restart


def test_fit_eigendecomposes_each_layer_once(monkeypatch):
    g = random_graph(np.random.default_rng(66), 10, 4, p=0.4)
    calls = count_eigh(monkeypatch)
    for restarts in (1, 4):
        calls.clear()
        fit(g, 3, 2, FitConfig(seed=1, n_restarts=restarts, init_strategy="per_view_spectral"))
        assert len(calls) == g.v
    calls.clear()
    fit(g, 3, 2, FitConfig(seed=1, n_restarts=3, init_strategy="random"))
    assert calls == []


def _assert_same_report(got, want, where=None):
    """Byte equality of two FitReports' state, traces and winner."""
    for name in ("tau", "nu", "beta", "theta", "eta", "xi"):
        assert getattr(got.state, name).tobytes() == getattr(want.state, name).tobytes(), (where, name)
    assert np.array(got.elbo_trace).tobytes() == np.array(want.elbo_trace).tobytes(), where
    assert np.array(got.restart_elbos).tobytes() == np.array(want.restart_elbos).tobytes(), where
    assert (got.best_restart, got.converged) == (want.best_restart, want.converged), where


def _acceptance_fits():
    """(graph, k, q, config) of fits on the acceptance-4 data (N=200, V=15,
    switch 0, 5 spectral restarts, at the planted (5, 3)) and on the
    acceptance-5 data (N=100, V=12, 3 spectral restarts, K 2..8 x Q 1..5)."""
    fits = []
    for seed in range(5):
        cfg = SimulationConfig(n=200, v=15, k=5, q=3, p_in=0.99, p_out=0.01, p_switch=0.0)
        g, _ = generate_dataset(cfg, rng_stream(seed))
        fits.append((g, 5, 3, FitConfig(seed=seed, n_restarts=5, init_strategy="per_view_spectral")))
    for seed in range(2):
        cfg = SimulationConfig(n=100, v=12, k=5, q=3, p_in=0.99, p_out=0.01, p_switch=0.0, component_k=(5, 3, 2))
        g, _ = generate_dataset(cfg, rng_stream(2000 + seed))
        fc = FitConfig(seed=seed, n_restarts=3, init_strategy="per_view_spectral")
        fits += [(g, k, q, fc) for k in range(2, 9) for q in range(1, 6)]
    return fits


def test_fit_equals_every_restart_run_on_acceptance_data(monkeypatch):
    # fit runs each distinct init once; the oracle runs every restart, one
    # after another. Most of these restarts repeat an earlier one's init
    inits = _distinct_inits(monkeypatch)
    repeats = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        for g, k, q, cfg in _acceptance_fits():
            inits.clear()
            _assert_same_report(fit(g, k, q, cfg), fit_oracle(g, k, q, cfg), (k, q))
            repeats += cfg.n_restarts - len(set(inits))
    assert repeats > 50, repeats


def test_fit_sweeps_and_bounds_each_distinct_init_once(monkeypatch):
    # acceptance-4 data: of 5 spectral restarts only the distinct inits join
    # the first round's sweep; a repeat takes no absorbing M-step and no
    # bound of its own, and its restart_elbos entry is its first's bound
    g, _ = generate_dataset(SimulationConfig(n=200, v=15, k=5, q=3, p_in=0.99, p_out=0.01, p_switch=0.0), rng_stream(0))
    batches = _sweep_batches(monkeypatch)
    bounds = count_calls(monkeypatch, inference, "compute_elbo")
    m_steps = count_calls(monkeypatch, inference, "m_step")
    inits = _distinct_inits(monkeypatch)
    rep = fit(g, 5, 3, FitConfig(seed=0, n_restarts=5, init_strategy="per_view_spectral"))
    first = {}
    for r, key in enumerate(inits):
        first.setdefault(key, r)
        assert rep.restart_elbos[r] == rep.restart_elbos[first[key]]
    assert len(inits) == 5 and len(first) < 5
    assert batches[0] == len(first) and rep.best_restart in first.values()
    assert len(bounds) == sum(batches)
    assert len(m_steps) == len(first) + sum(batches)


def test_fit_repeats_only_restarts_whose_tau_and_nu_both_repeat(monkeypatch):
    # inits that share tau but not nu, or nu but not tau, are distinct runs;
    # only restart 3, a copy of restart 0's (tau, nu), is a repeat
    import helpers

    g, _ = generate_dataset(
        SimulationConfig(n=30, v=6, k=3, q=2, p_in=0.6, p_out=0.2, component_k=(3, 2)), rng_stream(94)
    )
    pr = PriorHyperparams.jeffreys(3, 2)
    a, b = (init_variational(g, 3, 2, pr, "random", rng_stream(s)) for s in (0, 1))
    table = [(a.tau, a.nu), (a.tau, b.nu), (b.tau, a.nu), (a.tau, a.nu), (b.tau, b.nu)]
    calls = []

    def init(g, k, q, priors, strategy, rng, *, start):
        tau, nu = table[len(calls) % len(table)]
        calls.append(None)
        return replace(a, tau=tau.copy(), nu=nu.copy())

    monkeypatch.setattr(inference, "init_variational", init)
    monkeypatch.setattr(helpers, "init_variational", init)
    batches = _sweep_batches(monkeypatch)
    cfg = FitConfig(seed=0, n_restarts=5)
    got = fit(g, 3, 2, cfg)
    assert batches[0] == 4
    _assert_same_report(got, fit_oracle(g, 3, 2, cfg))
    assert len(set(got.restart_elbos)) > 1 and got.restart_elbos[3] == got.restart_elbos[0]


def test_fit_matches_dense_oracle():
    # the loop on shared sufficient statistics against the dense loop that
    # recomputes connectivity per update, for both inits, on a graph with a
    # degree-0 node and on a k = n cell
    for strategy in ("random", "per_view_spectral"):
        cfg = FitConfig(seed=8, n_restarts=3, init_strategy=strategy)
        for g, k, q in _spectral_graphs():
            _assert_same_report(fit(g, k, q, cfg), fit_oracle(g, k, q, cfg), (strategy, k, q))


def test_fit_computes_statistics_and_state_once_per_iteration(monkeypatch):
    g = random_graph(np.random.default_rng(67), 10, 4, p=0.4)
    stats = count_calls(monkeypatch, inference, "_stats_pass")
    states = count_calls(monkeypatch, VariationalState, "__init__")
    for strategy in ("random", "per_view_spectral"):
        stats.clear()
        states.clear()
        rep = fit(g, 3, 2, FitConfig(seed=2, n_restarts=1, init_strategy=strategy))
        # one absorbing M-step before the loop, then one pass per iteration
        assert len(stats) == rep.iterations + 1
        # the initial state, the absorbed one, then one per iteration
        assert len(states) == rep.iterations + 2


def test_fit_builds_the_layer_stack_once(monkeypatch):
    g = random_graph(np.random.default_rng(76), 10, 4, p=0.4)
    builds = count_calls(monkeypatch, MultilayerGraph, "layer_stack")
    for strategy in ("random", "per_view_spectral"):
        for restarts in (1, 3):
            builds.clear()
            rep = fit(g, 3, 2, FitConfig(seed=5, n_restarts=restarts, init_strategy=strategy))
            assert rep.iterations > 1
            assert len(builds) == 1
    assert list(vars(g)) == ["adj"]  # nothing is kept on the graph


def test_log_moments_and_bound_bytes_match_one_call_per_argument():
    # the fused special-function calls give the bits of one call per argument
    rng = np.random.default_rng(83)
    for k, q in ((1, 1), (2, 1), (3, 2), (5, 3)):
        g = random_graph(rng, 12, 4, p=0.4)
        pr = PriorHyperparams.jeffreys(k, q)
        states = [random_post_m_state(rng, g, k, q, pr, cycles=2), random_soft_state(rng, g, k, q)]
        states.append(replace(states[0], tau=np.eye(k)[rng.integers(0, k, g.n)], nu=np.eye(q)[rng.integers(0, q, g.v)]))
        for st in states:
            d, e, beta_base, theta_base = inference._log_moments([st])[0]
            want_d, want_e = beta_log_moments_oracle(st)
            assert d.tobytes() == want_d.tobytes() and e.tobytes() == want_e.tobytes()
            for base, conc in ((beta_base, st.beta), (theta_base, st.theta)):
                want_base = inference.digamma(conc) - inference.digamma(float(conc.sum()))
                assert base.tobytes() == want_base.tobytes()
            got, want = compute_elbo(st, pr), compute_elbo_oracle(st, pr)
            assert math.isfinite(got) and np.float64(got).tobytes() == np.float64(want).tobytes()


def test_prior_log_gammas_are_computed_once_per_prior(monkeypatch):
    # a fit's first log_gamma call holds the prior arguments of all its
    # cells and gives each cell's prior side the bits of one call per
    # argument; each round's one call then holds the posterior arguments of
    # every live job, and no prior's
    real_lg, real_sides, real_sweep = inference.log_gamma, inference._normalizer_log_gammas, inference.vbe_update_tau

    def want(pr):
        iu, ju = np.triu_indices(pr.k)
        eta0, xi0 = pr.eta0[iu, ju, :].ravel(), pr.xi0[iu, ju, :].ravel()
        return (
            np.array([real_lg(float(pr.beta0.sum())), real_lg(float(pr.theta0.sum()))]),
            real_lg(pr.beta0),
            real_lg(pr.theta0),
            real_lg(eta0 + xi0),
            real_lg(eta0),
            real_lg(xi0),
        )

    def size(k, q):  # the log_gamma arguments of one side
        return 2 + k + q + 3 * (k * (k + 1) // 2) * q

    sizes, sides, swept = [], [], []  # per call: its size; its sides; its states' sizes
    monkeypatch.setattr(inference, "log_gamma", lambda x: sizes.append(np.size(x)) or real_lg(x))
    monkeypatch.setattr(inference, "_normalizer_log_gammas", lambda s: sides.append(real_sides(s)) or sides[-1])

    def sweep(a, states, moments=None):
        swept.append(sum(size(st.k, st.q) for st in states))
        return real_sweep(a, states, moments)

    monkeypatch.setattr(inference, "vbe_update_tau", sweep)
    rng = np.random.default_rng(84)
    g = random_graph(np.random.default_rng(85), 15, 4, p=0.4)
    for k, qs in ((1, [1]), (3, [2]), (5, [3]), (3, [1, 2, 4])):
        for jeffreys in (True, False):
            priors = []
            for q in qs:
                b, t = rng.uniform(0.2, 3.0, k), rng.uniform(0.2, 3.0, q)
                e, x = rng.uniform(0.2, 3.0, (k, k, q)), rng.uniform(0.2, 3.0, (k, k, q))
                drawn = PriorHyperparams(b, t, e + e.transpose(1, 0, 2), x + x.transpose(1, 0, 2))
                priors.append(PriorHyperparams.jeffreys(k, q) if jeffreys else drawn)
            for calls in (sizes, sides, swept):
                calls.clear()
            fit(g, k, qs, FitConfig(seed=1, n_restarts=2), priors=priors)
            assert sizes[0] == sum(size(k, q) for q in qs) and len(sides[0]) == len(qs)
            for pr, got in zip(priors, sides[0]):
                assert len(got) == 6
                assert all(x.tobytes() == w.tobytes() for x, w in zip(got, want(pr)))
            # then a round's one call holds the posterior arguments of each live job
            assert swept and sizes[1:] == swept


def _calls_per(monkeypatch, name, counted):
    """Wrap inference.name; the returned list gets, per call, how many
    entries `counted` gained during it."""
    per = []
    real = getattr(inference, name)

    def wrapper(*args, **kwargs):
        before = len(counted)
        out = real(*args, **kwargs)
        per.append(len(counted) - before)
        return out

    monkeypatch.setattr(inference, name, wrapper)
    return per


def test_fit_makes_one_special_function_call_per_update_and_per_bound(monkeypatch):
    # per round, however many jobs are live: one digamma call (the
    # log-moments that the sweep and every layer update share), one sweep,
    # one statistics pass and one log_gamma call (every bound's posterior
    # side); the layer update and the bound stay one call per job and round
    # and call neither function. The absorbing M-steps make one more pass,
    # and the cells' prior sides of the bound one more log_gamma call.
    g = random_graph(np.random.default_rng(89), 12, 4, p=0.4)
    psi = count_calls(monkeypatch, inference, "digamma")
    lgam = count_calls(monkeypatch, inference, "log_gamma")
    passes = count_calls(monkeypatch, inference, "_stats_pass")
    sweeps = _sweep_batches(monkeypatch)
    per_tau = _calls_per(monkeypatch, "vbe_update_tau", psi)
    per_nu = _calls_per(monkeypatch, "vbe_update_nu", psi)
    per_bound = _calls_per(monkeypatch, "compute_elbo", lgam)
    inits = _distinct_inits(monkeypatch)
    for strategy in ("random", "per_view_spectral"):
        for restarts, q in ((1, 2), (3, 2), (2, [1, 2, 3])):
            for counts in (psi, lgam, passes, sweeps, per_tau, per_nu, per_bound, inits):
                counts.clear()
            got = fit(g, 3, q, FitConfig(seed=4, n_restarts=restarts, init_strategy=strategy))
            iterations = [rep.iterations for rep in (got if isinstance(got, list) else [got])]
            rounds = len(sweeps)
            assert min(iterations) > 1 and max(iterations) <= rounds
            # a restart whose init repeats an earlier one's never sweeps
            assert sweeps[0] == len(set(inits)) > 0
            assert len(psi) == rounds and len(lgam) == len(passes) == rounds + 1
            assert per_tau == [0] * rounds
            assert per_nu == per_bound == [0] * sum(sweeps)


def test_tau_sweep_makes_one_digamma_call_for_states_of_any_q(monkeypatch):
    # states of one k and different q share a sweep, as a grid's cells do:
    # one digamma call, and each state's solo result
    rng = np.random.default_rng(92)
    g = random_graph(rng, 12, 5, p=0.4)
    a = g.layer_stack()
    states = [random_post_m_state(rng, g, 3, q, PriorHyperparams.jeffreys(3, q), cycles=2) for q in (1, 2, 3, 5, 2)]
    solo = [vbe_update_tau(a, [st])[0] for st in states]
    psi = count_calls(monkeypatch, inference, "digamma")
    got = vbe_update_tau(a, states)
    assert len(psi) == 1
    assert [x.tobytes() for x in got] == [x.tobytes() for x in solo]


def test_fit_of_several_q_equals_each_fit_alone(monkeypatch):
    # the cells of one k in one lockstep batch under their own priors: each
    # report is byte for byte its one-cell fit's, and a failing cell returns
    # its error in its place
    g = random_graph(np.random.default_rng(93), 14, 4, p=0.4)
    qs = [1, 3, 2]
    priors = [PriorHyperparams.jeffreys(3, q) for q in qs]
    priors[1] = replace(priors[1], beta0=np.full(3, 0.8))
    for strategy in ("random", "per_view_spectral"):
        cfg = FitConfig(seed=3, n_restarts=3, init_strategy=strategy)
        got = fit(g, 3, qs, cfg, priors=priors)
        assert isinstance(got, list) and len(got) == len(qs)
        for q, pr, rep in zip(qs, priors, got):
            _assert_same_report(rep, fit(g, 3, q, cfg, priors=pr), (strategy, q))
        jeffreys = fit(g, 3, qs, cfg)  # priors None: each cell's Jeffreys priors
        _assert_same_report(jeffreys[1], fit(g, 3, 3, cfg), (strategy, 3))
    real = inference.init_variational

    def init(g, k, q, *args, **kwargs):
        if q == 3:
            raise DomainError("cell (3, 3) failed on purpose")
        return real(g, k, q, *args, **kwargs)

    monkeypatch.setattr(inference, "init_variational", init)
    cfg = FitConfig(seed=3, n_restarts=2)
    got = fit(g, 3, qs, cfg)
    assert isinstance(got[1], DomainError) and "on purpose" in str(got[1])
    _assert_same_report(got[2], fit(g, 3, 2, cfg))
    with pytest.raises(DomainError, match="on purpose"):
        fit(g, 3, 3, cfg)
    shapes = r"^prior shapes must match \(k, q\)$"
    for bad_q, bad_priors, message in (
        ([], None, None),
        ([1, 5], None, None),
        ([0, 2], None, None),
        ([1, 2], priors[:1], shapes),
        ([1, 2], priors[:2], shapes),
        ([1, 2], PriorHyperparams.jeffreys(3, 2), shapes),  # one prior for a sequence of q
        (2, [PriorHyperparams.jeffreys(3, 2)], shapes),  # a sequence for one q
    ):
        with pytest.raises(DomainError, match=message):
            fit(g, 3, bad_q, cfg, priors=bad_priors)


def test_fit_takes_only_integer_k_and_q():
    # a float k or q is refused where it enters, not truncated or passed to numpy
    g = random_graph(np.random.default_rng(94), 8, 3, p=0.4)
    cfg = FitConfig(seed=1, n_restarts=1)
    for k, q, name in ((2.5, 1, "k"), (2.0, 1, "k"), (2, 1.5, "q"), (2, [1, 2.0], "q"), ("2", 1, "k")):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            fit(g, k, q, cfg)
    _assert_same_report(fit(g, np.int64(2), np.int32(1), cfg), fit(g, 2, 1, cfg))
    _assert_same_report(fit(g, 2, np.array([1, 2]), cfg)[1], fit(g, 2, 2, cfg))


def test_a_bound_that_is_not_finite_fails_its_cell():
    # eta0 = 1e308 is a valid prior, but log_gamma overflows to inf on its
    # prior side and on its posterior side, and the cell term is inf - inf.
    # That cell fails with FloatingPointError instead of running 200
    # iterations on a NaN bound; its batch is refit cell by cell, and each
    # other cell gets its solo report and warns once at max_iter
    g = random_graph(np.random.default_rng(95), 12, 3, p=0.4)
    huge = replace(PriorHyperparams.jeffreys(2, 2), eta0=np.full((2, 2, 2), 1e308))
    priors = [PriorHyperparams.jeffreys(2, 1), huge, PriorHyperparams.jeffreys(2, 3)]
    cfg = FitConfig(n_restarts=2, seed=1)
    overflow = "overflow encountered in multiply"

    def expected():  # log_gamma's overflow, then the cell term's inf - inf
        return pytest.warns(RuntimeWarning, match=f"{overflow}|invalid value encountered in subtract")

    with expected():
        got = fit(g, 2, [1, 2, 3], cfg, priors=priors)
    assert [type(x) for x in got] == [inference.FitReport, FloatingPointError, inference.FitReport]
    assert str(got[1]) == "the bound is not finite: nan"
    for q in (1, 3):
        _assert_same_report(got[q - 1], fit(g, 2, q, cfg, priors=priors[q - 1]), q)
    with expected(), pytest.raises(FloatingPointError, match="not finite"):
        fit(g, 2, 2, cfg, priors=huge)
    z, w = got[0].z_map, inference.map_assign(np.eye(2)[np.arange(g.v) % 2])
    with expected(), pytest.raises(FloatingPointError, match="not finite"):
        icl_exact(g, z, w, huge)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = fit(g, 2, [1, 2, 3], replace(cfg, max_iter=2), priors=priors)
    assert isinstance(got[1], FloatingPointError) and not got[0].converged and not got[2].converged
    assert any(issubclass(w.category, RuntimeWarning) and overflow in str(w.message) for w in caught)
    assert [str(w.message) for w in caught if issubclass(w.category, ConvergenceWarning)] == [
        f"fit(k=2, q={q}) stopped at max_iter=2 without meeting eps={cfg.eps}" for q in (1, 3)
    ]


# layer kinds of the generated graphs: "copy" repeats the layer before it (a
# first layer has none, and is drawn like "random")
_LAYER_KINDS = ("random", "empty", "complete", "copy")


@st.composite
def _small_problems(draw):
    """(layer kinds, N, graph seed, the isolated node or None, K, qs, config)
    of _layered_graph and a fit: N <= 12, V <= 4, K <= 3, a nonempty set of
    q in any order, 1-2 restarts and either init."""
    n = draw(st.integers(2, 12))
    kinds = draw(st.lists(st.sampled_from(_LAYER_KINDS), min_size=1, max_size=4))
    isolated = draw(st.none() | st.integers(0, n - 1))
    k = draw(st.integers(1, min(3, n)))
    qs = draw(st.lists(st.integers(1, len(kinds)), min_size=1, unique=True))
    init = draw(st.sampled_from(["random", "per_view_spectral"]))
    cfg = FitConfig(seed=draw(st.integers(0, 99)), n_restarts=draw(st.integers(1, 2)), init_strategy=init)
    return kinds, n, draw(st.integers(0, 2**32 - 1)), isolated, k, qs, cfg


def _layered_graph(kinds, n, seed, isolated):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    adj = np.zeros((n, n, len(kinds)), dtype=np.uint8)
    for lay, kind in enumerate(kinds):
        if kind == "copy" and lay:
            adj[:, :, lay] = adj[:, :, lay - 1]
            continue
        hit = np.full(iu.size, kind == "complete") if kind in ("empty", "complete") else rng.random(iu.size) < 0.4
        adj[iu[hit], ju[hit], lay] = adj[ju[hit], iu[hit], lay] = 1
    if isolated is not None:
        adj[isolated], adj[:, isolated] = 0, 0
    return MultilayerGraph(adj)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_problems())
@example((["empty", "complete", "copy"], 7, 1, 3, 2, [2, 1, 3], FitConfig(seed=1, n_restarts=2, init_strategy="per_view_spectral")))
@example((["random", "copy", "empty", "complete"], 12, 2, 0, 3, [1, 4], FitConfig(seed=2, n_restarts=2)))
def test_exactness_contracts_on_generated_graphs(problem):
    # (i) fit(g, k, qs) is, cell for cell, fit(g, k, q) alone, byte for
    # byte, a failure included; (iii) the grid equals its per-cell dense
    # oracle. The explicit examples hold an empty, a complete and a repeated
    # layer, and a node isolated in every layer
    kinds, n, seed, isolated, k, qs, cfg = problem
    g = _layered_graph(kinds, n, seed, isolated)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        for q, got in zip(qs, fit(g, k, qs, cfg)):
            try:
                want = fit(g, k, q, cfg)
            except inference._CELL_ERRORS as exc:
                want = exc
            if isinstance(want, Exception):
                assert repr(got) == repr(want), q
            else:
                _assert_same_report(got, want, q)
        ks = range(1, k + 1)
        assert repr(grid_search(g, ks, qs, cfg, jobs=1)) == repr(grid_search_oracle(g, ks, qs, cfg))
