"""Synthetic multilayer benchmark generation."""

import time
from itertools import product

import numpy as np
import pytest

import mimisbm.generator as generator

from mimisbm import (
    DomainError,
    HardPartition,
    LinkMapError,
    SimulationConfig,
    apply_label_switch,
    ari,
    build_component_alpha,
    generate_dataset,
    rng_stream,
    sample_partition,
)


def test_sample_partition_degenerate():
    p = sample_partition(8, [1.0], rng_stream(0))
    assert p.labels.tolist() == [0] * 8
    assert p.k == 1


def test_sample_partition_frequency_concentration():
    p = sample_partition(10000, [0.5, 0.5], rng_stream(1))
    freq = float(np.mean(p.labels == 0))
    assert 0.47 <= freq <= 0.53


def test_sample_partition_equiprobable_five():
    p = sample_partition(5000, [0.2] * 5, rng_stream(2))
    counts = np.bincount(p.labels, minlength=5) / 5000.0
    assert np.all(np.abs(counts - 0.2) < 3.0 * np.sqrt(0.2 * 0.8 / 5000.0) + 0.01)


def test_sample_partition_invalid_probs():
    with pytest.raises(DomainError):
        sample_partition(4, [0.7, 0.7], rng_stream(0))
    with pytest.raises(DomainError):
        sample_partition(4, [1.2, -0.2], rng_stream(0))


def test_build_component_alpha_identity_map():
    a = build_component_alpha(3, 3, [0, 1, 2], 0.9, 0.1)
    assert np.all(np.diag(a) == 0.9)
    off = a[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.1)


def test_build_component_alpha_all_to_one():
    a = build_component_alpha(3, 1, [0, 0, 0], 0.9, 0.1)
    assert np.all(a == 0.9)


def test_build_component_alpha_merged_groups():
    # groups {0,1} -> 1, {2,4} -> 2, {3} -> 0
    m = [1, 1, 2, 0, 2]
    a = build_component_alpha(5, 3, m, 0.99, 0.01)
    assert a[0, 1] == 0.99 and a[1, 0] == 0.99
    assert a[2, 4] == 0.99 and a[4, 2] == 0.99
    assert a[3, 3] == 0.99
    assert a[0, 2] == 0.01 and a[1, 3] == 0.01 and a[3, 4] == 0.01
    assert np.array_equal(a, a.T)


def test_build_component_alpha_rejects_non_surjective():
    with pytest.raises(LinkMapError):
        build_component_alpha(3, 2, [0, 0, 0], 0.9, 0.1)
    with pytest.raises(LinkMapError):
        build_component_alpha(3, 2, [0, 1, 2], 0.9, 0.1)
    with pytest.raises(LinkMapError):
        build_component_alpha(2, 2, [0], 0.9, 0.1)


def test_build_component_alpha_rejects_bad_probs():
    with pytest.raises(DomainError):
        build_component_alpha(2, 2, [0, 1], 1.5, 0.1)
    with pytest.raises(DomainError):
        build_component_alpha(2, 2, [0, 1], 0.9, -0.1)


def test_apply_label_switch_rate_zero():
    z = HardPartition(labels=np.array([0, 1, 2, 1]), k=3)
    out = apply_label_switch(z, 0.0, rng_stream(0))
    assert np.array_equal(out.labels, z.labels)


def test_apply_label_switch_rate_one_two_clusters_flips():
    z = HardPartition(labels=np.array([0, 1, 0, 1, 1]), k=2)
    out = apply_label_switch(z, 1.0, rng_stream(1))
    assert np.array_equal(out.labels, 1 - z.labels)


def test_apply_label_switch_rate_one_never_keeps():
    z = HardPartition(labels=np.arange(5) % 4, k=4)
    for s in range(10):
        out = apply_label_switch(z, 1.0, rng_stream(s))
        assert np.all(out.labels != z.labels)


def test_apply_label_switch_frequency():
    n = 20000
    z = HardPartition(labels=np.zeros(n, dtype=int), k=3)
    out = apply_label_switch(z, 0.3, rng_stream(5))
    freq = float(np.mean(out.labels != z.labels))
    sigma = np.sqrt(0.3 * 0.7 / n)
    assert abs(freq - 0.3) < 3.0 * sigma


@pytest.mark.parametrize("c", [2, 3, 4, 5])
@pytest.mark.parametrize("rate", [0.3, 0.6, 0.9, 1.0])
def test_apply_label_switch_transition_eigenvalue(c, rate):
    # the switch channel is (1 - r) I + r (J - I) / (c - 1): eigenvalue 1 on the
    # constant vector and 1 - r c / (c - 1) on the other c - 1 directions
    per = 100_000
    z = HardPartition(labels=np.repeat(np.arange(c), per), k=c)
    out = apply_label_switch(z, rate, rng_stream(11))
    trans = np.zeros((c, c))
    np.add.at(trans, (z.labels, out.labels), 1.0)
    trans /= per
    eig = np.linalg.eigvals(trans)
    rest = np.delete(eig, np.argmin(np.abs(eig - 1.0)))
    # Bauer-Fike for the symmetric true channel: every eigenvalue moves by at
    # most ||E||_F, whose mean square is below c / per
    tol = 4.0 * np.sqrt(c / per)
    assert np.all(np.abs(rest - (1.0 - rate * c / (c - 1))) < tol)


def test_apply_label_switch_requires_two_clusters():
    z = HardPartition(labels=np.zeros(3, dtype=int), k=1)
    with pytest.raises(DomainError):
        apply_label_switch(z, 0.5, rng_stream(0))


def test_generate_dataset_shapes_and_truth():
    cfg = SimulationConfig(n=50, v=15, k=5, q=3)
    g, truth = generate_dataset(cfg, rng_stream(0))
    assert g.adj.shape == (50, 50, 15)
    assert truth.z.n == 50 and truth.z.k == 5
    assert truth.w.n == 15 and truth.w.k == 3
    assert len(truth.link_maps) == 3
    for ck, m in zip(truth.component_k, truth.link_maps):
        assert 2 <= ck <= 5
        assert np.unique(m).size == ck


def test_generate_dataset_large_config_valid():
    cfg = SimulationConfig(n=200, v=50, k=10, q=10)
    g, truth = generate_dataset(cfg, rng_stream(3))
    assert g.adj.shape == (200, 200, 50)
    for ck, m in zip(truth.component_k, truth.link_maps):
        assert np.unique(m).size == ck


def test_generate_dataset_deterministic_layers():
    # p_in=1, p_out=0: every layer equals the co-membership matrix of its
    # component's collapsed labeling
    cfg = SimulationConfig(n=30, v=6, k=4, q=2, p_in=1.0, p_out=0.0, p_switch=0.0)
    g, truth = generate_dataset(cfg, rng_stream(4))
    for view in range(cfg.v):
        comp = truth.w.labels[view]
        local = truth.link_maps[comp][truth.z.labels]
        expected = (local[:, None] == local[None, :]).astype(np.uint8)
        np.fill_diagonal(expected, 0)
        assert np.array_equal(g.adj[:, :, view], expected)
        assert ari(local, truth.link_maps[comp][truth.z.labels]) == 1.0


def test_generate_dataset_component_k_override():
    cfg = SimulationConfig(n=20, v=6, k=5, q=3, component_k=(5, 3, 2))
    g, truth = generate_dataset(cfg, rng_stream(6))
    assert truth.component_k == (5, 3, 2)
    assert np.unique(truth.link_maps[0]).size == 5


def test_generate_dataset_edge_frequency_matches_p_in():
    cfg = SimulationConfig(n=120, v=1, k=2, q=1, p_in=0.7, p_out=0.05, component_k=(2,))
    g, truth = generate_dataset(cfg, rng_stream(8))
    local = truth.link_maps[0][truth.z.labels]
    a = g.adj[:, :, 0]
    same = (local[:, None] == local[None, :]) & ~np.eye(cfg.n, dtype=bool)
    count = int(same.sum()) // 2
    freq = a[np.triu(same)].mean()
    sigma = np.sqrt(0.7 * 0.3 / count)
    assert abs(freq - 0.7) < 3.0 * sigma


def test_generate_dataset_bit_reproducible():
    cfg = SimulationConfig(n=25, v=5, k=3, q=2, p_switch=0.2)
    g1, t1 = generate_dataset(cfg, rng_stream(9))
    g2, t2 = generate_dataset(cfg, rng_stream(9))
    assert np.array_equal(g1.adj, g2.adj)
    assert np.array_equal(t1.z.labels, t2.z.labels)
    assert np.array_equal(t1.w.labels, t2.w.labels)
    assert t1.component_k == t2.component_k


def test_simulation_config_validation():
    with pytest.raises(DomainError):
        SimulationConfig(n=10, v=2, k=1, q=1)  # k>=2 needed for drawn component sizes
    SimulationConfig(n=10, v=2, k=1, q=1, component_k=(1,))  # explicit override is fine
    with pytest.raises(DomainError):
        SimulationConfig(n=10, v=2, k=3, q=2, p_switch=1.5)
    with pytest.raises(DomainError):
        SimulationConfig(n=10, v=2, k=3, q=2, component_k=(2,))  # wrong length


@pytest.mark.parametrize("k, c", [(3, 2), (4, 3), (4, 4), (5, 3)])
def test_link_map_exact_path_uniform_by_enumeration(monkeypatch, k, c):
    # with the rejection path switched off, every surjection appears, nothing
    # else does, and the counts pass a chi-square bound of df + 6 sqrt(2 df)
    # at 200 expected draws each
    monkeypatch.setattr(generator, "_MAX_EXPECTED_TRIES", 0)
    surjections = [m for m in product(range(c), repeat=k) if len(set(m)) == c]
    rng = np.random.default_rng(17)
    seen = {}
    for _ in range(200 * len(surjections)):
        m = tuple(generator._sample_link_map(k, c, rng).tolist())
        seen[m] = seen.get(m, 0) + 1
    assert sorted(seen) == surjections
    df = len(surjections) - 1
    chi2 = sum((n - 200) ** 2 / 200 for n in seen.values())
    assert chi2 < df + 6.0 * np.sqrt(2.0 * df)


def test_link_map_rejection_draws_unchanged_up_to_k_11():
    # rejection expects at most 1e4 draws for every k <= 11, so those maps
    # keep the values, and leave the stream where, plain rejection did
    for k in range(1, 12):
        for c in range(1, k + 1):
            rng, ref = np.random.default_rng(100 * k + c), np.random.default_rng(100 * k + c)
            while True:
                want = ref.integers(0, c, size=k)
                if np.unique(want).size == c:
                    break
            assert np.array_equal(generator._sample_link_map(k, c, rng), want)
            assert rng.random() == ref.random()


@pytest.mark.parametrize("k, c", [(12, 12), (20, 19), (20, 20)])
def test_link_map_exact_path_is_fast_and_surjective(k, c):
    rng, ref = np.random.default_rng(18), np.random.default_rng(18)
    start = time.perf_counter()
    m = generator._sample_link_map(k, c, rng)
    assert time.perf_counter() - start < 20.0
    assert m.shape == (k,) and sorted(set(m.tolist())) == list(range(c))
    # the exact path draws one seed and one relabeling from the stream
    ref.integers(2**63)
    ref.permutation(c)
    assert rng.random() == ref.random()
