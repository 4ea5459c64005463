"""Selection criteria, their identities, and the (k, q) grid driver."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

import mimisbm.inference as inference
import mimisbm.selection as selection
from mimisbm import (
    CRITERIA,
    DomainError,
    FitConfig,
    HardPartition,
    MultilayerGraph,
    PriorHyperparams,
    SimulationConfig,
    build_graph,
    compute_elbo,
    generate_dataset,
    grid_search,
    icl_approx,
    icl_exact,
    icl_variational,
    map_assign,
    m_step,
    pen,
    rng_stream,
)
from mimisbm.inference import sufficient_stats
from helpers import (
    count_calls,
    count_eigh,
    fit_oracle,
    hard_completed_loglik,
    hardened_state_oracle,
    init_variational_oracle,
    log_evidence_enumeration,
    random_graph,
    random_post_m_state,
    with_isolated_node,
)


def _harden(state):
    z = map_assign(state.tau)
    w = map_assign(state.nu)
    return z, w


# ---------------------------------------------------------------- penalty


def test_pen_degenerate_sizes():
    assert pen(1, 1, 2, 1) == 0.0


def test_pen_pinned_example():
    # 1.5 * ln(180) + 0.5 * ln(10), full precision
    expected = 1.5 * math.log(180.0) + 0.5 * math.log(10.0)
    assert pen(2, 1, 10, 4) == pytest.approx(expected, abs=1e-13)
    assert pen(2, 1, 10, 4) == pytest.approx(8.940727822832338, abs=1e-12)


def test_pen_monotone_in_k_and_q():
    for n, v in [(2, 2), (10, 4), (50, 15)]:
        vals_k = [pen(k, 2, n, v) for k in range(1, 6)]
        vals_q = [pen(2, q, n, v) for q in range(1, 6)]
        assert all(b > a for a, b in zip(vals_k, vals_k[1:]))
        assert all(b > a for a, b in zip(vals_q, vals_q[1:]))


def test_pen_positive_beyond_trivial():
    assert pen(2, 1, 2, 2) > 0.0
    assert pen(1, 2, 2, 2) > 0.0
    assert pen(3, 2, 5, 3) > 0.0


def test_pen_invalid_args():
    with pytest.raises(DomainError):
        pen(0, 1, 2, 1)
    with pytest.raises(DomainError):
        pen(1, 0, 2, 1)
    with pytest.raises(DomainError):
        pen(1, 1, 1, 1)


# ---------------------------------------------------------------- identities


def test_single_edge_criteria_value():
    g = build_graph(2, 1, [(0, 1, 0)])
    z = HardPartition(labels=np.zeros(2, dtype=int), k=1)
    w = HardPartition(labels=np.zeros(1, dtype=int), k=1)
    assert icl_exact(g, z, w) == pytest.approx(-math.log(2.0), abs=1e-12)


def test_identity_chain_random_states():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        v = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, v + 1))
        g = random_graph(rng, n, v, p=0.4)
        pr = PriorHyperparams.jeffreys(k, q)
        st = random_post_m_state(rng, g, k, q, pr)
        tau, nu = st.tau, st.nu
        entropy_terms = float((tau * np.log(tau)).sum() + (nu * np.log(nu)).sum())
        elbo = compute_elbo(st, pr)
        assert icl_variational(elbo, st) - elbo == pytest.approx(entropy_terms, abs=1e-10)
        # the log-mass terms are <= 0, so dropping the entropy bonus can only lower the value
        assert icl_variational(elbo, st) <= elbo + 1e-12


def test_hardening_collapse_identities():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        v = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, v + 1))
        g = random_graph(rng, n, v, p=0.4)
        pr = PriorHyperparams.jeffreys(k, q)
        st = random_post_m_state(rng, g, k, q, pr)
        z, w = _harden(st)
        onehot = replace(st, tau=z.one_hot().astype(float), nu=w.one_hot().astype(float))
        beta, theta, eta, xi = m_step(sufficient_stats(g.layer_stack(), onehot.tau), onehot.nu, pr)
        onehot = replace(onehot, beta=beta, theta=theta, eta=eta, xi=xi)
        exact = icl_exact(g, z, w, pr)
        assert abs(exact - compute_elbo(onehot, pr)) < 1e-10
        assert abs(exact - icl_variational(compute_elbo(onehot, pr), onehot)) < 1e-10


def test_icl_exact_matches_independent_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        v = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, v + 1))
        g = random_graph(rng, n, v, p=0.5)
        pr = PriorHyperparams.jeffreys(k, q)
        z = HardPartition(labels=rng.integers(0, k, size=n), k=k)
        w = HardPartition(labels=rng.integers(0, q, size=v), k=q)
        oracle = hard_completed_loglik(g, z.labels, w.labels, pr)
        assert icl_exact(g, z, w, pr) == pytest.approx(oracle, abs=1e-9)


def test_icl_exact_enumeration_equals_evidence():
    # log-sum-exp of the exact completed likelihood over all assignments is
    # the exact log-evidence
    rng = np.random.default_rng(4)
    from itertools import product

    for trial in range(3):
        n, v, k, q = 4, 2, 2, 2
        g = random_graph(rng, n, v, p=0.5)
        pr = PriorHyperparams.jeffreys(k, q)
        terms = []
        for zs in product(range(k), repeat=n):
            for ws in product(range(q), repeat=v):
                z = HardPartition(labels=np.array(zs), k=k)
                w = HardPartition(labels=np.array(ws), k=q)
                terms.append(icl_exact(g, z, w, pr))
        assert logsumexp(terms) == pytest.approx(log_evidence_enumeration(g, pr), abs=1e-9)


def test_icl_approx_subtracts_penalty():
    assert icl_approx(-100.0, 2, 1, 10, 4) == pytest.approx(-100.0 - pen(2, 1, 10, 4), abs=1e-12)
    assert icl_approx(0.0, 1, 1, 2, 1) == 0.0


# ---------------------------------------------------------------- grid driver


def test_grid_single_cell():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 8, 2, p=0.4)
    res = grid_search(g, [2], [1], FitConfig(seed=0, n_restarts=1))
    assert res.best == (2, 1)
    assert len(res.cells) == 1
    cell = res.cells[0]
    assert cell.k == 2 and cell.q == 1
    for name in CRITERIA:
        assert getattr(cell, name) is not None
    for crit in CRITERIA:
        assert res.chosen[crit] == (2, 1)


def test_grid_recovers_planted_dimensions():
    cfg = SimulationConfig(n=60, v=8, k=3, q=2, p_in=0.99, p_out=0.01, component_k=(3, 2))
    g, _ = generate_dataset(cfg, rng_stream(21))
    fc = FitConfig(seed=0, n_restarts=2, init_strategy="per_view_spectral")
    res = grid_search(g, range(2, 5), range(1, 4), fc, criterion="ilvb")
    assert res.best == (3, 2)


def test_grid_chosen_attains_maximum():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 10, 3, p=0.3)
    res = grid_search(g, [1, 2, 3], [1, 2], FitConfig(seed=2, n_restarts=1))
    for crit in CRITERIA:
        values = {(c.k, c.q): getattr(c, crit) for c in res.cells}
        best_val = max(values.values())
        picked = res.chosen[crit]
        assert values[picked] == best_val
        # smaller (k, q) wins ties
        for cell_kq, val in sorted(values.items()):
            if val == best_val:
                assert picked == cell_kq
                break


def test_grid_argmax_invariant_to_constant_shift():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 9, 2, p=0.4)
    res = grid_search(g, [1, 2], [1, 2], FitConfig(seed=3, n_restarts=1))
    for crit in CRITERIA:
        values = {(c.k, c.q): getattr(c, crit) for c in res.cells}
        shifted = {kq: val + 123.456 for kq, val in values.items()}
        assert max(shifted, key=lambda kq: (shifted[kq], (-kq[0], -kq[1]))) == max(
            values, key=lambda kq: (values[kq], (-kq[0], -kq[1]))
        )


def test_grid_validates_ranges():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 6, 2, p=0.4)
    with pytest.raises(DomainError):
        grid_search(g, [], [1], FitConfig())
    with pytest.raises(DomainError):
        grid_search(g, [1, 7], [1], FitConfig())  # k beyond n
    with pytest.raises(DomainError):
        grid_search(g, [2], [3], FitConfig())  # q beyond v
    with pytest.raises(DomainError):
        grid_search(g, [2], [1], FitConfig(), criterion="nonsense")
    with pytest.raises(DomainError):
        grid_search(g, [2], [1], FitConfig(), jobs=0)


def test_grid_deterministic_across_jobs():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 8, 2, p=0.4)
    cfg = FitConfig(seed=11, n_restarts=2)
    res1 = grid_search(g, [1, 2], [1, 2], cfg, jobs=1)
    res2 = grid_search(g, [1, 2], [1, 2], cfg, jobs=2)
    assert res1.best == res2.best
    for c1, c2 in zip(res1.cells, res2.cells):
        assert (c1.k, c1.q) == (c2.k, c2.q)
        assert c1.ilvb == c2.ilvb
        assert c1.icl_exact == c2.icl_exact
        assert c1.icl_variational == c2.icl_variational
        assert c1.icl_approx == c2.icl_approx


@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_cells_come_in_k_q_order_from_unsorted_repeated_values(jobs):
    g = random_graph(np.random.default_rng(12), 8, 2, p=0.4)
    res = grid_search(g, [5, 2, 2, 3], [2, 1], FitConfig(seed=3, n_restarts=1), jobs=jobs)
    assert [(c.k, c.q) for c in res.cells] == [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)]


def _failing_fit(exc_type, cells):
    real = selection.fit

    def fit(g, k, q, cfg, **kwargs):
        if (k, q) in cells:
            raise exc_type(f"cell ({k}, {q}) failed on purpose")
        return real(g, k, q, cfg, **kwargs)

    return fit


def test_grid_failed_cell_never_wins(monkeypatch):
    rng = np.random.default_rng(10)
    g = random_graph(rng, 10, 3, p=0.3)
    cfg = FitConfig(seed=2, n_restarts=1)
    clean = grid_search(g, [1, 2, 3], [1, 2], cfg)
    winners = set(clean.chosen.values())
    monkeypatch.setattr(selection, "fit", _failing_fit(DomainError, winners))
    res = grid_search(g, [1, 2, 3], [1, 2], cfg)
    for cell in res.cells:
        if (cell.k, cell.q) in winners:
            assert cell.error.startswith("DomainError")
            assert all(getattr(cell, crit) is None for crit in CRITERIA)
        else:
            assert cell.error is None
    assert set(res.chosen) == set(CRITERIA)
    assert not winners & set(res.chosen.values())


def test_grid_propagates_unexpected_errors(monkeypatch):
    g = random_graph(np.random.default_rng(11), 8, 2, p=0.4)
    monkeypatch.setattr(selection, "fit", _failing_fit(RuntimeError, {(2, 1)}))
    with pytest.raises(RuntimeError, match=r"cell \(2, 1\)"):
        grid_search(g, [1, 2], [1, 2], FitConfig(seed=0, n_restarts=1), jobs=1)


def test_grid_spectral_matches_per_restart_oracle(monkeypatch):
    # a layer with an isolated node, and a k = n cell where min(k + 1, n) clips
    g = with_isolated_node(random_graph(np.random.default_rng(12), 7, 3, p=0.5), node=2, layer=0)
    cfg = FitConfig(seed=5, n_restarts=2, init_strategy="per_view_spectral")
    ks, qs = range(1, g.n + 1), [1, 2]
    got = [grid_search(g, ks, qs, cfg, jobs=jobs) for jobs in (1, 2)]
    monkeypatch.setattr(inference, "init_variational", init_variational_oracle)
    want = grid_search(g, ks, qs, cfg, jobs=1)
    assert all(c.error is None for c in want.cells)
    # repr prints every float round-trip exactly, so equal reprs are equal bits
    assert repr(got[0]) == repr(want)
    assert repr(got[1]) == repr(want)


def test_grid_eigendecomposes_each_layer_once(monkeypatch):
    g = random_graph(np.random.default_rng(13), 9, 3, p=0.4)
    calls = count_eigh(monkeypatch)
    for ks, qs in (([2], [1]), ([1, 2, 3, 4], [1, 2, 3])):
        calls.clear()
        grid_search(g, ks, qs, FitConfig(seed=0, n_restarts=2, init_strategy="per_view_spectral"))
        assert len(calls) == g.v
    calls.clear()
    grid_search(g, [1, 2, 3], [1, 2], FitConfig(seed=0, n_restarts=2, init_strategy="random"))
    assert calls == []


def test_grid_matches_dense_oracle(monkeypatch):
    # every cell's fit and hardened state on shared sufficient statistics
    # against the dense loop, at both worker counts, with a degree-0 node and
    # a k = n cell
    g = with_isolated_node(random_graph(np.random.default_rng(14), 6, 3, p=0.5), node=1, layer=2)
    cfg = FitConfig(seed=6, n_restarts=2)
    ks, qs = range(1, g.n + 1), [1, 2]
    got = [grid_search(g, ks, qs, cfg, jobs=jobs) for jobs in (1, 2)]
    monkeypatch.setattr(selection, "fit", fit_oracle)
    monkeypatch.setattr(selection, "_hardened_state", hardened_state_oracle)
    want = grid_search(g, ks, qs, cfg, jobs=1)
    assert all(c.error is None for c in want.cells)
    assert repr(got[0]) == repr(want)
    assert repr(got[1]) == repr(want)


def test_grid_bounds_each_cell_once(monkeypatch):
    # ilvb, icl_variational and icl_approx come from the fit's final bound;
    # only icl_exact evaluates one, at the hardened state
    g = random_graph(np.random.default_rng(15), 8, 3, p=0.4)
    cfg = FitConfig(seed=3, n_restarts=2)
    calls = count_calls(monkeypatch, selection, "compute_elbo")
    res = grid_search(g, [1, 2, 3], [1, 2], cfg, jobs=1)
    assert len(calls) == len(res.cells) == 6
    for cell in res.cells:
        assert cell.ilvb == inference.fit(g, cell.k, cell.q, cfg).elbo_trace[-1]


def test_grid_builds_one_layer_stack_per_fit_and_hardened_state(monkeypatch):
    g = random_graph(np.random.default_rng(17), 8, 3, p=0.4)
    builds = count_calls(monkeypatch, MultilayerGraph, "layer_stack")
    res = grid_search(g, [1, 2, 3], [1, 2], FitConfig(seed=3, n_restarts=3), jobs=1)
    assert all(c.error is None for c in res.cells)
    assert len(builds) == len(res.cells) == 6
    builds.clear()
    icl_exact(g, map_assign(np.eye(2)[np.arange(g.n) % 2]), map_assign(np.ones((g.v, 1))))
    assert len(builds) == 0


def test_hardened_state_counts_match_dense_oracle():
    # the label counts against the dense M-step at one-hot tau, bit for bit,
    # with empty blocks, an isolated node and k = n
    rng = np.random.default_rng(18)
    g = with_isolated_node(random_graph(rng, 7, 3, p=0.5), node=2, layer=0)
    for k, q in ((1, 1), (3, 2), (5, 3), (g.n, 1), (4, 2)):
        labels = rng.integers(0, k, size=g.n) if k != 4 else np.repeat([1, 2], [3, g.n - 3])
        z = HardPartition(labels=labels, k=k)
        w = HardPartition(labels=rng.integers(0, q, size=g.v), k=q)
        priors = PriorHyperparams.jeffreys(k, q)
        got = selection._hardened_state(g, z, w, priors)
        want = hardened_state_oracle(g, z, w, priors)
        for name in ("tau", "nu", "beta", "theta", "eta", "xi"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_grid_starts_no_more_workers_than_cells(monkeypatch):
    started = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    g = random_graph(np.random.default_rng(16), 8, 2, p=0.4)
    cfg = FitConfig(seed=4, n_restarts=1)
    monkeypatch.setattr(selection, "ProcessPoolExecutor", SerialPool)
    serial = grid_search(g, [1, 2], [1, 2], cfg, jobs=1)
    for ks, qs, jobs, workers in (([2], [1], 100000, []), ([1, 2], [1, 2], 100000, [4]),
                                  ([1, 2], [1, 2], 3, [3]), ([1, 2], [1], 2, [2])):
        started.clear()
        res = grid_search(g, ks, qs, cfg, jobs=jobs)
        assert started == workers
        want = tuple(c for c in serial.cells if c.k in ks and c.q in qs)
        assert repr(res.cells) == repr(want)
