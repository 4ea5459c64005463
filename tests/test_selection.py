"""Selection criteria, their identities, and the (k, q) grid driver."""

import hashlib
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

import mimisbm.inference as inference
import mimisbm.selection as selection
from mimisbm import (
    CRITERIA,
    ConvergenceWarning,
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
    grid_search_oracle,
    hard_completed_loglik,
    hardened_state_oracle,
    init_variational_oracle,
    log_evidence_enumeration,
    random_graph,
    random_post_m_state,
    spectral_start_oracle,
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


def test_grid_checks_each_value_as_it_is_read():
    # the values after the first out-of-range one are never read, so a huge
    # range costs nothing before its error (sorting the set of 4 * 10^6 k
    # values first took 3.5 s and 281 MiB); k values are read before q values
    g = random_graph(np.random.default_rng(26), 20, 2, p=0.4)
    cfg = FitConfig(seed=1, n_restarts=1)
    read = []

    def counting(values):
        for value in values:
            read.append(value)
            yield value

    for ks, qs, want in (
        (counting(range(2, 4 * 10**6)), [1], list(range(2, 22))),
        ([2], counting(range(1, 4 * 10**6)), [1, 2, 3]),
        (counting(range(0, 5)), counting(range(1, 3)), [0]),
        (counting([3, 2, 21, 4]), [1], [3, 2, 21]),
    ):
        read.clear()
        with pytest.raises(DomainError, match=r"^grid values must lie in \[1, 20\] x \[1, 2\]$"):
            grid_search(g, ks, qs, cfg)
        assert read == want


def test_grid_takes_only_integer_sizes():
    # a float k or q is refused, not truncated (k 2.7 fitted K = 2 and was
    # reported as k = 2); numpy integers stay accepted
    g = random_graph(np.random.default_rng(25), 8, 3, p=0.4)
    cfg = FitConfig(seed=1, n_restarts=1)
    for ks, qs, jobs, name in (([2.7], [1], 1, "k"), ([2], [1, 2.0], 1, "q"), ([2], [1], 1.5, "jobs")):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            grid_search(g, ks, qs, cfg, jobs=jobs)
    assert repr(grid_search(g, np.array([2, 3]), [np.int32(1)], cfg, jobs=np.int64(1))) == repr(
        grid_search(g, [2, 3], [1], cfg)
    )


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


def _failing_init(exc_type, cells):
    """inference.init_variational, raising exc_type for the cells (k, q) in
    `cells`: a failure in a cell's own work."""
    real = inference.init_variational

    def init(g, k, q, *args, **kwargs):
        if (k, q) in cells:
            raise exc_type(f"cell ({k}, {q}) failed on purpose")
        return real(g, k, q, *args, **kwargs)

    return init


def _assert_only_cells_failed(res, clean, failing, error):
    """Every cell of `failing` carries an error starting with `error` and no
    criterion; every other cell is byte for byte the clean grid's."""
    for cell, want in zip(res.cells, clean.cells):
        if (cell.k, cell.q) in failing:
            assert cell.error.startswith(error), cell
            assert all(getattr(cell, crit) is None for crit in CRITERIA)
        else:
            assert repr(cell) == repr(want)


def test_grid_failed_cell_never_wins(monkeypatch):
    rng = np.random.default_rng(10)
    g = random_graph(rng, 10, 3, p=0.3)
    cfg = FitConfig(seed=2, n_restarts=1)
    clean = grid_search(g, [1, 2, 3], [1, 2], cfg)
    winners = set(clean.chosen.values())
    # a winner's k keeps a q cell that does not fail, in the same lockstep batch
    assert any((k, q) not in winners for k, _ in winners for q in (1, 2))
    monkeypatch.setattr(inference, "init_variational", _failing_init(DomainError, winners))
    res = grid_search(g, [1, 2, 3], [1, 2], cfg)
    _assert_only_cells_failed(res, clean, winners, "DomainError")
    assert set(res.chosen) == set(CRITERIA)
    assert not winners & set(res.chosen.values())


def test_grid_propagates_unexpected_errors(monkeypatch):
    g = random_graph(np.random.default_rng(11), 8, 2, p=0.4)
    monkeypatch.setattr(inference, "init_variational", _failing_init(RuntimeError, {(2, 1)}))
    with pytest.raises(RuntimeError, match=r"cell \(2, 1\)"):
        grid_search(g, [1, 2], [1, 2], FitConfig(seed=0, n_restarts=1), jobs=1)


@pytest.mark.parametrize("exc_type", [DomainError, np.linalg.LinAlgError, FloatingPointError])
def test_grid_failed_spectral_start_fails_every_cell_of_its_k(monkeypatch, exc_type):
    # the spectral starts at k = 3, which the q cells of k = 3 share, fail:
    # the batch of k = 3 ends, and each of its cells, refit alone, draws its
    # starts again and fails; every cell of k = 3 carries the error, every
    # other cell keeps its bits
    g = random_graph(np.random.default_rng(23), 10, 3, p=0.4)
    cfg = FitConfig(seed=3, n_restarts=2, init_strategy="per_view_spectral")
    ks, qs = [2, 3, 4], [1, 2, 3]
    clean = grid_search(g, ks, qs, cfg)
    real = inference._spectral_starts
    calls = []

    def starts(basis, k, rngs):
        calls.append(k)
        if k == 3:
            raise exc_type("starts at k = 3 failed on purpose")
        return real(basis, k, rngs)

    monkeypatch.setattr(inference, "_spectral_starts", starts)
    res = grid_search(g, ks, qs, cfg)
    _assert_only_cells_failed(res, clean, {(3, q) for q in qs}, f"{exc_type.__name__}: starts at k = 3")
    assert calls == [2, 3] + [3] * 3 + [4]
    with pytest.raises(exc_type):
        inference.fit(g, 3, 2, cfg)


@pytest.mark.parametrize("fault", ["linalg", "nan"])
def test_grid_cell_failing_mid_iteration_fails_alone(monkeypatch, fault):
    # after round 1, cell (3, 2)'s layer update raises LinAlgError, or its
    # M-step yields a NaN posterior that the state rejects; the batch of k = 3
    # ends, each of its cells is refit alone, and only (3, 2) fails: every
    # other cell, (3, 1) and (3, 3) of its batch too, keeps its bits
    g = random_graph(np.random.default_rng(19), 12, 3, p=0.4)
    cfg = FitConfig(seed=7, n_restarts=2)
    ks, qs = [2, 3], [1, 2, 3]
    clean = grid_search(g, ks, qs, cfg)
    assert (clean.cells[4].k, clean.cells[4].q) == (3, 2) and clean.cells[4].iterations > 1
    calls = []
    if fault == "linalg":
        real_nu = inference.vbe_update_nu

        def faulty_nu(stats, state, moments=None):
            if (state.k, state.q) == (3, 2):
                calls.append(None)
                if len(calls) > cfg.n_restarts:  # past round 1
                    raise np.linalg.LinAlgError("cell (3, 2) failed on purpose")
            return real_nu(stats, state, moments)

        monkeypatch.setattr(inference, "vbe_update_nu", faulty_nu)
        error, raised = "LinAlgError: cell (3, 2)", np.linalg.LinAlgError
    else:
        real_m_step = inference.m_step

        def faulty_m_step(stats, nu, priors):
            beta, theta, eta, xi = real_m_step(stats, nu, priors)
            if (priors.k, priors.q) == (3, 2):
                calls.append(None)
                if len(calls) > 2 * cfg.n_restarts:  # past the absorbing M-steps and round 1
                    eta = eta * np.nan
            return beta, theta, eta, xi

        monkeypatch.setattr(inference, "m_step", faulty_m_step)
        error, raised = "DomainError: eta must be finite", DomainError
    res = grid_search(g, ks, qs, cfg)
    _assert_only_cells_failed(res, clean, {(3, 2)}, error)
    # the failure came in round 2 of the batch; refit alone, the cell failed
    # at its first call, as the counter was already past round 1
    assert len(calls) == (4 if fault == "linalg" else 6)
    calls.clear()
    with pytest.raises(raised):
        inference.fit(g, 3, 2, cfg)


def _fit_cells_per_k(monkeypatch):
    """{k: its calls of inference._fit_cells}, counted from here on: 1 for a
    k whose batch runs clean, 1 + its cell count for one refit cell by cell."""
    per_k = {}
    real = inference._fit_cells

    def spy(g, k, *args):
        per_k[k] = per_k.get(k, 0) + 1
        return real(g, k, *args)

    monkeypatch.setattr(inference, "_fit_cells", spy)
    return per_k


def test_grid_pins_a_failing_batched_sweep_on_its_cell(monkeypatch):
    # a sweep batch holding a state of cell (2, 2) raises FloatingPointError
    # from round 2 on; the batch of k = 2 ends and each of its cells is refit
    # alone, so that cell fails and the others take their solo results
    g = random_graph(np.random.default_rng(20), 12, 3, p=0.4)
    cfg = FitConfig(seed=8, n_restarts=2)
    ks, qs = [2, 3], [1, 2, 3]
    clean = grid_search(g, ks, qs, cfg)
    assert clean.cells[1].iterations > 1
    batches = []
    real = inference.vbe_update_tau

    def sweep(a, states, moments=None):
        batches.append(len(states))
        if len(batches) > 1 and any((st.k, st.q) == (2, 2) for st in states):
            raise FloatingPointError("overflow encountered in exp")
        return real(a, states, moments)

    monkeypatch.setattr(inference, "vbe_update_tau", sweep)
    fit_cells = _fit_cells_per_k(monkeypatch)
    res = grid_search(g, ks, qs, cfg)
    _assert_only_cells_failed(res, clean, {(2, 2)}, "FloatingPointError: overflow")
    # k = 2: its batch, then each of its 3 cells alone; k = 3: its batch
    assert fit_cells == {2: 4, 3: 1}, fit_cells


@pytest.mark.parametrize("call", ["digamma", "log_gamma", "statistics"])
def test_grid_pins_a_failing_shared_call_on_its_cell(monkeypatch, call):
    # a round's shared digamma, log_gamma or statistics call raises
    # FloatingPointError whenever it holds a job of cell (2, 2); the batch
    # of k = 2 ends and each of its cells is refit alone, so that cell fails
    # and every other cell, the other q cells of k = 2 too, keeps its bits
    g = random_graph(np.random.default_rng(20), 12, 3, p=0.4)
    cfg = FitConfig(seed=8, n_restarts=2)
    ks, qs = [2, 3], [1, 2, 3]
    clean = grid_search(g, ks, qs, cfg)
    held = []  # the cells of the jobs of the shared call under way
    made_by = {}  # tau bytes -> the cell whose sweep made it
    real_sweep = inference.vbe_update_tau

    def sweep(a, states, moments=None):
        taus = real_sweep(a, states, moments)
        made_by.update((tau.tobytes(), (st.k, st.q)) for st, tau in zip(states, taus))
        return taus

    def holding(name, cells_of):
        real = getattr(inference, name)

        def wrapper(*args):
            held[:] = cells_of(*args)
            try:
                return real(*args)
            finally:
                held.clear()

        monkeypatch.setattr(inference, name, wrapper)

    def fails(name):
        real = getattr(inference, name)

        def wrapper(*args):
            if (2, 2) in held:
                raise FloatingPointError(f"overflow in {name}")
            return real(*args)

        monkeypatch.setattr(inference, name, wrapper)

    made = []  # every Jeffreys prior built, kept alive so that its arrays keep their ids
    real_jeffreys = PriorHyperparams.jeffreys
    monkeypatch.setattr(PriorHyperparams, "jeffreys", staticmethod(lambda k, q: made.append(real_jeffreys(k, q)) or made[-1]))

    def by_side(sides):  # a prior side, which a fit takes before its rounds, holds no cell
        priors = {id(pr.beta0) for pr in made}
        return [(beta.size, theta.size) for beta, theta, _, _ in sides if id(beta) not in priors]

    monkeypatch.setattr(inference, "vbe_update_tau", sweep)
    # the failing call first, so that the spy on the call that holds the jobs wraps it
    if call == "digamma":
        fails("digamma")
        holding("_log_moments", lambda states: [(st.k, st.q) for st in states])
    elif call == "log_gamma":
        fails("log_gamma")
        holding("_normalizer_log_gammas", by_side)
    else:
        call = "_stats_pass"
        fails(call)
        # the init taus come from no sweep, so the absorbing pass holds no cell
        holding(call, lambda a, taus: [made_by[t.tobytes()] for t in taus if t.tobytes() in made_by])
    fit_cells = _fit_cells_per_k(monkeypatch)
    res = grid_search(g, ks, qs, cfg)
    _assert_only_cells_failed(res, clean, {(2, 2)}, f"FloatingPointError: overflow in {call}")
    # k = 2: its batch, then each of its 3 cells alone; k = 3: its batch
    assert fit_cells == {2: 4, 3: 1}, fit_cells


def test_grid_spectral_matches_per_restart_oracle(monkeypatch):
    # a layer with an isolated node, and a k = n cell where min(k + 1, n) clips
    g = with_isolated_node(random_graph(np.random.default_rng(12), 7, 3, p=0.5), node=2, layer=0)
    cfg = FitConfig(seed=5, n_restarts=2, init_strategy="per_view_spectral")
    ks, qs = range(1, g.n + 1), [1, 2]
    got = [grid_search(g, ks, qs, cfg, jobs=jobs) for jobs in (1, 2)]
    monkeypatch.setattr(inference, "init_variational", init_variational_oracle)
    monkeypatch.setattr(
        inference, "_spectral_starts", lambda basis, k, rngs: [spectral_start_oracle(g, k, rng) for rng in rngs]
    )
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


def test_grid_matches_dense_oracle():
    # every cell's fit and hardened state on shared sufficient statistics
    # against the per-cell dense loop, at both worker counts, with a degree-0
    # node and a k = n cell
    g = with_isolated_node(random_graph(np.random.default_rng(14), 6, 3, p=0.5), node=1, layer=2)
    cfg = FitConfig(seed=6, n_restarts=2)
    ks, qs = range(1, g.n + 1), [1, 2]
    want = grid_search_oracle(g, ks, qs, cfg)
    assert all(c.error is None for c in want.cells)
    for jobs in (1, 2):
        assert repr(grid_search(g, ks, qs, cfg, jobs=jobs)) == repr(want)


@pytest.mark.parametrize("strategy", ["random", "per_view_spectral"])
def test_grid_equals_the_per_cell_oracle_on_acceptance_data(strategy):
    # acceptance-5 data, K 2..8 x Q 1..5 and 3 restarts: the cells of one k
    # share their sweeps, the oracle fits every cell alone
    sim = SimulationConfig(n=100, v=12, k=5, q=3, p_in=0.99, p_out=0.01, p_switch=0.0, component_k=(5, 3, 2))
    g, _ = generate_dataset(sim, rng_stream(2000))
    cfg = FitConfig(seed=0, n_restarts=3, init_strategy=strategy)
    want = grid_search_oracle(g, range(2, 9), range(1, 6), cfg)
    assert all(c.error is None for c in want.cells)
    for jobs in (1, 2):
        assert repr(grid_search(g, range(2, 9), range(1, 6), cfg, jobs=jobs)) == repr(want)


@pytest.mark.parametrize("restarts, labellings", [(1, 7), (3, 21)])
def test_grid_clusters_the_layers_once_per_k_and_restart(monkeypatch, restarts, labellings):
    # select-grid's shape, K 2..8 x Q 1..5: the per-layer spectral labels
    # run once per k, the node grouping (`labellings` k-means on the N node
    # rows) once per (k, restart), and each restart's cells of one k start
    # from bit-equal tau; inits come in (q, restart) order within a k
    sim = SimulationConfig(n=100, v=12, k=5, q=3, p_in=0.99, p_out=0.01, p_switch=0.0, component_k=(5, 3, 2))
    g, _ = generate_dataset(sim, rng_stream(2001))
    labels = count_calls(monkeypatch, inference, "_spectral_labels")
    groupings = []
    real_kmeans = inference._kmeans

    def kmeans(x, k, rng, **kwargs):
        groupings.append(len(x))
        return real_kmeans(x, k, rng, **kwargs)

    monkeypatch.setattr(inference, "_kmeans", kmeans)
    taus = {}
    real = inference.init_variational

    def init(g, k, q, *args, **kwargs):
        state = real(g, k, q, *args, **kwargs)
        taus.setdefault(k, []).append(state.tau.tobytes())
        return state

    monkeypatch.setattr(inference, "init_variational", init)
    grid_search(g, range(2, 9), range(1, 6), FitConfig(seed=1, n_restarts=restarts, init_strategy="per_view_spectral"))
    assert len(labels) == 7
    assert groupings.count(g.n) == labellings
    assert sorted(taus) == list(range(2, 9))
    for k, per_call in taus.items():
        by_q = [per_call[i : i + restarts] for i in range(0, len(per_call), restarts)]
        assert len(by_q) == 5 and all(row == by_q[0] for row in by_q), k


# sha256 of (k, q, tau, nu) of every random init, in call order, of the grid
# and the fit below, recorded before the spectral start was shared
PINNED_RANDOM_INITS = "ac55277467efa2e74815ad76aaeb2f6f0df7348bdee55a7203a8643c44debe4e"


def test_random_init_grid_and_fit_keep_their_streams(monkeypatch):
    # random inits draw (tau, nu) from the cell stream (seed, k, q, r) alone
    # and take no spectral start: every init keeps its pinned bytes, and the
    # fits from them are the oracle's
    g = random_graph(np.random.default_rng(24), 12, 4, p=0.4)
    cfg = FitConfig(seed=11, n_restarts=2)
    starts = count_calls(monkeypatch, inference, "_spectral_starts")
    digest = hashlib.sha256()
    real = inference.init_variational

    def init(g, k, q, *args, **kwargs):
        state = real(g, k, q, *args, **kwargs)
        digest.update(bytes([k, q]) + state.tau.tobytes() + state.nu.tobytes())
        return state

    monkeypatch.setattr(inference, "init_variational", init)
    grid = grid_search(g, [1, 2, 3], [1, 2], cfg)
    report = inference.fit(g, 3, 2, replace(cfg, n_restarts=3))
    assert starts == []
    assert digest.hexdigest() == PINNED_RANDOM_INITS
    assert repr(grid) == repr(grid_search_oracle(g, [1, 2, 3], [1, 2], cfg))
    want = fit_oracle(g, 3, 2, replace(cfg, n_restarts=3))
    for name in ("tau", "nu", "beta", "theta", "eta", "xi"):
        assert getattr(report.state, name).tobytes() == getattr(want.state, name).tobytes(), name
    assert report.restart_elbos == want.restart_elbos


def test_grid_sweeps_each_k_once_per_round_of_its_longest_cell(monkeypatch):
    # one restart per cell: k's sweep calls are as many as its cells' most
    # iterations, and each batch holds that k's cells still iterating
    g = random_graph(np.random.default_rng(21), 12, 4, p=0.4)
    batches = []
    real = inference.vbe_update_tau

    def sweep(a, states, moments=None):
        batches.append((states[0].k, len(states)))
        return real(a, states, moments)

    monkeypatch.setattr(inference, "vbe_update_tau", sweep)
    uneven = 0
    for strategy in ("random", "per_view_spectral"):
        batches.clear()
        res = grid_search(g, [2, 3, 4], [1, 2, 3, 4], FitConfig(seed=9, n_restarts=1, init_strategy=strategy))
        for k in (2, 3, 4):
            iters = [c.iterations for c in res.cells if c.k == k]
            sizes = [size for kk, size in batches if kk == k]
            assert len(sizes) == max(iters), (strategy, k)
            assert sizes == [sum(i > r for i in iters) for r in range(max(iters))], (strategy, k)
            uneven += len(set(iters)) > 1
    assert uneven > 0  # some batch shrinks as its cells converge


def test_grid_warns_once_per_unconverged_cell_in_k_q_order():
    g = random_graph(np.random.default_rng(22), 10, 3, p=0.4)
    cfg = FitConfig(seed=4, n_restarts=2, max_iter=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = grid_search(g, [3, 2], [2, 1], cfg)
    unconverged = [(c.k, c.q) for c in res.cells if not c.converged]
    assert len(unconverged) > 1
    assert [str(w.message) for w in caught if issubclass(w.category, ConvergenceWarning)] == [
        f"fit(k={k}, q={q}) stopped at max_iter=2 without meeting eps={cfg.eps}" for k, q in unconverged
    ]


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
    # one fit, and so one layer stack, per k task for all its q cells
    g = random_graph(np.random.default_rng(17), 8, 3, p=0.4)
    builds = count_calls(monkeypatch, MultilayerGraph, "layer_stack")
    fits = count_calls(monkeypatch, selection, "fit")
    res = grid_search(g, [1, 2, 3], [1, 2], FitConfig(seed=3, n_restarts=3), jobs=1)
    assert all(c.error is None for c in res.cells) and len(res.cells) == 6
    assert len(builds) == len(fits) == 3
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
    # nor more than the CPUs the process may run on: the affinity set, or
    # os.cpu_count() where the platform has no affinity call (None counts as
    # 1). No process is started, and the cap changes no result
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
    serial = grid_search(g, [1, 2, 3], [1, 2], cfg, jobs=1)
    affinity = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity.append(pid) or set(range(cpus)), raising=False)
    # a task is one k, so the pool gets min(jobs, k values, CPUs) workers
    for ks, qs, jobs, cpus, workers in (
        ([2], [1], 100000, 8, []), ([2], [1, 2], 4, 8, []), ([1, 2], [1, 2], 100000, 8, [2]),
        ([1, 2, 3], [1, 2], 2, 8, [2]), ([1, 2, 3], [1], 3, 8, [3]), ([1, 2], [1], 2, 8, [2]),
        ([1, 2, 3], [1, 2], 100000, 2, [2]), ([1, 2, 3], [1], 3, 1, []),
    ):
        started.clear()
        res = grid_search(g, ks, qs, cfg, jobs=jobs)
        assert started == workers
        want = tuple(c for c in serial.cells if c.k in ks and c.q in qs)
        assert repr(res.cells) == repr(want)
    assert set(affinity) == {0}
    monkeypatch.delattr(os, "sched_getaffinity")
    for count, workers in ((8, [3]), (2, [2]), (None, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        started.clear()
        res = grid_search(g, [1, 2, 3], [1], cfg, jobs=100000)
        assert started == workers
        assert repr(res.cells) == repr(tuple(c for c in serial.cells if c.q == 1))
