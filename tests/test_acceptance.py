"""Acceptance suite: nine scenario-level checks of the full pipeline.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (run with -s to see them
live). Criteria and tolerances:

1. bound monotonicity on 100 random small instances (delta >= -1e-8)
2. bound never exceeds the exact enumerated log-evidence (slack 1e-9)
3. criterion identities on 50 random post-M-step states (1e-10)
4. recovery at N=200: median ARI >= 0.95 for both partitions over 20 seeds
5. grid selection picks the true (5, 3) in >= 60% of seeds; never more
   under-K than over-K picks
6. label-switch robustness over rates 0, 0.1, ..., 1 (10 seeds each):
   median ARI(Z) > 0.8 at every rate <= 0.2; the breakdown (< 0.2) is asserted
   only where the switch erases the planted structure, i.e. every component
   keeps at most 1/(K-1)^2 of its co-membership gap (exact rationals, from the
   planted truth and the rate alone): per-rate median ARI(Z) on [0.6, 0.9] over
   datasets whose link maps separate all K blocks, and the pooled median
   ARI(W) at rates >= 0.4 over datasets whose components share one block count
   and have distinct block partitions. Empty qualifying sets fail
7. conservation of absorbed mass after every M-step (1e-8 / 1e-6)
8. ari equals a brute-force pair-counting oracle on 200 pairs (1e-12)
9. CLI byte-determinism across repeated runs and --jobs settings
"""

import math
import os
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from mimisbm import (
    FitConfig,
    HardPartition,
    PriorHyperparams,
    SimulationConfig,
    ari,
    compute_elbo,
    dyad_layer_count,
    fit,
    generate_dataset,
    grid_search,
    icl_exact,
    icl_variational,
    map_assign,
    m_step,
    rng_stream,
)
from mimisbm.cli import main as cli_main
from mimisbm.inference import sufficient_stats
from helpers import (
    ari_bruteforce,
    log_evidence_enumeration,
    random_graph,
    random_post_m_state,
    switch_retention,
    w_planted,
    z_planted,
)


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


def test_criterion_1_elbo_monotonicity():
    rng = np.random.default_rng(101)
    worst = math.inf
    violations = 0
    for trial in range(100):
        n = int(rng.integers(4, 31))
        v = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, min(v, 2) + 1))
        g = random_graph(rng, n, v, p=float(rng.uniform(0.05, 0.6)))
        strategy = "random" if trial % 2 == 0 else "per_view_spectral"
        rep = fit(g, k, q, FitConfig(seed=trial, n_restarts=1, init_strategy=strategy))
        deltas = np.diff(np.array(rep.elbo_trace))
        if deltas.size:
            worst = min(worst, float(deltas.min()))
            violations += int(np.any(deltas < -1e-8))
    ok = violations == 0
    line = _report(1, ok, f"100 instances, worst bound step {worst:.3e} (floor -1e-8)")
    assert ok, line


def test_criterion_2_evidence_bound():
    rng = np.random.default_rng(202)
    worst = -math.inf
    violations = 0
    for trial in range(20):
        n = int(rng.integers(3, 6))
        v = int(rng.integers(1, 3))
        k = 2
        q = int(rng.integers(1, min(v, 2) + 1))
        g = random_graph(rng, n, v, p=float(rng.uniform(0.2, 0.8)))
        pr = PriorHyperparams.jeffreys(k, q)
        exact = log_evidence_enumeration(g, pr)
        rep = fit(g, k, q, FitConfig(seed=trial, n_restarts=1))
        excess = max(rep.elbo_trace) - exact
        worst = max(worst, excess)
        violations += int(excess > 1e-9)
    ok = violations == 0
    line = _report(2, ok, f"20 instances, max ELBO - log-evidence = {worst:.3e} (slack 1e-9)")
    assert ok, line


def test_criterion_3_criterion_identities():
    rng = np.random.default_rng(303)
    worst_hard = 0.0
    worst_soft = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 10))
        v = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, v + 1))
        g = random_graph(rng, n, v, p=0.4)
        pr = PriorHyperparams.jeffreys(k, q)
        st = random_post_m_state(rng, g, k, q, pr)
        # soft identity: icl_variational = ilvb + entropy terms
        entropy = float((st.tau * np.log(st.tau)).sum() + (st.nu * np.log(st.nu)).sum())
        elbo = compute_elbo(st, pr)
        worst_soft = max(worst_soft, abs(icl_variational(elbo, st) - elbo - entropy))
        # hard identity: ilvb on the MAP-hardened state equals icl_exact
        z, w = map_assign(st.tau), map_assign(st.nu)
        hard = replace(st, tau=z.one_hot().astype(float), nu=w.one_hot().astype(float))
        beta, theta, eta, xi = m_step(sufficient_stats(g, hard.tau), hard.nu, pr)
        hard = replace(hard, beta=beta, theta=theta, eta=eta, xi=xi)
        worst_hard = max(worst_hard, abs(compute_elbo(hard, pr) - icl_exact(g, z, w, pr)))
    ok = worst_hard < 1e-10 and worst_soft < 1e-10
    line = _report(3, ok, f"50 states, |ilvb-icl_exact| <= {worst_hard:.2e}, "
                          f"soft identity residual <= {worst_soft:.2e} (tol 1e-10)")
    assert ok, line


def test_criterion_4_recovery_desk_scale():
    az, aw = [], []
    for seed in range(20):
        cfg = SimulationConfig(n=200, v=15, k=5, q=3, p_in=0.99, p_out=0.01, p_switch=0.0)
        g, truth = generate_dataset(cfg, rng_stream(seed))
        rep = fit(g, 5, 3, FitConfig(seed=seed, n_restarts=5, init_strategy="per_view_spectral"))
        az.append(ari(rep.z_map, truth.z))
        aw.append(ari(rep.w_map, truth.w))
    mz, mw = float(np.median(az)), float(np.median(aw))
    ok = mz >= 0.95 and mw >= 0.95
    line = _report(4, ok, f"20 seeds, median ARI(Z)={mz:.4f}, median ARI(W)={mw:.4f} (need >= 0.95)")
    assert ok, line


def test_criterion_5_model_selection_grid():
    picks = []
    for seed in range(20):
        cfg = SimulationConfig(n=100, v=12, k=5, q=3, p_in=0.99, p_out=0.01,
                               p_switch=0.0, component_k=(5, 3, 2))
        g, _ = generate_dataset(cfg, rng_stream(2000 + seed))
        fc = FitConfig(seed=seed, n_restarts=3, init_strategy="per_view_spectral")
        res = grid_search(g, range(2, 9), range(1, 6), fc, criterion="ilvb")
        picks.append(res.best)
    exact = sum(p == (5, 3) for p in picks)
    under = sum(p[0] < 5 for p in picks)
    over = sum(p[0] > 5 for p in picks)
    ok = exact >= 12 and under <= over
    line = _report(5, ok, f"exact (5,3) picks {exact}/20 (need >= 12), "
                          f"under-K {under} <= over-K {over}")
    assert ok, line


def test_criterion_6_label_switch_robustness():
    levels = [round(0.1 * i, 1) for i in range(11)]
    # a 5-block component keeps lambda_5(r)^2 of its co-membership gap, at most
    # 1/(K-1)^2 = 1/16 on [0.6, 0.9]; a breakdown is asserted only on datasets
    # whose every component is switched down to that share (see tests/helpers.py)
    erased = Fraction(1, (5 - 1) ** 2)
    med_z, med_w = {}, {}
    z_erased = {sw: [] for sw in levels if 0.6 <= sw <= 0.9}
    w_erased = []
    for li, sw in enumerate(levels):
        rate = Fraction(li, len(levels) - 1)
        az, aw = [], []
        for seed in range(10):
            cfg = SimulationConfig(n=200, v=15, k=5, q=3, p_in=0.99, p_out=0.01, p_switch=sw)
            g, truth = generate_dataset(cfg, rng_stream(1000 + seed, int(sw * 10)))
            rep = fit(g, 5, 3, FitConfig(seed=seed, n_restarts=5,
                                         init_strategy="per_view_spectral"))
            az.append(ari(rep.z_map, truth.z))
            aw.append(ari(rep.w_map, truth.w))
            if all(switch_retention(c, rate) <= erased for c in truth.component_k):
                if sw in z_erased and z_planted(truth):
                    z_erased[sw].append(az[-1])
                if sw >= 0.4 and w_planted(truth):
                    w_erased.append(aw[-1])
        med_z[sw] = float(np.median(az))
        med_w[sw] = float(np.median(aw))
    clause_a = all(med_z[sw] > 0.8 for sw in levels if sw <= 0.2)
    clause_b = all(vals and np.median(vals) < 0.2 for vals in z_erased.values())
    clause_c = bool(w_erased) and np.median(w_erased) < 0.2
    ok = clause_a and clause_b and clause_c
    z_row = " ".join(f"{med_z[sw]:.2f}" for sw in levels)
    w_row = " ".join(f"{med_w[sw]:.2f}" for sw in levels)
    b_n = "/".join(str(len(vals)) for vals in z_erased.values())
    b_row = " ".join(f"{np.median(vals):.3f}" if vals else "-" for vals in z_erased.values())
    c_med = f"{np.median(w_erased):.3f}" if w_erased else "-"
    line = _report(6, ok,
                   f"median ARI(Z) by level [{z_row}], ARI(W) [{w_row}]; "
                   f"Z>0.8 at <=0.2: {clause_a}; "
                   f"Z<0.2 on [0.6,0.9] where erased and Z planted "
                   f"(n {b_n}, medians [{b_row}]): {clause_b}; "
                   f"W<0.2 at >=0.4 where erased and W planted "
                   f"(n {len(w_erased)}, median {c_med}): {clause_c}")
    assert ok, line


def test_criterion_7_conservation():
    rng = np.random.default_rng(707)
    worst_b = worst_t = worst_m = 0.0
    for _ in range(30):
        n = int(rng.integers(3, 20))
        v = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        q = int(rng.integers(1, v + 1))
        g = random_graph(rng, n, v, p=0.3)
        pr = PriorHyperparams.jeffreys(k, q)
        st = random_post_m_state(rng, g, k, q, pr, cycles=int(rng.integers(0, 3)))
        beta, theta, eta, xi = m_step(sufficient_stats(g, st.tau), st.nu, pr)
        worst_b = max(worst_b, abs(beta.sum() - pr.beta0.sum() - n))
        worst_t = max(worst_t, abs(theta.sum() - pr.theta0.sum() - v))
        iu, ju = np.triu_indices(k)
        mass = ((eta - pr.eta0) + (xi - pr.xi0))[iu, ju, :].sum()
        worst_m = max(worst_m, abs(mass - dyad_layer_count(g)))
    ok = worst_b < 1e-8 and worst_t < 1e-8 and worst_m < 1e-6
    line = _report(7, ok, f"30 M-steps, |dbeta-N| <= {worst_b:.1e} (1e-8), "
                          f"|dtheta-V| <= {worst_t:.1e} (1e-8), "
                          f"dyad mass residual <= {worst_m:.1e} (1e-6)")
    assert ok, line


def test_criterion_8_ari_oracle():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
        b = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
        worst = max(worst, abs(ari(a, b) - ari_bruteforce(a, b)))
    ok = worst < 1e-12
    line = _report(8, ok, f"200 partition pairs, max |ari - oracle| = {worst:.2e} (tol 1e-12)")
    assert ok, line


def test_criterion_9_cli_determinism(tmp_path):
    def run(argv):
        assert cli_main(argv) == 0

    def tree_bytes(d):
        return {name: (d / name).read_bytes() for name in sorted(os.listdir(d))}

    trees = {}
    for tag in ("one", "two"):
        base = tmp_path / tag
        sim = base / "sim"
        run(["simulate", "--n", "20", "--v", "5", "--k", "3", "--q", "2",
             "--seed", "13", "--out", str(sim)])
        fitd = base / "fit"
        run(["fit", "--graph", str(sim / "graph.mlg"), "--k", "3", "--q", "2",
             "--seed", "13", "--out", str(fitd)])
        seld = base / "sel"
        jobs = "1" if tag == "one" else "2"
        run(["select", "--graph", str(sim / "graph.mlg"), "--k-range", "1..3",
             "--q-range", "1..2", "--seed", "13", "--restarts", "2",
             "--jobs", jobs, "--out", str(seld)])
        trees[tag] = {**{f"sim/{k}": v for k, v in tree_bytes(sim).items()},
                      **{f"fit/{k}": v for k, v in tree_bytes(fitd).items()},
                      **{f"sel/{k}": v for k, v in tree_bytes(seld).items()}}
    ok = trees["one"] == trees["two"]
    diff = [name for name in trees["one"] if trees["one"][name] != trees["two"].get(name)]
    line = _report(9, ok, "simulate/fit/select byte-identical across runs and --jobs"
                          + ("" if ok else f"; differing files: {diff}"))
    assert ok, line
