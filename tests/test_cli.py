"""Command-line workflows: simulate, fit, select, eval."""

import os
import subprocess
import sys

import numpy as np
import pytest

import mimisbm
from mimisbm import HardPartition
from mimisbm.io import read_report, write_partition
from mimisbm.cli import main


def _dir_bytes(d):
    return {name: (d / name).read_bytes() for name in sorted(os.listdir(d))}


def _simulate(out, seed=1, extra=()):
    argv = ["simulate", "--n", "24", "--v", "6", "--k", "3", "--q", "2",
            "--seed", str(seed), "--out", str(out), *extra]
    return main(argv)


def test_simulate_writes_expected_files(tmp_path):
    out = tmp_path / "sim"
    assert _simulate(out) == 0
    names = sorted(os.listdir(out))
    assert names == ["graph.mlg", "truth.json", "w_true.part", "z_true.part"]
    header = (out / "graph.mlg").read_text().splitlines()[0]
    assert header == "24 6"


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _simulate(a, seed=7) == 0
    assert _simulate(b, seed=7) == 0
    assert _dir_bytes(a) == _dir_bytes(b)


def test_simulate_switch_flag_changes_data(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _simulate(a, seed=3) == 0
    assert _simulate(b, seed=3, extra=("--switch", "0.5")) == 0
    assert (a / "graph.mlg").read_bytes() != (b / "graph.mlg").read_bytes()
    truth = read_report(str(b / "truth.json"))
    assert truth["p_switch"] == 0.5


def test_fit_runs_and_is_deterministic(tmp_path):
    sim = tmp_path / "sim"
    _simulate(sim, seed=2)
    f1, f2 = tmp_path / "f1", tmp_path / "f2"
    argv = ["fit", "--graph", str(sim / "graph.mlg"), "--k", "3", "--q", "2",
            "--seed", "5", "--out"]
    assert main(argv + [str(f1)]) == 0
    assert main(argv + [str(f2)]) == 0
    assert sorted(os.listdir(f1)) == ["fit.json", "w_map.part", "z_map.part"]
    assert _dir_bytes(f1) == _dir_bytes(f2)


def test_fit_k1_q1(tmp_path):
    sim = tmp_path / "sim"
    _simulate(sim, seed=2)
    out = tmp_path / "fit"
    assert main(["fit", "--graph", str(sim / "graph.mlg"), "--k", "1", "--q", "1",
                 "--seed", "0", "--out", str(out)]) == 0
    report = read_report(str(out / "fit.json"))
    assert report["converged"] is True
    assert report["iterations"] <= 2
    assert set(report["z_map"]) == {0}


def test_fit_spectral_init_flag(tmp_path):
    sim = tmp_path / "sim"
    _simulate(sim, seed=4)
    out = tmp_path / "fit"
    assert main(["fit", "--graph", str(sim / "graph.mlg"), "--k", "3", "--q", "2",
                 "--seed", "0", "--init", "spectral", "--out", str(out)]) == 0


def test_fit_missing_graph_exits_1(tmp_path, capsys):
    out = tmp_path / "fit"
    code = main(["fit", "--graph", str(tmp_path / "nope.mlg"), "--k", "2", "--q", "1",
                 "--seed", "0", "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_fit_oversized_header_exits_1(tmp_path):
    # N * N * V = 1e16 bytes is beyond the address space, so the allocation
    # fails at once and never touches memory
    graph = tmp_path / "huge.mlg"
    graph.write_text("100000000 1\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(mimisbm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "mimisbm.cli", "fit", "--graph", str(graph), "--k", "2", "--q", "1",
         "--seed", "0", "--out", str(tmp_path / "fit")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == ["huge.mlg"]


def test_simulate_twenty_block_link_map_finishes(tmp_path):
    # a surjection onto 20 of 20 blocks by rejection expects ~4.3e7 draws
    src = os.path.dirname(os.path.dirname(mimisbm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "sim"
    proc = subprocess.run(
        [sys.executable, "-m", "mimisbm.cli", "simulate", "--n", "40", "--v", "2", "--k", "20",
         "--q", "1", "--component-k", "20", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    (link_map,) = read_report(str(out / "truth.json"))["link_maps"]
    assert sorted(link_map) == list(range(20))


def test_fit_bad_dims_exit_2(tmp_path, capsys):
    sim = tmp_path / "sim"
    _simulate(sim, seed=2)
    out = tmp_path / "fit"
    code = main(["fit", "--graph", str(sim / "graph.mlg"), "--k", "999", "--q", "2",
                 "--seed", "0", "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "10", "--out", str(tmp_path)])  # missing required flags
    assert exc.value.code == 2


def test_select_single_cell_and_outputs(tmp_path, capsys):
    sim = tmp_path / "sim"
    _simulate(sim, seed=2)
    out = tmp_path / "sel"
    assert main(["select", "--graph", str(sim / "graph.mlg"), "--k-range", "2..2",
                 "--q-range", "1..1", "--seed", "0", "--restarts", "1",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "select: ilvb -> k=2 q=1" in printed
    assert sorted(os.listdir(out)) == ["select.csv", "select.json"]
    csv_lines = (out / "select.csv").read_text().splitlines()
    assert csv_lines[0] == "k,q,ilvb,icl_exact,icl_variational,icl_approx,converged"
    assert len(csv_lines) == 2


def test_select_deterministic_across_jobs(tmp_path):
    sim = tmp_path / "sim"
    _simulate(sim, seed=6)
    outs = []
    for jobs in ("1", "2", "1"):
        out = tmp_path / f"sel{len(outs)}"
        assert main(["select", "--graph", str(sim / "graph.mlg"), "--k-range", "1..3",
                     "--q-range", "1..2", "--seed", "9", "--restarts", "2",
                     "--jobs", jobs, "--out", str(out)]) == 0
        outs.append(_dir_bytes(out))
    assert outs[0] == outs[1] == outs[2]


def test_select_criterion_flag(tmp_path, capsys):
    sim = tmp_path / "sim"
    _simulate(sim, seed=2)
    out = tmp_path / "sel"
    assert main(["select", "--graph", str(sim / "graph.mlg"), "--k-range", "2..3",
                 "--q-range", "1..1", "--seed", "0", "--restarts", "1",
                 "--criterion", "icl-approx", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "icl_approx ->" in printed
    assert "ilvb ->" not in printed
    data = read_report(str(out / "select.json"))
    assert data["criterion"] == "icl_approx"


def test_eval_pinned_pair(tmp_path, capsys):
    pred = tmp_path / "pred.part"
    truth = tmp_path / "truth.part"
    write_partition(str(pred), HardPartition(labels=np.array([0, 0, 1, 1]), k=2))
    write_partition(str(truth), HardPartition(labels=np.array([0, 0, 1, 2]), k=3))
    out = tmp_path / "eval"
    assert main(["eval", "--pred", str(pred), "--truth", str(truth), "--out", str(out)]) == 0
    data = read_report(str(out / "eval.json"))
    assert data["ari"] == pytest.approx(4.0 / 7.0, abs=1e-15)
    assert "ari=" in capsys.readouterr().out


def test_eval_identical_and_permuted(tmp_path):
    p1 = tmp_path / "a.part"
    p2 = tmp_path / "b.part"
    write_partition(str(p1), HardPartition(labels=np.array([0, 1, 1, 2]), k=3))
    write_partition(str(p2), HardPartition(labels=np.array([2, 0, 0, 1]), k=3))
    out = tmp_path / "eval"
    assert main(["eval", "--pred", str(p1), "--truth", str(p2), "--out", str(out)]) == 0
    assert read_report(str(out / "eval.json"))["ari"] == 1.0


def test_eval_length_mismatch_exits_2(tmp_path, capsys):
    p1 = tmp_path / "a.part"
    p2 = tmp_path / "b.part"
    write_partition(str(p1), HardPartition(labels=np.array([0, 1]), k=2))
    write_partition(str(p2), HardPartition(labels=np.array([0, 1, 1]), k=2))
    out = tmp_path / "eval"
    code = main(["eval", "--pred", str(p1), "--truth", str(p2), "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_env_seed_fallback(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("MIMISBM_SEED", "31")
    argv = ["simulate", "--n", "12", "--v", "3", "--k", "2", "--q", "1", "--out"]
    assert main(argv + [str(a)]) == 0
    monkeypatch.delenv("MIMISBM_SEED")
    assert main(argv + [str(b), "--seed", "31"]) == 0
    assert (a / "graph.mlg").read_bytes() == (b / "graph.mlg").read_bytes()
