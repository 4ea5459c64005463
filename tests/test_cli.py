"""Command-line workflows: simulate, fit, select, eval."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mimisbm
from mimisbm import HardPartition
from mimisbm.io import write_partition
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
    truth = json.loads((b / "truth.json").read_text(encoding="utf-8"))
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
    report = json.loads((out / "fit.json").read_text(encoding="utf-8"))
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


@pytest.mark.parametrize("header", ["100000000 1", "3037000500 1", "99999999999999999999 1"])
def test_fit_graph_too_large_to_allocate_exits_1(tmp_path, capsys, header):
    # numpy refuses the first with MemoryError and the other two, whose byte
    # count or dimension overflows, with ValueError: all three exit 1
    graph = tmp_path / "huge.mlg"
    graph.write_text(header + "\n", encoding="utf-8")
    code = main(["fit", "--graph", str(graph), "--k", "2", "--q", "1", "--seed", "0",
                 "--out", str(tmp_path / "fit")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: out of memory: ")
    assert os.listdir(tmp_path) == ["huge.mlg"]


def test_fit_oversized_header_with_malformed_body_exits_1_at_its_line(tmp_path):
    # the body is checked before the N * N * V = 1e15 bytes are allocated,
    # so the fault on line 2 is reported, not the allocation
    graph = tmp_path / "huge.mlg"
    graph.write_text("100000 100000\n0 0 0\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(mimisbm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "mimisbm.cli", "fit", "--graph", str(graph), "--k", "2", "--q", "1",
         "--seed", "0", "--out", str(tmp_path / "fit")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {graph}:2: self loop at node 0\n"
    assert os.listdir(tmp_path) == ["huge.mlg"]


@pytest.mark.parametrize(
    "command, name, body, line",
    [("fit", "g.mlg", b"3 1\r\n0 1 0\r\xff\n", 3), ("eval", "p.part", b"k 2\n# \xff\n0\n", 2)],
    ids=["fit", "eval"],
)
def test_file_that_is_not_utf8_exits_1_at_its_line(tmp_path, capsys, command, name, body, line):
    bad = tmp_path / name
    bad.write_bytes(body)
    args = {"fit": ["--graph", str(bad), "--k", "2", "--q", "1"], "eval": ["--pred", str(bad), "--truth", str(bad)]}
    assert main([command, *args[command], "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {bad}:{line}: not UTF-8 text: invalid start byte\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, name, body, error",
    [
        ("fit", "g.mlg", "3 1\n0 1 {}\n", "{}:2: layer index out of range [0, 1)\n"),
        ("fit", "g.mlg", "3 {}\n", "out of memory: a graph of 3 nodes and 9223372036854775807 layers"),
        ("eval", "p.part", "k 3\n0\n{}\n", "{}:3: label 7777"),
    ],
    ids=["body", "header", "label"],
)
def test_token_past_int_digit_limit_exits_1(tmp_path, capsys, command, name, body, error):
    # int() refuses text of more than 4300 digits; the readers never ask it
    bad = tmp_path / name
    bad.write_text(body.format("7" * 5000), encoding="utf-8")
    args = {"fit": ["--graph", str(bad), "--k", "2", "--q", "1"], "eval": ["--pred", str(bad), "--truth", str(bad)]}
    assert main([command, *args[command], "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: " + error.format(bad))
    assert not (tmp_path / "out").exists()


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
    (link_map,) = json.loads((out / "truth.json").read_text(encoding="utf-8"))["link_maps"]
    assert sorted(link_map) == list(range(20))


def test_simulate_more_blocks_than_nodes_exits_2(tmp_path):
    # rejected before any link map is drawn: a surjection onto 2000 blocks
    # would take minutes of big-int work
    src = os.path.dirname(os.path.dirname(mimisbm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "sim"
    proc = subprocess.run(
        [sys.executable, "-m", "mimisbm.cli", "simulate", "--n", "40", "--v", "2", "--k", "2000",
         "--q", "1", "--component-k", "2000", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


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


def test_select_spectral_repeats_and_its_pick_refits_to_its_bound(tmp_path):
    # select --init spectral writes the same bytes on every run and at any
    # --jobs; fit --init spectral at the chosen cell writes the bound that
    # select.json records for that cell
    sim = tmp_path / "sim"
    _simulate(sim, seed=6)
    common = ["--graph", str(sim / "graph.mlg"), "--seed", "9", "--restarts", "2", "--init", "spectral"]
    outs = []
    for jobs in ("1", "2", "1"):
        out = tmp_path / f"sel{len(outs)}"
        assert main(["select", *common, "--k-range", "1..3", "--q-range", "1..2", "--jobs", jobs,
                     "--out", str(out)]) == 0
        outs.append(_dir_bytes(out))
    assert sorted(outs[0]) == ["select.csv", "select.json"]
    assert outs[0] == outs[1] == outs[2]
    sel = json.loads(outs[0]["select.json"].decode("utf-8"))
    k, q = sel["best"]
    (cell,) = [c for c in sel["cells"] if (c["k"], c["q"]) == (k, q)]
    out = tmp_path / "fit"
    assert main(["fit", *common, "--k", str(k), "--q", str(q), "--out", str(out)]) == 0
    assert json.loads((out / "fit.json").read_text(encoding="utf-8"))["elbo"] == cell["ilvb"]


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
    data = json.loads((out / "select.json").read_text(encoding="utf-8"))
    assert data["criterion"] == "icl_approx"


def test_eval_pinned_pair(tmp_path, capsys):
    pred = tmp_path / "pred.part"
    truth = tmp_path / "truth.part"
    write_partition(str(pred), HardPartition(labels=np.array([0, 0, 1, 1]), k=2))
    write_partition(str(truth), HardPartition(labels=np.array([0, 0, 1, 2]), k=3))
    out = tmp_path / "eval"
    assert main(["eval", "--pred", str(pred), "--truth", str(truth), "--out", str(out)]) == 0
    data = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    assert data["ari"] == pytest.approx(4.0 / 7.0, abs=1e-15)
    assert "ari=" in capsys.readouterr().out


def test_eval_identical_and_permuted(tmp_path):
    p1 = tmp_path / "a.part"
    p2 = tmp_path / "b.part"
    write_partition(str(p1), HardPartition(labels=np.array([0, 1, 1, 2]), k=3))
    write_partition(str(p2), HardPartition(labels=np.array([2, 0, 0, 1]), k=3))
    out = tmp_path / "eval"
    assert main(["eval", "--pred", str(p1), "--truth", str(p2), "--out", str(out)]) == 0
    assert json.loads((out / "eval.json").read_text(encoding="utf-8"))["ari"] == 1.0


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
