"""File formats: canonical graphs, partitions, and report serialization."""

import json

import numpy as np
import pytest

from mimisbm import (
    FitConfig,
    HardPartition,
    SimulationConfig,
    build_graph,
    fit,
    generate_dataset,
    grid_search,
    rng_stream,
)
from mimisbm.io import (
    ParseError,
    read_mlg,
    read_partition,
    read_report,
    write_mlg,
    write_partition,
    write_report,
)
from helpers import random_graph


def test_mlg_minimal_round_trip(tmp_path):
    p = tmp_path / "g.mlg"
    p.write_text("2 1\n0 1 0\n")
    g = read_mlg(str(p))
    assert g.n == 2 and g.v == 1
    assert g.adj[:, :, 0][0, 1] == 1


def test_mlg_empty_body(tmp_path):
    p = tmp_path / "empty.mlg"
    p.write_text("3 2\n")
    g = read_mlg(str(p))
    assert g.adj.sum() == 0


def test_mlg_comments_ignored(tmp_path):
    p = tmp_path / "c.mlg"
    p.write_text("# a comment\n2 1\n# another\n0 1 0\n")
    g = read_mlg(str(p))
    assert g.adj[:, :, 0][0, 1] == 1


def test_mlg_write_read_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    g = random_graph(rng, 9, 3, p=0.4)
    p1 = tmp_path / "a.mlg"
    p2 = tmp_path / "b.mlg"
    write_mlg(str(p1), g)
    g2 = read_mlg(str(p1))
    write_mlg(str(p2), g2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(g.adj, g2.adj)


def test_mlg_reversed_edge_needs_symmetrize(tmp_path):
    p = tmp_path / "r.mlg"
    p.write_text("3 1\n2 1 0\n")
    with pytest.raises(ParseError):
        read_mlg(str(p))
    g = read_mlg(str(p), symmetrize=True)
    assert g.adj[:, :, 0][1, 2] == 1


@pytest.mark.parametrize(
    "body, lineno",
    [
        ("2\n", 1),  # short header
        ("2 1\n0 1\n", 2),  # short edge line
        ("2 1\n0 1 0 9\n", 2),  # long edge line
        ("2 1\nx y z\n", 2),  # non-integers
        ("2 1\n0 0 0\n", 2),  # self loop
        ("2 1\n0 5 0\n", 2),  # node out of range
        ("2 1\n0 1 3\n", 2),  # layer out of range
    ],
)
def test_mlg_parse_errors_carry_line(tmp_path, body, lineno):
    p = tmp_path / "bad.mlg"
    p.write_text(body)
    with pytest.raises(ParseError) as err:
        read_mlg(str(p))
    assert f":{lineno}" in str(err.value)


def test_mlg_empty_file_rejected(tmp_path):
    p = tmp_path / "none.mlg"
    p.write_text("")
    with pytest.raises(ParseError) as err:
        read_mlg(str(p))
    assert "empty file" in str(err.value)


def test_partition_round_trip(tmp_path):
    p = tmp_path / "z.part"
    part = HardPartition(labels=np.array([0, 2, 1, 1]), k=3)
    write_partition(str(p), part)
    back = read_partition(str(p))
    assert back.k == 3
    assert np.array_equal(back.labels, part.labels)
    # writing again is byte-stable
    p2 = tmp_path / "z2.part"
    write_partition(str(p2), back)
    assert p.read_bytes() == p2.read_bytes()


def test_partition_minimal(tmp_path):
    p = tmp_path / "one.part"
    p.write_text("k 1\n0\n")
    part = read_partition(str(p))
    assert part.k == 1 and part.labels.tolist() == [0]


def test_partition_label_out_of_range(tmp_path):
    p = tmp_path / "bad.part"
    p.write_text("k 2\n0\n2\n")
    with pytest.raises(ParseError):
        read_partition(str(p))


def test_partition_bad_header(tmp_path):
    p = tmp_path / "hdr.part"
    p.write_text("K 2\n0\n")
    with pytest.raises(ParseError):
        read_partition(str(p))


def test_fit_report_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    g = random_graph(rng, 8, 2, p=0.4)
    rep = fit(g, 2, 2, FitConfig(seed=0, n_restarts=1))
    path = tmp_path / "fit.json"
    write_report(str(path), rep)
    data = read_report(str(path))
    assert data["elbo_trace"] == list(rep.elbo_trace)
    assert data["best_restart"] == rep.best_restart
    assert data["converged"] == rep.converged
    assert data["z_map"] == rep.z_map.labels.tolist()
    # floats survive the decimal round trip exactly
    assert data["elbo_trace"][-1] == rep.elbo_trace[-1]


def test_selection_report_sorted_and_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    g = random_graph(rng, 7, 2, p=0.4)
    res = grid_search(g, [1, 2], [1, 2], FitConfig(seed=1, n_restarts=1))
    path = tmp_path / "select.json"
    write_report(str(path), res)
    data = read_report(str(path))
    kqs = [(c["k"], c["q"]) for c in data["cells"]]
    assert kqs == sorted(kqs)
    assert data["criterion"] == res.criterion
    assert tuple(data["best"]) == res.best
    for cell, c in zip(data["cells"], res.cells):
        assert cell["ilvb"] == c.ilvb
        assert cell["icl_approx"] == c.icl_approx


def test_write_report_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(3)
    g = random_graph(rng, 7, 2, p=0.4)
    rep = fit(g, 2, 1, FitConfig(seed=4, n_restarts=1))
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    write_report(str(p1), rep)
    write_report(str(p2), rep)
    assert p1.read_bytes() == p2.read_bytes()
    # and the payload is plain JSON
    json.loads(p1.read_text())


def test_truth_payload_serializes(tmp_path):
    cfg = SimulationConfig(n=12, v=4, k=3, q=2)
    g, truth = generate_dataset(cfg, rng_stream(5))
    from mimisbm.io import _truth_payload

    payload = _truth_payload(cfg, truth, seed=5)
    path = tmp_path / "truth.json"
    write_report(str(path), payload)
    data = read_report(str(path))
    assert data["n"] == 12 and data["v"] == 4
    assert len(data["link_maps"]) == 2
    assert data["component_k"] == list(truth.component_k)
