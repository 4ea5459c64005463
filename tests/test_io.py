"""File formats: canonical graphs, partitions, and report serialization."""

import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimisbm.io
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
    write_mlg,
    write_partition,
    write_report,
)
from helpers import random_graph, read_mlg_oracle, read_partition_oracle, write_mlg_oracle


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


def _read_outcome(reader, path, symmetrize):
    """The adjacency bytes a reader returns, or the message it raises."""
    try:
        return "graph", reader(str(path), symmetrize=symmetrize).adj.tobytes()
    except ParseError as err:
        return "error", str(err)


def _assert_reads_like_oracle(path, body: bytes, symmetrize: bool):
    path.write_bytes(body)
    got = _read_outcome(read_mlg, path, symmetrize)
    assert got == _read_outcome(read_mlg_oracle, path, symmetrize), body
    return got


MLG_CASES = [
    # (body, symmetrize, line of the expected ParseError or None)
    (b"1 1\n", False, None),
    (b"1 1\n0 0 0\n", False, 2),
    (b"3 2\n", False, None),
    (b"3 2", False, None),
    (b"", False, None),
    (b"\n\n  \n", False, None),
    (b"# only a comment\n", False, None),
    (b"# head\n\n2 1\n  # indented comment\n\n0 1 0\n# tail", False, None),
    (b"# caf\xc3\xa9 \xe2\x80\x94 comment\n2 1\n0 1 0\n", False, None),
    (b"3 1\r\n0 1 0\r\n1 2 0\r\n", False, None),
    (b"3 1\r0 1 0\r1 2 0\r", False, None),
    (b"3 1\r\n0 1 0\r1 2 0\n\r\n0 2 0", False, None),
    (b"3 1\r\n0 1 0\r0 0 0\n", False, 3),
    (b"3 1\r\r\n\r0 0 0\n", False, 4),
    (b"\t3 \t1  \n  0\t1 0 \t\n\x0b\x0c\n 1  2\t\t0", False, None),
    (b"3 1\n0 1 0\n1 2 0", False, None),
    (b"3 1\n0 1 0\n0 1 0\n0 1 0\n", False, None),
    (b"3 1\n2 1 0\n", False, 2),
    (b"3 1\n2 1 0\n", True, None),
    (b"3 1\n0 1 0\n2 1 0\n1 2 0\n", True, None),
    (b"+3 +1\n+0 -0 0\n", False, 2),
    (b"+3 +1\n+0 +1 -0\n", False, None),
    (b"3 1\n0 00000000000000000000000001 0\n", False, None),
    (b"3 1\n0 99999999999999999999999 0\n", False, 2),
    (b"3 1\n0 1 -99999999999999999999999\n", False, 2),
    (b"3 1\n0 1 999999999999999999\n", False, 2),
    (b"3 1\n0 1 -9223372036854775808\n", False, 2),
    (b"3 1\n0 1 0 # trailing comment\n", False, 2),
    (b"3 1\n0 + 0\n", False, 2),
    (b"3 1\n0 1 0-\n", False, 2),
    (b"3 1\n0 1 +-0\n", False, 2),
    (b"3 1\n0 1 x \t\x0b\x0c\n", False, 2),
    (b"3 1\n0 1 1-0\n", False, 2),
    (b"3 1\n0 1 0\n-", False, 3),
    # header faults
    (b"2\n", False, 1),
    (b"2 1 1\n0 1 0\n", False, 1),
    (b"0 1\n", False, 1),
    (b"2 -1\n", False, 1),
    (b"a b\n0 0 0\n", False, 1),
    (b"# c\n\n2 x\n", False, 3),
    # several faults: the first in file order wins, whatever its kind
    (b"3 1\n0 1\n0 0 0\n", False, 2),
    (b"3 1\n0 5 0\nx y z\n", False, 2),
    (b"3 1\n0 1 0\nx y z\n0 0 0\n", False, 3),
    (b"3 1\n0 0 0\n0 1\n", False, 2),
    (b"3 1\n0 1 3\n0 0 0\n", False, 2),
    (b"3 1\n1 0 0\n0 0 0\n", False, 2),
    (b"3 1\n1 0 0\n0 0 0\n", True, 3),
    (b"3 1\n0 1 0\n1 0 5\n1 1 0\n", False, 3),
    (b"3 1\n0 1 0\n1 1 5 7\n1 1 0\n", False, 3),
    (b"3 1\n# 0 0 0\n0 1 x\n0 0 0\n", False, 3),
]


@pytest.mark.parametrize("body, symmetrize, line", MLG_CASES)
def test_mlg_reader_matches_per_line_oracle(tmp_path, body, symmetrize, line):
    kind, got = _assert_reads_like_oracle(tmp_path / "g.mlg", body, symmetrize)
    if line is None:
        assert kind == "graph" or "empty file" in got
    else:
        assert kind == "error" and f"g.mlg:{line}: " in got


def _field_line(draw, sizes: tuple, size: int) -> str:
    """One line: mostly fields below `sizes`, sometimes an odd token, another
    field count (of fields below `size`), a comment or a blank line, with
    varied whitespace."""
    odd = st.sampled_from(["+1", "-0", "01", "-1", "7", "x", "+", "1-", "1+0", "#", "2#"])
    gap = st.sampled_from([" ", " ", "  ", "\t", " \t "])
    kind = draw(st.sampled_from(["edge"] * 8 + ["fields", "comment", "blank"]))
    if kind == "comment":
        return draw(st.sampled_from(["#", "# note", "  # 0 0 0", "#1 2 3"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", " \t\x0b\x0c "]))
    sizes = sizes if kind == "edge" else (size,) * draw(st.sampled_from([0, 1, 2, 4]))
    fields = [draw(st.integers(0, size - 1).map(str) if draw(st.integers(0, 15)) else odd) for size in sizes]
    text = "".join(f + draw(gap) for f in fields[:-1]) + (fields[-1] if fields else "")
    return draw(gap) * draw(st.booleans()) + text + draw(gap) * draw(st.booleans())


@st.composite
def mlg_files(draw) -> bytes:
    n, v = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    header = f"{n} {v}" if draw(st.integers(0, 7)) else draw(st.sampled_from(["0 1", "2", "3 1 1", "x 2", "", "# c"]))
    # an edge of the (n, v) graph in either order
    lines = [header] + [_field_line(draw, (n, n, v), n) for _ in range(draw(st.integers(0, 10)))]
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines[:-1]) + lines[-1]
    return (text + draw(ends) * draw(st.booleans())).encode("ascii")


@given(mlg_files(), st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mlg_reader_matches_per_line_oracle_on_generated_files(tmp_path_factory, body, symmetrize):
    _assert_reads_like_oracle(tmp_path_factory.mktemp("mlg") / "g.mlg", body, symmetrize)


def _per_reader(values, mlg, part):
    """Parameters (reader, oracle, file name, body, error) that put each
    value into a .mlg and a .part file, where `mlg` and `part` are (body,
    error) with {} for the value. The .mlg cases keep the value as their id."""
    return [pytest.param(read_mlg, read_mlg_oracle, "g.mlg", mlg[0].format(x), mlg[1], id=x) for x in values] + [
        pytest.param(read_partition, read_partition_oracle, "g.part", part[0].format(x), part[1], id=f"part-{x}")
        for x in values
    ]


@pytest.mark.parametrize(
    "reader, oracle, name, body, error",
    _per_reader(
        ["1_0", "\u0661", "\uff11"],
        mlg=("12 1\n0 {} 0\n", r"g\.mlg:2: expected integers"),
        part=("k 12\n{}\n", r"g\.part:2: expected integers"),
    )
    + [
        # a byte that str.strip drops but the grammar does not, at a line's end
        pytest.param(read_mlg, read_mlg_oracle, "g.mlg", "12 1\n0 1 0\u00a0\n",
                     r"g\.mlg:2: expected integers, got '0 1 0\\xa0'$", id="end-\u00a0"),
        pytest.param(read_partition, read_partition_oracle, "g.part", "k 12\n1\x1c\n",
                     r"g\.part:2: expected integers, got '1\\x1c'$", id="part-end-\x1c"),
    ],
)
def test_mlg_tokens_are_a_sign_and_ascii_digits(tmp_path, reader, oracle, name, body, error):
    # int() accepts these; the field grammar does not, and the line says so
    p = tmp_path / name
    p.write_text(body, encoding="utf-8")
    oracle(str(p))
    with pytest.raises(ParseError, match=error):
        reader(str(p))


@pytest.mark.parametrize(
    "reader, oracle, name, body, error",
    _per_reader(
        ["\x1c", "\x1f", "\u00a0", "\u2003"],
        mlg=("3 1\n0 1{}0\n", r"g\.mlg:2: expected 3 fields, got 2"),
        part=("k{}3\n0\n", r"g\.part:1: expected header 'k K'"),
    ),
)
def test_mlg_fields_are_separated_by_ascii_whitespace(tmp_path, reader, oracle, name, body, error):
    # str.split() splits on these; the field grammar does not
    p = tmp_path / name
    p.write_text(body, encoding="utf-8")
    oracle(str(p))
    with pytest.raises(ParseError, match=error):
        reader(str(p))


def _read_partition_outcome(reader, path):
    """The labels and K a reader returns, or the message it raises."""
    try:
        part = reader(str(path))
        return "partition", part.labels.tobytes(), part.k
    except ParseError as err:
        return "error", str(err)


def _assert_reads_partition_like_oracle(path, body: bytes):
    path.write_bytes(body)
    got = _read_partition_outcome(read_partition, path)
    assert got == _read_partition_outcome(read_partition_oracle, path), body
    return got


PART_CASES = [
    # (body, line of the expected ParseError or None)
    (b"k 1\n0\n", None),
    (b"k 3\n2\n0", None),
    (b"# head\n\n  k\t3 \r\n 1 \r\r\n# 2 2\n\x0b2\x0c\r0", None),
    (b"k +3\n+2\n-0\n02\n", None),
    (b"k 99999999999999999999\n5\n", None),
    (b"", None),
    (b"k 2\n", None),
    (b"k 2\n# 0\n", None),
    (b"K 2\n0\n", 1),
    (b"k\n0\n", 1),
    (b"k 2 3\n0\n", 1),
    (b"k2\n0\n", 1),
    (b"kk 2\n0\n", 1),
    (b"k x\n0\n", 1),
    (b"k 0\n0\n", 1),
    (b"k -1\n0\n", 1),
    (b"k 2\n0\n2\n", 3),
    (b"k 2\n0\n-1\n", 3),
    (b"k 2\n0\n99999999999999999999\n", 3),
    (b"k 2\n-99999999999999999999\n", 2),
    (b"k 2\n0 1\n", 2),
    (b"k 2\n1-\n", 2),
    (b"k 2\nx\x0b \x0c\t\n", 2),
    (b"k 2\n0 # note\n", 2),
    (b"k 2\r0\r\n1\r\n3\n", 4),
    # several faults: the first in file order wins, whatever its kind
    (b"k 2\n2\nx\n", 2),
    (b"k 2\nx\n2\n", 2),
    (b"k 2\n0\n1 1\n5\n", 3),
]


@pytest.mark.parametrize("body, line", PART_CASES)
def test_partition_reader_matches_per_line_oracle(tmp_path, body, line):
    got = _assert_reads_partition_like_oracle(tmp_path / "z.part", body)
    if line is None:
        assert got[0] == "partition" or "empty file" in got[1] or "no labels" in got[1]
    else:
        assert got[0] == "error" and f"z.part:{line}: " in got[1]


@st.composite
def part_files(draw) -> bytes:
    k = draw(st.integers(1, 5))
    header = f"k {k}" if draw(st.integers(0, 7)) else draw(
        st.sampled_from(["k", "K 2", "k 0", "k -1", "k x", "k 1-", "k 2 3", "k +2", "k 02", "2", "", "# c"])
    )
    # a label, sometimes K itself, which is out of range
    lines = [header] + [_field_line(draw, (k + 1,), k + 1) for _ in range(draw(st.integers(0, 10)))]
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines[:-1]) + lines[-1]
    return (text + draw(ends) * draw(st.booleans())).encode("ascii")


@given(part_files())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_partition_reader_matches_per_line_oracle_on_generated_files(tmp_path_factory, body):
    _assert_reads_partition_like_oracle(tmp_path_factory.mktemp("part") / "z.part", body)


def _mlg_graphs():
    rng = np.random.default_rng(4)
    yield build_graph(1, 1, [])
    yield build_graph(5, 3, [])
    yield build_graph(2, 1, [(0, 1, 0)])
    yield random_graph(rng, 9, 3, p=1.0)
    yield random_graph(rng, 120, 12, p=0.05)
    yield build_graph(1001, 11, [(0, 1000, 10), (9, 10, 0), (99, 100, 9), (999, 1000, 1), (0, 1, 0)])
    for n, v in ((2, 1), (7, 2), (15, 11), (30, 4)):
        yield random_graph(rng, n, v, p=float(rng.random()))


@pytest.mark.parametrize("g", list(_mlg_graphs()), ids=lambda g: f"n{g.n}v{g.v}e{int(g.adj.sum()) // 2}")
def test_mlg_writer_bytes_match_per_edge_oracle(tmp_path, g):
    write_mlg(str(tmp_path / "a.mlg"), g)
    write_mlg_oracle(str(tmp_path / "b.mlg"), g)
    assert (tmp_path / "a.mlg").read_bytes() == (tmp_path / "b.mlg").read_bytes()
    assert np.array_equal(read_mlg(str(tmp_path / "a.mlg")).adj, g.adj)


@given(st.integers(1, 14), st.integers(1, 12), st.floats(0, 1), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_mlg_writer_bytes_match_per_edge_oracle_on_random_graphs(tmp_path_factory, n, v, p, seed):
    g = random_graph(np.random.default_rng(seed), n, v, p=p)
    d = tmp_path_factory.mktemp("w")
    write_mlg(str(d / "a.mlg"), g)
    write_mlg_oracle(str(d / "b.mlg"), g)
    assert (d / "a.mlg").read_bytes() == (d / "b.mlg").read_bytes()


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


def test_partition_label_past_int64_is_out_of_range(tmp_path):
    # labels are stored as int64, so a larger K cannot admit a larger label
    p = tmp_path / "big.part"
    p.write_text("k 100000000000000000000\n5\n99999999999999999999\n")
    with pytest.raises(ParseError, match=r"big\.part:3: label 99999999999999999999 outside \[0, 9223372036854775807\)"):
        read_partition(str(p))


HUGE = "7" * 5000  # past the 4300 digits int() reads from text


@pytest.mark.parametrize(
    "reader, name, body, error",
    [
        (read_mlg, "g.mlg", f"3 1\n0 1 {HUGE}\n", r"g\.mlg:2: layer index out of range \[0, 1\)$"),
        (read_mlg, "g.mlg", f"3 1\n-{HUGE} 1 0\n", r"g\.mlg:2: node index out of range \[0, 3\)$"),
        (read_partition, "g.part", f"k 3\n0\n{HUGE}\n", rf"g\.part:3: label {HUGE} outside \[0, 3\)$"),
        (read_partition, "g.part", f"k 3\n-000{HUGE}\n", rf"g\.part:2: label -{HUGE} outside \[0, 3\)$"),
    ],
)
def test_token_past_int_digit_limit_is_a_parse_error(tmp_path, reader, name, body, error):
    # a token of more than 19 significant digits is outside int64, whatever
    # its length, and a label is quoted as int() would print it
    p = tmp_path / name
    p.write_text(body)
    with pytest.raises(ParseError, match=error):
        reader(str(p))


def test_huge_header_is_too_large_to_allocate(tmp_path):
    p = tmp_path / "g.mlg"
    p.write_text(f"3 {HUGE}\n0 1 0\n")
    with pytest.raises(MemoryError, match="too large to allocate"):
        read_mlg(str(p))


def test_leading_zeros_are_not_significant_digits(tmp_path):
    p = tmp_path / "g.mlg"
    p.write_text(f"3 1\n0 {'0' * 5000}1 +{'0' * 5000}\n")
    assert read_mlg(str(p)).adj[0, 1, 0] == 1
    p = tmp_path / "g.part"
    p.write_text(f"k {'0' * 5000}3\n{'0' * 5000}2\n")
    part = read_partition(str(p))
    assert part.k == 3 and part.labels.tolist() == [2]


@pytest.fixture(params=[1, 7, 64, None], ids=["block1", "block7", "block64", "default"])
def block(request, monkeypatch):
    """The text block size of mimisbm.io, patched to the parameter."""
    if request.param is not None:
        monkeypatch.setattr(mimisbm.io, "_BLOCK", request.param)
    return mimisbm.io._BLOCK


def _block_bodies(block: int) -> list:
    """Bodies whose lines meet block boundaries in every way: line ends of
    each kind, no final newline, comments only, and lines longer than a block."""
    long = b" " * (2 * block + 3)
    return [
        b"3 1\r\n0 1 0\r\n1 2 0\r\n",
        b"3 1\r0 1 0\r1 2 0\r",
        b"3 1\r\n0 1 0\r1 2 0\n\r\n0 2 0",
        b"# a\n# b\n\n# c",
        b"# a\n# b\n3 1",
        b"#" + long + b"\n3 1\n0" + long + b"1 0\n1 2" + long + b"0",
        b"3 1\n0 1 " + b"0" * min(2 * block + 3, 4000) + b"2\n",  # int() in the oracle stops at 4300
        b"3 1\n" + b"0 1 0\n" * 40 + b"0 1\n",
        b"3 1\n" + b"0 1 0\n" * 40 + b"2 2 0\n",
    ]


def test_readers_do_not_depend_on_the_block_size(tmp_path, block):
    for body, symmetrize, _ in MLG_CASES:
        _assert_reads_like_oracle(tmp_path / "g.mlg", body, symmetrize)
    for body in _block_bodies(block):
        _assert_reads_like_oracle(tmp_path / "g.mlg", body, False)
    for body, _ in PART_CASES:
        _assert_reads_partition_like_oracle(tmp_path / "z.part", body)
    for body in _block_bodies(block):
        _assert_reads_partition_like_oracle(tmp_path / "z.part", body.replace(b"3 1", b"k 3"))


@given(mlg_files(), part_files(), st.booleans(), st.sampled_from([1, 7, 64]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_readers_do_not_depend_on_the_block_size_on_generated_files(tmp_path_factory, mlg, part, symmetrize, size):
    d = tmp_path_factory.mktemp("blocks")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mimisbm.io, "_BLOCK", size)
        _assert_reads_like_oracle(d / "g.mlg", mlg, symmetrize)
        _assert_reads_partition_like_oracle(d / "z.part", part)


@pytest.mark.parametrize(
    "body, error",
    [
        (b"3 1\n0 1 0\n\xff\n", "g.mlg:3: not UTF-8 text: invalid start byte"),
        (b"3 1\n" + b"0 1 0\n" * 30 + b"# \xc3\n", "g.mlg:32: not UTF-8 text: invalid continuation byte"),
        (b"3 1\r\n0 0 0\r\n\xff\n", "g.mlg:2: self loop at node 0"),
        (b"3 1\n0 1 0\n0 1\n" + b"0 1 0\n" * 30 + b"\xff", "g.mlg:3: expected 3 fields, got 2"),
    ],
)
def test_first_fault_in_file_order_wins_over_a_later_undecodable_byte(tmp_path, block, body, error):
    p = tmp_path / "g.mlg"
    p.write_bytes(body)
    with pytest.raises(ParseError) as err:
        read_mlg(str(p))
    assert str(err.value) == f"{tmp_path}/{error}"


def test_writers_do_not_depend_on_the_block_size(tmp_path, block):
    for g in _mlg_graphs():
        write_mlg(str(tmp_path / "a.mlg"), g)
        write_mlg_oracle(str(tmp_path / "b.mlg"), g)
        assert (tmp_path / "a.mlg").read_bytes() == (tmp_path / "b.mlg").read_bytes()
    rng = np.random.default_rng(5)
    labels = [
        np.array([0]),
        np.array([0, 9, 10, 9999, 10000, 99999999, 100000000, 2**40]),
        np.array([2**63 - 1, 0, 10**18]),
        rng.integers(0, 123457, size=500),
    ]
    for lab in labels:
        for k in (int(lab.max()) + 1, 10**25):
            write_partition(str(tmp_path / "z.part"), HardPartition(labels=lab, k=k))
            want = f"k {k}\n" + "".join(f"{x}\n" for x in lab.tolist())
            assert (tmp_path / "z.part").read_bytes() == want.encode()


def test_text_io_peaks_within_a_block_allowance(tmp_path):
    # text is lexed and formatted a block at a time: past the file bytes,
    # the adjacency and the kept edges, every temporary is O(block). At
    # N=300, V=20 the whole-file reader peaked at 9.5 MiB and the
    # whole-graph writer at 8.3 MiB
    cfg = SimulationConfig(n=300, v=20, k=5, q=3, p_in=0.3, p_out=0.01, component_k=(5, 3, 2))
    g, _ = generate_dataset(cfg, rng_stream(7919, 2, 0, 0))
    allowance = 2 * 2**20  # 64 blocks of 32 KiB
    path = str(tmp_path / "g.mlg")
    tracemalloc.start()
    try:
        write_mlg(path, g)
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_mlg(path)
        read = tracemalloc.get_traced_memory()[1] - back.adj.nbytes
    finally:
        tracemalloc.stop()
    edges = int(g.adj.sum()) // 2 * 3 * np.min_scalar_type(max(g.n, g.v)).itemsize
    assert written < allowance
    assert read < os.path.getsize(path) + edges + allowance
    assert np.array_equal(back.adj, g.adj)


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
    data = json.loads(path.read_text(encoding="utf-8"))
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
    data = json.loads(path.read_text(encoding="utf-8"))
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
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["n"] == 12 and data["v"] == 4
    assert len(data["link_maps"]) == 2
    assert data["component_k"] == list(truth.component_k)
