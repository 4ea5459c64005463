"""File formats.

Graphs (.mlg) and partitions (.part) share one field grammar. A file is
UTF-8 text; one that is not raises ParseError at the line of its first
undecodable byte. "\n", "\r\n" and a lone "\r" each end a line. A line
is a sequence of fields separated by ASCII whitespace (space, tab, vertical
tab, form feed); every field is an integer token, an optional "+" or "-"
followed by ASCII digits, but for the "k" that opens a partition. Lines that
are blank or whose first field starts with '#' are skipped; the others are
content lines. A malformed file raises ParseError at its first faulty line,
be it a fault of the grammar, of a value or of the encoding. Indices and
labels are int64: one of more than 19 significant digits is taken as the
int64 bound of its sign, out of range, without converting its text, and
the header's N, V and K are exact up to 4300 significant digits, where
int() stops; past that they are int64's bound too.

Text is read and written in blocks of whole lines: a block is 32 KiB (_BLOCK)
cut after their last line end, and a line longer than that is one block.
Each block is lexed, checked and parsed with array operations whose
temporaries are O(block); line numbers run on across blocks. A reader keeps
the valid rows of every block (a graph's edges in the smallest unsigned
type that holds max(N, V)), so its memory is those rows, one block's
temporaries and, for a graph, the adjacency, allocated once the last line
is valid. A writer formats and writes one block of rows at a time.

Graph (.mlg): "N V", then one edge "i j v" per line, 0-based with i < j.
Writers emit edges sorted by (i, j, v), the canonical form. Readers accept
duplicates (idempotent) and, only when symmetrize=True, edges given as
i > j; otherwise a reversed edge is a ParseError.

Partition (.part): "k K", then one 0-based label in [0, K) per line.

Reports (.json): UTF-8 JSON with a fixed key order and floats serialized by
Python's shortest round-trip repr, so rewriting the same object yields the
same bytes and reloading reproduces every value bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Union

import numpy as np

from .core import HardPartition, MultilayerGraph, _first_bad_edge, _graph_from_edges
from .generator import GroundTruth, SimulationConfig
from .inference import FitReport
from .selection import SelectionResult

__all__ = [
    "ParseError",
    "read_mlg",
    "write_mlg",
    "read_partition",
    "write_partition",
    "write_report",
]


# bytes read at a time: a block of text runs to the last line end it holds,
# and a line longer than a block is read whole
_BLOCK = 1 << 15
# the most significant digits int() is asked to read (CPython caps it at 4300)
_EXACT_DIGITS = 4300
_INT64 = np.iinfo(np.int64)
# the field grammar's byte classes: 0 ASCII whitespace, 1 digit, 2 sign, 3 any other
_CLASS = bytes(
    0 if b in b" \t\n\v\f\r" else 1 if b in b"0123456789" else 2 if b in b"+-" else 3 for b in range(256)
)
# the value of each ASCII digit, 0 for any other byte
_DIGIT = bytes(b - ord("0") if b in b"0123456789" else 0 for b in range(256))


def _digit_tables():
    places = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1])
    digits = (places % 10 + ord("0")).astype(np.uint8)
    leading = np.where((places > 0) | [False, False, False, True], digits, 0).astype(np.uint8)
    return digits.view(np.uint32)[:, 0], leading.view(np.uint32)[:, 0]


# the four ASCII digits of 0..9999, one uint32 each: zero padded, and with
# NUL for the zeros that lead (but the last digit of 0)
_DIGITS, _LEADING = _digit_tables()
_SPACE, _NEWLINE = np.frombuffer(b" \0\0\0\n\0\0\0", dtype=np.uint32)


class ParseError(ValueError):
    """Malformed input file; the message carries the path and line number."""


class _Tokens:
    """One block of whole lines of a file, split by the field grammar with
    array operations. Its first line is line `line` of the file. Content line
    (row) r holds the tokens first[r] to first[r] + count[r] - 1; token t is
    data[starts[t]:ends[t]], malformed[t] if not a sign and ASCII digits."""

    def __init__(self, path: str, data: bytes, line: int):
        self.path, self.data, self.line = path, data, line
        self.buf = buf = np.frombuffer(data, dtype=np.uint8)
        self.kind = kind = np.frombuffer(data.translate(_CLASS), dtype=np.uint8)
        tok = kind != 0
        starts = np.flatnonzero(tok[1:] > tok[:-1]) + 1
        self.ends = ends = np.flatnonzero(tok[1:] < tok[:-1]) + 1
        if tok[0]:
            starts = np.concatenate(([0], starts))
        if tok[-1]:
            self.ends = np.append(ends, buf.size)
        self.starts = starts
        self.breaks = breaks = np.flatnonzero(buf == ord("\n"))
        # the index of each nonblank line's first token and its token count;
        # tokens never span lines, so both come from where the lines start
        first = np.searchsorted(starts, np.concatenate(([0], breaks + 1)))
        count = np.diff(first, append=starts.size)
        first, count = first[count > 0], count[count > 0]
        content = buf[starts[first]] != ord("#")
        self.first, self.count = first[content], count[content]
        # a sign is well placed as a token's first byte with a digit after it;
        # the tokens that hold any other sign or any byte of class 3 are
        # malformed, found from those bytes alone
        odd = np.flatnonzero(kind > 1)
        sign = kind[odd] == 2
        self.signed = bool(sign.any())
        after = kind[np.minimum(odd + 1, kind.size - 1)]
        lead = (odd == 0) | ~tok[odd - 1]
        stray = odd[~sign | (after != 1) | ~lead]
        self.malformed = np.zeros(starts.size, dtype=bool)
        self.malformed[np.searchsorted(starts, stray, side="right") - 1] = True

    def fault(self, row: int, message: str) -> ParseError:
        line = self.line + np.searchsorted(self.breaks, self.starts[self.first[row]])
        return ParseError(f"{self.path}:{line}: {message}")

    def field_fault(self, row: int, fields: int) -> ParseError:
        if self.count[row] != fields:
            return self.fault(row, f"expected {fields} fields, got {self.count[row]}")
        return self.fault(row, f"expected integers, got {self.text(row)!r}")

    def text(self, row: int) -> str:
        lo = int(self.starts[self.first[row]])
        hi = self.data.find(b"\n", lo)
        # the grammar's whitespace only, so a stray byte at the end is quoted
        return self.data[lo : hi if hi >= 0 else None].rstrip(b" \t\v\f").decode("utf-8")

    def token(self, t: int) -> bytes:
        return self.data[self.starts[t] : self.ends[t]]

    def number(self, t: int) -> str:
        """str(int(token t)) of a well-formed token, in time linear in its length."""
        token = self.token(t)
        digits = token.lstrip(b"+-").lstrip(b"0") or b"0"
        return ("-" if token[:1] == b"-" and digits != b"0" else "") + digits.decode()

    def exact(self, t: int, digits: int = _EXACT_DIGITS) -> int:
        """The value of well-formed token t; past `digits` significant digits,
        the int64 bound of its sign."""
        text = self.number(t)
        if len(text.lstrip("-")) <= digits:
            return int(text)
        return _INT64.min if text[0] == "-" else _INT64.max

    def body(self, fields: int, row: int) -> tuple:
        """The tokens, (rows, fields), of the rows from `row` on up to one
        that is not `fields` well-formed tokens, and the index of that row
        (the row count when there is none)."""
        first, count = self.first[row:], self.count[row:]
        wrong = np.flatnonzero(count != fields)
        cut = first.size if wrong.size == 0 else int(wrong[0])
        # the rows that hold a malformed token
        bad = np.flatnonzero(self.malformed)
        at = np.searchsorted(first, bad, side="right") - 1
        bad, at = bad[at >= 0], at[at >= 0]
        at = at[bad < first[at] + count[at]]
        cut = min(cut, int(at[0])) if at.size else cut
        return first[:cut, None] + np.arange(fields), row + cut

    def values(self, tokens: np.ndarray) -> np.ndarray:
        """int64 values of the well-formed tokens `tokens`, flat, summed by
        place from each token's last digit. One past 18 digits is read by
        exact and clipped to int64, outside any index range."""
        tokens = tokens.ravel()
        # a body's tokens are mostly one run, whose bounds are views
        run = tokens.size and tokens[-1] - tokens[0] == tokens.size - 1
        at = slice(tokens[0], tokens[-1] + 1) if run else tokens
        lo, hi = self.starts[at], self.ends[at]
        if self.signed:
            sign = self.kind[lo] == 2
            neg = sign & (self.buf[lo] == ord("-"))
            lo = lo + sign
        size = hi - lo
        # digit[p + 1] is the value of byte p, 0 if not a digit, so place c
        # of a token is digit[hi - c], and any place past its first digit
        # reads digit[lo], the byte before it
        digit = np.frombuffer(b"\0" + self.data.translate(_DIGIT), dtype=np.uint8)
        out = digit[hi].astype(np.int64)
        for c in range(1, min(int(size.max(initial=0)), 18)):
            out += digit[np.maximum(hi - c, lo)] * np.int64(10**c)
        if self.signed:
            np.negative(out, out=out, where=neg)
        for t in np.flatnonzero(size > 18):
            out[t] = min(max(self.exact(tokens[t], digits=19), _INT64.min), _INT64.max)
        return out


def _lexed(path: str):
    """The file's blocks of whole lines in file order, each as _Tokens, with
    "\r\n" and a lone "\r" read as "\n". The lines before a byte that is not
    UTF-8 are lexed; then ParseError is raised at its line."""
    with open(path, "rb") as handle:
        line, pending = 1, []
        while True:
            chunk = handle.read(_BLOCK)
            # a "\r" that ends the chunk may be the first half of a "\r\n"
            cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
            if chunk and not cut:
                pending.append(chunk)
                continue
            data = b"".join([*pending, chunk[:cut]])
            pending = [chunk[cut:]]
            if b"\r" in data:
                data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            fault = None
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as err:
                bad = line + data.count(b"\n", 0, err.start)
                fault = ParseError(f"{path}:{bad}: not UTF-8 text: {err.reason}")
                data = data[: data.rfind(b"\n", 0, err.start) + 1]
            if data:
                yield _Tokens(path, data, line)
                line += data.count(b"\n")
            if fault is not None:
                raise fault
            if not chunk:
                return


def read_mlg(path: str, symmetrize: bool = False) -> MultilayerGraph:
    """Read a graph file; see the module docstring for the format. The first
    fault in file order raises ParseError at its line, and the N x N x V
    adjacency is allocated only once every edge line is valid."""
    n = None
    edges = []
    for lex in _lexed(path):
        row = 0
        if n is None:
            if lex.first.size == 0:
                continue
            head = lex.first[0]
            if lex.count[0] != 2 or lex.malformed[head : head + 2].any():
                raise lex.field_fault(0, 2)
            n, v = lex.exact(head), lex.exact(head + 1)
            if n < 1 or v < 1:
                raise lex.fault(0, f"need N >= 1 and V >= 1, got {lex.number(head)} {lex.number(head + 1)}")
            # valid edges are kept in the least unsigned type that holds them
            compact, row = np.min_scalar_type(min(max(n, v), _INT64.max)), 1
        # edge rows run up to the first line with a field fault, if any; a
        # range fault on an earlier row comes first in file order
        tokens, cut = lex.body(3, row)
        e = lex.values(tokens).reshape(-1, 3)
        bad = _first_bad_edge(e, n, v, ordered=not symmetrize)
        if bad is not None:
            at, kind = bad
            i, j = e[at, :2].tolist()
            raise lex.fault(row + at, {
                "node": f"node index out of range [0, {n})",
                "layer": f"layer index out of range [0, {v})",
                "loop": f"self loop at node {i}",
                "order": f"edge ({i}, {j}) not in canonical i < j order; pass symmetrize to repair",
            }[kind])
        if cut < lex.first.size:
            raise lex.field_fault(cut, 3)
        edges.append(e.astype(compact))
    if n is None:
        raise ParseError(f"{path}: empty file, expected a header line 'N V'")
    edges = np.concatenate(edges)  # and the blocks go
    return _graph_from_edges(n, v, edges)


def read_partition(path: str) -> HardPartition:
    """Read a partition file; see the module docstring for the format and
    read_mlg for how it is checked."""
    k = None
    labels = []
    for lex in _lexed(path):
        row = 0
        if k is None:
            if lex.first.size == 0:
                continue
            head = lex.first[0]
            if lex.count[0] != 2 or lex.token(head) != b"k":
                raise lex.fault(0, f"expected header 'k K', got {lex.text(0)!r}")
            if lex.malformed[head + 1]:
                raise lex.fault(0, "expected an integer cluster count")
            k, row = lex.exact(head + 1), 1
            if k < 1:
                raise lex.fault(0, "cluster count must be >= 1")
            top = min(k, _INT64.max)  # labels are int64
        tokens, cut = lex.body(1, row)
        got = lex.values(tokens)
        bad = np.flatnonzero((got < 0) | (got >= top))
        if bad.size:
            at = int(bad[0])
            raise lex.fault(row + at, f"label {lex.number(tokens[at, 0])} outside [0, {top})")
        if cut < lex.first.size:
            raise lex.field_fault(cut, 1)
        labels.append(got)
    if k is None:
        raise ParseError(f"{path}: empty file, expected a header line 'k K'")
    labels = np.concatenate(labels)
    if labels.size == 0:
        raise ParseError(f"{path}: no labels after the header")
    return HardPartition(labels=labels, k=k)


def _format_rows(rows: np.ndarray) -> bytes:
    """The lines of `rows`, an (E, C) array of nonnegative int64: each row's
    fields in decimal, separated by spaces, then a newline. A field is set
    as groups of four digits from the tables, each a uint32 cell, with NUL
    bytes for the zeros that lead it and for the pad of its separator cell;
    one pass then drops every NUL."""
    groups = max(1, -(-len(str(int(rows.max(initial=0)))) // 4))
    cells = np.empty(rows.shape + (groups + 1,), dtype=np.uint32)
    x = rows
    for g in reversed(range(groups)):
        # group g of a field is zero padded below the field's leading group,
        # unpadded in it and empty above it (but the last group of 0)
        x, chunk = np.divmod(x, 10**4) if g else (0, x)
        cell = _LEADING[chunk]
        if g:
            np.copyto(cell, _DIGITS[chunk], where=rows >= 10 ** (4 * (groups - g)))
        if g < groups - 1:
            cell[rows < 10 ** (4 * (groups - 1 - g))] = 0
        cells[:, :, g] = cell
    cells[:, :, groups] = _SPACE
    cells[:, -1, groups] = _NEWLINE
    return cells.tobytes().translate(None, b"\0")


def _write_rows(path: str, head: bytes, blocks) -> None:
    """Write `head`, then the lines of each block of rows in turn."""
    with open(path, "wb") as handle:
        handle.write(head)
        for rows in blocks:
            handle.write(_format_rows(rows))


def write_mlg(path: str, g: MultilayerGraph) -> None:
    """Write a graph in canonical form: "N V", then g.edge_list()'s rows,
    a block of node rows i at a time."""
    step = max(1, _BLOCK // (g.n * g.v))
    _write_rows(path, f"{g.n} {g.v}\n".encode(), g._edge_blocks(step))


def write_partition(path: str, p: HardPartition) -> None:
    """Write a partition: the header "k K", then one label per line."""
    labels = p.labels[:, None]
    step = max(1, _BLOCK // 8)
    _write_rows(path, f"k {p.k}\n".encode(), (labels[i : i + step] for i in range(0, len(labels), step)))


# ---------------------------------------------------------------------------
# reports


def _fit_payload(report: FitReport) -> dict:
    state = report.state
    return {
        "kind": "fit",
        "n": state.n,
        "v": state.v,
        "k": state.k,
        "q": state.q,
        "converged": report.converged,
        "iterations": report.iterations,
        "best_restart": report.best_restart,
        "elbo": report.elbo_trace[-1],
        "elbo_trace": list(report.elbo_trace),
        "restart_elbos": list(report.restart_elbos),
        "z_map": report.z_map.labels.tolist(),
        "w_map": report.w_map.labels.tolist(),
        "beta": state.beta.tolist(),
        "theta": state.theta.tolist(),
        "eta": state.eta.tolist(),
        "xi": state.xi.tolist(),
        "tau": state.tau.tolist(),
        "nu": state.nu.tolist(),
    }


def _selection_payload(result: SelectionResult) -> dict:
    return {
        "kind": "selection",
        "criterion": result.criterion,
        "best": None if result.best is None else list(result.best),
        # GridCell's field order is the cell layout
        "cells": [dataclasses.asdict(c) for c in result.cells],
        "chosen": {crit: list(kq) for crit, kq in result.chosen.items()},
    }


def _truth_payload(cfg: SimulationConfig, truth: GroundTruth, seed: int) -> dict:
    return {
        "kind": "truth",
        "n": cfg.n,
        "v": cfg.v,
        "k": cfg.k,
        "q": cfg.q,
        "p_in": cfg.p_in,
        "p_out": cfg.p_out,
        "p_switch": cfg.p_switch,
        "seed": seed,
        "pi": truth.params.pi.tolist(),
        "rho": truth.params.rho.tolist(),
        "alpha": truth.params.alpha.tolist(),
        "component_k": list(truth.component_k),
        "link_maps": [m.tolist() for m in truth.link_maps],
    }


def write_report(path: str, report: Union[FitReport, SelectionResult, dict]) -> None:
    """Serialize a report to JSON with deterministic bytes.

    FitReport and SelectionResult get their documented payload layout; a
    plain dict is written as given (insertion order preserved).
    """
    if isinstance(report, FitReport):
        payload = _fit_payload(report)
    elif isinstance(report, SelectionResult):
        payload = _selection_payload(report)
    elif isinstance(report, dict):
        payload = report
    else:
        raise TypeError(f"cannot serialize {type(report).__name__} as a report")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, ensure_ascii=False)
        handle.write("\n")
