"""File formats.

Graphs (.mlg) and partitions (.part) share one field grammar. A file is
UTF-8 text; one that is not raises ParseError at the line of its first
undecodable byte. "\n", "\r\n" and a lone "\r" each end a line. A line
is a sequence of fields separated by ASCII whitespace (space, tab, vertical
tab, form feed); every field is an integer token, an optional "+" or "-"
followed by ASCII digits, but for the "k" that opens a partition. Lines that
are blank or whose first field starts with '#' are skipped; the others are
content lines. A malformed file raises ParseError at its first faulty line.

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
import re
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


_INTEGER = re.compile(rb"[+-]?[0-9]+")


class ParseError(ValueError):
    """Malformed input file; the message carries the path and line number."""


class _Tokens:
    """A file split by the field grammar with array operations: content line
    (row) r holds the tokens first[r] to first[r] + count[r] - 1, and token t
    starts at byte starts[t] of data, malformed[t] if not a sign and digits."""

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb") as handle:
            self.data = data = handle.read()
        if b"\r" in data:
            # line ends as text mode reads them, so lines are numbered alike
            self.data = data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            line = data.count(b"\n", 0, err.start) + 1
            raise ParseError(f"{path}:{line}: not UTF-8 text: {err.reason}") from None
        self.buf = buf = np.frombuffer(data, dtype=np.uint8)
        # byte positions and token indices in 4 bytes each below 2 GiB
        index = np.int32 if buf.size < 2**31 - 64 else np.int64
        self.breaks = breaks = np.flatnonzero(buf == ord("\n")).astype(index)
        # ASCII whitespace: space and "\t\n\v\f\r" (9..13)
        tok = (buf != ord(" ")) & ((buf < 9) | (buf > 13))
        self.starts = starts = np.flatnonzero(np.diff(tok, prepend=False) & tok).astype(index)
        # the index of each nonblank line's first token and its token count;
        # tokens never span lines, so both come from where the lines start
        first = np.searchsorted(starts, np.concatenate(([0], breaks + 1))).astype(index)
        count = np.diff(first, append=starts.size)
        first, count = first[count > 0], count[count > 0]
        content = buf[starts[first]] != ord("#")
        self.first, self.count = first[content], count[content]
        del first, count
        # a token is well formed when it is an optional sign and ASCII digits:
        # a sign may only be a token's first byte with a digit after it, and
        # every other byte that is not a digit is stray
        digit = (buf >= ord("0")) & (buf <= ord("9"))
        sign = (buf == ord("+")) | (buf == ord("-"))
        sign[1:] &= ~tok[:-1]
        sign[:-1] &= digit[1:]
        sign[-1:] = False
        digit |= sign
        del sign
        tok &= ~digit
        self.malformed = np.logical_or.reduceat(tok, starts)

    def fault(self, row: int, message: str) -> ParseError:
        line = np.searchsorted(self.breaks, self.starts[self.first[row]]) + 1
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

    def exact(self, pos: int) -> int:  # the well-formed token at byte pos
        return int(_INTEGER.match(self.data, pos).group())

    def body(self, fields: int) -> np.ndarray:
        """First tokens of the rows after the first, up to one that is not
        `fields` well-formed tokens."""
        body = self.first[1:]
        wrong = np.flatnonzero(self.count[1:] != fields)
        cut = body.size if wrong.size == 0 else int(wrong[0])
        bad = self.malformed[body[:cut]]
        for c in range(1, fields):
            bad = bad | self.malformed[body[:cut] + c]
        wrong = np.flatnonzero(bad)
        return body[: cut if wrong.size == 0 else int(wrong[0])]

    def values(self, lo: np.ndarray) -> np.ndarray:
        """int64 values of the well-formed tokens at bytes `lo`. One past 18
        digits is parsed exactly and clipped to int64, outside any index range."""
        buf = self.buf
        neg = buf[lo] == ord("-")
        pos = lo + (neg | (buf[lo] == ord("+")))
        out = np.zeros(lo.shape, dtype=np.int64)
        live = np.ones(lo.shape, dtype=bool)
        for _ in range(18):
            digit = buf[np.minimum(pos, buf.size - 1)] - np.uint8(ord("0"))
            live &= (digit < 10) & (pos < buf.size)
            if not live.any():
                break
            np.multiply(out, 10, out=out, where=live)
            np.add(out, digit, out=out, where=live)
            pos += 1
        np.negative(out, out=out, where=neg)
        info = np.iinfo(np.int64)
        for t in np.flatnonzero(live):
            out[t] = min(max(self.exact(lo[t]), info.min), info.max)
        return out


def read_mlg(path: str, symmetrize: bool = False) -> MultilayerGraph:
    """Read a graph file; see the module docstring for the format. The first
    fault in file order raises ParseError at its line, and the N x N x V
    adjacency is allocated only once every edge line is valid."""
    lex = _Tokens(path)
    if lex.first.size == 0:
        raise ParseError(f"{path}: empty file, expected a header line 'N V'")
    head = lex.first[0]
    if lex.count[0] != 2 or lex.malformed[head : head + 2].any():
        raise lex.field_fault(0, 2)
    n, v = lex.exact(lex.starts[head]), lex.exact(lex.starts[head + 1])
    if n < 1 or v < 1:
        raise lex.fault(0, f"need N >= 1 and V >= 1, got {n} {v}")

    # edge rows run up to the first line with a field fault, if any; a
    # range fault on an earlier row comes first in file order
    body = lex.body(3)
    e = np.empty((body.size, 3), dtype=np.int64)
    for c in range(3):
        e[:, c] = lex.values(lex.starts[body + c])
    bad = _first_bad_edge(e, n, v, ordered=not symmetrize)
    if bad is not None:
        row, kind = bad
        i, j = e[row, :2].tolist()
        raise lex.fault(row + 1, {
            "node": f"node index out of range [0, {n})",
            "layer": f"layer index out of range [0, {v})",
            "loop": f"self loop at node {i}",
            "order": f"edge ({i}, {j}) not in canonical i < j order; pass symmetrize to repair",
        }[kind])
    if body.size < lex.first.size - 1:
        raise lex.field_fault(body.size + 1, 3)
    return _graph_from_edges(n, v, e)


def read_partition(path: str) -> HardPartition:
    """Read a partition file; see the module docstring for the format and
    read_mlg for how it is checked."""
    lex = _Tokens(path)
    if lex.first.size == 0:
        raise ParseError(f"{path}: empty file, expected a header line 'k K'")
    head = lex.first[0]
    if lex.count[0] != 2 or lex.data[lex.starts[head] : lex.starts[head + 1]].rstrip() != b"k":
        raise lex.fault(0, f"expected header 'k K', got {lex.text(0)!r}")
    if lex.malformed[head + 1]:
        raise lex.fault(0, "expected an integer cluster count")
    k = lex.exact(lex.starts[head + 1])
    if k < 1:
        raise lex.fault(0, "cluster count must be >= 1")
    body = lex.body(1)
    labels = lex.values(lex.starts[body])
    top = min(k, np.iinfo(np.int64).max)  # labels are int64
    bad = np.flatnonzero((labels < 0) | (labels >= top))
    if bad.size:
        row = int(bad[0])
        raise lex.fault(row + 1, f"label {lex.exact(lex.starts[body[row]])} outside [0, {top})")
    if body.size < lex.first.size - 1:
        raise lex.field_fault(body.size + 1, 1)
    if body.size == 0:
        raise ParseError(f"{path}: no labels after the header")
    return HardPartition(labels=labels, k=k)


def _write_rows(path: str, head: bytes, rows: np.ndarray, bound: int) -> None:
    """Write `head`, then each row of `rows` (nonnegative, below `bound`) as
    a line of fields, formatted into one buffer."""
    width = np.ones(rows.shape, dtype=np.uint8)
    for p in range(1, len(str(bound))):
        width += rows >= 10**p
    # each line is its fields, the spaces between them and a newline; the
    # spare byte past the end takes the writes of digits a field does not have
    end = len(head) - 1 + np.cumsum(width.sum(axis=1, dtype=np.int64) + rows.shape[1])
    total = int(end[-1]) + 1 if rows.size else len(head)
    out = np.full(total + 1, ord(" "), dtype=np.uint8)
    out[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    out[end] = ord("\n")
    # fill the fields from the last one back, each from its last digit
    for c in reversed(range(rows.shape[1])):
        x = rows[:, c].copy()
        for d in range(int(width[:, c].max(initial=0))):
            out[np.where(width[:, c] > d, end - (d + 1), total)] = ord("0") + x % 10
            x //= 10
        end -= width[:, c] + 1
    with open(path, "wb") as handle:
        handle.write(out[:total])


def write_mlg(path: str, g: MultilayerGraph) -> None:
    """Write a graph in canonical form: "N V", then g.edge_list()'s rows."""
    _write_rows(path, f"{g.n} {g.v}\n".encode(), g.edge_list(), max(g.n, g.v))


def write_partition(path: str, p: HardPartition) -> None:
    """Write a partition: the header "k K", then one label per line."""
    _write_rows(path, f"k {p.k}\n".encode(), p.labels[:, None], p.k)


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
