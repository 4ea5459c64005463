"""File formats.

Graph (.mlg): UTF-8 text. "\n", "\r\n" and a lone "\r" each end a line.
A line is a sequence of fields separated by ASCII whitespace (space, tab,
vertical tab, form feed); every field is an integer token, an optional "+"
or "-" followed by ASCII digits. Lines that are blank or whose first field
starts with '#' are skipped; the others are content lines. The first content
line is "N V"; every following one is an edge "i j v" with 0-based indices
and i < j. Writers emit edges sorted lexicographically by (i, j, v), which
is the canonical form. Readers accept duplicates (idempotent) and, only
when symmetrize=True, edges given as i > j; otherwise a reversed edge is a
ParseError. A malformed file raises ParseError at its first faulty line.

Partition (.part): first content line "k K", then one 0-based label per
line; labels must lie in [0, K).

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
    "read_report",
]


_INTEGER = re.compile(rb"[+-]?[0-9]+")


class ParseError(ValueError):
    """Malformed input file; the message carries the path and line number."""


def _content_lines(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            yield line_no, text


def _ints(path: str, line_no: int, text: str, count: int) -> list[int]:
    parts = text.split()
    if len(parts) != count:
        raise ParseError(f"{path}:{line_no}: expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"{path}:{line_no}: expected integers, got {text!r}") from None


def _line_text(data: bytes, breaks: np.ndarray, k: int) -> str:
    """Line k (0-based) of `data`, whose line ends are at `breaks`, stripped."""
    lo = int(breaks[k - 1]) + 1 if k else 0
    hi = int(breaks[k]) if k < breaks.size else len(data)
    return data[lo:hi].decode("utf-8").strip()


def _token_values(data: bytes, buf: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """int64 values of the well-formed tokens that start at the positions
    `lo` of buf: each is an optional sign and the digits up to the first
    byte that is not one. Tokens still going after 18 digits are parsed
    exactly and clipped to the int64 range, which keeps an oversized one
    outside every index range an allocatable graph can have."""
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
        out[t] = min(max(int(_INTEGER.match(data, lo[t]).group()), info.min), info.max)
    return out


def read_mlg(path: str, symmetrize: bool = False) -> MultilayerGraph:
    """Read a graph file; see the module docstring for the format.

    The whole body is tokenized and checked with array operations, and the
    first fault in file order raises ParseError at its line; the N x N x V
    adjacency is allocated only once every edge line is valid.
    """
    with open(path, "r", encoding="utf-8") as handle:
        # text mode turns "\r\n" and a lone "\r" into "\n", so lines and
        # their numbers are those of iterating over the file
        data = handle.read().encode("utf-8")
    buf = np.frombuffer(data, dtype=np.uint8)
    # byte positions and token indices in 4 bytes each below 2 GiB
    index = np.int32 if buf.size < 2**31 - 64 else np.int64
    breaks = np.flatnonzero(buf == ord("\n")).astype(index)
    # ASCII whitespace: space and "\t\n\v\f\r" (9..13)
    tok = (buf != ord(" ")) & ((buf < 9) | (buf > 13))
    starts = np.flatnonzero(np.diff(tok, prepend=False) & tok).astype(index)
    # the index of each nonblank line's first token and its token count;
    # tokens never span lines, so both come from where the lines start
    first = np.searchsorted(starts, np.concatenate(([0], breaks + 1))).astype(index)
    count = np.diff(first, append=starts.size)
    first, count = first[count > 0], count[count > 0]
    content = buf[starts[first]] != ord("#")
    first, count = first[content], count[content]
    if first.size == 0:
        raise ParseError(f"{path}: empty file, expected a header line 'N V'")

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
    malformed = np.logical_or.reduceat(tok, starts)
    del tok, digit

    def line_of(row: int) -> int:
        """The 0-based line of content line `row`."""
        return int(np.searchsorted(breaks, starts[first[row]]))

    def fault(row: int, message: str) -> ParseError:
        return ParseError(f"{path}:{line_of(row) + 1}: {message}")

    def field_fault(row: int, fields: int) -> ParseError:
        if count[row] != fields:
            return fault(row, f"expected {fields} fields, got {count[row]}")
        return fault(row, f"expected integers, got {_line_text(data, breaks, line_of(row))!r}")

    if count[0] != 2 or malformed[first[0] : first[0] + 2].any():
        raise field_fault(0, 2)
    n, v = (int(_INTEGER.match(data, starts[t]).group()) for t in (first[0], first[0] + 1))
    if n < 1 or v < 1:
        raise fault(0, f"need N >= 1 and V >= 1, got {n} {v}")

    # edge rows run up to the first line with a field fault, if any; a
    # range fault on an earlier row comes first in file order
    body = first[1:]
    wrong = np.flatnonzero(count[1:] != 3)
    cut = body.size if wrong.size == 0 else int(wrong[0])
    wrong = np.flatnonzero(malformed[body[:cut]] | malformed[body[:cut] + 1] | malformed[body[:cut] + 2])
    cut = cut if wrong.size == 0 else int(wrong[0])
    e = np.empty((cut, 3), dtype=np.int64)
    for c in range(3):
        e[:, c] = _token_values(data, buf, starts[body[:cut] + c])
    del malformed

    bad = _first_bad_edge(e, n, v, ordered=not symmetrize)
    if bad is not None:
        row, kind = bad
        i, j = e[row, :2].tolist()
        raise fault(row + 1, {
            "node": f"node index out of range [0, {n})",
            "layer": f"layer index out of range [0, {v})",
            "loop": f"self loop at node {i}",
            "order": f"edge ({i}, {j}) not in canonical i < j order; pass symmetrize to repair",
        }[kind])
    if cut < body.size:
        raise field_fault(cut + 1, 3)
    return _graph_from_edges(n, v, e)


def write_mlg(path: str, g: MultilayerGraph) -> None:
    """Write a graph in canonical form: the header, then the rows of
    g.edge_list() as "i j v" lines, formatted into one buffer."""
    header = f"{g.n} {g.v}\n".encode("ascii")
    e = g.edge_list()
    width = np.ones(e.shape, dtype=np.uint8)
    for p in range(1, len(str(max(g.n, g.v)))):
        width += e >= 10**p
    # each line is its three fields, two spaces and a newline; the spare
    # byte past the end takes the writes of digits a field does not have
    end = len(header) - 1 + np.cumsum(width.sum(axis=1, dtype=np.int64) + 3)
    total = int(end[-1]) + 1 if e.size else len(header)
    out = np.full(total + 1, ord(" "), dtype=np.uint8)
    out[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    out[end] = ord("\n")
    # fill the fields from the last one back, each from its last digit
    for c in (2, 1, 0):
        x = e[:, c].copy()
        for d in range(int(width[:, c].max(initial=0))):
            out[np.where(width[:, c] > d, end - (d + 1), total)] = ord("0") + x % 10
            x //= 10
        end -= width[:, c] + 1
    with open(path, "wb") as handle:
        handle.write(out[:total])


def read_partition(path: str) -> HardPartition:
    lines = _content_lines(path)
    try:
        line_no, text = next(lines)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected a header line 'k K'") from None
    parts = text.split()
    if len(parts) != 2 or parts[0] != "k":
        raise ParseError(f"{path}:{line_no}: expected header 'k K', got {text!r}")
    try:
        k = int(parts[1])
    except ValueError:
        raise ParseError(f"{path}:{line_no}: expected an integer cluster count") from None
    if k < 1:
        raise ParseError(f"{path}:{line_no}: cluster count must be >= 1")
    labels = []
    for line_no, text in lines:
        (label,) = _ints(path, line_no, text, 1)
        if not (0 <= label < k):
            raise ParseError(f"{path}:{line_no}: label {label} outside [0, {k})")
        labels.append(label)
    if not labels:
        raise ParseError(f"{path}: no labels after the header")
    return HardPartition(labels=np.asarray(labels), k=k)


def write_partition(path: str, p: HardPartition) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"k {p.k}\n")
        for label in p.labels.tolist():
            handle.write(f"{label}\n")


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


def read_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
