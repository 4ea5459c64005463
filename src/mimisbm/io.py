"""File formats.

Graph (.mlg): UTF-8 text. First content line is "N V"; every following
content line is one edge "i j v" with 0-based indices and i < j. Lines that
are blank or start with '#' are skipped. Writers emit edges sorted
lexicographically by (i, j, v), which is the canonical form. Readers accept
duplicates (idempotent) and, only when symmetrize=True, edges given as
i > j; otherwise a reversed edge is a ParseError.

Partition (.part): first content line "k K", then one 0-based label per
line; labels must lie in [0, K).

Reports (.json): UTF-8 JSON with a fixed key order and floats serialized by
Python's shortest round-trip repr, so rewriting the same object yields the
same bytes and reloading reproduces every value bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Union

import numpy as np

from .core import HardPartition, MultilayerGraph
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


def read_mlg(path: str, symmetrize: bool = False) -> MultilayerGraph:
    """Read a graph file; see the module docstring for the format."""
    lines = _content_lines(path)
    try:
        line_no, text = next(lines)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected a header line 'N V'") from None
    n, v = _ints(path, line_no, text, 2)
    if n < 1 or v < 1:
        raise ParseError(f"{path}:{line_no}: need N >= 1 and V >= 1, got {n} {v}")
    adj = np.zeros((n, n, v), dtype=np.uint8)
    for line_no, text in lines:
        i, j, lay = _ints(path, line_no, text, 3)
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"{path}:{line_no}: node index out of range [0, {n})")
        if not (0 <= lay < v):
            raise ParseError(f"{path}:{line_no}: layer index out of range [0, {v})")
        if i == j:
            raise ParseError(f"{path}:{line_no}: self loop at node {i}")
        if i > j:
            if not symmetrize:
                raise ParseError(
                    f"{path}:{line_no}: edge ({i}, {j}) not in canonical i < j order; "
                    "pass symmetrize to repair"
                )
            i, j = j, i
        adj[i, j, lay] = 1
        adj[j, i, lay] = 1
    return MultilayerGraph(adj)


def write_mlg(path: str, g: MultilayerGraph) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{g.n} {g.v}\n")
        for i, j, lay in g.edge_list():
            handle.write(f"{i} {j} {lay}\n")


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
