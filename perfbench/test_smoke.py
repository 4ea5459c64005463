"""Smoke test of the benchmark: every workload at tiny sizes, traced and
untraced, in seconds.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402

TINY = {name: tiny(spec) for name, spec in WORKLOADS.items()}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)], TINY)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert lines[-2].startswith("env ")
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_result_equals_untraced(name):
    import mimisbm

    original_fit = mimisbm.fit
    with tempfile.TemporaryDirectory() as workdir:
        work = bench.Workload(dict(TINY[name], name=name), 5, workdir)
        g, _, _ = work.setup(0)
        cfg = work.config(0)
        plain, _ = work.solve(g, cfg)
        tracer = Tracer()
        with tracer:
            traced, _ = work.solve(g, cfg)
    assert bench.same(plain, traced)
    assert mimisbm.fit is original_fit  # wrappers are gone after the region
    labels = {span[0] for span in tracer.spans}
    assert {"inference.fit", "inference.init_variational", "core.VariationalState"} <= labels


def test_tail_has_ten_samples_beyond_it():
    assert bench.tail(list(range(30))) == (19, pytest.approx(100 * 20 / 30), 30)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
