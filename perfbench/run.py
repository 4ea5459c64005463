"""Benchmark of the mimisbm library: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload runs in a fresh child process
(bench.py), so the peak RSS read here belongs to that workload alone. With
--trace 0 the last line of stdout is a JSON object holding every end-to-end
metric; with --trace 1 it holds every per-layer metric, from a separate
traced run. The line before it records the environment. The exit code is 0
only when every op passed its output checks.
"""

import argparse
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from bench import END_TO_END, PER_LAYER, nproc  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    """What the timings depend on besides the code. Nothing here is set by
    the benchmark; thread variables are reported as found."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "pool_start_method": multiprocessing.get_context().get_start_method(),
    }
    for var in BLAS_VARS:
        env[var] = os.environ.get(var, "unset")
    return env


def main(argv=None, workloads=WORKLOADS):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "mimisbm", "__init__.py")):
        print(f"no mimisbm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    spec = dict(workloads[args.workload], name=args.workload)
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), json.dumps(spec),
           str(args.seed), str(args.seconds), str(args.trace), ROOT]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"workload {args.workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"workload {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if args.trace:
        order = [name for name, _, _ in PER_LAYER]
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MiB"}
        order = [name for name, _, _ in END_TO_END]
    result["metrics"] = {name: metrics[name] for name in order if name in metrics}

    for line in lines[:-1]:
        print(line)
    print("env " + json.dumps(environment()))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
