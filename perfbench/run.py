"""Benchmark entry point.

    python3 perfbench/run.py --workload <toy_train|paper_train|paper_eval|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Each workload runs in a fresh child
process (``workloads.py``) so that its peak RSS is its own, with the
checkout's ``src`` first on ``PYTHONPATH`` and at most ``nproc`` (and at
most 2) BLAS threads. The child's report is relayed and its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, is printed last. ``--workload all`` runs the three in turn
and ends with one such object whose metric names are prefixed by the
workload.

Exits non-zero, printing no result, when the checkout has no ``src/cral``
or a child fails or overruns.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toy_train", "paper_train", "paper_eval")
MAX_BLAS_THREADS = 2
CHILD_TIMEOUT_S = 170


def run_child(name: str, args, env: dict):
    """Run one workload; returns (report lines, result) or None on failure."""
    command = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {name} overran {CHILD_TIMEOUT_S} s and was killed\n")
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"perfbench: {name} exited with {proc.returncode}\n")
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(f"perfbench: {name} printed no result line\n{proc.stdout}")
        return None
    sys.stderr.write(proc.stderr)
    return lines[:-1], result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cral benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cral" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no cral sources under {ROOT / 'src'}\n")
        return 2
    threads = str(min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        outcome = run_child(name, args, env)
        if outcome is None:
            return 1
        report, results[name] = outcome
        print("\n".join(report), flush=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
