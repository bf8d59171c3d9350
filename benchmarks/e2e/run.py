"""End-to-end, per-layer wall-clock benchmark: the one command.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace 0|1] [--selfcheck]

Each workload runs in its own fresh Python process with a pinned
environment, verifies every pass against an independent oracle, prints
every metric by name with its unit and ends with one JSON result line.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).  Exits non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Pinned for every workload process: stable hashing, no BLAS threads
#: competing with the two workers for the box's two cores.
ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
       "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


def run_workload(args: argparse.Namespace) -> dict:
    """Worker: one workload in this process; prints and returns its result."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import harness
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    print(f"# {workload.name} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          "workers start by fork", flush=True)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        run = harness.Run(workload, args.seed, args.scale, tmp, bool(args.trace))
        if args.trace:
            metrics = layers.trace_metrics(run)
            units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
            run.rec.dump(OUT / f"{workload.name}.trace.json", metrics)
        else:
            metrics = run.measure(args.seconds)
            units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    info = run.info
    print(f"# |V|={info.pop('vertices')} |E|={info.pop('edges')} "
          f"triangles={info.pop('triangles')} ordering={run.prepared.ordering}")
    for name, value in info.items():
        print(f"  ({name} = {value:.6g})")
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:.6g} {unit}")
    print(f"{'failed_frac':28s} {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} checks)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result, default=float), flush=True)
    return result


def launch(name: str, args: argparse.Namespace) -> dict | None:
    """Run one workload in a fresh, pinned process; relay its output."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", str(args.scale)]
    proc = subprocess.run(cmd, env={**os.environ, **ENV}, text=True,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    try:  # a worker that crashed printed no result line
        return json.loads(proc.stdout.rstrip().rsplit("\n", 1)[-1])
    except ValueError:
        return None


def selfcheck(args: argparse.Namespace, names: list[str]) -> bool:
    """Two full sets, workload order alternated; every pair within bound."""
    sets = []
    for order in (names, names[::-1]):
        results = {name: launch(name, args) for name in order}
        if not all(r and r["correct"] for r in results.values()):
            return False
        sets.append(results)
    agree = True
    print(f"\n{'workload':18s} {'metric':12s} {'set 1':>10s} {'set 2':>10s} "
          f"{'ratio':>7s} {'bound':>6s}")
    for name in names:
        for spec in SPEC["end_to_end"]:
            first, second = (s[name]["metrics"][spec["name"]]["value"]
                             for s in sets)
            ratio = second / first
            ok = max(ratio, 1 / ratio) - 1 <= spec["bound"]
            agree &= ok
            print(f"{name:18s} {spec['name']:12s} {first:10.4f} {second:10.4f} "
                  f"{ratio:7.3f} {spec['bound']:6.2f}{'' if ok else '  DISAGREE'}")
    return agree


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="timed passes continue (7 to 64) until this is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="graph-size factor (the smoke test uses 0.05)")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.selfcheck:
        return 0 if selfcheck(args, names) else 1
    pinned = all(os.environ.get(k) == v for k, v in ENV.items())
    if args.workload and pinned:
        return 0 if run_workload(args)["correct"] else 1
    results = [launch(name, args)
               for name in ([args.workload] if args.workload else names)]
    return 0 if all(r and r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
