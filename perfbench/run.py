"""Benchmark of escansion: four closed-loop workloads, one client each.

Run from the repository root:

    python3 perfbench/run.py --workload verse --seed 1 --seconds 20 --trace 0

The second-to-last line of standard output is a JSON report: machine and
traffic facts, the input digest, every figure by name and unit, and the
failures seen. The last line is the result:
{"correct", "attempted", "failed", "metrics"}, whose metrics are the
``end_to_end`` list of BENCHMARK.json untraced (``--trace 0``) and the
``per_layer`` list traced (``--trace 1``). A per-layer metric of a layer
the workload never calls reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import workloads


def _machine(root: Path) -> dict:
    import numpy
    commit = "unknown"
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "escansion" / "__init__.py").is_file():
        print(f"error: no escansion sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "harness":
        # per-example 50-dim numpy ops gain nothing from BLAS threads
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    # One CPU for the benchmark and its children, so the host-speed kernel
    # measures the CPU the measured work ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    run = workloads.Run(root=root, workload=args.workload, seed=args.seed,
                        seconds=args.seconds, traced=bool(args.trace))
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        workloads.RUNNERS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if run.tracer is not None:
        run.tracer.write(root / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name in run.metrics:
            value, unit = run.metrics[name]
            if unit != entry["unit"]:
                raise SystemExit(f"{name}: measured in {unit}, declared {entry['unit']}")
        elif args.trace:
            value = 0.0  # this workload never calls the layer
        else:
            raise SystemExit(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    extra = {name: list(pair) for name, pair in run.metrics.items()
             if name not in metrics}
    failed_ratio = run.failed / run.attempted if run.attempted else 0.0
    report = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed, "seconds": args.seconds, "traced": bool(args.trace),
        "loop": "closed, one client", "machine": _machine(root),
        "host_speed": {"in_process": run.clock.facts(),
                       "fresh_process": run.process_clock.facts()},
        "traffic": run.facts, "metrics": {**metrics, **{
            name: {"value": v, "unit": u} for name, (v, u) in extra.items()}},
        "extra": {**run.report, "failed_ratio": [failed_ratio, "share"]},
        "failures": run.failures,
    }
    print(json.dumps(report, ensure_ascii=False))
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": max(run.attempted, 1), "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
