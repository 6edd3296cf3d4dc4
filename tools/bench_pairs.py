"""Run the benchmark in parent/change pairs and write ``BENCH_<slug>.json``.

Run with the change in the working tree:

    python3 tools/bench_pairs.py SLUG [--rev REV] [--seeds N]
                                 [--workload W ...] [--what TEXT]

REV (default HEAD) is exported into a temporary directory, as
``tools/scan_equal.py`` does, and is the parent side; the working tree is
the change side. For each workload (default: every one in BENCHMARK.json)
and each seed 1..N (default 10), both sides run

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

from their own tree, T being BENCHMARK.json's ``run_seconds``; the parent
goes first on odd seeds and the change on even ones. The file holds every
run's end-to-end metrics and, per metric, both medians, both
interquartile ranges (``statistics.quantiles(n=4)``), the pairs each side
won (ties count for neither) and a verdict against the metric's
BENCHMARK.json bound: "worse" beyond it; "unresolved" when the change's
median lies inside the parent's interquartile range; else "better" or
"worse within bound". ``gain_rule_met`` says whether the change won at
least nine pairs in ten and its median is better by more than the
parent's interquartile range. Exit 0 when written, 1 when a run fails, 2
when REV cannot be exported. The directory is removed on every path.
Standard library and ``tar``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from scan_equal import ROOT, checkout


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} failed in {tree}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def summary(entry: dict, parent: list[dict], change: list[dict]) -> dict:
    name, higher = entry["name"], entry["better"] == "higher"
    old = [run[name] for run in parent]
    new = [run[name] for run in change]
    old_median, new_median = statistics.median(old), statistics.median(new)
    q1, _, q3 = statistics.quantiles(old, n=4)
    change_q1, _, change_q3 = statistics.quantiles(new, n=4)
    gain = new_median - old_median if higher else old_median - new_median
    won = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
    lost = sum((b < a) if higher else (b > a) for a, b in zip(old, new))
    if gain < -entry["bound"] * old_median:
        verdict = "worse"
    elif q1 <= new_median <= q3:
        verdict = "unresolved (inside parent IQR)"
    else:
        verdict = "better" if gain > 0 else "worse within bound"
    return {
        "better": entry["better"], "bound": entry["bound"],
        "parent_median": old_median, "change_median": new_median,
        "change_vs_parent": round(new_median / old_median - 1, 4),
        "parent_iqr": [q1, q3], "parent_iqr_width": q3 - q1,
        "change_iqr": [change_q1, change_q3],
        "pairs_won_by_change": won, "pairs_lost_by_change": lost,
        "verdict": verdict,
        "gain_rule_met": won >= 0.9 * len(old) and gain > q3 - q1,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("slug", help="the file written is BENCH_<slug>.json")
    parser.add_argument("--rev", default="HEAD", help="the parent side")
    parser.add_argument("--seeds", type=int, default=10,
                        help="pairs per workload, seeds 1..N (at least 2)")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default every workload")
    parser.add_argument("--what", default="", help="what the change does")
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 for quartiles")
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    workloads = {}
    with checkout(args.rev) as parent_tree:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                 args.rev], capture_output=True, text=True)
        for workload in names:
            runs = {"parent": [], "change": []}
            for seed in range(1, args.seeds + 1):
                sides = [("parent", parent_tree), ("change", ROOT)]
                for side, tree in sides if seed % 2 else sides[::-1]:
                    runs[side].append(run_once(tree, workload, seed, seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{runs[side][-1]['lines_per_s']:.1f} lines/s",
                          file=sys.stderr, flush=True)
            workloads[workload] = {
                "runs": runs,
                "metrics": {entry["name"]: summary(entry, runs["parent"],
                                                   runs["change"])
                            for entry in spec["end_to_end"]},
                "failed": {side: sum(run["failed"] for run in side_runs)
                           for side, side_runs in runs.items()},
            }

    report = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "design": f"{args.seeds} seeds per workload, parent and change run "
                  "back to back on each seed, parent first on odd seeds and "
                  "change first on even seeds; each side from its own tree "
                  "(tools/bench_pairs.py); IQR is statistics.quantiles(n=4)",
        "parent_commit": commit.stdout.strip(),
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version()},
        "verdict_rule": "worse: change median worse than parent median by "
                        "more than the BENCHMARK.json bound; unresolved: "
                        "the change median lies inside the parent's "
                        "interquartile range; else better or worse within "
                        "bound. gain_rule_met: the change won at least 9 "
                        "pairs in 10 and its median is better by more than "
                        "the parent's IQR width",
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.slug}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
