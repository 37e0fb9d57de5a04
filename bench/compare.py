"""Compare the end-to-end metrics of two checkouts on the benchmark.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR [--workloads a,b] [--pairs 10]
                             [--seconds 16] [--first-seed 1000]

Each directory is the root of a checkout (for example made with
`git archive <commit> | tar -x -C DIR`).  Each side's `src/` is copied under
bench/out/compare/ next to this file's copy of the benchmark, so the two
sides differ only in the library.  Runs alternate between the sides, each
pair on a fresh seed and the side that goes first swapping every pair.  For
every workload and metric it prints each side's median and quartiles, and
how many pairs the change won.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_side(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{root}: {workload} seed {seed} failed its checks:\n{done.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workloads", default="universal-small,universal-wide,signrank,refute,restrict")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        lower_is_better = {
            m["name"] for m in json.load(fh)["end_to_end"] if m["better"] == "lower"
        }
    scratch = os.path.join(HERE, "out", "compare")
    shutil.rmtree(scratch, ignore_errors=True)
    roots = []
    for side, src in (("parent", args.parent), ("change", args.change)):
        root = os.path.join(scratch, side)
        shutil.copytree(os.path.join(src, "src"), os.path.join(root, "src"))
        shutil.copytree(HERE, os.path.join(root, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), root)
        roots.append(root)
    for workload in args.workloads.split(","):
        sides: list[list[dict]] = [[], []]
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            for side in order:
                sides[side].append(run_side(roots[side], workload, seed, args.seconds))
        print(f"{workload} ({args.pairs} pairs)")
        for metric in sides[0][0]:
            parent = [r[metric] for r in sides[0]]
            change = [r[metric] for r in sides[1]]
            sign = -1 if metric in lower_is_better else 1
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            cells = []
            for values in (parent, change):
                q1, q2, q3 = statistics.quantiles(values, n=4)
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"  {metric:14s} parent {cells[0]:34s} change {cells[1]:34s} "
                  f"change won {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
