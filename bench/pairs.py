"""Alternating parent/change pairs of the benchmark, each side from a fresh copy.

    python3 bench/pairs.py --label NAME --parent REV --first-seed S --pairs N
    python3 bench/pairs.py --label NAME --report

Run from anywhere inside the repository. The parent (a revision, HEAD by
default) and the change (the working tree, untracked files included and
ignored files left out) are each exported with ``git archive`` into a fresh
directory, ``<workdir>/parent`` and ``<workdir>/change``: siblings whose
paths have the same length, so that neither side's process pays more bytes
for its paths than the other's. For each seed S .. S+N-1 and each workload
that ``BENCHMARK.json`` gates, ``perfbench/run.py --trace 0 --record`` runs
at the benchmark's run length once in each copy, the parent
first on odd seeds and the change first on even seeds. The records go to
``bench/BENCH_<label>_parent.json`` and ``bench/BENCH_<label>_change.json``
in this repository; neither may exist before a run. Last, and alone with
``--report``, it prints the q1 / median / q3 of each end-to-end metric per
side, the parent's interquartile range as a share of its median, in how
many pairs the change read lower, and a verdict from the metric's bound
(see :func:`verdict`), with failed operations and the pairs whose output
digests differ.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SIDES = ("parent", "change")  # equal length: the copies' paths match in size


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def worktree_tree() -> str:
    """A tree object of the working tree, untracked files included, made in
    a scratch index so that the repository's own index is left as it is."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def export(treeish: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", treeish], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {treeish} failed")


def records_path(label: str, side: str) -> Path:
    return BENCH / f"BENCH_{label}_{side}.json"


def run_pairs(args, bench: dict, workdir: Path) -> None:
    trees = {"parent": git("rev-parse", f"{args.parent}^{{tree}}"),
             "change": worktree_tree()}
    for side in SIDES:
        export(trees[side], workdir / side)
        print(f"{side}: tree {trees[side]} in {workdir / side}", flush=True)
    for seed in range(args.first_seed, args.first_seed + args.pairs):
        for workload in (w["name"] for w in bench["workloads"]):
            for side in SIDES if seed % 2 else SIDES[::-1]:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--trace", "0",
                       "--seconds", str(bench["run_seconds"]),
                       "--record", str(records_path(args.label, side))]
                code = subprocess.run(cmd, cwd=workdir / side,
                                      stdout=subprocess.DEVNULL).returncode
                print(f"seed {seed} {workload} {side}: exit {code}", flush=True)


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent: list[float], change: list[float], bound: float) -> str:
    """What the pairs of a lower-is-better metric show, first rule first:
    "gain resolved" when the change reads lower in at least 9 of 10 pairs
    and its median gap exceeds the parent's interquartile range; "worse"
    when the change's median exceeds the parent's upper quartile by more
    than ``bound``, however wide the spread; "unresolved" when the parent's
    interquartile range exceeds ``bound`` times its median, unless every
    change run beats every parent run; "worse" when the change's median
    exceeds the parent's by more than ``bound``; and "within bound"
    otherwise."""
    p1, p2, p3 = quartiles(parent)
    c2 = statistics.median(change)
    lower = sum(c < p for p, c in zip(parent, change))
    if 10 * lower >= 9 * len(parent) and p2 - c2 > p3 - p1:
        return "gain resolved"
    if c2 > p3 * (1 + bound):
        return "worse"
    if p3 - p1 > bound * p2 and max(change) >= min(parent):
        return "unresolved"
    if c2 > p2 * (1 + bound):
        return "worse"
    return "within bound"


def report(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[str]:
    """Lines comparing the sides' end-to-end metrics over matched pairs;
    ``metrics`` are ``BENCHMARK.json``'s, each with its name and bound."""
    lines = []
    for workload in sorted({r["workload"] for r in parent}):
        mine = {s: {r["seed"]: r for r in recs if r["workload"] == workload
                    and r["trace"] == 0}
                for s, recs in zip(SIDES, (parent, change))}
        seeds = sorted(mine["parent"].keys() & mine["change"].keys())
        pairs = [(mine["parent"][k], mine["change"][k]) for k in seeds]
        for metric in metrics:
            name = metric["name"]
            sides = [[rec[i]["metrics"][name]["value"] for rec in pairs]
                     for i in (0, 1)]
            lower = sum(c < p for p, c in zip(*sides))
            p1, p2, p3 = quartiles(sides[0])
            c1, c2, c3 = quartiles(sides[1])
            lines.append(f"{workload} {name}: parent {p1:.3f} / {p2:.3f} / {p3:.3f}"
                         f" (IQR {(p3 - p1) / p2:.1%} of median)"
                         f"  change {c1:.3f} / {c2:.3f} / {c3:.3f}"
                         f"  change lower in {lower} of {len(pairs)}:"
                         f" {verdict(*sides, metric['bound'])}")
        failed = [sum(rec[i]["failed"] for rec in pairs) for i in (0, 1)]
        differ = sum(any(v != c["outputs"].get(k) for k, v in p["outputs"].items()
                         if k.endswith("digest")) for p, c in pairs)
        lines.append(f"{workload}: failed operations parent {failed[0]}, change"
                     f" {failed[1]}; output digests differ in {differ} of {len(pairs)}")
    return lines


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", default="HEAD", help="revision (default HEAD)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workdir", type=Path,
                        help="where the two copies go (default: a temporary"
                             " directory, removed afterwards)")
    parser.add_argument("--report", action="store_true",
                        help="only summarise the existing record files")
    args = parser.parse_args()

    paths = [records_path(args.label, side) for side in SIDES]
    if not args.report:
        if any(p.exists() for p in paths):
            raise SystemExit(f"{paths[0].name} or {paths[1].name} exists already")
        workdir = args.workdir or Path(tempfile.mkdtemp(prefix="pairs-"))
        if args.workdir and any(workdir.glob("*")):
            raise SystemExit(f"{workdir} is not empty")
        try:
            run_pairs(args, bench, workdir)
        finally:
            if not args.workdir:
                shutil.rmtree(workdir)
    parent, change = (json.loads(p.read_text()) for p in paths)
    print("\n".join(report(parent, change, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
