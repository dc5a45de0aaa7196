"""hypermix benchmark: one command for every workload.

    python3 perfbench/run.py --workload grid4-train --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --record perfbench/out/bench.json

Run from the repository root. Each workload runs in its own fresh process
with BLAS pinned to one thread, as a closed loop with one caller. The run
prints the machine, every metric by name with its unit and sample count,
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. It exits 1 when an output check fails
or an operation raises, and 2 when hypermix's sources are not found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid4-train", "grid8-rollout", "grid3-solve")
CHILD_TIMEOUT_S = 170
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

PROBE = """
import ctypes, glob, json, os, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libdir, "*openblas*")):
    lib = ctypes.CDLL(path)
    for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads"):
        if hasattr(lib, fn):
            threads = getattr(lib, fn)()
            break
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def machine() -> dict:
    """Python, numpy and BLAS versions, BLAS threads, CPUs and load at start."""
    info = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_at_start": list(os.getloadavg()),
            "pinned_env": PINNED_ENV}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        info["cpu"] = platform.processor() or "unknown"
    probe = subprocess.run([sys.executable, "-c", PROBE], env=child_env(),
                           capture_output=True, text=True, timeout=60)
    if probe.returncode == 0:
        info.update(json.loads(probe.stdout))
    return info


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), name, str(seed),
           str(seconds), str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"workload": name, "seed": seed, "trace": trace, "metrics": {},
                "attempted": 1, "failed": 1, "named": {},
                "failures": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": name, "seed": seed, "trace": trace, "metrics": {},
                "attempted": 1, "failed": 1, "named": {},
                "failures": [f"measure.py exited with {proc.returncode}"]}
    return json.loads(lines[-1])


def report(rec: dict) -> None:
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}"
          f"  unit: {rec.get('unit_of_work', '?')}")
    for name, (value, unit, samples) in rec["named"].items():
        print(f"  {name:34s} {value:14.4f} {unit:6s} n={samples}")
    for name, m in rec["metrics"].items():
        if name not in rec["named"]:
            flag = "  (absent)" if m.get("absent") else ""
            print(f"  {name:34s} {m['value']:14.4f} {m['unit']}{flag}")
    share = rec["failed"] / rec["attempted"]
    print(f"  {'failed_share':34s} {share:14.4f} share  n={rec['attempted']}")
    if rec.get("absent_sites"):
        print(f"  absent sites: {', '.join(rec['absent_sites'])}")
    for key, value in sorted(rec.get("outputs", {}).items()):
        print(f"  output {key} = {value}")
    for failure in rec.get("failures", []):
        print(f"  FAILED {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="append the full records, with the machine, to this JSON file")
    args = parser.parse_args()
    if not (ROOT / "src" / "hypermix" / "__init__.py").is_file():
        print(f"hypermix sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    info = machine()
    print("machine: " + json.dumps(info, sort_keys=True))
    print(f"closed loop, one caller per process; {args.seconds} s per run")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, args.trace)
        report(rec)
        records.append(rec)
    if args.record:
        old = json.loads(args.record.read_text()) if args.record.is_file() else []
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(
            old + [{"machine": info, **rec} for rec in records], indent=1) + "\n")

    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    correct = failed == 0 and all(r["metrics"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
