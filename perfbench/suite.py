"""Run every workload of the benchmark and summarize.

    python3 perfbench/suite.py [--runs R] [--no-trace]

Each workload of BENCHMARK.json runs ``--runs`` times untraced, at seeds
1, 2, ... (the default of 2 adds one seed beyond the development seed 1),
then once traced at seed 1, each run as long as BENCHMARK.json's
``run_seconds``.  Every run is a fresh ``perfbench/run.py`` process.
Prints each end-to-end metric per workload as the median over runs with
its spread (distance between the quartiles as a share of the median) and
its range (largest minus smallest, as a share of the median), the quality
and error figures, the artifact hashes, and the traced run's per-layer
metrics.  Writes everything to ``perfbench/out/suite.json``.  Exits 1
when any run failed a check or exited non-zero.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
OUT = HERE / "out"
SEED = 1  # the development seed; runs beyond the first use SEED + 1, ...


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:  # run.py must end within 180 s
        rc, stdout, stderr = -1, "", "run.py did not end within 200 s\n"
    lines = stdout.strip().splitlines()
    detail = next((json.loads(ln.split(" ", 2)[2]) for ln in lines
                   if ln.startswith("perfbench detail ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if rc != 0:
        sys.stderr.write(stdout[-2000:] + stderr[-2000:])
    return {"workload": workload, "seed": seed, "trace": int(trace), "rc": rc,
            "result": result, "detail": detail}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def value_range(values: list[float]) -> float:
    """Largest minus smallest value as a share of the median."""
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/suite.py")
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # kills the running run.py
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    runs = []
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        mine = [run_once(workload, SEED + i, seconds, False) for i in range(args.runs)]
        if not args.no_trace:
            mine.append(run_once(workload, SEED, seconds, True))
        runs += mine
        print(f"\n== {workload}")
        for run in mine:
            res, det = run["result"], run["detail"]
            good = run["rc"] == 0 and res.get("correct") is True
            ok &= good
            samples = det.get("samples", {})
            acc = det.get("probe_accuracy")
            print(f"  seed {run['seed']} trace {run['trace']}: {'ok' if good else 'FAILED'}, "
                  f"error_rate {det.get('error_rate', 1.0):.4g} "
                  f"({res.get('failed')}/{res.get('attempted')}), "
                  f"{samples.get('repeats', 0)} repeats, {samples.get('steps', 0)} steps"
                  + (f", probe_accuracy {acc:.4f}" if acc is not None else ""))
            for problem in det.get("problems", []):
                print(f"    FAIL {problem}")
        untraced = [r for r in mine if not r["trace"]]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in untraced
                      if name in r["result"].get("metrics", {})]
            if values:
                print(f"  {name:14s} {statistics.median(values):12.6g} {metric['unit']:9s}"
                      f" spread {spread(values):7.2%} range {value_range(values):7.2%}"
                      f" (n={len(values)} runs, bound {metric['bound']:.0%})")
        hashes = untraced[0]["detail"].get("hashes", {}) if untraced else {}
        for name, digest in sorted(hashes.items()):
            print(f"  sha256 {name} {digest}")
        for run in mine:
            if run["trace"]:
                for name, m in run["result"].get("metrics", {}).items():
                    print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    (OUT / "suite.json").write_text(json.dumps(runs, indent=1, sort_keys=True))
    print(f"\n{'all checks passed' if ok else 'SOME CHECKS FAILED'}; "
          f"results in {(OUT / 'suite.json').relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
