"""Re-measure the reference figures of ROADMAP item 1 and the benchmark's
own spread, and write them to a JSON file.

    python3 perfbench/baseline.py

Part one runs the CLI configurations the ROADMAP quotes, each once in its
own process, and records wall time and that process's peak RSS.  Part two
runs two sets, one after the other; a set runs ``run.py`` once per seed
1..10 on every workload.  Per set, workload and end-to-end metric it
records the median and the spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), and per
workload and metric the second set's median over the first's, minus 1.
The report goes to ``perfbench/BASELINE.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEEDS = range(1, 11)

# (label, CLI arguments, earlier hand-measured figure to compare with)
CLI_CONFIGS = [
    ("check dendriform x,y cyclic:2 max-leaves 3",
     ["check", "--suite", "dendriform", "--alphabet", "x,y", "--semigroup", "cyclic:2",
      "--max-leaves", "3"],
     "24-30 s; 537 MB in-process peak RSS; 23,328 instances"),
    ("check tridendriform x trivial max-leaves 4",
     ["check", "--suite", "tridendriform", "--alphabet", "x", "--semigroup", "trivial",
      "--max-leaves", "4"],
     "15-19 s; 392 MB child peak RSS; 3,375 instances"),
]


def measure_cli(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "dendrifam", *args], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": time.perf_counter() - start, "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit_code": proc.returncode, "last_line": stdout.strip().splitlines()[-1]}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median,
            "values": values}


def measure_workload(workload, seeds, seconds):
    values = {}
    for seed in seeds:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds)],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed={seed} wall_s={time.perf_counter() - start:.1f} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    return {name: spread(v) for name, v in values.items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    report = {"env": run.environment(None), "run_seconds": bench["run_seconds"],
              "cli": [], "workloads": {}}
    for label, cli_args, quoted in CLI_CONFIGS:
        measured = measure_cli(cli_args)
        print(f"{label}: {measured}", flush=True)
        report["cli"].append({"config": label, "quoted": quoted, "measured": measured})
    sets = [{workload: measure_workload(workload, SEEDS, bench["run_seconds"])
             for workload in run.WORKLOADS} for _ in range(2)]
    for workload in run.WORKLOADS:
        first, second = (s[workload] for s in sets)
        report["workloads"][workload] = {
            "sets": [s[workload] for s in sets],
            "median_change": {name: second[name]["median"] / first[name]["median"] - 1
                              for name in first}}
    (HERE / "BASELINE.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
