"""dendrifam benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: dend-sweep, tri-sweep, deep-product, rb-extend (see
``workloads.py`` and ``BENCHMARK.json``).  Every unit of work runs in a
fresh interpreter (``worker.py``), because the intern tables and
``lru_cache``s of dendrifam are process-global: a second unit in the same
process would measure a warmer program than any CLI user gets.

``--trace 0`` runs units until ``--seconds`` is used up (at least three
units and 100 timed steps, at most two minutes) and reports the
end-to-end metrics:

* ``setup_s``      median over units of the time from starting the
                   interpreter to the first measured operation;
* ``ops_per_s``    operations of all units over their measured time:
                   axiom instances (sweeps), products (deep-product),
                   ``extend`` evaluations (rb-extend);
* ``op_p50_ms``,   50th and 90th percentile of the latency of one timed
  ``op_p90_ms``    step, over all steps of the run.  A step is one
                   operation, except on the sweeps, where it is the sampled
                   instances under one pair (T, U) (see ``workloads.Sweep``);
* ``peak_rss_mb``  largest peak RSS of a unit's process.

All times are reported at a reference host speed: the unit runs a fixed
calibration loop between its timed steps and scales each step, and its
set-up time, by how much slower or faster than the reference the loop ran
around it (``workloads.StepTimer``).  On a shared 2-CPU virtual machine
the speed of the same code drifted by up to 40 % over minutes, more than
any bound a regression check can use.  ``ops_per_s`` pools the units'
work rather than taking the median of their rates, which jumps with the
speed most units happened to run at.

``--trace 1`` runs unit 0 untraced, unit 0 traced and the size series,
and reports the per-layer metrics.  Full per-function trace data goes
to ``.perfbench/``.  Any output that fails its gate makes the run exit 1.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("dend-sweep", "tri-sweep", "deep-product", "rb-extend")
MIN_UNITS = 3
MIN_STEPS = 100
MAX_RUN_S = 120
CHILD_TIMEOUT_S = 150

# Per-workload names of ops_per_s and of the timed step, as the report prints them.
OP_NAMES = {
    "dend-sweep": ("instances_per_s", "pair"),
    "tri-sweep": ("instances_per_s", "pair"),
    "deep-product": ("products_per_s", "product"),
    "rb-extend": ("evals_per_s", "eval"),
}

class ChildFailed(RuntimeError):
    pass


def child(seed: int, args):
    """Run worker.py with ``args``; return (result dict, monotonic spawn time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    module = Path(result["dendrifam_file"]).resolve()
    if SRC.resolve() not in module.parents:
        raise ChildFailed(f"worker imported dendrifam from {module}, not from {SRC}")
    return result, spawned


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list, q in (0, 100]."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def environment(seed):
    """Python version, CPU count, commit (when ROOT is a git work tree) and a
    digest of the library sources, recorded with every result."""
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dendrifam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16], "seed": seed}


def run_plain(workload, seed, seconds, scale):
    started = time.monotonic()
    units = []
    while True:
        unit_args = ["--workload", workload, "--seed", str(seed), "--unit", str(len(units)),
                     "--scale", scale]
        result, spawned = child(seed, unit_args)
        result["setup_s"] = (result["setup_done"] - spawned) * result["setup_scale"]
        units.append(result)
        elapsed = time.monotonic() - started
        steps = sum(len(u["latencies"]) for u in units)
        if elapsed > MAX_RUN_S or (len(units) >= MIN_UNITS and steps >= MIN_STEPS
                                   and elapsed * (len(units) + 1) / len(units) > seconds):
            break
    latencies = sorted(x for u in units for x in u["latencies"])
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": statistics.median(u["setup_s"] for u in units),
        "ops_per_s": sum(u["operations"] for u in units) / sum(u["work_s"] for u in units),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": peak_kb / 1024,
    }
    return units, metrics, {"units": len(units), "steps": len(latencies),
                            "operations": sum(u["operations"] for u in units),
                            "raw_work_s": sum(u["raw_work_s"] for u in units),
                            "work_s": sum(u["work_s"] for u in units)}


def run_traced(workload, seed, scale):
    unit_args = ["--workload", workload, "--seed", str(seed), "--unit", "0", "--scale", scale]
    plain, _ = child(seed, unit_args)
    traced, _ = child(seed, unit_args + ["--trace", "1"])
    series, _ = child(seed, ["--series", "--seed", str(seed)]) \
        if scale == "full" else ({"attempted": 0, "failed": 0, "failures": [],
                                  "comb_exponent": None, "spine_exponent": None}, None)
    metrics = dict(traced["layers"])
    metrics["dendriform.comb_exponent"] = series["comb_exponent"]
    metrics["dendriform.spine_exponent"] = series["spine_exponent"]
    metrics["trace.overhead_frac"] = traced["work_s"] / plain["work_s"] - 1
    detail = {"trace": traced["trace"], "notes": traced["notes"],
              "series": {k: v for k, v in series.items() if k.endswith("_s")},
              "untraced_work_s": plain["work_s"], "traced_work_s": traced["work_s"]}
    return [plain, traced, series], metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "dendrifam" / "__init__.py", ROOT / "tests" / "untyped_free.py")
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a dendrifam checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    env = environment(args.seed)
    try:
        if args.trace:
            runs, metrics, detail = run_traced(args.workload, args.seed, args.scale)
        else:
            runs, metrics, detail = run_plain(args.workload, args.seed, args.seconds, args.scale)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for message in r["failures"]:
            print(f"GATE FAILURE: {message}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "env": env,
                                    "metrics": metrics, **detail}, indent=1))
        print(f"# trace written to {path.relative_to(ROOT)}")
        for note in detail["notes"]:
            print(f"# note: {note}")
        for name, value in metrics.items():
            print(f"{name:40s} {value}")
    else:
        rate_name, step_name = OP_NAMES[args.workload]
        print(f"# {detail['units']} units, {detail['operations']} operations, "
              f"{detail['steps']} timed {step_name}s; {detail['raw_work_s']:.4g} s measured, "
              f"{detail['work_s']:.4g} s at reference speed")
        aliases = {"ops_per_s": rate_name, "op_p50_ms": f"{step_name}_p50_ms",
                   "op_p90_ms": f"{step_name}_p90_ms"}
        for name, value in metrics.items():
            alias = f" ({aliases[name]})" if name in aliases else ""
            print(f"{name:12s} {value:.6g} {units[name]}{alias}")
        print(f"failed_frac  {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
