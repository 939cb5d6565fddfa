"""atomlab benchmark: run workloads in fresh interpreters and check them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

Workloads: verify-core, mon-stretch, atom-transport and sumset-lengths (see
perfbench/README.md and perfbench/workloads.json).  Each measurement runs
in its own interpreter, started one at a time from this process, so peak
RSS belongs to one workload.

--trace 0 runs the workload for S seconds, then sets it up in 7 more fresh
interpreters, and prints the end-to-end metrics.  Times are in reference
seconds: measured time scaled by the machine's speed at that moment, from
a fixed reference unit run throughout each batch (see workload.py); the
raw times are printed too.  --trace 1 runs it
untraced for S/2 seconds and then traced for one batch, and prints the
per-layer metrics; trace.overhead_s is the traced batch time minus the
untraced median batch time.  Spans go to perfbench/out/.

Every answer is checked against recorded references.  The exact counters
(nodes, atom counts, claim statuses) are printed and compared with
workloads.json; a difference is reported as drift, not as a failure,
because an algorithmic change may legitimately move them.  The last line
of standard output is one JSON object with keys correct, attempted, failed
and metrics.  The exit code is 1 when any answer is wrong and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify-core", "mon-stretch", "atom-transport", "sumset-lengths")
SETUP_RUNS = 7
# One invocation must end within 180 s; leave room for the last child.
RUN_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_p95_ms", "ms"), ("op_p99_ms", "ms"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def _child(workload: str, mode: str, seed: int, seconds: float,
           deadline: float, trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, "-I", str(HERE / "workload.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", repr(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload} {mode}: no time left in this run")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: killed after "
                         f"{remaining:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode}: exit code {proc.returncode}\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _layer_unit(name: str) -> str:
    if name.endswith("_per_node"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def _check_counters(workload: str, spec: dict, timed: dict) -> list[str]:
    got = timed["counters"]
    notes = [f"{key}: recorded {want}, measured {got.get(key)}"
             for key, want in spec["workloads"][workload]["counters"].items()
             if got.get(key) != want]
    if not timed["counters_repeat"]:
        notes.append("counters differ between batches of this run")
    return notes


def _report(workload: str, timed: dict, spec: dict) -> None:
    lat = timed["latency"]
    ops = timed["attempted"]
    print(f"{workload}: {timed['batches']} batch(es) of "
          f"{timed['ops_per_batch']:g} operations, {ops} attempted, "
          f"{timed['failed']} failed, {timed['inconclusive']} inconclusive")
    print(f"  fail_frac          {timed['failed'] / ops:.6g} ratio")
    print(f"  inconclusive_frac  {timed['inconclusive'] / ops:.6g} ratio")
    for q in (50, 95, 99):
        beyond = int(lat["n"] * (100 - q) / 100)
        print(f"  op_p{q}_ms sample: n={lat['n']}, about {beyond} beyond")
    print(f"  counters: {json.dumps(timed['counters'])}")
    drift = _check_counters(workload, spec, timed)
    print("  counters match workloads.json" if not drift
          else "  counter drift: " + "; ".join(drift))
    for problem in timed["problems"]:
        print(f"  problem: {problem}")


def measure(workload: str, seed: int, seconds: float, spec: dict) -> dict:
    """Untraced run: returns metrics, attempted and failed."""
    deadline = time.monotonic() + RUN_LIMIT_S
    timed = _child(workload, "time", seed, seconds, deadline)
    setups = [_child(workload, "setup", seed, 0.0, deadline)
              for _ in range(SETUP_RUNS)]
    _report(workload, timed, spec)
    print(f"  raw wall_s median {timed['raw_wall_s']:.6g} s, raw setup_s "
          f"median {statistics.median(s['setup_raw_s'] for s in setups):.6g}"
          f" s, speed scale median {timed['speed_scale']:.4g}")
    lat = timed["latency"]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": timed["wall_s"],
        "ops_per_s": timed["ops_per_batch"] / timed["wall_s"],
        "op_p50_ms": lat["p50_ms"],
        "op_p95_ms": lat["p95_ms"],
        "op_p99_ms": lat["p99_ms"],
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name:<18} {m['value']:.6g} {m['unit']}")
    return {"metrics": metrics, "attempted": timed["attempted"],
            "failed": timed["failed"]}


def trace(workload: str, seed: int, seconds: float, spec: dict) -> dict:
    """Traced run: per-layer metrics of one traced batch."""
    deadline = time.monotonic() + RUN_LIMIT_S
    timed = _child(workload, "time", seed, seconds / 2, deadline)
    OUT.mkdir(exist_ok=True)
    traced = _child(workload, "trace", seed, 0.0, deadline,
                    trace_out=OUT / f"trace-{workload}-seed{seed}.json")
    _report(workload, timed, spec)
    layers = traced["layers"]
    layers["engine.nodes_per_s"] = layers["engine.nodes"] / timed["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - timed["wall_s"]
    print(f"  traced batch {traced['wall_s']:.4g} s, untraced median "
          f"{timed['wall_s']:.4g} s")
    metrics = {name: {"value": value, "unit": _layer_unit(name)}
               for name, value in layers.items()}
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}"
              if isinstance(m["value"], float)
              else f"  {name:<44} {m['value']} {m['unit']}")
    return {"metrics": metrics,
            "attempted": timed["attempted"] + traced["attempted"],
            "failed": timed["failed"] + traced["failed"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="atomlab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "atomlab" / "__init__.py").is_file():
        print(f"error: no atomlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE / "workloads.json").read_text())
    print(f"machine: nproc {os.cpu_count()}, Python "
          f"{platform.python_version()}; recorded on nproc "
          f"{spec['machine']['nproc']}, Python {spec['machine']['python']}")
    run = trace if args.trace else measure
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
