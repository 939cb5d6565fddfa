"""One benchmark workload, run in a fresh interpreter by run.py.

    python3 -I perfbench/workload.py --workload NAME --seed N --mode MODE
        [--seconds S] [--trace-out PATH]

Every mode first imports atomlab from the checkout's src/ and builds the
workload's inputs from the seed; that is the set-up time.  Then:

- setup: stop there.
- time:  run batches of the workload until the next batch would end after
         S seconds (always at least one), checking every answer.
- trace: install the tracer, run exactly one batch and write its spans.

Every time is reported in reference seconds: the measured time multiplied
by how much slower the machine ran a fixed reference unit (SpeedMeter)
while it was measured than the reference_unit_s recorded in
workloads.json.  A timer signal runs the unit every 10 ms of wall time, in
between the workload's own bytecodes, and the clock the benchmark times
with stops while it runs.  On a shared host whose speed drifts by tens of percent
within seconds this keeps the program's own speed and removes the host's;
the raw times are reported alongside.

The result is one JSON object on the last line of standard output.  A batch
is a fixed amount of work: the core suite, the stretch claim, every
0-containing subset of [0,14], or every distinct sumset of two or three
nonunit 0-subsets of [0,4].  Each is a closed loop with one client.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

_PROBLEM_CAP = 5


def _reference_unit() -> int:
    """Fixed stdlib-only work of about 0.3 ms: integer arithmetic, tuples,
    a set, a dict and a sort, the kind of work atomlab's searches do."""
    x, seen, counts = 12345, set(), {}
    for _ in range(250):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        t = (x % 97, x % 89, x >> 20)
        seen.add(t)
        counts[t[0]] = counts.get(t[0], 0) + 1
    return len(sorted(seen)) + len(counts)


class SpeedMeter:
    """Machine speed, sampled with the reference unit during the workload.

    Between `start` and `stop` a timer signal runs the unit every PERIOD_S
    seconds of wall time.  Samples are uniform in time, so the harmonic
    mean of their durations is the unit's time at the machine's average
    speed over an interval.  Each sample keeps its perf_counter start, so
    an operation can be scaled by the speed around it.  `clock` is
    perf_counter minus the time spent in the unit.  The garbage collector
    is off while the unit runs, so the program's live objects do not slow
    it down.
    """

    PERIOD_S = 0.01
    NEAR = 10  # fewest samples that scale one operation

    def __init__(self, reference_unit_s: float) -> None:
        self.reference_unit_s = reference_unit_s
        self.samples: list[float] = []
        self.at: list[float] = []
        self.spent = 0.0
        self._busy = False

    def tick(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _reference_unit()
            took = time.perf_counter() - start
            self.at.append(start)
            self.samples.append(took)
            self.spent += took
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now - spent

    def scale(self, lo: float, hi: float) -> float:
        """Reference seconds per measured second between perf_counter
        times lo and hi: over the samples taken then, widened to the NEAR
        samples closest to that interval (running the unit now if fewer
        have been taken)."""
        while len(self.samples) < self.NEAR:
            self.tick()
        at = self.at
        i, j = bisect.bisect_left(at, lo), bisect.bisect_right(at, hi)
        while j - i < self.NEAR:
            if j == len(at) or (i > 0 and lo - at[i - 1] < at[j] - hi):
                i -= 1
            else:
                j += 1
        return self.reference_unit_s / statistics.harmonic_mean(
            self.samples[i:j])


class Tally:
    """Operations attempted, failed and inconclusive, with latencies.

    Latencies are kept per operation (a claim, a set, a query), one sample
    per batch, in reference seconds: a batch's samples wait in `pending`,
    with the perf_counter time at which the operation ended, until `commit`
    scales each by the machine's speed around it.
    """

    def __init__(self) -> None:
        self.latencies: dict[object, list[float]] = {}
        self.pending: list[tuple[object, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.inconclusive = 0
        self.problems: list[str] = []

    def record(self, op, seconds: float, end: float | None = None) -> None:
        self.pending.append(
            (op, seconds, time.perf_counter() if end is None else end))

    def commit(self, meter: SpeedMeter) -> None:
        for op, seconds, end in self.pending:
            scale = meter.scale(end - seconds, end)
            self.latencies.setdefault(op, []).append(seconds * scale)
        self.pending = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < _PROBLEM_CAP:
            self.problems.append(problem)


def _run_cli(argv: list[str]):
    """cli.main in process; returns exit code and the parsed claim lines."""
    from atomlab import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    records = [json.loads(line) for line in buf.getvalue().splitlines()
               if line.strip()]
    return rc, [r for r in records if "claim-id" in r]


class VerifyCore:
    """`atomlab verify --suite core`; an operation is one claim."""

    def __init__(self, seed: int, spec: dict) -> None:
        self.argv = ["verify", "--suite", "core"]
        self.expected = spec["counters"]["claims"]

    def batch(self, tally: Tally, tracer, meter: SpeedMeter) -> dict:
        start = time.perf_counter()
        try:
            rc, results = _run_cli(self.argv)
        except Exception:
            problem = "verify raised: " + traceback.format_exc(limit=3)
            tally.attempted += len(self.expected)
            for _ in self.expected:
                tally.fail(problem)
            return {"exit_code": None}
        statuses = {r["claim-id"]: r["status"] for r in results}
        for claim_id in sorted(set(statuses) | set(self.expected)):
            tally.attempted += 1
            status = statuses.get(claim_id, "missing")
            if status == "inconclusive":
                tally.inconclusive += 1
            if status != "pass":
                tally.fail(f"{claim_id}: {status}")
        # Claims run one after another; place each in time by the elapsed
        # times before it, so it is scaled by the speed while it ran.
        end = start
        for r in results:
            end += r["elapsed"]
            tally.record(r["claim-id"], r["elapsed"], end)
        if rc != 0 and all(s == "pass" for s in statuses.values()):
            tally.fail(f"exit code {rc} with every claim passing")
        return {"exit_code": rc, "claims": statuses}


class MonStretch:
    """The stretch claim under its registered 1M-node default budget."""

    def __init__(self, seed: int, spec: dict) -> None:
        self.argv = ["verify", "--only", "lengths-monomial-stretch"]

    def batch(self, tally: Tally, tracer, meter: SpeedMeter) -> dict:
        tally.attempted += 1
        start = meter.clock()
        try:
            rc, results = _run_cli(self.argv)
        except Exception:
            tally.fail("verify raised: " + traceback.format_exc(limit=3))
            return {"exit_code": None}
        finally:
            tally.record("stretch", meter.clock() - start)
        status = results[0]["status"] if len(results) == 1 else "missing"
        nodes = None
        if status == "inconclusive":
            tally.inconclusive += 1
            nodes = results[0]["witness"]["budget"]["nodes"]
        want_rc = {"pass": 0, "inconclusive": 2}.get(status)
        if want_rc is None:
            tally.fail(f"stretch claim: {status}, witness "
                       f"{results[0]['witness'] if results else None}")
        elif rc != want_rc:
            tally.fail(f"stretch claim {status} with exit code {rc}")
        return {"exit_code": rc, "status": status, "engine.nodes": nodes}


class AtomTransport:
    """is_atom of A and of phi(A) for every 0-containing A inside [0,14].

    An operation is one set decided in both monoids.  One engine per monoid
    serves the whole batch; its Budget sets no limit and only counts nodes.
    """

    MAX = 14

    def __init__(self, seed: int, spec: dict) -> None:
        from atomlab.natset import NatSet
        ref = spec["reference"]
        self.atoms = int(ref["atoms_hex"], 16)
        items = []
        for mask in range(1 << self.MAX):
            items.append((mask, NatSet(
                [0] + [i + 1 for i in range(self.MAX) if mask >> i & 1])))
        random.Random(seed).shuffle(items)
        self.items = items

    def batch(self, tally: Tally, tracer, meter: SpeedMeter) -> dict:
        from atomlab import engine, monideal
        sum_budget, mon_budget = engine.Budget(), engine.Budget()
        sum_eng = engine.sumset_engine(sum_budget)
        mon_eng = engine.monomial_engine(mon_budget)
        atoms = {"sumset": 0, "monomial": 0}
        disagreements = 0
        for mask, a in self.items:
            tally.attempted += 1
            if tracer is not None:
                tracer.enter("bench.atom-transport", "bench", True)
            start = meter.clock()
            try:
                set_atom = sum_eng.is_atom(a)
                ideal_atom = mon_eng.is_atom(monideal.phi(a))
            except Exception:
                tally.fail(f"{a.to_json()}: " + traceback.format_exc(limit=3))
                continue
            finally:
                tally.record(mask, meter.clock() - start)
                if tracer is not None:
                    tracer.leave()
            atoms["sumset"] += set_atom
            atoms["monomial"] += ideal_atom
            want = bool(self.atoms >> mask & 1)
            if set_atom != ideal_atom:
                disagreements += 1
            if set_atom != want or ideal_atom != want:
                tally.fail(f"{a.to_json()}: sumset atom {set_atom}, ideal "
                           f"atom {ideal_atom}, reference {want}")
        return {"atoms.sumset": atoms["sumset"],
                "atoms.monomial": atoms["monomial"],
                "disagreements": disagreements,
                "engine.nodes.sumset": sum_budget.nodes,
                "engine.nodes.monomial": mon_budget.nodes}


# Largest factor of the sumset-lengths targets.  With maximum 5 a single
# query, [0,5]+[0,5]+[0,5], already takes over 2 s.
_FACTOR_MAX = 4


class SumsetLengths:
    """Lengths of every distinct sumset of 2 or 3 nonunit 0-sets in [0,4].

    There are 103 such sets.  The seed fixes the order in which they are
    asked; each query gets a fresh sumset_engine with a 1M-node budget, as
    the CLI does, so the work per query does not depend on the order.  The
    whole universe is asked in every batch because its cost is
    concentrated in a few sets ([0,12] alone takes about 40% of it): random
    batches of 250 draws differed in total time by 21% (interquartile
    range over 40 seeds), more than any bound on one metric can absorb.
    """

    def __init__(self, seed: int, spec: dict) -> None:
        from atomlab import natset
        from atomlab.natset import NatSet
        factors = [NatSet([0] + [i + 1 for i in range(_FACTOR_MAX)
                                 if mask >> i & 1])
                   for mask in range(1, 1 << _FACTOR_MAX)]
        targets = {}
        for k in (2, 3):
            for combo in itertools.combinations_with_replacement(factors, k):
                total = combo[0]
                for f in combo[1:]:
                    total = natset.sumset(total, f)
                targets.setdefault(total.elements, total)
        self.targets = [targets[key] for key in sorted(targets)]
        random.Random(seed).shuffle(self.targets)
        self.reference = spec["reference"]["lengths"]

    def batch(self, tally: Tally, tracer, meter: SpeedMeter) -> dict:
        from atomlab import engine
        nodes = 0
        for a in self.targets:
            tally.attempted += 1
            key = ",".join(map(str, a.elements))
            budget = engine.Budget(max_nodes=1_000_000)
            if tracer is not None:
                tracer.enter("bench.sumset-lengths", "bench", True)
            start = meter.clock()
            try:
                got = list(engine.sumset_engine(budget).lengths(a))
            except engine.SearchBudgetExceeded:
                tally.inconclusive += 1
                tally.fail(f"{{{key}}}: inconclusive")
                continue
            except Exception:
                tally.fail(f"{{{key}}}: " + traceback.format_exc(limit=3))
                continue
            finally:
                tally.record(key, meter.clock() - start)
                if tracer is not None:
                    tracer.leave()
                nodes += budget.nodes
            want = self.reference.get(key)
            if got != want:
                tally.fail(f"{{{key}}}: lengths {got}, reference {want}")
        return {"queries": len(self.targets), "engine.nodes": nodes}


WORKLOADS = {
    "verify-core": VerifyCore,
    "mon-stretch": MonStretch,
    "atom-transport": AtomTransport,
    "sumset-lengths": SumsetLengths,
}


def _percentiles(latencies: dict) -> dict:
    """Median, 95th and 99th percentile in ms, with the sample count.

    Each operation contributes its median over the run's batches, so the
    percentiles are taken across the operations of one batch and, like
    wall_s, do not follow a slow stretch of a few batches.
    """
    ms = sorted(1000.0 * statistics.median(v) for v in latencies.values())
    if len(ms) == 1:
        p50 = p95 = p99 = ms[0]
    else:
        cuts = statistics.quantiles(ms, n=100, method="inclusive")
        p50, p95, p99 = statistics.median(ms), cuts[94], cuts[98]
    return {"n": len(ms), "p50_ms": p50, "p95_ms": p95, "p99_ms": p99}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((HERE / "workloads.json").read_text())
    meter = SpeedMeter(spec["machine"]["reference_unit_s"])
    spec = dict(spec["workloads"][args.workload],
                reference=json.loads(
                    (HERE / "reference.json").read_text()).get(args.workload))

    meter.start()
    setup_began = time.perf_counter()
    start = meter.clock()
    sys.path.insert(0, str(SRC))
    import atomlab
    # Everything the batches import, so that set-up time includes it.
    from atomlab import cli, engine, monideal, natset  # noqa: F401
    if Path(atomlab.__file__).resolve().parent != SRC / "atomlab":
        print(f"atomlab imported from {atomlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    work = WORKLOADS[args.workload](args.seed, spec)
    setup_raw_s = meter.clock() - start
    setup_s = setup_raw_s * meter.scale(setup_began, time.perf_counter())
    out = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
           "setup_raw_s": setup_raw_s}
    if args.mode == "setup":
        meter.stop()
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        sys.path.insert(0, str(HERE))
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    tally = Tally()
    walls: list[float] = []
    raw_walls: list[float] = []
    scales: list[float] = []
    rounds: list[float] = []
    counters: list[dict] = []
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        start = meter.clock()
        counters.append(work.batch(tally, tracer, meter))
        raw_walls.append(meter.clock() - start)
        scales.append(meter.scale(t0, time.perf_counter()))
        walls.append(raw_walls[-1] * scales[-1])
        tally.commit(meter)
        rounds.append(time.perf_counter() - t0)
        if tracer is not None:
            break
        if time.perf_counter() - began + statistics.median(rounds) \
                > args.seconds:
            break
    meter.stop()
    out.update({
        "batches": len(walls),
        "batch_walls": walls,
        "wall_s": statistics.median(walls),
        "raw_wall_s": statistics.median(raw_walls),
        "speed_scale": statistics.median(scales),
        "ops_per_batch": tally.attempted / len(walls),
        "latency": _percentiles(tally.latencies),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "inconclusive": tally.inconclusive,
        "counters": counters[0],
        "counters_repeat": all(c == counters[0] for c in counters),
        "problems": tally.problems,
        "peak_rss_mb": _peak_rss_mb(),
    })
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
