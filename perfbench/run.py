"""Benchmark of the normal7 library: one closed-loop caller, checked outputs.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from any directory; the library is imported from ``src/`` next to this
directory, never from an installed copy.  A run sets the workload up (import
plus input generation, timed several times in fresh processes), warms up on
one small operation, then runs rounds of operations back to back, each call
starting when the previous returns, and starts no round that the previous
round's length says would end past ``--seconds``.  Each output is checked
outside the timed region.  Gated times are at reference pace: each is
scaled by the speed of a fixed job run between the calls (see ``pace.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates traced
and untraced rounds over the same inputs and prints the per-layer metrics,
the tracing overhead among them, and writes the spans to ``.perfbench/``.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
WORKLOADS = ("census", "bridgeless_sweep", "structured")
SETUP_PROBES = 4  # fresh-process set-ups per run, besides the run's own
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10  # samples a tail percentile needs above it
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "largest_n_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PACE_SHARE = 0.1  # pace job time before each call, as a share of the previous call
PACE_SETUP_S = 0.05  # pace job time after each set-up


class Sample(NamedTuple):
    op: object
    seconds: float  # call time at reference pace (see pace.py)
    raw_s: float  # call time on the wall clock
    problem: Optional[str]  # why the output is wrong, or None


def fail(message: str, code: int = 2) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def import_path() -> None:
    """Make ``perfbench`` and the library in ``src/`` importable."""
    if not (SRC / "normal7" / "__init__.py").is_file():
        fail(f"library sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]


def set_up(workload: str, seed: int):
    """Import the library and build the inputs; return (workload, seconds)."""
    start = time.perf_counter()
    from perfbench import workloads

    w = workloads.build(workload, seed, ROOT)
    return w, time.perf_counter() - start


def setup_seconds(w, own_s: float, seed: int, pace) -> Tuple[float, float]:
    """Median set-up seconds, at reference pace and on the wall clock, over
    this run's set-up and fresh processes' ones; each must build the same
    inputs as this one.  Each is scaled by the pace measured right after it."""
    from perfbench import workloads

    want = workloads.digest(w)
    times = [own_s]
    scaled = [own_s * pace.sample(PACE_SETUP_S)]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", w.name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}", 1)
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        if got["digest"] != want:
            fail("set-up probe built different inputs from the same seed", 1)
        times.append(got["setup_s"])
        scaled.append(got["setup_s"] * pace.sample(PACE_SETUP_S))
    return statistics.median(scaled), statistics.median(times)


# -- the closed loop -------------------------------------------------------------


def run_round(ops: Sequence, rec=None, pace=None) -> List[Sample]:
    """Run each operation once, timing the call alone; check it afterwards
    with the recorder off, so checks never count as work.  The pace job runs
    before each call, outside its timing and outside any span."""
    from perfbench import spans, workloads
    from perfbench.pace import Pace

    pace = pace or Pace()
    gc.collect()
    timed = []
    last = 0.0
    for op in ops:
        pace.sample(PACE_SHARE * last)
        problem = None
        result = None
        if rec is not None:
            rec.op += 1
            rec.enabled = True
            idx = rec.open(spans.OP_SPAN)
        start = time.perf_counter()
        try:
            result = workloads.call(op)
        except Exception as exc:  # a failed operation is counted, not raised
            problem = f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - start
        if rec is not None:
            rec.close(idx)
            rec.enabled = False
        if problem is None:
            try:
                problem = workloads.check(op, result)
            except Exception as exc:  # a malformed output fails its check
                problem = f"check raised {type(exc).__name__}: {exc}"
        timed.append((op, start, took, problem))
        last = took
    pace.sample()  # so the last call has a sample after it too
    return [Sample(op, took * pace.scale(start, start + took), took, problem)
            for op, start, took, problem in timed]


def measure(w, seconds: float, rec=None) -> Tuple[List[List[Sample]], List[List[Sample]]]:
    """(untraced rounds, traced rounds).  With a recorder, traced and
    untraced rounds alternate in pairs over the same input set, and at least
    one of each runs."""
    from perfbench.pace import Pace

    pace = Pace()
    plain: List[List[Sample]] = []
    traced: List[List[Sample]] = []
    began = time.perf_counter()
    last = 0.0
    r = 0
    while True:
        must_run = r == 0 or (rec is not None and r == 1)
        if not must_run and time.perf_counter() - began + last > seconds:
            break
        with_trace = rec is not None and r % 2 == 0
        ops = w.rounds[(r // 2 if rec is not None else r) % len(w.rounds)]
        start = time.perf_counter()
        (traced if with_trace else plain).append(run_round(ops, rec if with_trace else None, pace))
        last = time.perf_counter() - start
        r += 1
    return plain, traced


# -- statistics ------------------------------------------------------------------


def percentile(xs: Sequence[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(xs)
    pos = p / 100 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(count: int) -> Optional[float]:
    """Highest listed percentile with at least TAIL_BEYOND of ``count``
    samples above it, or None."""
    for p in TAIL_PERCENTILES:
        if count * (1 - p / 100) >= TAIL_BEYOND:
            return p
    return None


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def ops_per_s(rounds: List[List[Sample]]) -> float:
    """Median over rounds of checked operations per second of call time."""
    return statistics.median(
        sum(1 for s in r if s.problem is None) / sum(s.seconds for s in r) for r in rounds
    )


def end_to_end(w, rounds: List[List[Sample]], setup: Tuple[float, float]) -> Tuple[Dict[str, float], List[str]]:
    """(gated metrics, report lines for every end-to-end metric).  Times are
    at reference pace; the report gives the wall-clock figure beside each."""
    samples = [s for r in rounds for s in r]
    times = [s.seconds for s in samples]
    failed = sum(1 for s in samples if s.problem is not None)
    largest = [s for s in samples if s.op.label == w.largest]
    setup_s, setup_wall_s = setup
    metrics = {
        "ops_per_s": ops_per_s(rounds),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "largest_n_ms": statistics.median(s.seconds for s in largest) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_rounds = [[s._replace(seconds=s.raw_s) for s in r] for r in rounds]
    lines = [
        f"ops_per_s = {metrics['ops_per_s']:.6g} 1/s (median over rounds of checked operations per second "
        f"of call time; wall clock {ops_per_s(wall_rounds):.6g})",
        f"latency_p50_ms = {metrics['latency_p50_ms']:.6g} ms (median of {len(times)} operations; "
        f"wall clock {statistics.median(s.raw_s for s in samples) * 1e3:.6g})",
    ]
    per_round = min(len(r) for r in rounds)
    p = tail_percentile(per_round)
    if p is None:
        lines.append(f"latency_tail_ms: omitted (a round has {per_round} operations; "
                     f"no percentile above the median has {TAIL_BEYOND} beyond it)")
    else:
        tail = statistics.median(percentile([s.seconds for s in r], p) for r in rounds) * 1e3
        lines.append(f"latency_tail_ms = {tail:.6g} ms (p{p:g} of {per_round} operations per round, "
                     f"median of {len(rounds)} rounds; {len(times)} samples)")
    lines.append(f"largest_n_ms = {metrics['largest_n_ms']:.6g} ms ({w.largest}, {len(largest)} samples; "
                 f"wall clock {statistics.median(s.raw_s for s in largest) * 1e3:.6g})")
    if w.ladder:
        ns, ts = [], []
        for label in w.ladder:
            ns.append(statistics.median(s.op.size for s in samples if s.op.label == label))
            ts.append(statistics.median(s.seconds for s in samples if s.op.label == label))
        steps = ", ".join(f"n={n:g}: {t * 1e3:.1f} ms" for n, t in zip(ns, ts))
        lines.append(f"time_exponent = {slope(ns, ts):.4f} (log-log slope over {steps})")
    else:
        lines.append("time_exponent: omitted (no size ladder in this workload)")
    lines.append(f"failed_frac = {failed / len(samples):.6g} ({failed} of {len(samples)} operations)")
    lines.append(f"setup_s = {setup_s:.6g} s (median of {SETUP_PROBES + 1} set-ups; wall clock {setup_wall_s:.6g})")
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB")
    return metrics, lines


def per_layer(rec, plain: List[List[Sample]], traced: List[List[Sample]]) -> Dict[str, float]:
    from perfbench import spans

    metrics = spans.layer_metrics(rec, len(traced))
    metrics["trace.ops_per_s_traced"] = ops_per_s(traced)
    metrics["trace.ops_per_s_untraced"] = ops_per_s(plain)
    metrics["trace.overhead_ratio"] = metrics["trace.ops_per_s_untraced"] / metrics["trace.ops_per_s_traced"]
    return metrics


# -- entry points ----------------------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    w, own_s = set_up(args.workload, args.seed)  # the run's first library import
    from perfbench import spans, workloads
    from perfbench.pace import Pace

    setup = setup_seconds(w, own_s, args.seed, Pace())
    print(f"workload {w.name}, seed {args.seed}, {args.seconds} s, trace {args.trace}; "
          "closed loop, one caller")
    print(f"input digest {workloads.digest(w)} ({len(w.rounds)} input sets, "
          f"{len(w.rounds[0])} operations per round)")
    warm = min((op for op in w.rounds[0] if op.kind != "claim"), key=lambda op: op.size)
    try:
        workloads.call(warm)
    except Exception:  # the measured rounds count this operation's failure
        pass
    # the inputs live for the whole run: keep them out of the collector's
    # scans, so op timings do not grow with the number of inputs held
    gc.collect()
    gc.freeze()

    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
    plain, traced = measure(w, args.seconds, rec)
    samples = [s for r in plain + traced for s in r]
    problems = [(s.op.label, s.problem) for s in samples if s.problem is not None]
    for label, p in problems[:20]:
        print(f"FAILED {label}: {p}")
    print(f"rounds: {len(plain)} untraced, {len(traced)} traced; {len(samples)} operations; "
          "call seconds per round (wall clock): " + ", ".join(f"{sum(s.raw_s for s in r):.3f}" for r in plain + traced))

    if rec is None:
        metrics, lines = end_to_end(w, plain, setup)
        units = END_TO_END_UNITS
        for line in lines:
            print(line)
    else:
        metrics = per_layer(rec, plain, traced)
        units = {name: spans.unit_of(name) for name in metrics}
        for name in spans.per_layer_names():
            print(f"{name} = {metrics[name]:.6g} {units[name]}")
        out = SPAN_DIR / f"spans-{w.name}-seed{args.seed}.json"
        rec.write(out)
        print(f"spans written to {out.relative_to(ROOT)} ({len(rec.spans)} spans)")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples),
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} failed: {proc.stderr.strip()}", 1)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    import_path()
    if args.setup_probe:
        w, took = set_up(args.workload, args.seed)
        from perfbench import workloads

        print(json.dumps({"setup_s": took, "digest": workloads.digest(w)}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
