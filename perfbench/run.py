"""Benchmark of the modlat command line tools.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

Run from the root of a checkout; the program is imported from ./src.
One worker (this process, one thread) runs the workload's ops in a
closed loop, pass after pass, until about S seconds have gone; each op
is a user command run in-process (see workloads.py) and its answer is
checked against perfbench/reference.py.  An op that runs longer than
OP_TIME_LIMIT_S is stopped by SIGALRM and counts as a failure of kind
"timeout", timed at the limit.

The first pass warms up; peak_rss_mb is read after it, before any
reference loop (below) has run, so that it is the program's high-water
mark.  wall_s is one pass: the sum of each op's median time over the
later passes.  The speed at which the host runs Python drifts by up to
1.6x within seconds on shared machines, which swamps the run-to-run
spread.  So in the later passes a fixed stdlib loop (reference_loop) is
timed before every op and after the last, each op's time is divided by
the mean of the two loop times around it, and the bounded metric
wall_ref_s is the sum of each op's median scaled time, times
REF_LOOP_S: seconds at a fixed reference speed.  wall_s, the median
loop time calib_s and the per-command times, raw (NAME_s) and scaled
(NAME_ref_s), are reported beside it.  setup_s, the time from starting
a fresh interpreter to modlat.cli imported, is scaled the same way.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds the
per-layer metrics, from untraced and traced passes in turn (tracing.py),
and the spans go to .perfbench/spans-NAME-seedN.tsv.gz.  Metric names,
units and bounds live in BENCHMARK.json.

--record appends the run's result, its times and its op times to FILE
as one JSON line; --compare reads two such files and prints, per
workload and metric, each side's median and quartiles, the ratio to the
base and whether the difference is inside the bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

OP_TIME_LIMIT_S = 30
SETUP_SAMPLES = 11
# A fixed scale for wall_ref_s, near reference_loop's time under CPython
# 3.11 on the 2.1 GHz x86-64 machine the benchmark was written on.
REF_LOOP_S = 0.07


class OpTimeout(BaseException):
    """Raised by SIGALRM inside a running op; a BaseException so that no
    `except Exception` in the program can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def import_program():
    """Import modlat from ./src of this checkout, or exit with an error."""
    if not (SRC / "modlat" / "cli.py").is_file():
        sys.exit(f"run.py: no program at {SRC / 'modlat'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import modlat

    if Path(modlat.__file__).resolve().parent != SRC / "modlat":
        sys.exit(f"run.py: imported modlat from {modlat.__file__}, not from {SRC}")


def reference_loop():
    """Fixed pure-Python work like modlat's: tuples, frozensets, a dict
    and a sort.  It never touches modlat, so its time tracks the host.
    Its dict of about 18k frozensets (8 MB) is sized so that contention
    for the host's caches slows it as it slows modlat; a loop on a dict
    a tenth that size tracked the ops' time worse."""
    rng = random.Random(7)
    counts = {}
    for i in range(20000):
        key = frozenset((rng.randrange(64), rng.randrange(64), i % 97))
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


def time_reference_loop():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def measure_setup():
    """Time from starting a fresh interpreter to modlat.cli imported:
    the median of the samples scaled like wall_ref_s (each over the mean
    of the reference-loop times around it, times REF_LOOP_S), and the
    median raw sample."""
    code = "import time, modlat.cli; print(time.monotonic())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    loop = time_reference_loop()
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        raw.append(float(proc.stdout) - start)
        next_loop = time_reference_loop()
        scaled.append(REF_LOOP_S * 2 * raw[-1] / (loop + next_loop))
        loop = next_loop
    return statistics.median(scaled), statistics.median(raw)


def run_op(op):
    """Run one op under the time limit: (seconds, failure or None, bytes written).
    The heap is collected first, untimed: a user runs each command in a
    fresh process, so one op's garbage must not cost the next op time
    or memory."""
    gc.collect()
    start = time.perf_counter()
    res = failure = None
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
        try:
            res = op.execute()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        failure = "timeout"
    except Exception as exc:  # the op failed; record it and go on with the run
        failure = f"exception {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if failure == "timeout":
        elapsed = OP_TIME_LIMIT_S
    if res is None:
        return elapsed, failure, 0
    if res.code != 0:
        failure = f"exit code {res.code}: {res.stderr.strip()[-200:]}"
    elif "Traceback" in res.stderr:
        failure = "traceback on stderr"
    else:
        wrong = op.check(res)
        failure = f"wrong answer: {wrong}" if wrong else None
    written = len(res.stdout.encode()) + sum(p.stat().st_size for p in op.written if p.exists())
    return elapsed, failure, written


class Pass:
    """Times and failures of one pass over the ops.  If `calibrate`, the
    reference loop runs before each op and after the last, and scaled[k]
    is op k's time over the mean of the two loop times around it."""

    def __init__(self, ops, tracer=None, first_op=0, calibrate=True):
        self.times, self.failures, self.written = [], [], 0
        start = time.perf_counter()
        self.loops = [time_reference_loop()] if calibrate else []
        for k, op in enumerate(ops):
            span = tracer.begin_op(first_op + k) if tracer else None
            elapsed, failure, written = run_op(op)
            if tracer:
                tracer.end_op(span)
            if calibrate:
                self.loops.append(time_reference_loop())
            self.times.append(elapsed)
            self.written += written
            if failure:
                self.failures.append((op.label, failure))
        self.wall = time.perf_counter() - start
        self.scaled = [2 * t / (a + b) for t, a, b in zip(self.times, self.loops, self.loops[1:])]


def keep_going(started, walls, seconds):
    """Another pass fits if it would end less than half a pass past the budget."""
    return time.perf_counter() - started + statistics.median(walls) / 2 < seconds


def _metric(spec_list, values):
    names = [m["name"] for m in spec_list]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_list}


def untraced(ops, seconds, spec):
    started = time.perf_counter()
    passes = [Pass(ops, calibrate=False)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(passes) < 3 or keep_going(started, [p.wall for p in passes], seconds):
        passes.append(Pass(ops))
    timed = passes[1:]
    medians = [statistics.median(p.times[k] for p in timed) for k in range(len(ops))]
    scaled = [REF_LOOP_S * statistics.median(p.scaled[k] for p in timed) for k in range(len(ops))]
    times = {"wall_s": sum(medians),
             "calib_s": statistics.median(t for p in timed for t in p.loops)}
    for op, med, ref in zip(ops, medians, scaled):
        times[f"{op.command}_s"] = times.get(f"{op.command}_s", 0.0) + med
        times[f"{op.command}_ref_s"] = times.get(f"{op.command}_ref_s", 0.0) + ref
    # After the passes, so that no reference loop runs before peak_rss_mb is read.
    setup_s, times["setup_raw_s"] = measure_setup()
    values = {
        "wall_ref_s": sum(scaled),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    report = {"passes": len(passes), "ops": dict(zip((op.label for op in ops), medians)),
              "times": times}
    return passes, _metric(spec["end_to_end"], values), report


def traced(ops, seconds, spec, spans_path):
    """Untraced and traced passes in turn, at least two of each, so that
    the counts of two traced passes can be compared; trace.overhead_ratio
    is the median traced pass over the median untraced pass, both scaled
    by their reference-loop time."""
    import tracing

    started = time.perf_counter()
    passes, plain, layer_passes, pair_walls = [], [], [], []
    while len(layer_passes) < 2 or keep_going(started, pair_walls, seconds):
        plain.append(Pass(ops))
        first_op = len(layer_passes) * len(ops)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            p = Pass(ops, tracer, first_op)
        finally:
            tracer.uninstall()
        passes += [plain[-1], p]
        labels = {first_op + k: f"traced pass {len(layer_passes) + 1}, {op.label}"
                  for k, op in enumerate(ops)}
        tracer.write_spans(spans_path, labels, first=not layer_passes)
        layer_passes.append(tracer.metrics(p.written))
        pair_walls.append(plain[-1].wall + p.wall)
    values, differ = tracing.median_metrics(layer_passes)
    values["trace.overhead_ratio"] = (statistics.median(sum(p.scaled) for p in passes[1::2])
                                      / statistics.median(sum(p.scaled) for p in plain))
    report = {"passes": len(passes), "traced_passes": len(layer_passes),
              "counts_differ": differ}
    return passes, _metric(spec["per_layer"], values), report


def run_workload(args, spec):
    import_program()
    import workloads

    signal.signal(signal.SIGALRM, _on_alarm)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            passes, metrics, report = traced(ops, args.seconds, spec, spans)
        else:
            passes, metrics, report = untraced(ops, args.seconds, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    correct = not failures and not report.get("counts_differ")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{report['passes']} passes of {len(ops)} ops, op time limit {OP_TIME_LIMIT_S} s")
    for k, op in enumerate(ops):
        times = " ".join(f"{p.times[k]:.4f}" for p in passes)
        print(f"  {op.label:34s} {times}")
    for label, kind in failures:
        print(f"  FAILED {label}: {kind}")
    if report.get("counts_differ"):
        print(f"  counts differ between traced passes: {report['counts_differ']}")
    attempted = sum(len(p.times) for p in passes)
    for name, value in report.get("times", {}).items():
        print(f"  {name:34s} {value:.4f} s")
    print(f"  {'ops':34s} {attempted} count")
    print(f"  {'fail_ratio':34s} {len(failures) / attempted:.4g} ratio")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "failures": failures, **report, "result": result}
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


# -- compare ----------------------------------------------------------------


def _load_records(path):
    by_workload = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == 0:
                by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def _values(records, name):
    """The metric's value in each record: an end-to-end metric or one of
    the times reported beside them."""
    out = []
    for rec in records:
        metric = rec["result"]["metrics"].get(name)
        if metric:
            out.append(metric["value"])
        elif name in rec["times"]:
            out.append(rec["times"][name])
    return out


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def _verdict(metric, base, new):
    """Whether the new median is worse than the base median by no more
    than the bound; unresolved when the base runs spread wider than the
    bound, unless every new run beats every base run."""
    bound = metric.get("bound")
    if bound is None:
        return "no bound"
    sign = 1 if metric["better"] == "lower" else -1
    bq1, bmed, bq3 = _quartiles(base)
    worse = sign * (statistics.median(new) - bmed) / bmed
    if (bq3 - bq1) / bmed > bound and not sign * max(new) < sign * min(base):
        return f"unresolved (base spread {(bq3 - bq1) / bmed:.3f} > bound {bound})"
    return f"{'yes' if worse <= bound else 'NO'} (bound {bound})"


def compare(base_path, new_path, spec):
    """Print, for each workload and metric, base and new median [q1, q3],
    their ratio and whether the new median is inside the bound.  The raw
    times and the per-command times, raw and scaled, follow the
    end-to-end metrics; they have no bound.  The last row is failed /
    attempted ops over all runs of each side."""
    base, new = _load_records(base_path), _load_records(new_path)
    print(f"{'workload':16s} {'metric':20s} {'base median [q1, q3] (runs)':>32s} "
          f"{'new median [q1, q3] (runs)':>32s} {'new/base':>9s}  inside bound")
    for workload in sorted(set(base) & set(new)):
        times = sorted({t for rec in base[workload] + new[workload] for t in rec["times"]})
        for m in spec["end_to_end"] + [{"name": t} for t in times]:
            b, n = _values(base[workload], m["name"]), _values(new[workload], m["name"])
            if not b or not n:
                continue
            cells = []
            for values in (b, n):
                q1, med, q3 = _quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({len(values)})")
            ratio = statistics.median(n) / statistics.median(b)
            print(f"{workload:16s} {m['name']:20s} {cells[0]:>32s} {cells[1]:>32s} "
                  f"{ratio:9.3f}  {_verdict(m, b, n)}")
        fails = [sum(r["result"]["failed"] for r in recs) / sum(r["result"]["attempted"] for r in recs)
                 for recs in (base[workload], new[workload])]
        print(f"{workload:16s} {'fail_ratio':20s} {fails[0]:32.4g} {fails[1]:32.4g} {'':9s}  "
              f"{'yes' if fails[1] <= fails[0] else 'NO'} (no more failures)")
    return 0


def main(argv=None):
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the run as one JSON line to this file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="compare two --record files")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if not args.workload:
        p.error("--workload is required unless --compare is given")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
