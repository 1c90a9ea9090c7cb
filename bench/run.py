"""squeezecert benchmark: one workload per invocation, closed loop, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out RUNS.jsonl]
    python3 bench/run.py --summary RUNS.jsonl
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl
    python3 bench/run.py --write-config

A run builds the package from ``src/`` of the checkout it sits in, measures
set-up in fresh processes, runs one untimed tiny round to finish lazy
set-up, then runs the whole rounds (every fixture once; twice for
cconvex_images) that fill S seconds at the workload's nominal round time.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
wraps the public functions of every package module and reports per-layer
metrics per op.
The last line of standard output is the result as one JSON object.

Times in the end-to-end metrics are read at a fixed machine speed: each op's
(and each set-up process's) wall time is multiplied by REF_SECONDS over the
time a fixed reference kernel took right before and after it.  On a shared
host the speed of a core drifts by tens of percent between runs, which the
raw times carry and the scaled ones mostly cancel.  The raw wall figures
are printed and kept in the ``--out`` record beside them.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: every workload is a single-threaded closed loop.  Set before
# numpy is imported, here and in the set-up processes.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_CAPS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

_SETUP_CHILD = """
import sys
src, bench, name, seed, workdir = sys.argv[1:6]
sys.path[:0] = [src, bench]
import workloads
workloads.WORKLOADS[name](int(seed), workdir)
"""

if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402  (after the thread caps)


class SourceMissing(RuntimeError):
    pass


def import_package():
    """Import squeezecert from this checkout's src/, never from site-packages."""
    if not (SRC / "squeezecert" / "__init__.py").is_file():
        raise SourceMissing(f"no squeezecert sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import squeezecert
    if Path(squeezecert.__file__).resolve().parent != (SRC / "squeezecert").resolve():
        raise SourceMissing(f"squeezecert imported from {squeezecert.__file__}, not {SRC}")
    return squeezecert


def environment(seed):
    import numpy
    import scipy
    import sympy
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_rev = "unknown"
    return {
        "git_rev": git_rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "cores": os.cpu_count(),
        "seed": seed,
        "thread_caps": dict(THREAD_CAPS),
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
    }


def measure_setup(name, seed, workdir):
    """Medians of the scaled and the raw wall time of fresh processes that
    import squeezecert and build the workload's inputs."""
    from workloads import REF_SECONDS, reference_time

    raw, scaled = [], []
    before = reference_time()
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR), name, str(seed),
             str(workdir / f"setup{k}")],
            check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        after = reference_time()
        scaled.append(raw[-1] * REF_SECONDS / (0.5 * (before + after)))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def measure(work, seconds, traced):
    """Run `work` for whole rounds; returns (recorder, timed wall seconds, tracer)."""
    import workloads
    from tracing import Tracer

    tracer = Tracer() if traced else None
    rec = workloads.Recorder(tracer=tracer)
    if tracer is None:
        return rec, workloads.run_rounds(work, seconds, rec), None
    with tracer:
        return rec, workloads.run_rounds(work, seconds, rec), tracer


def collect(rec, setup_s, tracer):
    """End-to-end metrics, and with a tracer the per-layer metrics instead.

    Times are the scaled ones; ops_per_s counts ops per second of op time.
    """
    from tracing import layer_metrics

    lat = rec.scaled
    tail_s, tail_pct = metrics.tail(lat)
    e2e = {
        "setup_s": setup_s,
        "ops_per_s": rec.attempted / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "ok_ratio": (rec.attempted - rec.failed) / rec.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is None:
        return e2e, tail_pct
    values = layer_metrics(tracer.spans, rec.attempted, sum(rec.latencies))
    values["trace.ops_per_s"] = e2e["ops_per_s"]
    return values, tail_pct


def result_line(rec, values):
    """The last line of a run: correctness, op counts and the metrics."""
    return {
        "correct": not any(f.startswith("check:") for f in rec.failures),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": metrics.unit_of(k)} for k, v in values.items()},
    }


def run_workload(name, seed, seconds, traced, workdir):
    """One measured run; returns (result line, record for --out, spans)."""
    import workloads

    setup_s, setup_raw = measure_setup(name, seed, workdir)
    build = workloads.WORKLOADS[name]
    workloads.run_rounds(build(seed, workdir / "warmup", tiny=True), 0.0, workloads.Recorder())
    work = build(seed, workdir / "run")
    rec, wall, tracer = measure(work, seconds, traced)
    values, tail_pct = collect(rec, setup_s, tracer)
    raw = rec.latencies
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "env": environment(seed), "inputs": work.inputs, "wall_s": wall, "ops": rec.attempted,
        "op_tail_pct": tail_pct, "fail_ratio": rec.failed / rec.attempted,
        "failures": dict(rec.failures), "failed_ops": rec.failed_ops, "metrics": values,
        "raw": {"setup_s": setup_raw, "ops_per_s": rec.attempted / sum(raw),
                "op_p50_s": statistics.median(raw), "op_tail_s": metrics.tail(raw)[0]},
        "op_latencies": list(zip(rec.labels, raw, rec.ref_times)),
    }
    return result_line(rec, values), record, (tracer.spans if tracer else [])


def write_spans(path, spans):
    """One JSON object per span: name, start, end, parent span, op id, self time, counts."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, name, start, end, parent, op, own, counts in spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": op, "self_s": own,
                                 "counts": counts}) + "\n")


def print_run(record):
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['ops']} ops in {record['wall_s']:.2f} s")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"fail_ratio {record['fail_ratio']:.4f} ({len(record['failed_ops'])} of "
          f"{record['ops']}) by class {json.dumps(record['failures'], sort_keys=True)}")
    for label, failure in record["failed_ops"]:
        print(f"  failed op {label}: {failure}")
    print(f"op_tail_s is percentile {record['op_tail_pct']:.1f} of {record['ops']} ops; "
          f"op_p50_s is over {record['ops']} ops")
    for key, value in record["metrics"].items():
        raw = record["raw"].get(key) if record["trace"] == 0 else None
        print(f"  {key} = {value:.6g} {metrics.unit_of(key)}"
              + (f"  (raw wall: {raw:.6g})" if raw is not None else ""))


# -- summary and comparison of recorded runs ------------------------------------------------


def load_runs(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _group(runs, traced):
    out = {}
    for r in runs:
        if r["trace"] == traced:
            out.setdefault(r["workload"], []).append(r)
    return out


def summary(paths):
    runs = [r for p in paths for r in load_runs(p)]
    plain, traced = _group(runs, 0), _group(runs, 1)
    for name in metrics.WORKLOADS:
        if name not in plain and name not in traced:
            continue
        print(f"== {name}")
        for key, unit, _better, bound in metrics.END_TO_END:
            values = [r["metrics"][key] for r in plain.get(name, [])]
            if not values:
                continue
            q1, med, q3 = metrics.quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            raw = [r["raw"][key] for r in plain[name] if key in r.get("raw", {})]
            raw_spread = ""
            if len(raw) == len(values):
                r1, rmed, r3 = metrics.quartiles(raw)
                raw_spread = f"  (raw wall: median {rmed:.6g}, spread {(r3 - r1) / rmed:.3f})"
            print(f"  {key:14s} median {med:.6g} {unit}  quartiles [{q1:.6g}, {q3:.6g}]  "
                  f"spread {spread:.3f} (bound {bound}) over {len(values)} runs{raw_spread}")
        if name in plain and name in traced:
            untraced = statistics.median(r["metrics"]["ops_per_s"] for r in plain[name])
            with_trace = statistics.median(r["metrics"]["trace.ops_per_s"] for r in traced[name])
            print(f"  tracing overhead: {untraced:.4g} ops/s untraced, {with_trace:.4g} traced, "
                  f"{untraced / with_trace - 1.0:+.1%} time per op")
        by_seed = {}
        for r in traced.get(name, []):
            by_seed.setdefault(r["seed"], []).append(r["metrics"])
        for seed, runs in sorted(by_seed.items()):
            counts = [k for k, unit in ((k, metrics.unit_of(k)) for k in runs[0])
                      if unit.startswith(("count/", "points/"))]
            differ = [k for k in counts if len({m[k] for m in runs}) > 1]
            print(f"  traced seed {seed}: {len(counts)} counts over {len(runs)} runs, "
                  + (f"differing: {differ}" if differ else "all repeat exactly"))
    return 0


def compare(parent_path, change_path):
    parent, change = _group(load_runs(parent_path), 0), _group(load_runs(change_path), 0)
    regressed = False
    for name in metrics.WORKLOADS:
        by_seed = {r["seed"]: r for r in change.get(name, [])}
        pairs = [(p, by_seed[p["seed"]]) for p in parent.get(name, []) if p["seed"] in by_seed]
        if not pairs:
            continue
        print(f"== {name}: {len(pairs)} pairs of runs with the same seed")
        for key, unit, better, bound in metrics.END_TO_END:
            pv = [p["metrics"][key] for p, _ in pairs]
            cv = [c["metrics"][key] for _, c in pairs]
            result, share = metrics.verdict(pv, cv, better, bound)
            p1, pm, p3 = metrics.quartiles(pv)
            c1, cm, c3 = metrics.quartiles(cv)
            print(f"  {key:14s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
                  f"[{c1:.6g}, {c3:.6g}] {unit}  won {share:.0%}  {result}")
            regressed = regressed or result == "regressed"
    return 1 if regressed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's record to a JSONL file")
    parser.add_argument("--spans", help="with --trace 1, write the spans to a JSONL file")
    parser.add_argument("--summary", nargs="+", metavar="RUNS")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--write-config", action="store_true",
                        help="write BENCHMARK.json from the metric tables")
    args = parser.parse_args(argv)

    if args.write_config:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(metrics.benchmark_config(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.summary:
        return summary(args.summary)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    try:
        import_package()
    except (SourceMissing, ImportError) as exc:
        print(f"bench: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result, record, spans = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print_run(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    if args.spans and spans:
        write_spans(args.spans, spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
