"""Benchmark of the sturmian package: four seeded closed-loop workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload fibre-sweep --seed 1 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

`all` runs the four workloads of benchmarks/workloads.json one after the
other; BENCHMARK.json lists the two whose figures are steady enough to gate
a change (deciders, cli-mix); the note of each other workload in
workloads.json says why it is left out.

One client in one process, no threads, one op in flight at a time; cli-mix
runs one subprocess at a time.  A run is a fixed number of whole passes,
--seconds over the workload's nominal pass time (`pass_s` in
workloads.json); a pass is the workload's op set, each pass with the same
make-up and fresh seeded values.  So (seed, seconds) alone decide what is
timed, and a faster or slower host changes how long the run takes, not what
it measures.  Before each pass, set-up imports the package afresh from
./src and builds the pass's seeded inputs; setup_s is the median of these
and of SETUP_REPS more set-ups before the first pass.  Every op is checked
against the independent oracle outside the timed interval.  With --trace 0
the last line carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics, taken from spans around the benchmark's
own calls into the package; there the passes alternate untraced and traced
over the same inputs, for the tracing overhead.  Spans and a record of each
run go to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

from spans import Tracer
from workloads import WORKLOADS, ExitCodeError, StepBudgetError, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
IMPORT_REPS = 5
SETUP_REPS = 5
MIN_PASSES = 3
RSS_AFTER_PASSES = 2
DEADLINE_S = 150  # on a host far slower than nominal, no pass starts after this
TAIL_BEYOND = 10  # op_tail_ms is the highest whole percentile with this many ops beyond it


def cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


def commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup(workload, seed, s, tr, i):
    """Import the package afresh and build the inputs of a pass.

    Every pass starts from a fresh import, as a new process would, so no
    pass finds the package's caches filled by an earlier one."""
    for name in [m for m in sys.modules if m == "sturmian" or m.startswith("sturmian.")]:
        del sys.modules[name]
    gc.collect()  # drop the previous import and its caches before timing
    t0 = perf_counter()
    lib = importlib.import_module("sturmian")
    if Path(lib.__file__).resolve().parent != SRC / "sturmian":
        raise ImportError(f"sturmian was imported from {lib.__file__}, not from {SRC}")
    ops = workload.pass_inputs(seed, s, lib, tr, i)
    return lib, ops, perf_counter() - t0


def prepare(workload, ops, lib):
    """The workload's own untimed work on a pass's inputs, if it has any."""
    if hasattr(workload, "prepare"):
        workload.prepare(ops, lib)


def failure_kind(lib, err: Exception) -> str:
    if isinstance(err, lib.BudgetExceededError):
        return "budget"
    if isinstance(err, ExitCodeError):
        return "exit_code"
    if isinstance(err, StepBudgetError):
        return "step_budget"
    return "raised"


def pass_count(seconds, trace, s) -> int:
    """Passes of a run: as many as fill `seconds` at the nominal pass time,
    at least MIN_PASSES; an even number with --trace 1."""
    n = max(MIN_PASSES, round(seconds / s["pass_s"]))
    return n + n % 2 if trace else n


def measure(workload, seed, seconds, trace, s, tr) -> dict:
    """pass_count() whole passes.

    In trace mode passes alternate untraced and traced, two passes per
    inputs, each from a fresh import."""
    rec = {"walls": [], "cpus": [], "traced_walls": [], "latency": [], "labels": [], "setup": [],
           "attempted": 0, "failures": Counter(), "messages": [], "rss_kb": None}
    who = resource.RUSAGE_CHILDREN if getattr(workload, "children", False) else resource.RUSAGE_SELF
    start = perf_counter()
    for _ in range(SETUP_REPS):
        lib, ops, setup_s = setup(workload, seed, s, tr, 0)
        rec["setup"].append(setup_s)
    # an untimed, unchecked run of a third of pass 0's ops lets the process
    # warm up (allocator, first-use code paths) before anything is measured
    warm = ops[: max(1, len(ops) // 3)]
    prepare(workload, warm, lib)
    for op in warm:
        try:
            workload.run(op, lib, tr)
        except Exception:  # the op runs again below, where failures count
            pass
    passes = pass_count(seconds, trace, s)
    i = 0
    while i < passes and (perf_counter() - start < DEADLINE_S or (trace and i % 2)):
        traced = trace and i % 2 == 1
        tr.enabled = traced
        lib, ops, setup_s = setup(workload, seed, s, tr, i // 2 if trace else i)
        rec["setup"].append(setup_s)
        prepare(workload, ops, lib)
        done = []
        cpu0, t0 = cpu_seconds(), perf_counter()
        for j, op in enumerate(ops):
            t_op = perf_counter()
            try:
                with tr.span("op", op=f"{i}/{j}"):
                    result, err = workload.run(op, lib, tr), None
            except Exception as e:  # a failing op is counted, the run goes on
                result, err = None, e
            if not traced:
                rec["latency"].append(perf_counter() - t_op)
                rec["labels"].append(op.label())
            done.append((op, result, err))
        wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
        tr.enabled = False
        (rec["traced_walls"] if traced else rec["walls"]).append(wall)
        if not traced:
            rec["cpus"].append(cpu)
        for op, result, err in done:
            rec["attempted"] += 1
            if err is not None:
                kind, why = failure_kind(lib, err), f"{type(err).__name__}: {err}"
            else:
                kind, why = "wrong_answer", workload.check(op, result, lib)
            if why:
                rec["failures"][kind] += 1
                if len(rec["messages"]) < 5:
                    rec["messages"].append(f"{kind}: {op.spec.get('argv') or op.spec.get('alpha')}: {why}")
        i += 1
        if i == RSS_AFTER_PASSES:
            rec["rss_kb"] = resource.getrusage(who).ru_maxrss
    rec["passes"] = i
    if i < passes:
        print(f"# stopped after {i} of {passes} passes: past the {DEADLINE_S} s deadline")
    if rec["rss_kb"] is None:
        rec["rss_kb"] = resource.getrusage(who).ru_maxrss
    return rec


def import_seconds() -> float:
    """Median wall time of a bare `import sturmian` process."""
    env, times = child_env(SRC), []
    for _ in range(IMPORT_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import sturmian"], env=env, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def tail_percentile(n: int) -> int:
    """The highest whole percentile of n ops with TAIL_BEYOND ops beyond it."""
    return max((p for p in range(1, 100) if n - math.ceil(p / 100 * n) >= TAIL_BEYOND), default=50)


def end_to_end(rec) -> tuple[dict, dict]:
    lat = sorted(rec["latency"])
    pct = tail_percentile(len(lat))
    rank = math.ceil(pct / 100 * len(lat))
    tail = {"percentile": pct, "samples": len(lat), "beyond": len(lat) - rank}
    return {
        "setup_s": statistics.median(rec["setup"]),
        "wall_s": statistics.median(rec["walls"]),
        "cpu_s": statistics.median(rec["cpus"]),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[rank - 1] * 1e3,
        "peak_rss_mb": rec["rss_kb"] / 1024,
    }, tail


def per_layer(names, rec, tr, workload_name) -> dict:
    stats = tr.layer_stats()
    traced = len(rec["traced_walls"])
    out = {}
    for name in names:
        if name == "trace.overhead_share":
            out[name] = statistics.median(t / u - 1 for t, u in zip(rec["traced_walls"], rec["walls"]))
        elif name == "cli.import.busy_s":
            out[name] = import_seconds() if workload_name == "cli-mix" else 0.0
        else:
            out[name] = tr.metric(name, traced, stats)
    return out


def run_workload(name, seed, seconds, trace, settings, bench) -> int:
    s = settings[name]
    workload = WORKLOADS[name]()
    tr = Tracer()
    rec = measure(workload, seed, seconds, trace, s, tr)
    failed = sum(rec["failures"].values())
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit(),
            "src_sha256": source_digest(), "passes": rec["passes"]}
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    if trace:
        values = per_layer([m["name"] for m in bench["per_layer"]], rec, tr, name)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values, tail = end_to_end(rec)
        info["op_tail"] = tail
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k, m in metrics.items():
        print(f"{name:<17} {k:<45} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        print(f"{name:<17} {'op_tail_ms is p' + str(tail['percentile']):<45} "
              f"{tail['samples']} ops, {tail['beyond']} beyond it")
    share = failed / rec["attempted"]
    print(f"{name:<17} {'fail_share':<45} {share:>14.6g} share ({failed} of {rec['attempted']} ops: "
          + (", ".join(f"{k}={v}" for k, v in sorted(rec["failures"].items())) or "none") + ")")
    if "cf_value_budget_steps" in s:
        print(f"# cf_value budget {s['cf_value_budget_steps']} trace events: "
              f"{rec['failures']['step_budget']} ops over it")
    known = settings["known_defects"].get(name)
    if known and failed:
        print(f"# known defect: {known}")
    for msg in rec["messages"]:
        print(f"# failure: {msg}")
    result = {"correct": rec["failures"]["wrong_answer"] == 0, "attempted": rec["attempted"],
              "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = dict(info, result=result, fail_share=share, failures=dict(rec["failures"]),
                  messages=rec["messages"], pass_walls=rec["walls"], traced_pass_walls=rec["traced_walls"],
                  op_latencies_ms=[[k, t * 1e3] for k, t in zip(rec["labels"], rec["latency"])],
                  setup_times=rec["setup"], settings=s, known_defect=known)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        tr.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other, then a summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sturmian" / "__init__.py").is_file():
        print(f"error: the package source {SRC / 'sturmian'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    settings = json.loads((HERE / "workloads.json").read_text())
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), settings, bench)


if __name__ == "__main__":
    sys.exit(main())
