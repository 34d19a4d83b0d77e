"""switchgame benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The workload runs its units of work (a scenario run, an instance, a ladder)
over inputs generated from --seed in a closed loop, in this process, until
--seconds have elapsed and at least one whole pass is done, and checks every
output.  With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics: ``*_ref`` is an operation's median
cost over the run, its wall time in units of a fixed reference computation
timed before, during and after it (see ``timed_cost`` in workloads.py), and
set-up time is a median of wall times.  With
--trace 1 one more pass runs with every public function of the package
wrapped in a span, and the last line carries the per-layer metrics of that
traced pass instead; the spans are written to .bench_out/.  The metric
names and units are those listed in BENCHMARK.json.

The package is imported from src/ of the checkout this script lives in.  The
exit code is 0 when every operation passed its checks, 1 when any failed,
and 2 when the benchmark cannot run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKERS_ENV = "SWITCHGAME_WORKERS"
# import time is sampled this many times before and again after the measured
# loop: the machine's speed drifts over tens of seconds, and a median over
# both ends of the run depends less on the moment the run started
IMPORT_SAMPLES = 3
IMPORT_SNIPPET = ("import time; t0 = time.perf_counter(); import switchgame; "
                  "print(time.perf_counter() - t0)")

class SetupError(Exception):
    """The benchmark cannot run in this directory or with these arguments."""


def metric_units(kind):
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0))


def prepare_environment():
    """Cap BLAS/OpenMP threads at nproc and clear the package's worker knob,
    before numpy is first imported; make src/ the package's only source."""
    if not (SRC / "switchgame" / "__init__.py").is_file():
        raise SetupError(f"no switchgame package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())
    os.environ.pop(WORKERS_ENV, None)
    sys.path.insert(0, str(SRC))
    import switchgame
    if Path(switchgame.__file__).resolve().parent != SRC / "switchgame":
        raise SetupError(f"imported switchgame from {switchgame.__file__}, not {SRC}")


def import_seconds():
    """Package import time, measured in fresh interpreters; one per sample."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip()))
    return samples


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def last_level_cache_bytes():
    best_level, size = -1, None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, text = _read(index / "level"), _read(index / "size")
        if level is None or text is None:
            continue
        text = text.strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        value = int(text.rstrip("KMG")) * scale
        if int(level) > best_level:
            best_level, size = int(level), value
    return size


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def environment(workload):
    import numpy as np
    llc = last_level_cache_bytes()
    largest = workload.largest_array_bytes
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        WORKERS_ENV: os.environ.get(WORKERS_ENV, "unset"),
        "llc_bytes": llc,
        "largest_array_bytes_computed": largest,
        "bandwidth_note": (
            "no array reaches four times the last-level cache, so no workload is a "
            "bandwidth measurement" if llc is not None and largest < 4 * llc
            else "last-level cache size unknown or exceeded; see largest_array_bytes_computed"
        ),
    }


def run_loop(workload, rec, seconds):
    """Run the workload's units in a closed loop until `seconds` have elapsed
    and at least one whole pass is done; returns each whole pass's wall time."""
    units = workload.units(rec)
    walls = []
    start = perf_counter()
    for i in itertools.count():
        if i % len(units) == 0:
            t_pass = perf_counter()
        units[i % len(units)]()
        if (i + 1) % len(units) == 0:
            walls.append(perf_counter() - t_pass)
        if walls and perf_counter() - start >= seconds:
            return walls


def end_to_end_metrics(workload, rec, imports, units):
    values = {
        "setup_s": statistics.median(imports) + statistics.median(rec.samples["setup"]),
        **workload.end_to_end(rec.cost()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def per_layer_metrics(tracer, rec, untraced_cost, units):
    spans = tracer.summary()
    counters = tracer.counters

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        """Self time: the `*.s` and `*.self_s` metrics both report it."""
        return spans.get(name, {}).get("self_s", 0.0)

    values = {}
    for metric in units:
        name, _, kind = metric.rpartition(".")
        if metric in counters:
            values[metric] = counters[metric]
        elif kind == "calls":
            values[metric] = calls(name)
        elif kind in ("s", "self_s"):
            values[metric] = self_s(name)
    rows = counters["model.project_oblique_batch.rows"]
    picard = calls("bsde.picard_solve")
    # the traced pass's costs against the median costs of the same operations
    # untraced; costs, not wall times, because the host's speed moves between
    # the two passes
    pairs = [(c, untraced_cost[label]) for label, costs in rec.costs.items()
             for c in costs if label in untraced_cost]
    traced, untraced = sum(t for t, _ in pairs), sum(u for _, u in pairs)
    values.update({
        "model.project_oblique_batch.moved_share":
            counters["model.project_oblique_batch.moved_rows"] / rows if rows else 0.0,
        "runner.report_bytes": rec.counters["report_bytes"],
        "workload.active_push_share": (rec.counters["active_nodes"] / rec.counters["interior_nodes"]
                                       if rec.counters["interior_nodes"] else 0.0),
        "workload.rows_per_projection":
            rows / calls("model.project_oblique_batch") if rows else 0.0,
        "workload.picard_iterations_per_call":
            counters["bsde.picard_solve.iterations"] / picard if picard else 0.0,
        "trace.overhead_ref": traced - untraced,
        "trace.overhead_share": (traced - untraced) / untraced if untraced else 0.0,
        "trace.spans": len(tracer.start),
        "trace.missing_targets": len(tracer.missing),
    })
    for key, wall in rec.notes.items():
        metric = f"runner.task.{key}.s"
        if metric in units:
            values[metric] = wall
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in units.items()}


def main(argv=None):
    args = parse_args(argv)
    try:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        prepare_environment()
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r} (known: {sorted(WORKLOADS)})")
        imports = import_seconds()
    except (SetupError, ImportError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        print(f"bench: cannot run: {exc!r}", file=sys.stderr)
        return 2
    try:
        return measure(args, imports, units)
    except Exception:  # outside any operation: the benchmark itself broke
        print(f"bench: cannot run: {traceback.format_exc()}", file=sys.stderr)
        return 2


def measure(args, imports, units):
    """Run the workload, check its outputs, print the result line; returns the
    exit code."""
    from spans import Tracer
    from workloads import WORKLOADS, Recorder, run_pass

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    env = environment(workload)
    env["loadavg_before"] = os.getloadavg()
    try:
        workload.warm_up()
        rec = Recorder()
        walls = run_loop(workload, rec, args.seconds)
        imports = imports + import_seconds()
        metrics = None if args.trace else end_to_end_metrics(workload, rec, imports, units)
        attempted, failed, failures = rec.attempted, rec.failed, list(rec.failures)
        detail = {"samples": dict(rec.samples), "costs": dict(rec.costs),
                  "import_s": imports, "pass_s": walls,
                  "notes": rec.notes, "properties": rec.props,
                  "inputs_sha256": workload.inputs_digest(),
                  "reference_checked": workload.reference_checked}
        if args.trace:
            tracer = Tracer()
            traced = Recorder(props=rec.props, tracer=tracer)
            tracer.install()
            try:
                t0 = perf_counter()
                run_pass(workload, traced)
                traced_wall = perf_counter() - t0
            finally:
                tracer.uninstall()
            metrics = per_layer_metrics(tracer, traced, rec.cost(), units)
            attempted += traced.attempted
            failed += traced.failed
            failures += traced.failures
            detail.update(traced_pass_s=traced_wall, spans=tracer.summary(),
                          missing_targets=tracer.missing, traced_notes=traced.notes)
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{tag}.csv")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    for msg in failures:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "result": result,
                   "fail_ratio": failed / attempted, "failures": failures, **detail},
                  fh, indent=1, default=str)
    print("environment: " + json.dumps(env))
    print(f"reference outputs checked: {workload.reference_checked}")
    print(f"fail_ratio: {failed}/{attempted}; samples: "
          + ", ".join(f"{k}={len(v)}" for k, v in sorted(rec.samples.items())))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
