"""Benchmark of the cccd package: one workload per process, from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sim_large --seed 1 --seconds 25 --trace 0

The run imports ``cccd`` from ``src/`` of the checkout, times passes over the
workload's op list for ``--seconds`` seconds (the pass in progress finishes),
checks every result, and prints one JSON object as its last line of output.
Times are scaled to the reference host speed by the yardstick job (see
``yardstick.py``); the raw seconds stay in the result file.
``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the per-layer
metrics, taken from one extra pass with every cccd layer wrapped in spans.
The metric names and units are those declared in ``BENCHMARK.json``.  A record
of the machine, the per-op samples and any failures goes to
``.bench_results/`` in the checkout.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import os

# One thread per process for BLAS: timed runs measure the library at
# parallelism 1, and only the par2 check adds a second worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import gzip
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import layertrace
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import cccd.cli, workloads
workloads.build_models(sys.argv[1], int(sys.argv[2]))
seconds = time.perf_counter() - t0
import statistics, yardstick
print(seconds, statistics.median(yardstick.seconds() for _ in range(3)))
"""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sim_large", "laws", "multi"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)]
                                        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(workload, seed):
    """[seconds, yardstick seconds] to import cccd.cli and build the workload's models,
    each in a cold process that times the yardstick job right after."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, workload, str(seed)],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append([float(x) for x in done.stdout.split()[-2:]])
    return samples


def machine_record():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor() or None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit}


class Runner:
    """Runs ops, times them, checks them, and keeps the tally."""

    def __init__(self, workload, workloads_module):
        self.workload = workload
        self.wl = workloads_module
        self.attempted = 0
        self.failures = []
        self.results = {}

    def attempt(self, op):
        """Run one op and its check; returns the op's seconds, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001 - any failure of the library is a failed op
            self.failures.append({"op": op.name, "error": "".join(
                traceback.format_exception_only(type(exc), exc)).strip()})
            return None
        elapsed = time.perf_counter() - start
        try:
            op.check(result)
        except self.wl.CheckFailed as exc:
            self.failures.append({"op": op.name, "error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - a check that crashes is a failed check
            self.failures.append({"op": op.name, "error": "check raised " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip()})
        self.results[op.name] = result
        return elapsed

    def run_pass(self, ops, samples, host):
        """One pass; op seconds go to ``samples``, a yardstick time after each op to ``host``."""
        for op in ops:
            elapsed = self.attempt(op)
            if elapsed is not None:
                samples.setdefault(op.name, []).append(elapsed)
            host.append(yardstick.seconds())

    def timed_passes(self, ops, seconds):
        samples, host = {}, []
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < seconds:
            self.run_pass(ops, samples, host)
            passes += 1
        return passes, samples, host

    def unexpected_failures(self):
        return [f for f in self.failures
                if f"{self.workload}.{f['op']}" not in self.wl.KNOWN_DEFECTS]


def traced_pass(runner, tracer, ops):
    """One pass with every layer wrapped; returns ({op: span index}, samples).

    Checks run with the tracer paused, so their own cccd calls leave no spans.
    """
    spans = {}

    def traced(op):
        def run():
            index = tracer.open(f"op.{runner.workload}.{op.name}")
            spans[op.name] = index
            try:
                return op.run()
            finally:
                tracer.close(index)

        def check(result):
            with tracer.paused():
                op.check(result)
        return dataclasses.replace(op, run=run, check=check)

    samples = {}
    tracer.install()
    try:
        runner.run_pass([traced(op) for op in ops], samples, [])
    finally:
        tracer.uninstall()
    return spans, samples


def per_layer(runner, tracer, op_s, untraced, host, op_spans, traced, workload_plans):
    """Per-layer metrics: span figures (raw seconds) from the traced pass, op times
    (at the reference speed) from the untraced ones."""
    out = dict(layertrace.layer_metrics(tracer.spans))
    for name, seconds in op_s.items():
        out[f"op.{runner.workload}.{name}.s"] = seconds
    for name, reps in workload_plans.items():
        if name in op_spans:
            runs = layertrace.run_seconds(tracer.spans, op_spans[name])
            if len(runs) == 1 and runs[0] > 0:
                out[f"simulate.plan.{name}.reps_per_s"] = reps / runs[0]
    par2 = runner.results.get("par2")
    if par2 is not None:
        out["simulate.par2_speedup"] = par2["speedup"]
    wall = sum(statistics.median(s) for s in untraced.values())
    out["trace.overhead_frac"] = sum(statistics.median(s) for s in traced.values()) / wall - 1.0
    out["host.yardstick_s"] = statistics.median(host)
    return out


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "cccd" / "__init__.py").is_file():
        print(f"error: no cccd package under {SRC}; run from the root of a cccd checkout",
              file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(HERE)]
    import cccd
    if Path(cccd.__file__).resolve().parent != (SRC / "cccd").resolve():
        print(f"error: imported cccd from {cccd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    setup = measure_setup(args.workload, args.seed) if args.trace == 0 else []
    models = workloads.build_models(args.workload, args.seed)
    workers = min(2, os.cpu_count() or 1)
    ops = workloads.build_ops(args.workload, models, args.seed, workers)
    per_pass = [op for op in ops if op.per_pass]
    runner = Runner(args.workload, workloads)

    passes, samples, host = runner.timed_passes(per_pass, args.seconds)
    for op in ops:
        if not op.per_pass:
            runner.attempt(op)
    # each op's median pass, scaled to the reference host speed
    speed = yardstick.REFERENCE_S / statistics.median(host)
    op_s = {name: statistics.median(times) * speed for name, times in samples.items()}

    if args.trace:
        tracer = layertrace.Tracer()
        op_spans, traced = traced_pass(runner, tracer, per_pass)
        produced = per_layer(runner, tracer, op_s, samples, host, op_spans, traced,
                             workloads.plan_reps(models))
        section = "per_layer"
    else:
        tracer = None
        produced = {
            "wall_s": sum(op_s.values()),
            "setup_s": statistics.median(raw * yardstick.REFERENCE_S / job for raw, job in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (runner.attempted - len(runner.failures)) / runner.attempted,
        }
        section = "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    unknown = sorted(set(produced) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json {section}: {unknown}")
    # a declared metric this workload does not exercise reads 0
    metrics = {name: {"value": float(produced.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}

    record = {
        "machine": machine_record(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes,
        "setup_samples": setup, "op_samples": samples,
        "yardstick_samples": host, "failures": runner.failures,
        "known_defects": {k: v for k, v in workloads.KNOWN_DEFECTS.items()
                          if k.startswith(args.workload + ".")},
        "metrics": metrics,
    }
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        with gzip.open(out_dir / f"{stem}-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "count"],
                       "spans": [[n, s - origin, e - origin, p, c]
                                 for n, s, e, p, c in tracer.spans]}, fh)

    print("# machine " + json.dumps(record["machine"], sort_keys=True))
    print(f"# {args.workload}: {passes} passes, {runner.attempted} ops, "
          f"{len(runner.failures)} failed")
    for failure in runner.failures:
        print(f"# failed {failure['op']}: {failure['error']}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not runner.unexpected_failures(),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
