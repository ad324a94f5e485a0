#!/usr/bin/env python3
"""collatzq benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload census-deep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing needs installing.  Workloads are defined and explained
in ``workloads.py``.  Each run is a closed loop with one client: the
workload's operations run one after another, in passes, until ``--seconds``
have elapsed (at least one pass).  Pool workers never exceed two.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, the median time of
a pass rescaled to a reference host speed by ``probe.py`` (the raw median is
in the info line); ``setup_s``, the median raw wall time of a fresh
interpreter importing collatzq; and ``peak_rss_mb``, the peak resident
memory of this process or any child.  ``--trace 1`` alternates an untraced
and a traced pass of the in-process form of the workload and prints the
per-layer split (``spans.py``), raw untraced stage throughputs, parallel
efficiency, import time and the tracing overhead.

``--seed`` reaches only the sampled census of density-cli; the other inputs
are fixed.  The last stdout line is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the host fingerprint, seed, pass count and failure ratio.  The exit code is
non-zero, with no result printed, when the source tree is missing.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
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
import traceback
from pathlib import Path

from probe import Probe, Stopwatch
from spans import Tracer, install, layer_metrics
from workloads import WORKLOADS, Context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

SETUP_REPS = 9
IMPORT_REPS = 5
RATE_UNITS = {
    "census.words_per_s": "words/s",
    "sampled.draws_per_s": "draws/s",
    "theta_sweep.starts_per_s": "starts/s",
    "phi_sweep.starts_per_s": "starts/s",
    "recovery.orbits_per_s": "orbits/s",
}

clock = time.perf_counter


def use_source_tree() -> None:
    """Import collatzq from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "collatzq" / "__init__.py").is_file():
        raise SystemExit(f"error: no collatzq source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import collatzq

    if Path(collatzq.__file__).resolve().parent != SRC / "collatzq":
        raise SystemExit(f"error: collatzq imported from {collatzq.__file__}, not {SRC}")


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def host_fingerprint() -> dict:
    kernels = importlib.import_module("collatzq.kernels")
    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }
    if hasattr(kernels, "default_backend"):
        host["kernel_backend"] = kernels.default_backend()
    return host


def fresh_import(module: str, reps: int) -> list[tuple[float, float, bool]]:
    """(process wall s, import s, numpy loaded) of a fresh interpreter importing ``module``.

    Raw times: the host-speed probe does not track a child's import, whose
    speed varies from process to process.  One untimed run first writes the
    bytecode caches.
    """
    code = (
        f"import sys, time; t = time.perf_counter(); import {module}; "
        "print(time.perf_counter() - t, int('numpy' in sys.modules))"
    )
    samples = []
    for i in range(reps + 1):
        t0 = clock()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=subprocess_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        wall = clock() - t0
        import_s, numpy_loaded = proc.stdout.split()
        if i:
            samples.append((wall, float(import_s), numpy_loaded == "1"))
    return samples


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def run_pass(ops, tally: Tally, timer) -> tuple[dict[str, float], dict[str, float]]:
    """Run each operation once; return its (raw, rescaled) seconds, outside its check."""
    raw, scaled = {}, {}
    for op in ops:
        op.prepare()

        def call(op=op):
            try:
                return True, op.run()
            except Exception:  # a crashing operation is a failed one
                traceback.print_exc()
                return False, None

        (ok, result), raw[op.name], scaled[op.name] = timer.measure(call)
        tally.attempted += 1
        if ok:
            try:
                ok = bool(op.check(result))
            except Exception:
                traceback.print_exc()
                ok = False
        if not ok:
            tally.failed += 1
            print(f"check failed: {op.name}", file=sys.stderr)
    return raw, scaled


def rates(ops, times: dict[str, float]) -> dict[str, tuple[float, str]]:
    out = {}
    for metric, unit in RATE_UNITS.items():
        mine = [op for op in ops if op.metric == metric]
        seconds = sum(times[op.name] for op in mine)
        out[metric] = (sum(op.work for op in mine) / seconds if mine else 0.0, unit)
    return out


def medians(samples: list[dict[str, tuple[float, str]]]) -> dict[str, dict]:
    return {
        name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
        for name, (_, unit) in samples[0].items()
    }


def end_to_end(workload, ctx: Context, ref: dict, seconds: float, setup_reps: int,
               tally: Tally, info: dict) -> dict:
    """Untraced passes: rescaled pass time, set-up time, peak memory."""
    imports = fresh_import("collatzq", setup_reps)
    ops = workload.build(ref, ctx, **workload.plain)
    samples = []
    with Probe() as probe:
        deadline = clock() + seconds
        while not samples or clock() < deadline:
            raw, scaled = run_pass(ops, tally, probe)
            samples.append({"wall_s": (sum(scaled.values()), "s"),
                            "raw_wall_s": (sum(raw.values()), "s")})
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics = medians(samples)
    info.update(passes=len(samples), raw_wall_s=metrics.pop("raw_wall_s")["value"])
    metrics["setup_s"] = {"value": statistics.median(s for s, _, _ in imports), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    return metrics


def per_layer(workload, ctx: Context, ref: dict, seconds: float, import_reps: int,
              tally: Tally, info: dict) -> dict:
    """Alternating untraced and traced passes: the layer split and its overhead."""
    imports = fresh_import("collatzq.cli", import_reps)
    watch = Stopwatch()
    ops = workload.build(ref, ctx, **workload.traced)
    parallel_ops = workload.build(ref, ctx, **workload.parallel) if workload.parallel else None
    samples = []
    deadline = clock() + seconds
    while not samples or clock() < deadline:
        plain, _ = run_pass(ops, tally, watch)
        tracer = Tracer()
        install(tracer)
        try:
            traced, _ = run_pass(ops, tally, watch)
        finally:
            tracer.restore()
        sample = layer_metrics(tracer)
        sample.update(rates(ops, plain))
        efficiency = 0.0
        if parallel_ops:
            op = workload.parallel_op
            efficiency = plain[op] / (workload.parallel["threads"]
                                      * run_pass(parallel_ops, tally, watch)[0][op])
        sample["census.parallel_efficiency"] = (efficiency, "ratio")
        sample["trace.overhead_ratio"] = (sum(traced.values()) / sum(plain.values()), "ratio")
        samples.append(sample)
    metrics = medians(samples)
    info["passes"] = len(samples)
    info["spans"] = {span: {"calls": st.calls, "total_s": st.total_s,
                            "self_s": st.self_s, "count": st.items}
                     for span, st in tracer.spans.items()}
    metrics["cli.import_s"] = {"value": statistics.median(i for _, i, _ in imports), "unit": "s"}
    metrics["cli.numpy_loaded"] = {"value": int(all(n for _, _, n in imports)), "unit": "bool"}
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, ref: dict,
            setup_reps: int = SETUP_REPS, import_reps: int = IMPORT_REPS) -> tuple[dict, dict]:
    """Run one workload; return (result line, run info)."""
    workload = WORKLOADS[name]
    ctx = Context(work=WORK, seed=seed)
    tally = Tally()
    info = {"workload": name, "seed": seed, "trace": int(trace)}
    WORK.mkdir(exist_ok=True)
    try:
        if trace:
            metrics = per_layer(workload, ctx, ref, seconds, import_reps, tally, info)
        else:
            metrics = end_to_end(workload, ctx, ref, seconds, setup_reps, tally, info)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    info.update(failed_ratio=tally.failed / tally.attempted, host=host_fingerprint())
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    use_source_tree()
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["full"]
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace), ref)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
