"""pidpbc benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload reproduce --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all

One process, one client, closed loop: each operation of a pass starts only
after the previous one has returned, and passes repeat until ``--seconds``
have elapsed, counting one untimed warm-up pass (at least ``MIN_PASSES``
timed passes).  BLAS/OpenMP threads are pinned to 1.

``--trace 0`` reports the end-to-end metrics: the median wall time of a pass
and the closed-loop RK4 steps per unit of time, both in units of a fixed
reference kernel timed around the pass's own operations (see
``reference.py``), the median set-up time of fresh interpreters, scaled to
nominal seconds by the kernel timed in each of them, and the peak resident
memory.  The raw seconds are printed too.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones, the layer
probes and the tracing overhead; its spans are written to
``bench/.work/spans/``.  Every outcome is checked against its pinned
expectation; a mismatch is printed to stderr and the exit code is 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run metadata and
the per-pass samples go to ``bench/.work/results/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in the children
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import NOMINAL_SECONDS, reference_kernel

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"

MIN_PASSES = 3
MAX_SECONDS = 120.0     # stop adding passes past this, whatever MIN_PASSES says
SETUP_REPEATS = 7
WORKLOADS = ("reproduce", "sweep", "generic_2dof", "quadrature_2dof")

# wall time and throughput in units of the reference kernel's time ("ref"),
# taken around the operations of the same pass; set-up time in nominal
# seconds (see reference.NOMINAL_SECONDS); the raw seconds are printed and
# kept in the results file
END_TO_END = {
    "wall_ref": "ref",
    "setup_s": "s",
    "traj_steps_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
REFERENCE_CALLS_PER_PASS = 6
PER_LAYER = {
    "sim.simulate_s": "s",
    "sim.steps": "count",
    "sim.rhs_evals": "count",
    "sim.us_per_rhs_eval": "us",
    "sim.trajectories": "count",
    "sim.aborted": "count",
    "sim.verify_s": "s",
    "sim.csv_write_s": "s",
    "sim.csv_read_s": "s",
    "sim.csv_bytes": "B",
    "sim.csv_write_MBps": "MB/s",
    "analysis.check_assumptions_s": "s",
    "analysis.scan_A5_s": "s",
    "analysis.check_A7_s": "s",
    "analysis.linear_closed_loop_s": "s",
    "analysis.grid_points": "count",
    "analysis.us_per_grid_point": "us",
    "scenario.load_s": "s",
    "cli.self_s": "s",
    "passivity.potential_integral_VN_closed_us": "us",
    "passivity.potential_integral_VN_quad_us": "us",
    "passivity.storage_functions_us": "us",
    "controller.exact_control_us": "us",
    "controller.pi_control_us": "us",
    "mechanics.forward_dynamics_us": "us",
    "analysis.desired_inertia_Md_us": "us",
    "trace.overhead_frac": "ratio",
}


class OpError:
    """An operation that raised; its traceback is the outcome."""

    def __init__(self):
        self.text = traceback.format_exc()


def run_pass(workload, out, gap=None):
    """Run every operation once, in order.

    Returns the summed wall time of the operations, their outcomes and the
    pass context.  ``gap(name)`` runs before each operation and ``gap(None)``
    after the last one, outside the timed region, like a client's think time.
    """
    ctx = {"out": out}
    outcomes = []
    wall = 0.0
    gc.collect()
    for op in workload.ops:
        if gap is not None:
            gap(op.name)
        t0 = time.perf_counter()
        try:
            outcomes.append(op.run(ctx))
        except Exception:  # counted as a failed operation, traceback kept
            outcomes.append(OpError())
        wall += time.perf_counter() - t0
    if gap is not None:
        gap(None)
    return wall, outcomes, ctx


def check_pass(workload, outcomes, ctx):
    """Mismatch messages, failed operations and closed-loop steps of a pass."""
    mismatches, failed, steps = [], 0, 0
    for op, outcome in zip(workload.ops, outcomes):
        if isinstance(outcome, OpError):
            bad = [f"raised:\n{outcome.text}"]
        else:
            bad = op.check(outcome, ctx)
            steps += op.steps(outcome, ctx)
        failed += bool(bad)
        mismatches += [f"{op.name}: {msg}" for msg in bad]
    return mismatches, failed, steps


class Passes:
    """Repeats passes for the measuring time and tallies their outcomes."""

    def __init__(self, workload, seconds):
        self.workload = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self._t0 = time.perf_counter()
        self.count = -1
        self.run()  # warm-up: lazy imports and caches; checked, not timed

    def more(self) -> bool:
        elapsed = time.perf_counter() - self._t0
        if elapsed >= MAX_SECONDS:
            return False
        return elapsed < self.seconds or self.count < MIN_PASSES

    def run(self, gap=None, tracer=None):
        """One pass, traced when ``tracer`` is given; checks run untraced."""
        out = WORK / self.workload.name / f"pass{self.count}"
        if tracer is None:
            wall, outcomes, ctx = run_pass(self.workload, out, gap)
        else:
            pass_index = self.count

            def begin_op(name):
                if name is not None:
                    tracer.begin_op(name, pass_index)

            tracer.install()
            try:
                wall, outcomes, ctx = run_pass(self.workload, out, begin_op)
            finally:
                tracer.uninstall()
        mismatches, failed, steps = check_pass(self.workload, outcomes, ctx)
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += len(outcomes)
        self.failed += failed
        self.mismatches += [f"pass {self.count}: {m}" for m in mismatches]
        self.count += 1
        return wall, steps


def measure_setup(name: str, seed: int) -> tuple:
    """Set-up times of fresh interpreters (``import pidpbc`` plus the inputs)
    and the reference kernel time taken in each of them, in seconds."""
    setup, refs = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, ref = map(float, proc.stdout.strip().splitlines()[-1].split())
        setup.append(seconds)
        refs.append(ref)
    return setup, refs


def untraced_run(workload, seconds, seed):
    setup, setup_refs = measure_setup(workload.name, seed)
    passes = Passes(workload, seconds)
    walls, steps, refs, walls_ref = [], [], [], []
    calls = math.ceil(REFERENCE_CALLS_PER_PASS / (len(workload.ops) + 1))

    def reference(_op_name):
        refs.extend(reference_kernel() for _ in range(calls))

    while passes.more():
        first = len(refs)
        wall, pass_steps = passes.run(gap=reference)
        walls.append(wall)
        steps.append(pass_steps)
        # each pass in units of the kernel times taken before, between and
        # after its own operations, so the host's speed is sampled on both
        # sides of every operation
        walls_ref.append(wall / statistics.median(refs[first:]))
    raw = {"wall_s": statistics.median(walls),
           "traj_steps_per_s": statistics.median(n / w for n, w in zip(steps, walls)),
           "reference_s": statistics.median(refs),
           "setup_s": statistics.median(setup)}
    metrics = {
        "wall_ref": statistics.median(walls_ref),
        # each interpreter's set-up in units of its own kernel time, then in
        # seconds of a host on which the kernel takes NOMINAL_SECONDS
        "setup_s": NOMINAL_SECONDS * statistics.median(
            t / r for t, r in zip(setup, setup_refs)),
        "traj_steps_per_ref": statistics.median(n / w for n, w in zip(steps, walls_ref)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"wall_s": walls, "reference_s": refs, "wall_ref": walls_ref, "steps": steps,
               "setup_s": setup, "setup_reference_s": setup_refs, "raw_medians": raw}
    return passes, metrics, samples


def traced_run(workload, seconds, seed):
    import tracing

    tracer = tracing.Tracer()
    passes = Passes(workload, seconds)
    untraced, traced, layer_samples = [], [], []
    while passes.more() or not traced:
        if passes.count % 2 == 0:
            wall, _ = passes.run()
            untraced.append(wall)
            continue
        first = len(tracer.spans)
        tracer.simulated.clear()
        wall, _ = passes.run(tracer=tracer)
        traced.append(wall)
        layer_samples.append(tracing.layer_metrics(tracer.spans[first:], first))

    metrics = {name: statistics.median(s[name] for s in layer_samples)
               for name in layer_samples[0]}
    metrics.update(tracing.probe_layers(*workload.probe(tracer.simulated)))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    (spans_dir / f"{workload.name}-seed{seed}.json").write_text(json.dumps(tracer.dump()))
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced, "layers": layer_samples}
    return passes, {name: metrics[name] for name in PER_LAYER}, samples


def run_metadata(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads_env": {var: os.environ[var] for var in THREAD_VARS},
            "seed": seed, "src_lines": src_lines}


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    workload = workloads.prepare(args.workload, args.seed, WORK / args.workload)
    runner = traced_run if args.trace else untraced_run
    passes, metrics, samples = runner(workload, args.seconds, args.seed)
    units = PER_LAYER if args.trace else END_TO_END

    meta = run_metadata(args.seed)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{passes.count} timed passes (+1 warm-up) of {len(workload.ops)} operations  "
          f"(closed loop, 1 client, {meta['nproc']} cores, threads pinned to 1)")
    for name, unit in units.items():
        print(f"  {name:44s} {metrics[name]:14.6g} {unit}")
    raw_units = {"wall_s": "s", "traj_steps_per_s": "1/s", "reference_s": "s", "setup_s": "s"}
    for name, value in samples.get("raw_medians", {}).items():
        print(f"  {name:44s} {value:14.6g} {raw_units[name]}  (raw)")
    print(f"  {'failed_frac':44s} {passes.failed / passes.attempted:14.6g} ratio"
          f"  ({passes.failed} of {passes.attempted} operations)")
    result = {"correct": passes.failed == 0, "attempted": passes.attempted,
              "failed": passes.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result, "samples": samples,
                    "mismatches": passes.mismatches}, indent=1))
    print("meta " + json.dumps(meta))
    for msg in passes.mismatches:
        print(f"MISMATCH {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; the last line sums their results."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0,
                                                      "failed": 0, "metrics": {}}
        total["correct"] = total["correct"] and result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pidpbc" / "__init__.py").is_file():
        print(f"no pidpbc sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
