"""pushmdp benchmark: one process, one closed-loop client, one workload per run.

Run from the root of a source checkout:

    python3 bench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

The workload executes back to back (each execution starts when the previous
one and its output checks are done) for as many executions as fit in
``--seconds``, at least one.  ``setup_s`` comes from three fresh interpreters
started before that.  With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the same executions run untraced and
then traced, and it holds the per-layer metrics.  The lines before it give a
readable summary and the provenance of the result.  See README.md for what
each workload is for.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

from tracer import MissingTarget, Tracer, span_totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def import_program():
    """Import pushmdp from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import pushmdp
    except ImportError as exc:
        raise SystemExit(f"error: cannot import pushmdp from {SRC}: {exc}") from None
    if not Path(pushmdp.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: pushmdp imported from {pushmdp.__file__}, not {SRC}")
    import workloads

    return workloads


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to a workload ready to run."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-probe",
    ]
    start = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    # CLOCK_MONOTONIC is shared by every process on the machine.
    return float(proc.stdout.split()[-1]) - start


def measure(workload, seconds, tracer=None) -> list[dict]:
    """Execute the workload back to back within ``seconds``, at least once.

    Another execution starts only if it is expected to end in time, judged
    by the previous one, so a run never overshoots by a whole execution.
    """
    samples = []
    start = cycle_start = time.perf_counter()
    while not samples or 2 * time.perf_counter() - cycle_start - start <= seconds:
        cycle_start = time.perf_counter()
        workload.prepare()
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        if tracer is None:
            result = workload.run()
        else:
            result = tracer.span("iteration", "bench", workload.run)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.active = False
        # ru_maxrss is the process peak in KiB; it is read before the checks,
        # which allocate far less than the work they check.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sample = {"wall": wall, "cpu": cpu, "rss_mb": rss_mb}
        if tracer is not None:
            sample["layers"] = layer_metrics(tracer, workload)
        sample["checks"] = workload.check(result)
        del result
        samples.append(sample)
    return samples


def end_to_end(samples, setup) -> dict:
    """User-facing metrics of the untraced executions, as {name: (value, unit)}."""
    checks = [c for s in samples for c in s["checks"]]
    failed = sum(not ok for _, ok, _ in checks)
    return {
        "run_s": (statistics.median(s["wall"] for s in samples), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(s["cpu"] for s in samples), "s"),
        "peak_rss_mb": (max(s["rss_mb"] for s in samples), "MB"),
        "pass_rate": (1.0 - failed / len(checks), "ratio"),
    }


def per_layer(samples, traced, setup_spans) -> dict:
    """Medians of the traced executions' layer figures, plus set-up and overhead."""
    layer = {
        name: statistics.median(s["layers"][name] for s in traced)
        for name in traced[0]["layers"]
    }
    layer["model.build_scenario_s"] = span_totals(setup_spans)[0].get("build_scenario", 0.0)
    layer["trace.overhead_s"] = statistics.median(
        s["wall"] for s in traced
    ) - statistics.median(s["wall"] for s in samples)
    return {name: (value, unit_of(name)) for name, value in sorted(layer.items())}


def layer_metrics(tracer, workload) -> dict:
    """Per-layer figures of one traced execution.

    Durations are shares (%) of the traced execution's wall time, and per-call
    speeds are rates, so a function that a workload never calls reads 0 of
    something other than a time.
    """
    from pushmdp import Action

    inclusive, calls, self_time = span_totals(tracer.spans)
    wall = tracer.spans[0][4] - tracer.spans[0][3]

    def pct(seconds):
        return 100.0 * seconds / wall

    def fn_pct(*names):
        return pct(sum(inclusive.get(name, 0.0) for name in names))

    rows = nnz = 0
    if tracer.kernels:
        # Counted after the span closed; these matrices are already cached.
        for m in (tracer.kernels[0].action_matrix(a) for a in Action):
            rows += int((m.indptr[1:] > m.indptr[:-1]).sum())
            nnz += int(m.nnz)
        tracer.kernels.clear()
    evaluations = calls.get("policy_evaluation", 0)
    evaluation_s = inclusive.get("policy_evaluation", 0.0)
    periods = tracer.counts["periods"]
    simulate_s = inclusive.get("simulate", 0.0)
    written = workload.bytes_written() if hasattr(workload, "bytes_written") else 0
    return {
        "model.self_pct": pct(self_time["model"]),
        "transition.build_kernel_pct": fn_pct("build_kernel"),
        "transition.validate_kernel_pct": fn_pct("validate_kernel"),
        "transition.action_matrix_pct": fn_pct("TransitionKernel.action_matrix"),
        "transition.restrict_pct": fn_pct("TransitionKernel.restrict"),
        "transition.self_pct": pct(self_time["transition"]),
        "transition.csr_builds": tracer.counts["csr_builds"],
        "transition.action_matrix_calls": calls.get("TransitionKernel.action_matrix", 0),
        "transition.rows": rows,
        "transition.nnz": nnz,
        "solver.evaluation_pct": pct(evaluation_s),
        "solver.evaluations": evaluations,
        "solver.evaluations_per_s": evaluations / evaluation_s if evaluations else 0.0,
        "solver.policy_validate_pct": fn_pct("PolicyTable.validate"),
        "solver.policy_iteration_pct": fn_pct("policy_iteration"),
        "solver.pi_iterations": tracer.counts["pi_iterations"],
        "solver.improvement_pct": fn_pct("policy_improvement"),
        "solver.improvements": calls.get("policy_improvement", 0),
        "solver.bellman_residual_pct": fn_pct("bellman_residual"),
        "solver.rvi_calls": calls.get("relative_value_iteration", 0),
        "solver.rvi_pct": fn_pct("relative_value_iteration"),
        "solver.self_pct": pct(self_time["solver"]),
        "policies.non_push_pct": fn_pct("non_push_optimal"),
        "policies.unicast_priority_table_pct": fn_pct("unicast_priority_table"),
        "policies.threshold_pct": fn_pct("threshold_profile", "format_threshold_grid"),
        "policies.self_pct": pct(self_time["policies"]),
        "sim.simulate_pct": pct(simulate_s),
        "sim.periods": periods,
        "sim.periods_per_s": periods / simulate_s if periods else 0.0,
        "sim.self_pct": pct(self_time["sim"]),
        "cli.self_pct": pct(self_time["cli"]),
        "cli.bytes_written": written,
        "trace.run_s": wall,
        "trace.spans": len(tracer.spans),
    }


def unit_of(name: str) -> str:
    """Per-layer units follow the metric names' suffixes."""
    for suffix, unit in (("_pct", "%"), ("_per_s", "1/s"), ("_s", "s"), ("_written", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "pushmdp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        workloads = import_program()
        workloads.make(args.workload, args.seed, os.devnull)
        print(time.monotonic())
        return 0

    setup = [probe_setup(args) for _ in range(SETUP_PROBES)] if not args.trace else []
    workloads = import_program()
    tracer = None
    if args.trace:
        tracer = Tracer()
        try:
            tracer.install(also=(workloads,))
        except MissingTarget as exc:
            raise SystemExit(f"error: {exc}") from None

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    traced = []
    try:
        if tracer is not None:
            tracer.active = True
        workload = workloads.make(args.workload, args.seed, str(out_dir))
        if tracer is not None:
            tracer.active = False
            setup_spans = list(tracer.spans)
        samples = measure(workload, args.seconds)
        if tracer is not None:
            traced = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()  # only succeeds once no other run uses it

    checks = [c for s in samples + traced for c in s["checks"]]
    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"FAILED CHECK {name}: {detail}")
    print(f"error_rate {len(failed) / len(checks)} ({len(failed)} of {len(checks)} checks)")
    for label, runs in (("untraced", samples), ("traced", traced)):
        if runs:
            walls = ", ".join(f"{s['wall']:.3f}" for s in runs)
            print(f"{len(runs)} {label} executions, wall s: {walls}")
    if tracer is None:
        metrics = end_to_end(samples, setup)
    else:
        metrics = per_layer(samples, traced, setup_spans)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
