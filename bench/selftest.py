"""Self-test of the benchmark on a tiny scenario (e_max=2, n_contents=2, m_rings=1).

    python3 bench/selftest.py

Checks that tracing changes no output (gains, policies and artifacts are
bit-identical with and without the tracer), that spans record their parents,
that every target is wrapped wherever it is bound and restored afterwards,
that a missing target fails loudly, and that a failing output check lowers
``pass_rate``.  Exits 0 when all hold.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import os
import shutil
from pathlib import Path

import run
from tracer import TARGETS, MissingTarget, Tracer

TINY = ("e_max=2", "n_contents=2", "m_rings=1")
# Short trajectories keep the self-test quick; the program seed is fixed.
TINY_SIM = TINY + ("horizon=200000", "warmup=1000")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def execute(workload, tracer=None):
    """One measured execution; returns its checks and the artifacts it wrote."""
    [sample] = run.measure(workload, 0, tracer)
    out_dir = getattr(workload, "out_dir", None)
    artifacts = {}
    if out_dir is not None:
        artifacts = {p.name: p.read_bytes() for p in sorted(Path(out_dir).glob("*"))}
    return sample["checks"], artifacts


def main() -> int:
    workloads = run.import_program()
    from pushmdp import ArrivalPmf, brute_force_oracle, build_kernel, cli, solver
    from pushmdp.model import stage_cost_table

    out_root = run.ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    try:
        settings = cli.load_settings(None, list(TINY))
        params, _, grid, popularity = cli.build_scenario(settings)
        arrival = ArrivalPmf.poisson(params.mean_arrival, params.battery_levels)
        kernel = build_kernel(params, grid, popularity, arrival)
        oracle = brute_force_oracle(kernel, stage_cost_table(params))
        solve_ref = {"num_states": params.num_states, "lambda": oracle.gain}
        validate_ref = workloads.REFERENCE["validate-default"]

        def solve(ref):
            return workloads.Solve(TINY, 7, str(out_root / "solve"), ref)

        def validate():
            return workloads.Validate(TINY_SIM, 0, str(out_root / "validate"), validate_ref)

        plain = {}
        for name, make in (("solve", lambda: solve(solve_ref)), ("validate", validate)):
            checks, artifacts = execute(make())
            expect(all(ok for _, ok, _ in checks), f"untraced tiny {name} passes its checks")
            plain[name] = artifacts
        xl_out = workloads.KernelXL(TINY, {}).run()
        xl_ref = {
            "num_states": params.num_states,
            "rows": xl_out["report"].num_rows,
            "nnz": sum(int(m.nnz) for m in xl_out["matrices"]),
            "greedy_sha256": workloads._actions_sha256(xl_out["greedy"].actions),
            "improved_sha256": workloads._actions_sha256(xl_out["improved"].actions),
        }

        original = solver.policy_evaluation
        tracer = Tracer()
        tracer.install(also=(workloads,))
        try:
            for module in ("pushmdp", "pushmdp.solver", "pushmdp.sim", "pushmdp.cli"):
                bound = sys.modules[module].policy_evaluation
                expect(
                    bound is not original and bound.__wrapped__ is original,
                    f"policy_evaluation wrapped in {module}",
                )
            for name, make in (("solve", lambda: solve(solve_ref)), ("validate", validate)):
                checks, artifacts = execute(make(), tracer)
                expect(all(ok for _, ok, _ in checks), f"traced tiny {name} passes its checks")
                expect(
                    artifacts == plain[name] and bool(artifacts),
                    f"traced tiny {name} writes bit-identical artifacts",
                )
            checks, _ = execute(workloads.KernelXL(TINY, xl_ref), tracer)
            expect(
                all(ok for _, ok, _ in checks),
                "traced tiny kernel workload gives bit-identical tables and counts",
            )
            names = {s[0]: s for s in tracer.spans}
            for name in ("build_kernel", "policy_improvement", "TransitionKernel.action_matrix"):
                expect(name in names, f"span recorded for {name}")
            parent = names["policy_improvement"][2]
            expect(
                parent >= 0 and tracer.spans[parent][0] == "iteration",
                "span parent recorded (policy_improvement under the execution span)",
            )

            execute(solve(solve_ref), tracer)
            nested = [
                s for s in tracer.spans
                if s[0] == "policy_evaluation" and tracer.spans[s[2]][0] == "policy_iteration"
            ]
            expect(bool(nested), "policy_evaluation spans nest under policy_iteration")
        finally:
            tracer.uninstall()
        expect(solver.policy_evaluation is original, "uninstall restores the originals")

        saved = solver.policy_iteration
        del solver.policy_iteration
        try:
            Tracer().install()
            raised = False
        except MissingTarget:
            raised = True
        finally:
            solver.policy_iteration = saved
        expect(raised, "a missing target raises MissingTarget")
        expect(
            not any(
                hasattr(getattr(sys.modules[module], attr), "__wrapped__")
                for _, module, attr in TARGETS
                if "." not in attr
            ),
            "a failed install wraps nothing",
        )

        wrong = dict(solve_ref, **{"lambda": solve_ref["lambda"] + 1.0})
        good = run.end_to_end(run.measure(solve(solve_ref), 0), [1.0])
        bad = run.end_to_end(run.measure(solve(wrong), 0), [1.0])
        expect(good["pass_rate"][0] == 1.0, "passing checks give pass_rate 1")
        expect(bad["pass_rate"][0] < 1.0, "a failing check lowers pass_rate (error_rate > 0)")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
