"""Accelerating legacy sparse linear algebra (the paper's CG story, §2.3).

Takes the NAS-CG conjugate-gradient recreation, detects its idioms (two
CSR SPMV instances + eight scalar reductions), replaces them with
heterogeneous API calls, verifies that the transformed program computes
the same answer, and reports the simulated speedup of the best API on
each platform.

Run:  python examples/accelerate_cg.py
"""

from repro.backends.api import API_DESCRIPTORS
from repro.experiments.harness import accelerated_seconds, evaluate_workload
from repro.platform import MACHINES
from repro.runtime import (
    compile_workload,
    outputs_match,
    run_accelerated,
    run_original,
)
from repro.workloads import get_workload


def main() -> None:
    workload = get_workload("CG")
    print(f"Benchmark: NAS {workload.name} — {workload.suite}")

    compiled = compile_workload(workload.name, workload.source)
    print("\nDetected idioms:")
    for match in compiled.report.matches:
        print(f"  {match.idiom:12s} in @{match.function.name}")

    inputs = workload.make_inputs(1)
    original = run_original(compiled, workload.entry, inputs)
    print(f"\nSequential execution: {original.total_instructions} "
          f"IR instructions interpreted")
    print(f"Idiom runtime coverage: {100 * original.coverage:.1f}%")

    accel_module = compile_workload(workload.name, workload.source)
    accelerated = run_accelerated(accel_module, workload.entry,
                                  workload.make_inputs(1))
    print(f"Accelerated execution: {accelerated.total_instructions} "
          f"IR instructions + {len(accelerated.api_runtime.all_sites())} "
          f"API call sites")
    assert outputs_match(original, accelerated), "results diverged!"
    print("Outputs verified identical.")

    print("\nSimulated end-to-end speedup (best API per platform):")
    ev = evaluate_workload(workload)
    for mname, machine in MACHINES.items():
        best = None
        for api in API_DESCRIPTORS.values():
            seconds = accelerated_seconds(ev, api, machine, lazy=True)
            if seconds is not None and (best is None or seconds < best[0]):
                best = (seconds, api.name)
        if best:
            seq = ev.sequential_seconds * workload.paper_scale
            print(f"  {mname:5s} {seq / best[0]:6.2f}x  (via {best[1]})")


if __name__ == "__main__":
    main()
