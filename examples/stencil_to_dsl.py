"""Stencil → DSL pipeline: detect a Jacobi kernel, extract its kernel
function, translate to the miniature Halide and Lift backends (paper §6.2)
and execute both against the interpreter for cross-validation.

Run:  python examples/stencil_to_dsl.py
"""

import numpy as np

from repro.analysis import FunctionAnalyses
from repro.backends import halide, lift
from repro.frontend import compile_c
from repro.idioms import detect_idioms
from repro.passes import optimize
from repro.transform import KernelExtractor, compile_kernel, kernel_to_c

C_SOURCE = """
void blur(int n, double *out, double *in) {
  for (int i = 1; i < n; i++)
    out[i] = 0.25*in[i-1] + 0.5*in[i] + 0.25*in[i+1];
}
"""


def main() -> None:
    module = compile_c(C_SOURCE)
    optimize(module)
    report = detect_idioms(module)
    match = report.matches[0]
    print(f"Detected: {match.idiom} in @{match.function.name}")
    offsets = [o[0] for o in match.stencil_offsets()]
    print(f"Read offsets: {offsets}")

    # Extract the kernel function the way the transformer does.
    analyses = FunctionAnalyses(match.function)
    reads = match.family("kernel.input")
    extractor = KernelExtractor(analyses, match.value("begin"),
                                match.value("body.begin"), reads)
    kernel = extractor.extract(match.value("kernel.output"))

    print("\nKernel as C (the IR-to-C backend Lift consumes):")
    print(kernel_to_c(kernel, name="blur_kernel", n_params=len(reads)))

    # Halide translation: a Func over shifted buffer reads + schedule.
    func = halide.stencil_to_halide(
        kernel.expr, [(o,) for o in offsets], captures=[], name="blur")
    print(f"\nHalide stage: {func} "
          f"(parallel={func.schedule.parallel}, "
          f"vectorize={func.schedule.vectorize})")

    rng = np.random.default_rng(0)
    grid = rng.uniform(0, 1, 64)
    halide_out = func.realize([(1, 63)], {"input": grid})

    # Direct vectorised evaluation of the extracted kernel (what the
    # simulated Lift pipeline executes under the hood).
    views = [grid[1 + o:63 + o] for o in offsets]
    direct = compile_kernel(kernel.expr)(views, [])

    np.testing.assert_allclose(halide_out, direct, atol=1e-12)
    print("\nHalide realisation matches the extracted kernel: OK")

    # And the Lift rendition of a reduction for comparison (Figure 15).
    pattern = lift.reduction_to_lift(lambda a, b: a * b, "sum", 0.0, 2)
    dot = lift.compile_pattern(pattern)
    x, y = rng.uniform(0, 1, 32), rng.uniform(0, 1, 32)
    assert abs(dot({"in0": x, "in1": y}) - float(x @ y)) < 1e-9
    print("Lift reduce(add, 0, map(mult, zip(x, y))) matches numpy: OK")


if __name__ == "__main__":
    main()
