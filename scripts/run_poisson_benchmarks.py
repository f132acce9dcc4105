#!/usr/bin/env python3
"""Run the real conjugate-gradient Poisson solves at desk scale and print
the modeled strong/weak scaling tables. Each solve's wall time, a host figure,
goes to stderr, so stdout depends only on the inputs."""

import argparse
import math
import sys
import time

import numpy as np

from batchsim.fabric import AZURE_INTERCONNECT, COLONIAL_INTERCONNECT
from batchsim.workloads import (
    PoissonScalingModeled,
    ScalingMode,
    manufactured_solution,
    scaling_table,
    solve_cg,
    unit_cube_grid,
)


def real_solves(edges):
    print("# real CG solves, manufactured problem, absolute tolerance 1e-12")
    print("n\titerations\tresidual\tmax_error")
    errors = {}
    for n in edges:
        grid = unit_cube_grid(n)
        exact, rhs = manufactured_solution(grid)
        t0 = time.perf_counter()
        result = solve_cg(grid, rhs)
        wall = time.perf_counter() - t0
        err = float(np.max(np.abs(result.solution - exact)))
        errors[n] = err
        print(f"{n}\t{result.iterations}\t{result.final_residual:.3e}\t{err:.6e}")
        print(f"n={n}: wall {wall:.2f} s", file=sys.stderr)
    pairs = list(zip(edges, edges[1:]))
    for a, b in pairs:
        h_ratio = (b + 1) / (a + 1)
        order = math.log(errors[a] / errors[b]) / math.log(h_ratio)
        print(f"# observed order {a}^3 -> {b}^3: {order:.3f}")


def modeled_scaling():
    print("\n# modeled strong scaling, 50M cells, 16 processes per node (s/iteration)")
    strong = PoissonScalingModeled(50_000_000, ScalingMode.STRONG)
    for model in (AZURE_INTERCONNECT, COLONIAL_INTERCONNECT):
        rows = scaling_table(strong, [1, 2, 4, 8], 16, model)
        row_text = "  ".join(f"{n}:{t:.4f}" for n, t in rows)
        print(f"{model.name}\t{row_text}")
    print("\n# modeled weak scaling, 6.25M cells/node base, 12 processes per node (s/iteration)")
    weak = PoissonScalingModeled(6_250_000, ScalingMode.WEAK)
    for model in (AZURE_INTERCONNECT, COLONIAL_INTERCONNECT):
        rows = scaling_table(weak, [1, 2, 4, 8], 12, model)
        row_text = "  ".join(f"{n}:{t:.4f}" for n, t in rows)
        print(f"{model.name}\t{row_text}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--edges", type=int, nargs="+", default=[16, 32, 48])
    args = parser.parse_args()
    real_solves(args.edges)
    modeled_scaling()


if __name__ == "__main__":
    main()
