#!/usr/bin/env python3
"""Timing and accuracy of the 1-D (implicit) solver on the uncontrolled heat anchor.

The quadratic payoff is reproduced exactly by the interior stencils, so the
remaining error measures pure truncation-boundary contamination.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import hjbkit as hk
from hjbkit.oracles import heat_value


def run():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=400)
    ap.add_argument("--time-nodes", type=int, default=400)
    args = ap.parse_args()

    prob = hk.heat_problem(sigma=1.0, horizon=1.0)
    grid = hk.uniform_grid([-6.0], [6.0], [args.nodes])
    x = grid.axes[0]
    terminal = hk.GridFunction(grid, x**2)

    t0 = time.time()
    sol = hk.solve_hjb(prob, terminal, hk.SchemeConfig(n_time_nodes=args.time_nodes))
    elapsed = time.time() - t0

    closed = np.array([heat_value(0.0, xi) for xi in x])
    err = np.abs(sol.values[0] - closed)
    trust = (x >= -3.6) & (x <= 3.6)
    print(f"grid {args.nodes} x {args.time_nodes} "
          f"({sol.metadata['howard_iterations']} Howard iterations)")
    print(f"solve time          {elapsed:.2f} s")
    print(f"sup error (full)    {err.max():.3e}")
    print(f"sup error (trust)   {err[trust].max():.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
