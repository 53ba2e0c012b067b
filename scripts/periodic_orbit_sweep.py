#!/usr/bin/env python3
"""Sweep periodic warpings over amplitude and certify each assembled chart.

For n = 4, R = 12, c1 = 2 the equation has a center at h_eq = 2^(1/4);
every orbit through (h0, 0) with h0 < h_eq is periodic.  For a ladder of
amplitudes this prints the period, the fiber radius implied by the first
integral, and the scalar-constancy defect of the assembled warped chart.
"""

import math
import sys

from warpcheck.geometry import CurvatureBundle
from warpcheck.ode import (
    OdeWarpingFunction,
    WarpOdeParams,
    equilibrium_radius,
    find_periodic_solution,
    rbar_from_initial,
)
from warpcheck.spaces import assemble_warped, make_sphere_chart


def main() -> int:
    base = WarpOdeParams(n=4, scalar=12.0, rbar=0.0, c1=2.0)
    h_eq = equilibrium_radius(base)
    omega = math.sqrt(-base.rhs_prime(h_eq))
    print(f"h_eq = {h_eq:.6f}, small-oscillation period = {2 * math.pi / omega:.6f}")
    print(f"{'h0/h_eq':>8s} {'period':>10s} {'fiber r':>9s} {'scalar spread':>14s}")
    for ratio in (0.995, 0.95, 0.9, 0.8, 0.7):
        h0 = ratio * h_eq
        rbar = rbar_from_initial(base, h0, 0.0)
        params = WarpOdeParams(4, 12.0, rbar, 2.0)
        traj, period = find_periodic_solution(params, h0, dt=1e-3)
        radius = math.sqrt(6.0 / rbar)
        warping = OdeWarpingFunction(params, traj, period=period)
        wg = assemble_warped(warping, make_sphere_chart(3, radius), (0.0, period), f"orbit {ratio}")
        scalars = [
            CurvatureBundle(wg.chart, p, order=2).scalar
            for p in wg.chart.sample_points(25, offset=0)
        ]
        spread = max(scalars) - min(scalars)
        print(f"{ratio:8.3f} {period:10.6f} {radius:9.5f} {spread:14.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
