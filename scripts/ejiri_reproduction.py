#!/usr/bin/env python3
"""Reproduce the S^1 x_h S^3(1) example end to end.

Integrates hddot + h/4 = (3/4) h^-3 from (sqrt 2, 1/(2 sqrt 2)), compares
against the analytic h = sqrt(2 + sin t) over one period, then assembles the
warped chart from the numerical trajectory and verifies constant scalar
curvature 3 and the vanishing identities at sampled points.
"""

import math
import sys

import numpy as np

from warpcheck.checks import CheckContext, PointScratch
from warpcheck.ode import OdeWarpingFunction, WarpOdeParams, first_integral, integrate_warpedvss
from warpcheck.spaces import assemble_warped, make_sphere_chart
from warpcheck.statics import icotton_warped_residual, warpedproduct3_residual


def main() -> int:
    params = WarpOdeParams(n=4, scalar=3.0, rbar=6.0, c1=0.75)
    h0, v0 = math.sqrt(2.0), 1.0 / (2.0 * math.sqrt(2.0))
    period = 2.0 * math.pi
    traj = integrate_warpedvss(params, h0, v0, period, 1e-3)

    analytic = np.sqrt(2.0 + np.sin(traj.times))
    err = float(np.max(np.abs(traj.h - analytic)))
    drift = float(np.max(np.abs(first_integral(params, traj.h, traj.hdot))))
    print(f"max |h - sqrt(2+sin t)| over one period: {err:.3e}")
    print(f"max first-integral residual (tau = {params.tau}): {drift:.3e}")

    warping = OdeWarpingFunction(params, traj, period=period)
    wg = assemble_warped(warping, make_sphere_chart(3, 1.0), (0.0, period), "ejiri-from-ode")
    scalars, icz, wp3 = [], 0.0, 0.0
    ctx = CheckContext(wg.chart, wg)
    for p in wg.chart.sample_points(50, offset=0):
        sc = PointScratch(ctx, p, order=3)
        scalars.append(sc.bundle.scalar)
        icz = max(icz, icotton_warped_residual(sc.bundle).rel)
        wp3 = max(wp3, warpedproduct3_residual(wg, sc.hdot)[0].rel)
    print(f"scalar curvature: mean {np.mean(scalars):.12f}, spread {max(scalars) - min(scalars):.3e}")
    print(f"max i_dt C residual:      {icz:.3e}")
    print(f"max L*hdot + C(.,xi,.):   {wp3:.3e}")
    ok = err < 1e-8 and drift < 1e-9 and max(scalars) - min(scalars) < 1e-6
    print("OK" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
