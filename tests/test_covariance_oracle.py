"""A coordinate-covariance oracle: curvature invariants do not depend on the chart.

Each example chart is pulled back by y = c + A dx + Q(dx, dx), dx = x - c,
with A a non-diagonal matrix near the identity and Q a quadratic term: the
pulled-back metric is J^T g(y) J with J = dy/dx, built by composing the
chart's own builder with jets.  At x = c, where y = c, the scalar curvature
and the frame norms |Ric|, |Rm|, |C| and |Xi| must be those of the chart at
c.  The quadratic term is what reaches the inhomogeneous part of the
Christoffel symbols, which a linear map alone transforms as a tensor.

The chart's invariants come from one chunk of its sample points, through the
batched frame norms; the pulled-back ones from a lone bundle per point, in
other coordinates, so the two sides share no bits.
"""

import copy

import numpy as np
import pytest

from warpcheck import geometry
from warpcheck.checks import EXAMPLE_CONFIGS, RunConfig, build_context
from warpcheck.geometry import ChartBatch, CurvatureBundle, MetricChart

# Bounds on the gaps, relative to 1 + |value|: the largest clean gaps of a probe at order 4 over the example
# charts (R, |Ric| and |Rm| 2.4e-15, |C| 7.2e-13, |Xi| 1.1e-11 on ejiri-ode), with a margin of 10.  The draws
# below reach 4e-15, 9.4e-14 and 1.2e-12.  Christoffel symbols off by 1e-8 move R by 2.1e-9 or more, |Rm| by
# 7.8e-10, |C| by 1.8e-8 and |Xi| by 7.2e-8, above ten times each bound on every chart.
SPREAD = 0.2  # of the entries of A - I and of Q
MARGIN = 10.0
BOUNDS = {
    "R": MARGIN * 2.4e-15,
    "Ric": MARGIN * 2.4e-15,
    "Rm": MARGIN * 2.4e-15,
    "C": MARGIN * 7.2e-13,
    "Xi": MARGIN * 1.1e-11,
}


def _pullback(chart: MetricChart, c: np.ndarray, a: np.ndarray, q: np.ndarray) -> MetricChart:
    n = chart.dim

    def builder(x):
        dx = [x[i] - c[i] for i in range(n)]
        y = [c[k] + sum(a[k, i] * dx[i] for i in range(n)) + sum(q[k, i, j] * dx[i] * dx[j]
             for i in range(n) for j in range(n)) for k in range(n)]
        g = chart.builder(y)
        jac = [[a[k, i] + sum((q[k, i, j] + q[k, j, i]) * dx[j] for j in range(n)) for i in range(n)] for k in range(n)]
        return [[sum(jac[k][i] * g[k][m] * jac[m][j] for k in range(n) for m in range(n)) for j in range(n)]
                for i in range(n)]

    return MetricChart(n, f"{chart.label} pulled back", builder, chart.box)


def _invariants(b) -> dict:
    """R and the frame norms, one per point of a chunk or one at a bundle's point."""
    return {
        "R": b.scalar_jet.value,
        "Ric": b.norm(b.ric.value, ("l",) * 2),
        "Rm": b.norm(b.riemann4.value, ("l",) * 4),
        "C": b.norm(b.cotton.value, ("l",) * 3),
        "Xi": b.norm(b.cotton_divergence.value, ("l",) * 2),
    }


def _gaps(name: str) -> dict:
    """The largest gap of each invariant over three pulled-back charts of the example ``name``."""
    chart = build_context(RunConfig.from_dict(copy.deepcopy(EXAMPLE_CONFIGS[name]))).chart
    n = chart.dim
    rng = np.random.default_rng(sorted(EXAMPLE_CONFIGS).index(name))
    points = chart.sample_points(3, offset=11)
    (chain,) = ChartBatch(chart, points, 4).chunks(len(points))
    want = _invariants(chain)
    gaps = dict.fromkeys(BOUNDS, 0.0)
    for k, c in enumerate(points):
        a = np.eye(n) + rng.uniform(-SPREAD, SPREAD, (n, n))
        q = rng.uniform(-SPREAD, SPREAD, (n, n, n))
        got = _invariants(CurvatureBundle(_pullback(chart, c, a, q), c, 4))
        for key, value in got.items():
            gaps[key] = max(gaps[key], abs(float(value) - float(want[key][k])) / (1.0 + abs(float(want[key][k]))))
    return gaps


@pytest.mark.parametrize("name", sorted(EXAMPLE_CONFIGS))
def test_invariants_agree_in_pulled_back_coordinates(name):
    gaps = _gaps(name)
    assert all(gaps[key] <= bound for key, bound in BOUNDS.items()), gaps


@pytest.mark.parametrize("name", sorted(EXAMPLE_CONFIGS))
def test_oracle_catches_scaled_christoffel_symbols(monkeypatch, name):
    """Christoffel symbols off by 1e-8 where the chain forms them, in both charts: every invariant leaves its
    bound, as no example check FAILs under this defect."""
    gamma = geometry._Chain.gamma.func
    monkeypatch.setattr(geometry._Chain, "gamma", property(lambda chain: gamma(chain) * (1.0 + 1e-8)))
    gaps = _gaps(name)
    assert all(gaps[key] > 10.0 * bound for key, bound in BOUNDS.items()), gaps
