"""Finite-difference oracles for the jet curvature pipeline.

Each test rebuilds a curvature quantity from metric (or lower-order
curvature) VALUES at stencil points, with no jets beyond what the stencil
evaluation itself needs, and compares against the jet path.  Tolerances are
set by the stencils, not the jets.
"""

import numpy as np

from warpcheck.geometry import CurvatureBundle


def metric_at(chart, p):
    return chart.metric_jets(p, 1).value


def fd_metric_partials(chart, p, step=1e-6):
    """d_k g_ij by central differences of metric values."""
    n = chart.dim
    out = np.empty((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        out[:, :, k] = (metric_at(chart, p + e) - metric_at(chart, p - e)) / (2 * step)
    return out


def fd_christoffel(chart, p, step=1e-6):
    g0 = metric_at(chart, p)
    ginv = np.linalg.inv(g0)
    dg = fd_metric_partials(chart, p, step)
    sym = np.einsum("jli->ijl", dg) + np.einsum("ilj->ijl", dg) - dg
    return 0.5 * np.einsum("kl,ijl->kij", ginv, sym)


def test_fd_christoffel(basicex52):
    wg, _ = basicex52
    p = wg.chart.sample_points(2, offset=11)[0]
    jets = CurvatureBundle(wg.chart, p, order=1).gamma.value
    fd = fd_christoffel(wg.chart, p)
    assert np.max(np.abs(jets - fd)) < 1e-7


def test_fd_riemann(basicex52):
    """R^l_ijk from central differences of Christoffel values."""
    wg, _ = basicex52
    p = wg.chart.sample_points(2, offset=11)[0]
    n = wg.chart.dim
    step = 1e-5
    dgamma = np.empty((n, n, n, n))  # (upper, low1, low2, deriv)
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        plus = CurvatureBundle(wg.chart, p + e, order=1).gamma.value
        minus = CurvatureBundle(wg.chart, p - e, order=1).gamma.value
        dgamma[:, :, :, k] = (plus - minus) / (2 * step)
    gamma = CurvatureBundle(wg.chart, p, order=1).gamma.value
    fd = (
        np.einsum("lkij->lijk", dgamma)
        - np.einsum("ljik->lijk", dgamma)
        + np.einsum("mki,ljm->lijk", gamma, gamma)
        - np.einsum("mji,lkm->lijk", gamma, gamma)
    )
    jets = CurvatureBundle(wg.chart, p, order=2).riemann13.value
    assert np.max(np.abs(jets - fd)) < 1e-5


def test_fd_cotton(basicex52):
    """C_ijk from central differences of Schouten values plus corrections."""
    wg, _ = basicex52
    p = wg.chart.sample_points(2, offset=11)[0]
    n = wg.chart.dim
    step = 1e-5
    da = np.empty((n, n, n))  # partial_k A_ij in the last axis
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        plus = CurvatureBundle(wg.chart, p + e, order=2).schouten.value
        minus = CurvatureBundle(wg.chart, p - e, order=2).schouten.value
        da[:, :, k] = (plus - minus) / (2 * step)
    b = CurvatureBundle(wg.chart, p, order=3)
    gamma = b.gamma.value
    a0 = b.schouten.value
    nabla = da - np.einsum("sia,sj->ija", gamma, a0) - np.einsum("sja,is->ija", gamma, a0)
    fd_cotton = nabla - np.einsum("ijk->ikj", nabla)
    assert np.max(np.abs(b.cotton.value - fd_cotton)) < 1e-5
    assert np.max(np.abs(b.cotton.value)) > 0.05  # the comparison is nontrivial here


def test_fd_cotton_divergence(basicex52):
    """Xi_ik from central differences of Cotton values plus corrections."""
    wg, _ = basicex52
    p = wg.chart.sample_points(2, offset=11)[0]
    n = wg.chart.dim
    step = 1e-4
    dc = np.empty((n, n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        plus = CurvatureBundle(wg.chart, p + e, order=3).cotton.value
        minus = CurvatureBundle(wg.chart, p - e, order=3).cotton.value
        dc[:, :, :, k] = (plus - minus) / (2 * step)
    b = CurvatureBundle(wg.chart, p, order=4)
    gamma = b.gamma.value
    c0 = b.cotton.value
    nabla = (
        dc
        - np.einsum("sia,sjk->ijka", gamma, c0)
        - np.einsum("sja,isk->ijka", gamma, c0)
        - np.einsum("ska,ijs->ijka", gamma, c0)
    )
    fd_xi = np.einsum("jl,ijkl->ik", b.ginv0, nabla)
    assert np.max(np.abs(b.cotton_divergence.value - fd_xi)) < 1e-6


def test_order_independence(basicex52):
    """Cotton values agree between order-3 and order-4 pipelines."""
    wg, _ = basicex52
    p = wg.chart.sample_points(1, offset=14)[0]
    c3 = CurvatureBundle(wg.chart, p, order=3).cotton.value
    c4 = CurvatureBundle(wg.chart, p, order=4).cotton.value
    assert np.max(np.abs(c3 - c4)) < 1e-12
