"""Cross-validation of generic jet curvature against warped-product closed forms."""

import numpy as np
import pytest
from pytest import approx

from warpcheck.geometry import CurvatureBundle
from warpcheck.sampling import halton_points
from conftest import warping_derivatives


@pytest.mark.parametrize("case", ["ejiri", "exp"])
def test_ricci_closed_forms(case, ejiri, expwarp4):
    """Ric(dt,dt) = -(n-1) hddot/h, Ric(dt,X) = 0, and the fiber block formula."""
    wg = ejiri if case == "ejiri" else expwarp4
    fiber = wg.fiber_chart
    for p in wg.chart.sample_points(6, offset=0):
        b = CurvatureBundle(wg.chart, p, order=2)
        n = b.dim
        h, hd, hdd = warping_derivatives(wg, p[0], 2)[:3]
        ric = b.ric.value
        assert ric[0, 0] == approx(-(n - 1) * hdd / h, abs=1e-9)
        assert np.max(np.abs(ric[0, 1:])) < 1e-10
        fb = CurvatureBundle(fiber, p[1:], order=2)
        gbar = fb.g0
        expected = fb.ric.value - (h * hdd + (n - 2) * hd**2) * gbar
        assert ric[1:, 1:] == approx(expected, abs=1e-9)


@pytest.mark.parametrize("case", ["ejiri", "exp", "exp3"])
def test_scalar_closed_form(case, ejiri, expwarp4, expwarp3):
    """R h^2 = Rbar - (n-1)(n-2) hdot^2 - 2(n-1) h hddot.

    The n=3 case takes Rbar as the plain scalar curvature of the
    2-dimensional fiber (twice its Gauss curvature); the formula holds as
    printed.
    """
    wg = {"ejiri": ejiri, "exp": expwarp4, "exp3": expwarp3}[case]
    for p in wg.chart.sample_points(6, offset=0):
        b = CurvatureBundle(wg.chart, p, order=2)
        n = b.dim
        h, hd, hdd = warping_derivatives(wg, p[0], 2)[:3]
        rbar = CurvatureBundle(wg.fiber_chart, p[1:], order=2).scalar
        predicted = (rbar - (n - 1) * (n - 2) * hd**2 - 2 * (n - 1) * h * hdd) / h**2
        assert b.scalar == approx(predicted, abs=1e-9)


def test_halton_determinism():
    a = halton_points(3, 10, offset=4)
    b = halton_points(3, 10, offset=4)
    assert np.array_equal(a, b)
    shifted = halton_points(3, 10, offset=5)
    assert np.array_equal(a[1:], shifted[:-1])
    assert np.all((a >= 0.0) & (a < 1.0))


def test_chart_sampling_respects_box_and_exclusion():
    from warpcheck.spaces import make_hyperbolic_chart

    chart = make_hyperbolic_chart(3, 1.0)
    pts = chart.sample_points(40, offset=0)
    assert pts.shape == (40, 3)
    for p in pts:
        assert chart.contains(p)
        assert np.dot(p, p) < (0.85) ** 2
