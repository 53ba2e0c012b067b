"""The main identity under a fully general conformal field.

The mixed field h d/dt + (fiber rotation) is conformal but not closed, so
the skew part P, its second derivatives, the Ricci-P coupling, the Cotton
contraction, and (on the exp-warped space) the dR terms are all active at
once.  These are the strongest single-point exercises of the Phi pipeline.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from warpcheck.conformal import ConformalAnalysis
from warpcheck.geometry import CurvatureBundle
from warpcheck.jets import JetTensor, jt_einsum
from warpcheck.residuals import at_row
from warpcheck.spaces import (
    ConformalFieldSpec,
    build_warped_geometry,
    make_sphere_chart,
)
from conftest import lone_chain, warping_derivatives


def _mixed_field(wg, dim):
    def builder(coords):
        h = wg.warping(coords[0])
        zero = JetTensor.const(coords[0].space, 0.0)
        comps = [h, -coords[2], coords[1]] + [zero] * (dim - 3)
        return comps

    return ConformalFieldSpec("h d/dt + rotation", builder)


def test_nonclosed_field_on_nonzero_cotton_space(basicex52):
    wg, _ = basicex52
    xi = _mixed_field(wg, 5)
    for p in wg.chart.sample_points(4, offset=21):
        b = CurvatureBundle(wg.chart, p, order=4)
        cf = ConformalAnalysis(lone_chain(wg.chart, p, 4), xi)
        assert cf.conformality.at(0).rel < 1e-12
        assert not cf.is_closed[0]
        assert b.norm(b.cotton.value, ("l",) * 3) > 0.1
        assert b.norm(cf.p.value[0], ("l", "l")) > 0.1
        assert cf.firstthm_defect().at(0).rel < 1e-12
        assert cf.phi_symmetry_defect().at(0).rel < 1e-12
        assert at_row(cf.ixi_cotton_defect(), 0)["general"].rel < 1e-12
        assert cf.trace_identity_defect().at(0).rel < 1e-10


def test_nonclosed_field_on_nonconstant_scalar_space(expwarp4):
    xi = _mixed_field(expwarp4, 4)
    for p in expwarp4.chart.sample_points(4, offset=3):
        cf = ConformalAnalysis(lone_chain(expwarp4.chart, p, 4), xi)
        assert cf.conformality.at(0).rel < 1e-12
        assert not cf.is_closed[0]
        assert cf.firstthm_defect().at(0).rel < 1e-12
        assert at_row(cf.ixi_cotton_defect(), 0)["general"].rel < 1e-12


def test_metric_inverse_jets_exact(basicex52):
    wg, _ = basicex52
    p = wg.chart.sample_points(1, offset=6)[0]
    b = CurvatureBundle(wg.chart, p, order=4)
    assert b.ginv.order == b.order - 1
    identity = jt_einsum("ij,jk->ik", b.g, b.ginv)
    expected = JetTensor.const(b.ginv.space, np.eye(b.dim))
    assert np.max(np.abs(identity.data - expected.data)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(min_value=1.5, max_value=3.0),
    bcoef=st.floats(min_value=-0.5, max_value=0.5),
    ccoef=st.floats(min_value=-0.5, max_value=0.5),
    radius=st.floats(min_value=0.7, max_value=1.5),
    t0=st.floats(min_value=-0.9, max_value=0.9),
)
def test_warped_scalar_formula_property(a, bcoef, ccoef, radius, t0):
    """R h^2 = Rbar - (n-1)(n-2) hdot^2 - 2(n-1) h hddot for random warpings."""
    src = f"{a}+{bcoef}*sin(t)+{ccoef}*cos(t)"
    wg = build_warped_geometry((-1.0, 1.0), src, make_sphere_chart(3, radius))
    p = np.array([t0, 0.15, -0.1, 0.2])
    b = CurvatureBundle(wg.chart, p, order=2)
    h, hd, hdd = warping_derivatives(wg, t0, 2)[:3]
    rbar = 6.0 / radius**2
    predicted = (rbar - 3.0 * 2.0 * hd**2 - 2.0 * 3.0 * h * hdd) / h**2
    assert b.scalar == approx(predicted, rel=1e-9, abs=1e-9)
