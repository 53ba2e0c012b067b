import numpy as np
import pytest
from pytest import approx

from warpcheck.checks import CHECKS, EXAMPLE_CONFIGS, RunConfig, build_context, point_scratches
from warpcheck.conformal import (
    ConformalAnalysis,
    rotation_field,
    sphere_gradient_field,
    zero_field,
)
from warpcheck.jets import JetTensor, jt_einsum
from warpcheck.residuals import at_row
from warpcheck.spaces import (
    ConformalFieldSpec,
    build_warped_geometry,
    make_flat_torus_chart,
    make_sphere_chart,
)
from conftest import lone_chain, warping_derivatives


def analysis(wg_or_chart, field, p, order=4):
    """The analysis of ``field`` on the chunk of the point ``p`` alone, whose one row is 0."""
    chart = wg_or_chart.chart if hasattr(wg_or_chart, "chart") else wg_or_chart
    return ConformalAnalysis(lone_chain(chart, p, order), field)


def closed_analysis(wg_or_chart, field, p):
    """The analysis of ``analysis``, whose field must be closed at ``p``: the precondition of cxi_div."""
    cf = analysis(wg_or_chart, field, p)
    assert cf.is_closed[0]
    return cf


# -- characteristic function ------------------------------------------------------


def test_characteristic_function_is_hdot(ejiri):
    for p in ejiri.chart.sample_points(20, offset=0):
        phi = float(analysis(ejiri.chart, ejiri.xi, p, order=2).phi.value[0])
        hd = warping_derivatives(ejiri, p[0], 1)[1]
        assert phi == approx(hd, abs=1e-9)


def test_killing_rotation_characteristic_zero():
    chart = make_sphere_chart(2, 1.0)
    rot = rotation_field(2)
    p = np.array([0.3, 0.1])
    cf = analysis(chart, rot, p, order=2)
    assert float(cf.phi.value[0]) == approx(0.0, abs=1e-12)
    assert cf.conformality.at(0).abs < 1e-12


def test_sphere_gradient_field_is_conformal():
    for n in (3, 4):
        chart = make_sphere_chart(n, 1.0)
        xi = sphere_gradient_field(n, 1.0, axis=n + 1)
        p = chart.sample_points(3, offset=2)[1]
        cf = analysis(chart, xi, p, order=2)
        assert cf.conformality.at(0).abs < 1e-9
        phi = float(cf.phi.value[0])
        assert abs(phi) > 1e-3  # genuinely non-Killing


# -- conformal residual -----------------------------------------------------------


def test_warped_xi_conformal(ejiri):
    p = np.array([1.1, 0.2, -0.1, 0.3])
    assert analysis(ejiri.chart, ejiri.xi, p, order=2).conformality.at(0).abs < 1e-9


def test_non_conformal_witness():
    chart = make_flat_torus_chart(3)

    def builder(coords):
        zero = JetTensor.const(coords[0].space, 0.0)
        return [coords[1] * coords[1], zero, zero]

    bad = ConformalFieldSpec(label="shear", builder=builder)
    assert analysis(chart, bad, np.array([1.0, 2.0, 0.5]), order=2).conformality.at(0).abs > 0.1


def test_zero_field_residual(ejiri):
    p = np.array([1.1, 0.2, -0.1, 0.3])
    assert analysis(ejiri.chart, zero_field(4), p, order=2).conformality.at(0).abs == approx(0.0)


# -- P tensor -----------------------------------------------------------------------


def test_p_tensor_closed_field(ejiri):
    p = np.array([0.8, 0.2, -0.1, 0.3])
    pt = analysis(ejiri.chart, ejiri.xi, p, order=2).p.value[0]
    assert np.max(np.abs(pt)) < 1e-12


def test_p_tensor_rotation_on_flat_plane():
    chart = make_flat_torus_chart(2)
    rot = rotation_field(2)
    values = []
    for p in [np.array([1.0, 2.0]), np.array([4.0, 0.5])]:
        pt = analysis(chart, rot, p, order=2).p.value[0]
        assert pt == approx(-pt.T)
        values.append(pt[0, 1])
    assert values[0] == approx(values[1])  # constant skew part
    assert abs(values[0]) > 0.5


def test_p_tensor_zero_field(ejiri):
    p = np.array([0.8, 0.2, -0.1, 0.3])
    assert np.max(np.abs(analysis(ejiri.chart, zero_field(4), p, order=2).p.value[0])) == 0.0


# -- closed-field identities ------------------------------------------------------------


def test_closed_identities_on_ejiri(ejiri):
    p = np.array([0.4, 0.15, -0.2, 0.25])
    ids = at_row(analysis(ejiri.chart, ejiri.xi, p, order=3).closed_identities(), 0)
    for name in ("nabla_xi", "curvature_xi", "ric_xi", "nabla_p", "div_p"):
        assert ids[name].rel < 1e-8, name


def test_closed_identities_on_sphere_gradient():
    chart = make_sphere_chart(4, 1.0)
    xi = sphere_gradient_field(4, 1.0, axis=5)
    p = chart.sample_points(2, offset=7)[0]
    ids = at_row(analysis(chart, xi, p, order=3).closed_identities(), 0)
    assert ids["curvature_xi"].rel < 1e-8
    assert ids["ric_xi"].rel < 1e-8


def test_rotation_field_skips_closed_subchecks():
    chart = make_flat_torus_chart(3)
    ids = at_row(analysis(chart, rotation_field(3), np.array([1.0, 2.0, 1.5]), order=3).closed_identities(), 0)
    assert "nabla_xi" not in ids  # not closed: (a)/(d)/(e) filtered out
    assert ids["nabla_p"].rel < 1e-10  # general identities still hold


# -- Phi tensor --------------------------------------------------------------------------


def test_phi_reduces_to_cotton_contraction(basicex52):
    """Closed field + constant scalar: Phi_ik = -C_kli xi^l."""
    wg, _ = basicex52
    p = wg.chart.sample_points(2, offset=13)[1]
    cf = analysis(wg, wg.xi, p)
    expected = -jt_einsum("pkli,pl->pik", cf.chain.cotton, cf.xi).value[0]
    assert cf.phi_tensor_jets.value[0] == approx(expected, abs=1e-10)
    assert np.max(np.abs(expected)) > 1e-3  # nonzero Cotton here


def test_phi_zero_field(ejiri):
    p = np.array([0.6, 0.1, 0.1, -0.2])
    assert np.max(np.abs(analysis(ejiri.chart, zero_field(4), p).phi_tensor_jets.value[0])) < 1e-14


def test_phi_killing_on_sphere():
    chart = make_sphere_chart(3, 1.0)
    rot = rotation_field(3)
    p = chart.sample_points(2, offset=3)[0]
    assert np.max(np.abs(analysis(chart, rot, p).phi_tensor_jets.value[0])) < 1e-10


def test_phi_symmetry(expwarp4):
    p = np.array([0.3, 0.2, -0.1, 0.25])
    cf = analysis(expwarp4, expwarp4.xi, p)
    assert cf.phi_symmetry_defect().at(0).rel < 1e-8


# -- the main identity ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_firstthm_on_spheres(n):
    chart = make_sphere_chart(n, 1.0)
    xi = sphere_gradient_field(n, 1.0, axis=n + 1)
    for p in chart.sample_points(5, offset=0):
        assert analysis(chart, xi, p).firstthm_defect().at(0).rel < 1e-7


def test_firstthm_on_ejiri(ejiri):
    for p in ejiri.chart.sample_points(5, offset=0):
        assert analysis(ejiri.chart, ejiri.xi, p).firstthm_defect().at(0).rel < 1e-7


def test_firstthm_on_basicex(basicex52):
    wg, _ = basicex52
    for p in wg.chart.sample_points(5, offset=0):
        assert analysis(wg.chart, wg.xi, p).firstthm_defect().at(0).rel < 1e-7


def test_trace_identity(expwarp4):
    p = np.array([0.3, 0.2, -0.1, 0.25])
    cf = analysis(expwarp4, expwarp4.xi, p)
    assert cf.trace_identity_defect().at(0).rel < 1e-7


# -- i_xi C -------------------------------------------------------------------------------


def test_ixi_cotton_closed_constant_r(basicex52):
    """Closed field, constant R: ||i_xi C|| itself vanishes."""
    wg, _ = basicex52
    p = wg.chart.sample_points(2, offset=17)[0]
    cf = analysis(wg, wg.xi, p)
    assert cf.cxi_contraction_defect().at(0).rel < 1e-8
    assert at_row(cf.ixi_cotton_defect(), 0)["closed_form"].rel < 1e-8


def test_ixi_cotton_nonconstant_r():
    """Closed field on a nonconstant-R space: i_xi C = dR wedge xi^b / (2(n-1))."""
    wg = build_warped_geometry((-1.0, 1.0), "exp(t/5)", make_sphere_chart(3, 1.0))
    for p in wg.chart.sample_points(4, offset=0):
        cf = analysis(wg.chart, wg.xi, p)
        res = at_row(cf.ixi_cotton_defect(), 0)
        assert res["closed_form"].rel < 1e-7
        assert res["general"].rel < 1e-7


def test_ixi_cotton_zero_field(ejiri):
    p = np.array([0.6, 0.1, 0.1, -0.2])
    assert at_row(analysis(ejiri.chart, zero_field(4), p).ixi_cotton_defect(), 0)["general"].abs < 1e-14


def test_ixi_cotton_general_non_closed_field():
    chart = make_sphere_chart(3, 1.0)
    rot = rotation_field(3)
    p = chart.sample_points(2, offset=5)[1]
    cf = analysis(chart, rot, p)
    res = at_row(cf.ixi_cotton_defect(), 0)
    assert res["general"].rel < 1e-8
    assert "closed_form" not in res  # the closed reduction is reported for closed fields only


# -- Xi contraction --------------------------------------------------------------------------


def test_cxi_divergence_on_catalog(ejiri, basicex52):
    wg, _ = basicex52
    for geometry in (ejiri, wg):
        p = geometry.chart.sample_points(3, offset=19)[1]
        assert closed_analysis(geometry.chart, geometry.xi, p).cxi_divergence_defect().at(0).rel < 1e-6


def test_cxi_divergence_zero_field(ejiri):
    p = np.array([0.6, 0.1, 0.1, -0.2])
    assert closed_analysis(ejiri.chart, zero_field(4), p).cxi_divergence_defect().at(0).abs < 1e-14


# -- shared contractions ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, field",
    [(name, None) for name in ("ejiri", "basicex-n5-k2", "equiv-fail", "nonconstant-exp", "sphere-s4")]
    + [("sphere-s4", {"builtin": "rotation"})],  # not closed: P and its derivatives do not vanish
)
def test_shared_contractions_read_transposed_keep_every_bit(name, field):
    """C(., xi, .), g^-1 d2P and Ric P^# are formed once, at order 0; each transposed
    read equals the contraction it replaced, formed from the same order-0 operands,
    at every byte, zeros' signs included."""
    raw = EXAMPLE_CONFIGS[name]
    config = RunConfig.from_dict(dict(raw, field=field) if field else raw)
    ctx = build_context(config)
    specs = [CHECKS[check] for check in config.checks]
    orders = [max(getattr(spec, key) for spec in specs) for key in ("order", "fiber_order", "metric_order")]
    scratches = point_scratches(ctx, ctx.chart.sample_points(10, offset=3), *orders)
    for chunk in {id(sc.chunk): sc.chunk for sc in scratches}.values():
        ca = chunk.conformal
        b = ca.chain
        pairs = [
            (ca.cotton_mid_xi.transpose("pki->pik"), jt_einsum("pkli,pl->pik", b.cotton, ca.xi.truncate(0))),
            (ca.ginv_d2p.transpose("pki->pik"), jt_einsum("pjd,pjkdi->pik", b.ginv, ca.d2p)),
            (ca.ginv_d2p.transpose("pkj->pjk"), jt_einsum("pqd,pqkdj->pjk", b.ginv, ca.d2p)),
            (ca.ric_p_up.transpose("pkj->pjk"), jt_einsum("pka,paj->pjk", b.ric, ca.p_up)),
        ]
        for cached, formed in pairs:
            assert cached.order == formed.order == 0
            assert cached.data.tobytes() == formed.data.tobytes()
