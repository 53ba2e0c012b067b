import math

import numpy as np
import pytest
from pytest import approx

import warpcheck.dsl as dsl
from warpcheck.checks import CHECKS, CheckContext, point_scratches
from warpcheck.conformal import sphere_gradient_field
from warpcheck.geometry import CurvatureBundle
from warpcheck.jets import JetTensor
from warpcheck.residuals import PreconditionSkip, at_row
from warpcheck.spaces import (
    StaticPotentialSpec,
    build_warped_geometry,
    make_flat_torus_chart,
    make_sphere_chart,
    sphere_height_potential,
)
from warpcheck.statics import (
    SOLUTION_REL_TOL,
    StaticAnalysis,
    equivalence_residuals,
    icotton_warped_residual,
    lgh_closed_forms,
    nonconstant_r_cotton_formulas,
    t_potential,
)

from conftest import lone_chain, wp3_sides


def constant_potential(c=1.0):
    return StaticPotentialSpec(label=f"const {c}", builder=lambda coords: c)


def static(chart, potential, p, order=2):
    """The analysis of ``potential`` on the chunk of the point ``p`` alone, whose one row is 0."""
    return StaticAnalysis(lone_chain(chart, p, order), potential)


def solution(chart, potential, p, order=2):
    """The analysis of ``static``, whose potential must solve the generalized equation at ``p``: the precondition
    of the identities that assume a solution."""
    analysis = static(chart, potential, p, order)
    assert analysis.solution_defect.at(0).rel <= SOLUTION_REL_TOL
    return analysis


def xicvf(chart, potential, xi, p):
    (sc,) = point_scratches(CheckContext(chart, potential=potential, fld=xi), np.array([p], dtype=float), 3)
    return CHECKS["xicvf_forms"].evaluate(sc)


# -- L* ---------------------------------------------------------------------------


def test_lstar_constant_on_flat_torus():
    chart = make_flat_torus_chart(3)
    value = static(chart, constant_potential(), np.array([1.0, 2.0, 3.0])).lstar_f.value[0]
    assert np.max(np.abs(value)) == 0.0


def test_lstar_basicex_potential(basicex52):
    wg, pot = basicex52
    for p in wg.chart.sample_points(5, offset=0):
        b = CurvatureBundle(wg.chart, p, order=2)
        assert b.norm(static(wg.chart, pot, p).lstar_f.value[0], ("l", "l")) < 1e-8


def test_lstar_constant_on_sphere():
    n = 4
    chart = make_sphere_chart(n, 1.0)
    p = chart.sample_points(2, offset=1)[0]
    b = CurvatureBundle(chart, p, order=2)
    value = static(chart, constant_potential(), p).lstar_f.value[0]
    # f == 1 gives -Ric, with norm (n-1) sqrt(n)
    assert value == approx(-b.ric.value, abs=1e-10)
    assert b.norm(value, ("l", "l")) == approx((n - 1) * math.sqrt(n), rel=1e-9)


def test_lstar_trace_identity(basicex52):
    """g^ij (L*f)_ij + (n-1) Lap f + R f = 0."""
    wg, pot = basicex52
    p = wg.chart.sample_points(1, offset=8)[0]
    b = CurvatureBundle(wg.chart, p, order=2)
    st = static(wg.chart, pot, p)
    trace = float(np.einsum("ij,ij->", b.ginv0, st.lstar_f.value[0]))
    lap = float(st.lap.value[0])
    f0 = float(st.f.value[0])
    combo = trace + (b.dim - 1.0) * lap + b.scalar * f0
    scale = abs(trace) + abs((b.dim - 1.0) * lap) + abs(b.scalar * f0)
    assert abs(combo) / (1.0 + scale) < 1e-9


# -- vacuum static residuals ----------------------------------------------------------


def test_vss_residuals_basicex(basicex41):
    wg, pot = basicex41
    for p in wg.chart.sample_points(5, offset=0):
        res = at_row(static(wg.chart, pot, p).vacuum, 0)
        assert res["full"].rel < 1e-8
        assert res["trace"].rel < 1e-8
        assert res["trace_free"].rel < 1e-8


def test_vss_residuals_reuse_cached_jets(basicex41, monkeypatch):
    """Once L* f is cached, only the trace-free tensor's two products are formed, once for the chunk; f Ric is not
    formed again."""
    import warpcheck.geometry
    import warpcheck.statics

    wg, pot = basicex41
    analysis = static(wg.chart, pot, wg.chart.sample_points(1, offset=0)[0])
    analysis.lstar_f, analysis.chain.efield  # the jets L* f and E, which the residuals share
    calls = []
    for module in (warpcheck.geometry, warpcheck.statics):
        einsum = module.jt_einsum
        monkeypatch.setattr(module, "jt_einsum", lambda spec, *ops, _e=einsum: calls.append(spec) or _e(spec, *ops))
    first = at_row(analysis.vacuum, 0)
    assert calls == ["p,pij->pij", "p,pij->pij"]
    assert at_row(analysis.vacuum, 0) == first
    assert calls == ["p,pij->pij", "p,pij->pij"]


def test_height_with_shift_gives_trace_nb():
    """On S^n(1), f = height + shift has Delta f + R f/(n-1) = n b with b = shift."""
    n = 4
    chart = make_sphere_chart(n, 1.0)
    shift = 0.37
    pot = sphere_height_potential(n, 1.0, axis=n + 1, shift=shift)
    p = chart.sample_points(2, offset=5)[0]
    res = at_row(static(chart, pot, p).vacuum, 0)
    assert res["trace"].abs == approx(n * pot.b, rel=1e-9)
    # and it is an exact solution of the generalized equation
    assert static(chart, pot, p).solution_defect.at(0).rel < 1e-10


def test_vss_zero_potential_evaluable(basicex41):
    wg, _ = basicex41
    res = at_row(static(wg.chart, constant_potential(0.0), wg.chart.sample_points(1, offset=0)[0]).vacuum, 0)
    assert res["full"].abs == approx(0.0)


def test_generalized_reduces_to_vss(basicex52):
    wg, pot = basicex52
    p = wg.chart.sample_points(1, offset=3)[0]
    assert pot.a == 0.0 and pot.b == 0.0
    assert static(wg.chart, pot, p).solution_defect.at(0).rel < 1e-10


def test_generalized_random_potential_fails(basicex52):
    wg, _ = basicex52
    bad = StaticPotentialSpec(label="bad", builder=lambda c: c[0] * c[0] + c[1].elem("sin"))
    p = wg.chart.sample_points(1, offset=1)[0]
    assert static(wg.chart, bad, p).solution_defect.at(0).abs > 0.1


# -- T tensor ---------------------------------------------------------------------------


def test_t_tensor_einstein_chart_zero():
    chart = make_sphere_chart(4, 1.0)
    pot = sphere_height_potential(4, 1.0, axis=5)
    value = static(chart, pot, chart.sample_points(1, offset=2)[0]).t_jets.value
    assert np.max(np.abs(value)) < 1e-12


def test_t_tensor_nonzero_on_basicex(basicex52):
    wg, pot = basicex52
    value = static(wg.chart, pot, wg.chart.sample_points(1, offset=5)[0]).t_jets.value
    assert np.max(np.abs(value)) > 0.1


def test_t_tensor_constant_potential_zero(basicex52):
    wg, _ = basicex52
    value = static(wg.chart, constant_potential(), wg.chart.sample_points(1, offset=5)[0]).t_jets.value
    assert np.max(np.abs(value)) < 1e-12


def test_t_algebra(basicex52):
    wg, pot = basicex52
    for p in wg.chart.sample_points(4, offset=0):
        defects = at_row(static(wg.chart, pot, p).t_algebra(), 0)
        for name, res in defects.items():
            assert res.rel < 1e-10, name


# -- decomposition identities ----------------------------------------------------------------


def test_decompose_on_basicex(basicex52):
    wg, pot = basicex52
    for p in wg.chart.sample_points(4, offset=0):
        res = at_row(solution(wg.chart, pot, p, order=3).decompose_residuals(), 0)
        assert res["riemann_gradient"].rel < 1e-7
        assert res["cotton_decomposition"].rel < 1e-7


def test_decompose_on_sphere_both_sides_vanish():
    n = 4
    chart = make_sphere_chart(n, 1.0)
    pot = sphere_height_potential(n, 1.0, axis=n + 1)
    p = chart.sample_points(1, offset=3)[0]
    res = at_row(solution(chart, pot, p, order=3).decompose_residuals(), 0)
    assert res["cotton_decomposition"].abs < 1e-12


def test_decompose_skips_non_solution(basicex52):
    wg, _ = basicex52
    bad = StaticPotentialSpec(label="bad", builder=lambda c: c[0] * c[0])
    (sc,) = point_scratches(CheckContext(wg.chart, potential=bad), wg.chart.sample_points(1, offset=0), 3)
    with pytest.raises(PreconditionSkip):
        CHECKS["decompose_ids"].evaluate(sc)


def test_tfe_identity(basicex52, basicex41):
    for wg, pot in (basicex52, basicex41):
        for p in wg.chart.sample_points(3, offset=0):
            assert solution(wg.chart, pot, p).tfe_defect().at(0).rel < 1e-7


def test_tfe_identity_n5k1():
    from warpcheck.spaces import basicex_geometry

    wg, pot = basicex_geometry(5, 1)
    p = wg.chart.sample_points(2, offset=1)[1]
    assert solution(wg.chart, pot, p).tfe_defect().at(0).rel < 1e-7


# -- warped closed forms of L* -------------------------------------------------------------------------


def test_lgh_hdot_on_ejiri(ejiri, point_scratch):
    sc = point_scratch(ejiri, np.array([0.8, 0.2, -0.1, 0.3]))
    res = sc.rows(lgh_closed_forms)
    for name in ("tt_slot", "mixed_slot", "fiber_slot", "laplacian", "hdot_form"):
        assert res[name].rel < 1e-8, name


def test_lgh_arbitrary_potential_on_ejiri(ejiri, point_scratch):
    sc = point_scratch(ejiri, np.array([1.4, 0.1, 0.2, -0.2]), t_potential(dsl.parse("sin(t)"), "sin(t)"))
    res = sc.rows(lgh_closed_forms)
    assert "hdot_form" not in res  # the hdot closed form is for the hdot potential only
    assert res["mixed_slot"].rel < 1e-8
    assert res["tt_slot"].rel < 1e-8


def test_lgh_constants(point_scratch):
    wg = build_warped_geometry((-1.0, 1.0), "1", make_sphere_chart(3, 1.0))
    p = np.array([0.2, 0.1, -0.2, 0.3])
    sc = point_scratch(wg, p, t_potential(dsl.parse("1"), "1"))
    res = sc.rows(lgh_closed_forms)
    for name in ("tt_slot", "mixed_slot", "fiber_slot", "laplacian"):
        assert res[name].rel < 1e-10, name
    # L3 reduces to -(R/(n-1)) g on the fiber block for f == 1, h == 1
    b = CurvatureBundle(wg.chart, p, order=3)
    st = static(wg.chart, constant_potential(), p, order=3)
    expected = -(b.scalar / (b.dim - 1.0)) * b.g0[1:, 1:]
    assert st.lstar_f.value[0, 1:, 1:] == approx(expected, abs=1e-9)


def test_lgh_requires_no_constant_scalar(expwarp4, point_scratch):
    """Lemma holds on the nonconstant-R space too."""
    for p in expwarp4.chart.sample_points(5, offset=0):
        sc = point_scratch(expwarp4, p)
        res = sc.rows(lgh_closed_forms)
        for name, residual in res.items():
            assert residual.rel < 1e-8, name


def _plant(jet, block):
    """A chunk's ``jet`` with an error of order 1e-6 added to one block of its value at its point 0; returns it and
    the error."""
    err = np.zeros(jet.value.shape[1:])
    err[block] = 1e-6 * np.arange(1.0, 1.0 + err[block].size).reshape(err[block].shape)
    data = jet.data.copy()
    data[0, ..., 0] += err
    return JetTensor(jet.space, data), err


def _frame_norm(b, err):
    """The g-norm of a planted error, which must differ from its largest coordinate component."""
    norm = b.norm(err, ("l",) * err.ndim)
    assert not 0.5 < np.max(np.abs(err)) / norm < 2.0  # the fiber metric is far from the identity here
    return norm


FIBER = slice(1, None)


@pytest.mark.parametrize("block, slots", [((0, FIBER), ("mixed_slot",)), ((FIBER, FIBER), ("fiber_slot", "hdot_form"))])
def test_lgh_slots_are_frame_norms(ejiri, point_scratch, block, slots):
    """An error planted in L* hdot shows in its slot as its g-norm, not as its largest coordinate component."""
    sc = point_scratch(ejiri, np.array([0.8, 0.2, -0.1, 0.3]))
    sc.chunk.hdot.lstar_f, err = _plant(sc.chunk.hdot.lstar_f, block)
    res = sc.rows(lgh_closed_forms)
    for slot in slots:
        assert res[slot].abs == approx(_frame_norm(CurvatureBundle(sc.ctx.chart, sc.point), err), rel=1e-6), slot


@pytest.mark.parametrize("block, slot", [((0, 0, FIBER), "ttX"), ((0, FIBER, FIBER), "tXY"), ((FIBER, FIBER, FIBER), "XYZ")])
def test_nein3_slots_are_frame_norms(expwarp4, point_scratch, block, slot):
    """An error planted in the Cotton tensor shows in its slot as its g-norm."""
    sc = point_scratch(expwarp4, np.array([0.5, 0.9, -1.2, 1.4]), fiber_order=3)
    chain = sc.chunk.chain  # where the identities read the Cotton tensor
    chain.cotton, err = _plant(chain.cotton, block)
    assert sc.rows(nonconstant_r_cotton_formulas)[slot].abs == approx(_frame_norm(CurvatureBundle(sc.ctx.chart, sc.point), err), rel=1e-6)


# -- iCzero / wp3 ------------------------------------------------------------------------------


def test_icotton_zero_on_constant_r(ejiri, basicex52, point_scratch):
    wg, _ = basicex52
    for geometry in (ejiri, wg):
        for p in geometry.chart.sample_points(4, offset=0):
            assert point_scratch(geometry, p).rows(icotton_warped_residual)["icotton"].rel < 1e-8


def test_icotton_product_chart(point_scratch):
    wg = build_warped_geometry((-1.0, 1.0), "1", make_sphere_chart(3, 1.0))
    assert point_scratch(wg, np.array([0.1, 0.2, -0.1, 0.3])).rows(icotton_warped_residual)["icotton"].rel < 1e-9


def test_wp3_identity_einstein_fiber(ejiri, point_scratch):
    resid, lhs, rhs = wp3_sides(point_scratch(ejiri, np.array([2.0, 0.2, 0.1, -0.3])))
    assert resid.rel < 1e-8
    assert lhs < 1e-10 and rhs < 1e-10  # both sides vanish


def test_wp3_identity_non_einstein_fiber(basicex52, point_scratch):
    wg, _ = basicex52
    found_nonzero = False
    for p in wg.chart.sample_points(5, offset=0):
        resid, lhs, rhs = wp3_sides(point_scratch(wg, p))
        assert resid.rel < 1e-7
        if rhs > 1e-3:
            found_nonzero = True
    assert found_nonzero


def test_wp3_constant_h_trivial(point_scratch):
    wg = build_warped_geometry((-1.0, 1.0), "1", make_sphere_chart(3, 1.0))
    resid, lhs, rhs = wp3_sides(point_scratch(wg, np.array([0.1, 0.2, -0.1, 0.3])))
    assert lhs < 1e-12 and rhs < 1e-12


# -- explicit warped Cotton components ---------------------------------------------------------------------------


def test_nein3_nonconstant_r(expwarp4, point_scratch):
    for p in expwarp4.chart.sample_points(4, offset=0):
        sc = point_scratch(expwarp4, p, fiber_order=3)
        res = sc.rows(nonconstant_r_cotton_formulas)
        for name, residual in res.items():
            assert residual.rel < 1e-7, name


def test_nein3_n3_branch(expwarp3, point_scratch):
    wg = expwarp3
    for p in wg.chart.sample_points(4, offset=0):
        sc = point_scratch(wg, p)
        res = sc.rows(nonconstant_r_cotton_formulas)
        for name, residual in res.items():
            assert residual.rel < 1e-7, name


def test_nein3_degenerates_on_constant_r(ejiri, point_scratch):
    sc = point_scratch(ejiri, np.array([0.9, 0.2, -0.1, 0.3]), fiber_order=3)
    res = sc.rows(nonconstant_r_cotton_formulas)
    for name, residual in res.items():
        assert residual.rel < 1e-8, name


# -- propddoth ------------------------------------------------------------------------------------


def test_propddoth_basicex_assembly(basicex52, point_scratch):
    wg, pot = basicex52
    for p in wg.chart.sample_points(3, offset=0):
        res = CHECKS["propddoth"].evaluate(point_scratch(wg, p, pot, order=2))
        assert res["fiber_vss"].rel < 1e-8
        assert res["warping_equation"].rel < 1e-10
        assert res["total_vss"].rel < 1e-8


def _h_fbar(wg):
    """h(t) * fbar, factored, for an affine fbar on a flat torus fiber."""
    fbar = lambda c: 1.0 + 0.5 * c[0] - 0.25 * c[1]
    builder = lambda c: wg.warping(c[0]) * fbar(c[1:])
    return StaticPotentialSpec(label="h fbar", builder=builder, fiber=StaticPotentialSpec(label="fbar", builder=fbar))


def test_propddoth_flat_fiber_product(point_scratch):
    """Scalar-flat fiber: the product (h == 1) with potential fbar is static."""
    wg = build_warped_geometry((-1.0, 1.0), "1", make_flat_torus_chart(3))
    res = CHECKS["propddoth"].evaluate(point_scratch(wg, np.array([0.2, 1.0, 2.0, 3.0]), _h_fbar(wg), order=2))
    for name, residual in res.items():
        assert residual.rel < 1e-8, name


def test_propddoth_flat_fiber_exponential_warping(point_scratch):
    """h = e^t over a scalar-flat fiber satisfies the warping equation with R = -n(n-1)."""
    wg = build_warped_geometry((-0.5, 0.5), "exp(t)", make_flat_torus_chart(3))
    sc = point_scratch(wg, np.array([0.2, 1.0, 2.0, 3.0]), _h_fbar(wg), order=2)
    assert float(sc.chunk.chain.scalar_jet.value[sc.row]) == approx(-12.0, abs=1e-10)
    res = CHECKS["propddoth"].evaluate(sc)
    for name, residual in res.items():
        assert residual.rel < 1e-8, name


def test_propddoth_warping_equation_witness(point_scratch):
    """h = 1 + 0.3 t fails the warping equation: the check SKIPs, and h*fbar is no solution."""
    wg = build_warped_geometry((0.0, 1.0), "1+0.3*t", make_flat_torus_chart(3))
    sc = point_scratch(wg, np.array([0.4, 1.0, 2.0, 3.0]), _h_fbar(wg), order=2)
    with pytest.raises(PreconditionSkip, match="premise warping_equation fails"):
        CHECKS["propddoth"].evaluate(sc)
    h, _, hdd = (value[sc.row] for value in sc.chunk.warping[:3])
    assert abs(hdd + float(sc.chunk.chain.scalar_jet.value[sc.row]) * h / 12.0) > 0.01
    assert at_row(sc.chunk.static.vacuum, sc.row)["full"].abs > 0.01


# -- INRP -------------------------------------------------------------------------------------------


def _product_over_sphere(radius=1.0):
    return build_warped_geometry((-1.0, 1.0), "1", make_sphere_chart(3, radius))


def _inrp(point_scratch, wg, source, p):
    return CHECKS["inrp"].evaluate(point_scratch(wg, p, t_potential(dsl.parse(source), source), order=2))


def test_inrp_cos_solution(point_scratch):
    wg = _product_over_sphere()
    omega = math.sqrt(6.0 / 3.0)
    p = np.array([0.3, 0.2, -0.3, 0.4])
    res = _inrp(point_scratch, wg, f"cos({omega}*t)", p)
    assert res["ddotf"].rel < 1e-8
    assert res["full"].rel < 1e-8


def test_inrp_sin_solution(point_scratch):
    wg = _product_over_sphere()
    omega = math.sqrt(6.0 / 3.0)
    res = _inrp(point_scratch, wg, f"sin({omega}*t)", np.array([0.3, 0.2, -0.3, 0.4]))
    assert res["full"].rel < 1e-8


def test_inrp_wrong_frequency_witness(point_scratch):
    wg = _product_over_sphere()
    omega = math.sqrt(6.0 / 3.0) * 1.2
    res = _inrp(point_scratch, wg, f"cos({omega}*t)", np.array([0.3, 0.2, -0.3, 0.4]))
    assert res["ddotf"].abs > 0.01
    assert res["full"].abs > 0.01


def test_inrp_requires_unit_warping(ejiri, point_scratch):
    with pytest.raises(PreconditionSkip):
        _inrp(point_scratch, ejiri, "cos(t)", np.array([0.3, 0.2, -0.3, 0.4]))


# -- xiCVF two formulas --------------------------------------------------------------------------------


def test_xicvf_on_basicex(basicex52):
    wg, pot = basicex52
    for p in wg.chart.sample_points(3, offset=0):
        res = xicvf(wg.chart, pot, wg.xi, p)
        assert res["item1"].rel < 1e-6
        assert res["item2"].rel < 1e-6


def test_xicvf_sphere_linearly_independent_fields():
    """xi = grad y_1, f = y_2: independent on most of the sphere."""
    n = 4
    chart = make_sphere_chart(n, 1.0)
    xi = sphere_gradient_field(n, 1.0, axis=1)
    pot = sphere_height_potential(n, 1.0, axis=2)
    for p in chart.sample_points(4, offset=0):
        res = xicvf(chart, pot, xi, p)
        assert res["item1"].rel < 1e-6
        assert res["item2"].rel < 1e-6


def test_xicvf_with_shift_constant():
    n = 4
    chart = make_sphere_chart(n, 1.0)
    xi = sphere_gradient_field(n, 1.0, axis=1)
    pot = sphere_height_potential(n, 1.0, axis=2, shift=0.3)
    p = chart.sample_points(2, offset=9)[1]
    res = xicvf(chart, pot, xi, p)
    assert res["item1"].rel < 1e-6
    assert res["item2"].rel < 1e-6


def test_xicvf_zero_field_trivial(basicex52):
    from warpcheck.conformal import zero_field

    wg, pot = basicex52
    res = xicvf(wg.chart, pot, zero_field(5), wg.chart.sample_points(1, offset=2)[0])
    assert res["item1"].abs < 1e-12
    assert res["item2"].abs < 1e-12


# -- equivalence clauses ----------------------------------------------------------------------------


def test_equivalence_clauses_einstein_vs_not(ejiri, basicex52, point_scratch):
    wg, _ = basicex52
    sc = point_scratch(ejiri, np.array([0.8, 0.2, -0.1, 0.3]))
    clauses_pass = {key: r.abs for key, r in sc.rows(equivalence_residuals).items()}
    assert all(v < 1e-8 for v in clauses_pass.values())
    sc = point_scratch(wg, wg.chart.sample_points(3, offset=23)[2])
    clauses_fail = {key: r.abs for key, r in sc.rows(equivalence_residuals).items()}
    assert all(v > 1e-6 for v in clauses_fail.values())
