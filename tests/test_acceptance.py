"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete (they are also forced through the capture so they
appear in plain ``pytest`` runs).
"""

import copy
import math
import sys
import time

import numpy as np
import pytest
from pytest import approx

import warpcheck.dsl as dsl
from warpcheck.checks import CHECKS, EXAMPLE_CONFIGS, CheckContext, RunConfig, build_context, point_scratches
from warpcheck.conformal import ConformalAnalysis, sphere_gradient_field
from warpcheck.geometry import CurvatureBundle, kulkarni_nomizu_jets
from warpcheck.jets import JetTensor
from warpcheck.residuals import at_row
from warpcheck.ode import (
    OdeWarpingFunction,
    WarpOdeParams,
    c1_for_fiber_scalar,
    equilibrium_radius,
    find_periodic_solution,
    first_integral,
    integrate_warpedvss,
    rbar_from_initial,
)
from warpcheck.spaces import (
    WarpedGeometry,
    assemble_warped,
    basicex_geometry,
    make_hyperbolic_chart,
    make_product_chart,
    make_sphere_chart,
    sphere_height_potential,
)
from warpcheck.statics import (
    StaticAnalysis,
    equivalence_residuals,
    icotton_warped_residual,
    lgh_closed_forms,
    nonconstant_r_cotton_formulas,
)

from conftest import lone_chain, wp3_sides

COTTON_FLOOR = 0.5  # calibrated: max ||C|| over 100 samples is >= 1.08 on every Example-1 space


class Criterion:
    """Times a criterion and prints one [PASS]/[FAIL] line when it closes."""

    def __init__(self, number: int, description: str, limit_s: float):
        self.number = number
        self.description = description
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        line = f"[{status}] criterion {self.number} ({elapsed:6.2f}s): {self.description}\n"
        sys.__stdout__.write(line)
        sys.__stdout__.flush()
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.limit_s}s"
            )
        return False


def test_criterion_1_ejiri_scalar_constancy(ejiri):
    with Criterion(1, "Ejiri space scalar curvature == 3 over 200 points", 10.0):
        wg = ejiri
        deviations = [
            abs(CurvatureBundle(wg.chart, p, order=2).scalar - 3.0)
            for p in wg.chart.sample_points(200, offset=0)
        ]
        assert max(deviations) < 1e-9


def test_criterion_2_example1_certification():
    with Criterion(2, "Example-1 spaces: scalar, vacuum residual, nonzero Cotton", 60.0):
        for n, k in [(4, 1), (5, 1), (5, 2)]:
            wg, pot = basicex_geometry(n, k)
            cotton_max = 0.0
            for p in wg.chart.sample_points(100, offset=0):
                b = CurvatureBundle(wg.chart, p, order=3)
                assert abs(b.scalar + n * (n - 1)) < 1e-8, (n, k)
                lstar_norm = b.norm(StaticAnalysis(lone_chain(wg.chart, p, 3), pot).lstar_f.value[0], ("l", "l"))
                assert lstar_norm < 1e-8, (n, k)
                cotton_max = max(cotton_max, b.norm(b.cotton.value, ("l",) * 3))
            assert cotton_max > COTTON_FLOOR, (n, k, cotton_max)


def test_criterion_3_firstthm_identity(ejiri):
    with Criterion(3, "L* phi = Phi on spheres, Ejiri, and Example-1", 60.0):
        for n in (3, 4, 5):
            chart = make_sphere_chart(n, 1.0)
            xi = sphere_gradient_field(n, 1.0, axis=n + 1)
            for p in chart.sample_points(20, offset=0):
                cf = ConformalAnalysis(lone_chain(chart, p, 4), xi)
                assert cf.firstthm_defect().at(0).rel < 1e-7, f"S^{n}"
        for wg in (ejiri, basicex_geometry(5, 2)[0]):
            for p in wg.chart.sample_points(30, offset=0):
                cf = ConformalAnalysis(lone_chain(wg.chart, p, 4), wg.xi)
                assert cf.firstthm_defect().at(0).rel < 1e-7, wg.chart.label


def _ode_non_einstein_space() -> WarpedGeometry:
    """The S^1 x_h (S^2 x S^2(2)) space of the ``equiv-fail`` example, as its config builds it."""
    return build_context(RunConfig.from_dict(copy.deepcopy(EXAMPLE_CONFIGS["equiv-fail"]))).warped


def test_criterion_4_wp3_and_icotton(ejiri, point_scratch):
    with Criterion(4, "L* hdot = -C(.,xi,.) and i_dt C = 0 on constant-R warped spaces", 30.0):
        spaces = [
            ejiri,
            basicex_geometry(4, 1)[0],
            basicex_geometry(5, 1)[0],
            basicex_geometry(5, 2)[0],
            _ode_non_einstein_space(),
        ]
        non_einstein = spaces[-1]
        witness = 0.0
        for wg in spaces:
            for p in wg.chart.sample_points(20, offset=0):
                sc = point_scratch(wg, p)
                resid, lhs, rhs = wp3_sides(sc)
                assert resid.rel < 1e-8, wg.chart.label
                assert sc.rows(icotton_warped_residual)["icotton"].rel < 1e-8, wg.chart.label
                if wg is non_einstein:
                    witness = max(witness, rhs)
        assert witness > 1e-3  # both sides individually nonzero on the non-Einstein fiber


def test_criterion_5_equivalence_chain(ejiri, point_scratch):
    with Criterion(5, "equivalence chain: joint PASS (Einstein) and joint FAIL (S^2 x S^2(2))", 30.0):
        tol = 1e-6
        einstein = [ejiri]
        for wg in einstein:
            maxima = {}
            for p in wg.chart.sample_points(25, offset=0):
                sc = point_scratch(wg, p)
                for key, residual in sc.rows(equivalence_residuals).items():
                    maxima[key] = max(maxima.get(key, 0.0), residual.abs)
            verdicts = {k: v < tol for k, v in maxima.items()}
            assert all(verdicts.values()), maxima
        failing = _ode_non_einstein_space()
        maxima = {}
        for p in failing.chart.sample_points(25, offset=0):
            sc = point_scratch(failing, p)
            for key, residual in sc.rows(equivalence_residuals).items():
                maxima[key] = max(maxima.get(key, 0.0), residual.abs)
        verdicts = {k: v < tol for k, v in maxima.items()}
        assert not any(verdicts.values()), maxima  # all four clauses fail together


def test_criterion_6_ode_suite(point_scratch):
    with Criterion(6, "ODE suite: conservation, Ejiri constants, periodic assembly", 30.0):
        # (a) first-integral drift < 1e-10 per unit time at dt = 1e-3
        ejiri_params = WarpOdeParams(4, 3.0, 6.0, 0.75)
        h0, v0 = math.sqrt(2.0), 1.0 / (2.0 * math.sqrt(2.0))
        cases = [
            (ejiri_params, h0, v0, 2.0 * math.pi),
            (WarpOdeParams(4, 12.0, rbar_from_initial(WarpOdeParams(4, 12.0, 0.0, 1.0), 1.0, 0.0), 1.0), 1.0, 0.0, 8.0),
            (WarpOdeParams(5, 2.0, 2.5, c1_for_fiber_scalar(5, 2.0, 2.5, 1.0)), 1.0, 0.0, 8.0),
        ]
        for params, h_init, v_init, t_end in cases:
            traj = integrate_warpedvss(params, h_init, v_init, t_end, 1e-3)
            drift = np.max(np.abs(first_integral(params, traj.h, traj.hdot)))
            assert drift / t_end < 1e-10

        # (b) tau relation exact; Ejiri constants reproduce the analytic h
        assert ejiri_params.tau + 2.0 * ejiri_params.c1 / (ejiri_params.n - 2.0) == 0.0
        assert ejiri_params.tau == approx(-0.75) and ejiri_params.c1 == approx(0.75)
        traj = integrate_warpedvss(ejiri_params, h0, v0, 2.0 * math.pi, 1e-3)
        analytic = np.sqrt(2.0 + np.sin(traj.times))
        assert np.max(np.abs(traj.h - analytic)) < 1e-8

        # (c) periodic orbit for n=4, R=12, c1=2; assembled chart has constant scalar
        base = WarpOdeParams(4, 12.0, 0.0, 2.0)
        h_start = 0.9 * equilibrium_radius(base)
        rbar = rbar_from_initial(base, h_start, 0.0)
        params = WarpOdeParams(4, 12.0, rbar, 2.0)
        traj, period = find_periodic_solution(params, h_start, dt=1e-3)
        assert period > 0.0
        radius = math.sqrt(6.0 / rbar)
        fiber_chart = make_sphere_chart(3, radius)
        warping = OdeWarpingFunction(params, traj, period=period)
        wg = assemble_warped(warping, fiber_chart, (0.0, period), "ode-assembled")
        scalars = [
            CurvatureBundle(wg.chart, p, order=2).scalar for p in wg.chart.sample_points(30, offset=0)
        ]
        assert max(scalars) - min(scalars) < 1e-6
        assert abs(np.mean(scalars) - 12.0) < 1e-6
        resid, _, _ = wp3_sides(point_scratch(wg, wg.chart.sample_points(1, offset=7)[0]))
        assert resid.rel < 1e-6


def _catalog_for_algebra(warped):
    spaces = [
        (make_sphere_chart(3, 1.0), None),
        (make_sphere_chart(4, 1.0), sphere_height_potential(4, 1.0, axis=5)),
        (make_sphere_chart(5, 0.9), None),
        (make_hyperbolic_chart(3, 1.0), None),
        (make_product_chart(make_sphere_chart(2, 1.0), make_sphere_chart(2, 2.0)), None),
    ] + [(wg.chart, None) for wg in warped]
    wg52, pot52 = basicex_geometry(5, 2)
    spaces.append((wg52.chart, pot52))
    return spaces


def test_criterion_7_tensor_algebra_invariants(ejiri, expwarp4, expwarp3):
    with Criterion(7, "Cotton/T/Weyl algebra, 4-d Weyl identity, Riemann reconstruction", 60.0):
        for chart, pot in _catalog_for_algebra((ejiri, expwarp4, expwarp3)):
            for p in chart.sample_points(8, offset=0):
                b = CurvatureBundle(chart, p, order=3)
                c = b.cotton.value
                cn = b.norm(b.cotton.value, ("l",) * 3)
                ctol = 1e-10 * (1.0 + cn)
                assert np.max(np.abs(c + np.swapaxes(c, 1, 2))) < ctol
                assert np.max(np.abs(c + np.einsum("ijk->jki", c) + np.einsum("ijk->kij", c))) < ctol
                assert np.max(np.abs(np.einsum("ij,ijk->k", b.ginv0, c))) < ctol
                assert np.max(np.abs(np.einsum("ik,ijk->j", b.ginv0, c))) < ctol

                # C_kij C_ijk = -||C||^2 / 2
                c_up = np.einsum("ai,bj,ck,ijk->abc", b.ginv0, b.ginv0, b.ginv0, c)
                lhs = np.einsum("kij,ijk->", c, c_up)
                norm_sq = np.einsum("ijk,ijk->", c, c_up)
                assert abs(lhs + 0.5 * norm_sq) <= 1e-9 * (1.0 + norm_sq)

                w = b.weyl.value
                wn = b.norm(b.weyl.value, ("l",) * 4)
                wtol = 1e-10 * (1.0 + wn)
                for axes in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
                    letters = list("abcd")
                    letters[axes[0]], letters[axes[1]] = "x", "y"
                    spec = "xy," + "".join(letters) + "->" + "".join(c for c in letters if c not in "xy")
                    trace = np.einsum(spec, b.ginv0, w)
                    assert np.max(np.abs(trace)) < wtol, axes

                if b.dim == 4:
                    wq = np.einsum("ijkl,pqrs,jq,kr,ls->ip", w, w, b.ginv0, b.ginv0, b.ginv0)
                    target = 0.25 * wn**2 * b.g0
                    assert np.max(np.abs(wq - target)) <= 1e-9 * (1.0 + wn**2)

                kn = kulkarni_nomizu_jets(b.schouten, b.g).value
                recon = w + kn / (b.dim - 2.0)
                rn = b.norm(b.riemann4.value, ("l",) * 4)
                assert np.max(np.abs(recon - b.riemann4.value)) <= 1e-9 * (1.0 + rn)

                if pot is not None:
                    st = StaticAnalysis(lone_chain(chart, p, 3), pot)
                    t_res = at_row(st.t_algebra(), 0)
                    tn = b.norm(st.t_jets.value[0], ("l",) * 3)
                    for name, residual in t_res.items():
                        assert residual.abs < 1e-10 * (1.0 + tn), name


def test_criterion_8_lgh_and_nein3_nonconstant(expwarp4, expwarp3, point_scratch):
    with Criterion(8, "warped L* closed forms and explicit Cotton components off constant scalar", 30.0):
        wg4 = expwarp4
        for p in wg4.chart.sample_points(20, offset=0):
            sc = point_scratch(wg4, p, fiber_order=3)
            res = sc.rows(lgh_closed_forms)
            for name in ("tt_slot", "mixed_slot", "fiber_slot", "laplacian", "hdot_form"):
                assert res[name].rel < 1e-8, name
            nein = sc.rows(nonconstant_r_cotton_formulas)
            for name, residual in nein.items():
                assert residual.rel < 1e-7, f"n=4 {name}"
        wg3 = expwarp3
        for p in wg3.chart.sample_points(20, offset=0):
            sc = point_scratch(wg3, p)
            nein = sc.rows(nonconstant_r_cotton_formulas)
            for name, residual in nein.items():
                assert residual.rel < 1e-7, f"n=3 {name}"


def test_criterion_9_parser_and_jets():
    with Criterion(9, "DSL corpus round-trip and order-3 finite-difference agreement", 5.0):
        from test_dsl import CORPUS, SAFE_POINTS, _fd_friendly
        from conftest import central_diff

        assert len(CORPUS) >= 30
        steps = {1: 1e-5, 2: 1e-4, 3: 1e-3}
        for src in CORPUS:
            ast = dsl.parse(src)
            assert dsl.parse(dsl.unparse(ast)) == ast
            points = [t for t in SAFE_POINTS if _fd_friendly(src, t)][:10]
            assert len(points) >= 10
            for t0 in points:
                jet = dsl.eval_expr(ast, JetTensor.variable(0, t0, 1, 3))
                if not isinstance(jet, JetTensor):
                    continue

                def fn(x, _ast=ast):
                    return dsl.eval_expr(_ast, x)

                for order in (1, 2, 3):
                    got = jet.partial((order,))
                    want = central_diff(fn, t0, order, steps[order])
                    assert abs(got - want) <= max(1e-5, 1e-5 * abs(want))


def test_criterion_10_lemma_battery():
    with Criterion(10, "decomposition, E-T contraction, Cotton contractions, xi-CVF formulas", 60.0):
        wg, pot = basicex_geometry(5, 2)
        ctx = CheckContext(wg.chart, potential=pot, fld=wg.xi)
        for sc in point_scratches(ctx, wg.chart.sample_points(15, offset=0), 4):
            dec = CHECKS["decompose_ids"].evaluate(sc)
            assert dec["riemann_gradient"].rel < 1e-6
            assert dec["cotton_decomposition"].rel < 1e-6
            assert CHECKS["tfe_identity"].evaluate(sc)["tfe"].rel < 1e-6
            res = CHECKS["xicvf_forms"].evaluate(sc)
            assert res["item1"].rel < 1e-6 and res["item2"].rel < 1e-6
            cxi = CHECKS["cxi_div"].evaluate(sc)
            assert cxi["cotton_contraction"].rel < 1e-6
            assert cxi["divergence_contraction"].rel < 1e-6

        n = 4
        chart = make_sphere_chart(n, 1.0)
        xi = sphere_gradient_field(n, 1.0, axis=1)
        pot_s = sphere_height_potential(n, 1.0, axis=2)  # nlin(3): independent fields
        ctx = CheckContext(chart, potential=pot_s, fld=xi)
        for sc in point_scratches(ctx, chart.sample_points(15, offset=0), 4):
            dec = CHECKS["decompose_ids"].evaluate(sc)
            assert dec["riemann_gradient"].rel < 1e-6
            assert dec["cotton_decomposition"].rel < 1e-6
            assert CHECKS["tfe_identity"].evaluate(sc)["tfe"].rel < 1e-6
            res = CHECKS["xicvf_forms"].evaluate(sc)
            assert res["item1"].rel < 1e-6 and res["item2"].rel < 1e-6
            cxi = CHECKS["cxi_div"].evaluate(sc)
            assert cxi["cotton_contraction"].rel < 1e-6
            assert cxi["divergence_contraction"].rel < 1e-6
