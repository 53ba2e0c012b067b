import math
import re

import numpy as np
import pytest
from pytest import approx

from warpcheck.checks import ConfigError, RunConfig, build_context
from warpcheck.geometry import CurvatureBundle
from warpcheck.residuals import at_row
from warpcheck.spaces import (
    basicex_geometry,
    basicex_radii,
    build_warped_geometry,
    hyperbolic_static_potential,
    make_flat_torus_chart,
    make_hyperbolic_chart,
    make_product_chart,
    make_sphere_chart,
)
from warpcheck.statics import StaticAnalysis

from conftest import lone_chain


def scalar_at(chart, p, order=2):
    return CurvatureBundle(chart, p, order=order).scalar


# -- sphere charts ------------------------------------------------------------


def test_sphere_scalar():
    chart = make_sphere_chart(3, 1.0)
    for p in chart.sample_points(10, offset=0):
        assert scalar_at(chart, p) == approx(6.0, abs=1e-9)


def test_sphere_einstein_constant_n5():
    n = 5
    r = math.sqrt((n - 2) / n)
    chart = make_sphere_chart(n - 1, r)
    p = chart.sample_points(3, offset=1)[0]
    b = CurvatureBundle(chart, p, order=2)
    assert b.ric.value == approx(n * b.g0, abs=1e-9)


def test_sphere_one_dimensional_fiber():
    chart = make_sphere_chart(1, 1.0)
    assert chart.dim == 1
    b = CurvatureBundle(chart, np.array([0.2]), order=2)
    assert b.scalar == approx(0.0, abs=1e-12)


def test_sphere_invalid_params():
    with pytest.raises(ValueError):
        make_sphere_chart(0, 1.0)
    with pytest.raises(ValueError):
        make_sphere_chart(2, -1.0)


# -- hyperbolic charts -----------------------------------------------------------


def test_hyperbolic_scalar():
    chart = make_hyperbolic_chart(2, 1.0)
    for p in chart.sample_points(10, offset=0):
        assert scalar_at(chart, p) == approx(-2.0, abs=1e-9)


def test_hyperbolic_example1_radius():
    n = 5
    s2 = math.sqrt((n - 3) / (n - 1))
    chart = make_hyperbolic_chart(2, s2)
    p = chart.sample_points(2, offset=3)[0]
    assert scalar_at(chart, p) == approx(-2.0 / s2**2, abs=1e-9)
    assert -2.0 / s2**2 == approx(-(n - 1))


def test_hyperbolic_m1_is_flat_line():
    chart = make_hyperbolic_chart(1, 0.7)
    assert chart.dim == 1
    b = CurvatureBundle(chart, np.array([0.1]), order=2)
    assert b.scalar == approx(0.0, abs=1e-12)


# -- hyperbolic static potential ----------------------------------------------------


def test_hyperbolic_potential_at_origin():
    r = 0.8
    pot = hyperbolic_static_potential(2, r)
    chart = make_hyperbolic_chart(2, r)
    b = CurvatureBundle(chart, np.zeros(2), order=2)
    f = b.scalar_field(pot.builder)
    assert float(f.value) == approx(r)
    hess = b.hessian(f).value
    assert hess == approx(b.g0 / r, abs=1e-10)


@pytest.mark.parametrize("m,r", [(2, math.sqrt(2.0 / 4.0)), (3, 1.0), (1, 0.6)])
def test_hyperbolic_potential_hessian_identity(m, r):
    pot = hyperbolic_static_potential(m, r)
    chart = make_hyperbolic_chart(m, r)
    for p in chart.sample_points(50 if m == 2 else 10, offset=0):
        b = CurvatureBundle(chart, p, order=2)
        f = b.scalar_field(pot.builder)
        resid = b.hessian(f).value - float(f.value) / r**2 * b.g0
        assert np.max(np.abs(resid)) < 1e-8


def test_hyperbolic_potential_linearity():
    r = 0.9
    pot = hyperbolic_static_potential(2, r)
    chart = make_hyperbolic_chart(2, r)
    p = chart.sample_points(1, offset=2)[0]
    b = CurvatureBundle(chart, p, order=2)
    f = b.scalar_field(lambda coords: pot.builder(coords) * 2.0)
    resid = b.hessian(f).value - float(f.value) / r**2 * b.g0
    assert np.max(np.abs(resid)) < 1e-8


# -- products ------------------------------------------------------------------------


def test_product_flat():
    chart = make_product_chart(make_flat_torus_chart(2), make_flat_torus_chart(2))
    p = chart.sample_points(1, offset=0)[0]
    assert scalar_at(chart, p) == approx(0.0, abs=1e-12)


def test_product_scalar_adds_spheres():
    chart = make_product_chart(make_sphere_chart(2, 1.0), make_sphere_chart(2, 1.0))
    for p in chart.sample_points(5, offset=0):
        assert scalar_at(chart, p) == approx(4.0, abs=1e-9)


def test_product_scalar_adds_hyperbolic():
    r, s = 1.0, 0.5
    chart = make_product_chart(make_hyperbolic_chart(2, r), make_hyperbolic_chart(2, s))
    p = chart.sample_points(3, offset=1)[1]
    assert scalar_at(chart, p) == approx(-2.0 / r**2 - 2.0 / s**2, abs=1e-9)


# -- warped charts -----------------------------------------------------------------------


def test_warped_constant_h_is_product():
    chart = build_warped_geometry((-1.0, 1.0), "1", make_sphere_chart(3, 1.0)).chart
    product = make_product_chart(make_flat_torus_chart(1), make_sphere_chart(3, 1.0))
    p = np.array([0.3, 0.1, -0.2, 0.4])
    gw = chart.metric_jets(p, 2).value
    gp = product.metric_jets(p, 2).value
    assert np.max(np.abs(gw - gp)) < 1e-10
    assert scalar_at(chart, p) == approx(6.0, abs=1e-9)


def test_warped_ejiri_scalar(ejiri):
    for p in ejiri.chart.sample_points(10, offset=0):
        assert scalar_at(ejiri.chart, p) == approx(3.0, abs=1e-9)


def test_warped_cosh_example1_scalar():
    n = 5
    r2, s2 = basicex_radii(n, 2)
    fiber = make_product_chart(make_hyperbolic_chart(2, r2), make_hyperbolic_chart(2, s2))
    chart = build_warped_geometry((-1.0, 1.0), "cosh(t)", fiber).chart
    p = chart.sample_points(4, offset=0)[2]
    assert scalar_at(chart, p) == approx(-20.0, abs=1e-8)


def test_warped_nonpositive_h_rejected():
    with pytest.raises(ValueError):
        build_warped_geometry((0.0, 7.0), "sin(t)", make_sphere_chart(3, 1.0))


def test_warped_xi_components(ejiri):
    p = np.array([0.7, 0.2, -0.3, 0.4])
    b = CurvatureBundle(ejiri.chart, p, order=1)
    xi = b.vector_field(ejiri.xi.builder).value
    assert xi[0] == approx(math.sqrt(2.0 + math.sin(0.7)))
    assert xi[1:] == approx(np.zeros(3))


def test_periodicity_of_ejiri_fields(ejiri):
    """All computed fields agree at t and t + 2 pi."""
    base = np.array([0.9, 0.2, -0.1, 0.3])
    shifted = base + np.array([2.0 * math.pi, 0, 0, 0])
    b1 = CurvatureBundle(ejiri.chart, base, order=3)
    b2 = CurvatureBundle(ejiri.chart, shifted, order=3)
    assert np.max(np.abs(b1.g0 - b2.g0)) < 1e-9
    assert abs(b1.scalar - b2.scalar) < 1e-9
    assert np.max(np.abs(b1.cotton.value - b2.cotton.value)) < 1e-9


# -- basicex ---------------------------------------------------------------------------


def test_basicex_dimensions(basicex52):
    wg, pot = basicex52
    assert wg.chart.dim == 5
    p = wg.chart.sample_points(2, offset=0)[0]
    assert scalar_at(wg.chart, p) == approx(-20.0, abs=1e-8)


def test_basicex_n4k1_fiber():
    chart = basicex_geometry(4, 1)[0].chart
    assert chart.dim == 4
    r1, s1 = basicex_radii(4, 1)
    assert s1 == approx(math.sqrt(1.0 / 3.0))
    p = chart.sample_points(2, offset=0)[0]
    assert scalar_at(chart, p) == approx(-12.0, abs=1e-8)


def test_basicex_parameter_errors():
    with pytest.raises(ValueError):
        basicex_geometry(5, 3)  # k = n-2
    with pytest.raises(ValueError):
        basicex_geometry(4, 0)


def test_basicex_vacuum_static(basicex41):
    wg, pot = basicex41
    p = wg.chart.sample_points(3, offset=1)[1]
    residual = at_row(StaticAnalysis(lone_chain(wg.chart, p, 2), pot).vacuum, 0)["full"]
    assert residual.rel < 1e-8


# -- catalog invariants ---------------------------------------------------------------


def test_known_scalars_match():
    charts = [
        make_sphere_chart(3, 1.0),
        make_sphere_chart(4, 2.0),
        make_hyperbolic_chart(3, 1.0),
        make_flat_torus_chart(3),
        make_product_chart(make_sphere_chart(2, 1.0), make_sphere_chart(2, 2.0)),
    ]
    for chart in charts:
        assert chart.known_scalar is not None
        for p in chart.sample_points(5, offset=0):
            got = scalar_at(chart, p)
            assert abs(got - chart.known_scalar) / (1.0 + abs(chart.known_scalar)) < 1e-8


def test_einstein_fiber_efield_small():
    for chart in (make_sphere_chart(3, 1.0), make_hyperbolic_chart(3, 0.8)):
        p = chart.sample_points(3, offset=0)[1]
        b = CurvatureBundle(chart, p, order=2)
        assert b.norm(b.efield.value, ("l", "l")) < 1e-9


def test_non_einstein_fiber_efield_bounded_away():
    r2, s2 = basicex_radii(5, 2)
    chart = make_product_chart(make_hyperbolic_chart(2, r2), make_hyperbolic_chart(2, s2))
    norms = []
    for p in chart.sample_points(5, offset=0):
        b = CurvatureBundle(chart, p, order=2)
        norms.append(b.norm(b.efield.value, ("l", "l")))
    assert min(norms) > 0.5



# -- charts from run-configs -------------------------------------------------------------

CHART_KINDS = {
    "sphere": ({"kind": "sphere", "dim": 2, "radius": 1.5}, lambda: make_sphere_chart(2, 1.5)),
    "hyperbolic": ({"kind": "hyperbolic", "dim": 2, "radius": 0.7}, lambda: make_hyperbolic_chart(2, 0.7)),
    "flat_torus": ({"kind": "flat_torus", "dim": 3}, lambda: make_flat_torus_chart(3)),
    "product": (
        {"kind": "product", "left": {"kind": "sphere", "dim": 2}, "right": {"kind": "hyperbolic", "dim": 1}},
        lambda: make_product_chart(make_sphere_chart(2, 1.0), make_hyperbolic_chart(1, 1.0)),
    ),
}


PATHS = {"top": "space", "warped": "space.fiber", "nested": "space.fiber.left.left"}


def _space_at(position, raw):
    """A space config with ``raw`` at the top, as a warped fiber, or left in a product left in the fiber."""
    if position == "top":
        return raw
    if position == "nested":
        left = {"kind": "product", "left": raw, "right": {"kind": "sphere", "dim": 1}}
        raw = {"kind": "product", "left": left, "right": {"kind": "flat_torus", "dim": 1}}
    return {"kind": "warped", "interval": [-1.0, 1.0], "warping": "cosh(t)", "fiber": raw}


def _chart_at(position, chart):
    """The chart that ``_space_at`` describes, built directly."""
    if position == "top":
        return chart
    if position == "nested":
        chart = make_product_chart(make_product_chart(chart, make_sphere_chart(1, 1.0)), make_flat_torus_chart(1))
    return build_warped_geometry((-1.0, 1.0), "cosh(t)", chart).chart


def _config_chart(space):
    return build_context(RunConfig.from_dict({"space": space, "checks": ["firstthm"]})).chart


@pytest.mark.parametrize("position", sorted(PATHS))
@pytest.mark.parametrize("kind", sorted(CHART_KINDS))
def test_config_chart_equals_direct_construction(kind, position):
    raw, make = CHART_KINDS[kind]
    chart, direct = _config_chart(_space_at(position, raw)), _chart_at(position, make())
    assert chart.label == direct.label and chart.dim == direct.dim
    for p in direct.sample_points(2):
        assert chart.metric_jets(p, 2).data.tobytes() == direct.metric_jets(p, 2).data.tobytes()


@pytest.mark.parametrize("position", sorted(PATHS))
@pytest.mark.parametrize(
    "raw,field",
    [
        ({"kind": "banana", "dim": 2}, ".kind"),
        (5, ""),
        ({"kind": "sphere", "radius": 1.0}, ".dim"),
        ({"kind": "flat_torus", "dim": 0}, ".dim"),
        ({"kind": "flat_torus", "dim": -1}, ".dim"),
        ({"kind": "sphere", "dim": 0}, ".dim"),
    ],
)
def test_config_chart_errors_name_their_path(raw, field, position):
    with pytest.raises(ConfigError, match="^" + re.escape(PATHS[position] + field) + ":"):
        _config_chart(_space_at(position, raw))


@pytest.mark.parametrize("make", [make_flat_torus_chart, make_sphere_chart, make_hyperbolic_chart])
def test_space_form_charts_need_dim_at_least_1(make):
    args = (0,) if make is make_flat_torus_chart else (0, 1.0)
    with pytest.raises(ValueError, match=r"needs m >= 1"):
        make(*args)
