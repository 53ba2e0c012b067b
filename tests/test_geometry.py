import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from warpcheck.geometry import CurvatureBundle, MetricChart, SingularMetricError, _inverse_metric, kulkarni_nomizu_jets
from warpcheck.jets import JetShapeError, JetTensor, jet_space, jt_einsum
from warpcheck.spaces import (
    make_flat_torus_chart,
    make_hyperbolic_chart,
    make_sphere_chart,
)
from warpcheck.tensors import tensor_norm_sq
from conftest import warping_derivatives


def constant_curvature_riemann(g0, kappa):
    """Oracle: R = (kappa/2) (g KN g) for a space form of sectional curvature kappa."""
    return 0.5 * kappa * kulkarni_nomizu_jets(_const(g0), _const(g0)).value


def _const(values):
    """Components at one point as an order-0 jet, the form kulkarni_nomizu_jets takes."""
    values = np.asarray(values, dtype=float)
    return JetTensor.const(jet_space(values.shape[0], 0), values)


# -- christoffel ---------------------------------------------------------------


def test_flat_christoffel_vanishes():
    chart = make_flat_torus_chart(3)
    gamma = CurvatureBundle(chart, np.array([1.0, 2.0, 3.0]), order=1).gamma.value
    assert np.max(np.abs(gamma)) == 0.0


def test_warped_christoffel_closed_forms(ejiri):
    p = np.array([0.7, 0.2, -0.3, 0.4])
    gamma = CurvatureBundle(ejiri.chart, p, order=1).gamma.value
    h, hd = warping_derivatives(ejiri, p[0], 1)
    gbar = make_sphere_chart(3, 1.0).metric_jets(p[1:], 1).value
    assert gamma[0, 1:, 1:] == approx(-h * hd * gbar, abs=1e-12)
    assert gamma[1:, 0, 1:] == approx((hd / h) * np.eye(3), abs=1e-12)
    assert gamma[0, 0, :] == approx(np.zeros(4), abs=1e-14)


def test_stereographic_origin_christoffel():
    chart = make_sphere_chart(2, 1.0)
    gamma = CurvatureBundle(chart, np.zeros(2), order=1).gamma.value
    assert np.max(np.abs(gamma)) < 1e-14


# -- riemann ---------------------------------------------------------------------


def test_flat_torus_riemann_zero():
    chart = make_flat_torus_chart(3)
    r = CurvatureBundle(chart, np.array([0.3, 1.1, 2.0]), order=2).riemann4.value
    assert np.max(np.abs(r)) == 0.0


def test_unit_sphere_sectional_curvature():
    chart = make_sphere_chart(2, 1.0)
    for p in chart.sample_points(20, offset=0):
        b = CurvatureBundle(chart, p, order=2)
        g0 = b.g0
        r4 = b.riemann4.value
        sec = r4[0, 1, 0, 1] / (g0[0, 0] * g0[1, 1] - g0[0, 1] ** 2)
        assert sec == approx(1.0, abs=1e-9)
        assert r4 == approx(constant_curvature_riemann(g0, 1.0), abs=1e-9)


def test_hyperbolic_plane_sectional_curvature():
    chart = make_hyperbolic_chart(2, 1.0)
    for p in chart.sample_points(20, offset=0):
        b = CurvatureBundle(chart, p, order=2)
        g0 = b.g0
        r4 = b.riemann4.value
        sec = r4[0, 1, 0, 1] / (g0[0, 0] * g0[1, 1] - g0[0, 1] ** 2)
        assert sec == approx(-1.0, abs=1e-9)
        assert r4 == approx(constant_curvature_riemann(g0, -1.0), abs=1e-9)


def test_riemann_symmetry_pattern(basicex52):
    """Antisymmetric in (0,1) and (2,3); symmetric under pair swap."""
    wg, _ = basicex52
    p = wg.chart.sample_points(1, offset=5)[0]
    r4 = CurvatureBundle(wg.chart, p, order=2).riemann4.value
    assert np.max(np.abs(r4 + np.swapaxes(r4, 0, 1))) < 1e-10
    assert np.max(np.abs(r4 + np.swapaxes(r4, 2, 3))) < 1e-10
    assert np.max(np.abs(r4 - np.einsum("ijkl->klij", r4))) < 1e-10


# -- curvature bundle --------------------------------------------------------------


def test_s4_bundle_values():
    chart = make_sphere_chart(4, 1.0)
    b = CurvatureBundle(chart, np.array([0.1, 0.2, -0.3, 0.05]), order=3)
    assert b.scalar == approx(12.0, abs=1e-9)
    assert np.max(np.abs(b.efield.value)) < 1e-12
    assert b.norm(b.weyl.value, ("l",) * 4) < 1e-10
    assert b.norm(b.cotton.value, ("l",) * 3) < 1e-10


def test_ejiri_scalar_constant(ejiri):
    for p in ejiri.chart.sample_points(25, offset=0):
        b = CurvatureBundle(ejiri.chart, p, order=2)
        assert b.scalar == approx(3.0, abs=1e-9)


def test_basicex_scalar(basicex52):
    wg, _ = basicex52
    for p in wg.chart.sample_points(10, offset=0):
        b = CurvatureBundle(wg.chart, p, order=2)
        assert b.scalar == approx(-20.0, abs=1e-8)


def test_singular_metric_rejected():
    def builder(coords):
        x = coords[0]
        return [[1.0, 0.0, 0.0], [0.0, x * x, 0.0], [0.0, 0.0, 1.0]]

    chart = MetricChart(3, "degenerate", builder, (np.full(3, -1.0), np.full(3, 1.0)))
    with pytest.raises(SingularMetricError):
        CurvatureBundle(chart, np.array([0.0, 0.5, 0.5]), order=1).ginv0


def _inverse_at_one_point(g: JetTensor) -> tuple:
    """(g0^-1, L, L^-1, g^-1) of one point's (n, n) metric jets, formed as for that point alone: the reference."""
    n, g0 = g.shape[0], g.value
    g0inv = np.linalg.inv(g0)
    n_mat = g - JetTensor.const(g.space, g0)
    x = JetTensor.const(jet_space(n, 0), g0inv)
    for k in range(1, g.order):
        space = jet_space(n, k)
        prod = jt_einsum("ij,jk->ik", n_mat, x.embed(space, tuple(range(n))))
        x = JetTensor.const(space, g0inv) - JetTensor(space, np.einsum("ij,jkz->ikz", g0inv, prod.data))
    chol = np.linalg.cholesky(g0)
    return g0inv, chol, np.linalg.inv(chol), x


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 7, 64]), st.integers(2, 5), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_batched_inverse_metric_is_each_point_alone(points, n, order, diagonal, seed):
    """Each point's slice of the batch's g0^-1, L, L^-1 and g^-1 jets has the bytes of the point
    formed as a batch of one, and of the point formed alone on its (n, n) jets.  Diagonal stacks,
    whose entries are zero or not from point to point, take jt_einsum's zero rule on the second
    round, from the plans of the first."""
    rng = np.random.default_rng(seed)
    space = jet_space(n, order)
    data = rng.uniform(-0.3, 0.3, (points, n, n, space.n_coeffs))
    data += data.transpose(0, 2, 1, 3)
    if diagonal:
        data *= np.eye(n)[:, :, None] * rng.integers(0, 2, (points, n, 1, 1))
        data[..., 0] = np.eye(n) * rng.uniform(0.5, 2.0, (points, 1, n))
    else:
        a = rng.standard_normal((points, n, n))
        data[..., 0] = a @ a.transpose(0, 2, 1) / n + 0.5 * np.eye(n)
    for _ in range(2):
        batch = _inverse_metric(JetTensor(space, data))
        assert batch[3].order == order - 1
        for k in range(points):
            alone = _inverse_metric(JetTensor(space, data[k : k + 1]))
            reference = _inverse_at_one_point(JetTensor(space, data[k]))
            for got, one, want in zip(batch, alone, reference):
                if isinstance(got, JetTensor):
                    assert got.space is one.space is want.space
                    got, one, want = got.data, one.data, want.data
                assert got[k].tobytes() == one[0].tobytes() == want.tobytes()


def _stray_entry(coords, mismatch: str) -> JetTensor:
    """A scalar jet outside the coordinates' space: one order lower, or one more variable."""
    x = coords[0]
    if mismatch == "order":
        return 1.0 + x.truncate(x.order - 1) * x
    return 1.0 + JetTensor.variable(0, 0.5, x.space.num_vars + 1, x.order)


@pytest.mark.parametrize("mismatch", ["order", "num_vars"])
def test_metric_builder_mixing_jet_spaces_rejected(mismatch):
    """Arithmetic truncates to the lower order, so the stacking step must catch a mixed builder."""

    def builder(coords):
        stray = _stray_entry(coords, mismatch)
        return [[1.0, 0.0, 0.0], [0.0, stray, 0.0], [0.0, 0.0, 1.0 + coords[2] * coords[2]]]

    chart = MetricChart(3, "mixed", builder, (np.full(3, -1.0), np.full(3, 1.0)))
    with pytest.raises(JetShapeError):
        chart.metric_jets(np.array([0.1, 0.2, 0.3]), 3)


@pytest.mark.parametrize("mismatch", ["order", "num_vars"])
def test_vector_field_mixing_jet_spaces_rejected(mismatch):
    b = CurvatureBundle(make_flat_torus_chart(3), np.array([0.1, 0.2, 0.3]), order=3)
    with pytest.raises(JetShapeError):
        b.vector_field(lambda coords: [coords[1], _stray_entry(coords, mismatch), 0.0])


def test_insufficient_dim_for_cotton():
    chart = make_sphere_chart(2, 1.0)
    b = CurvatureBundle(chart, np.zeros(2), order=4)
    for name, what in [("schouten", "Schouten"), ("weyl", "Weyl"), ("cotton", "Cotton"), ("cotton_divergence", "Cotton")]:
        with pytest.raises(ValueError, match=f"{what} tensor requires dim >= 3, chart has dim 2"):
            getattr(b, name)


def test_insufficient_jet_order_for_cotton_divergence():
    chart = make_sphere_chart(3, 1.0)
    with pytest.raises(JetShapeError, match="insufficient jet order"):
        CurvatureBundle(chart, np.array([0.1, 0.2, 0.3]), order=3).cotton_divergence


# -- kulkarni-nomizu ------------------------------------------------------------------


def test_kn_diagonal_values():
    g = _const(np.eye(3))
    kn = kulkarni_nomizu_jets(g, g).value
    assert kn[0, 1, 0, 1] == approx(2.0)
    assert kn[0, 1, 1, 0] == approx(-2.0)
    assert kn[0, 0, 1, 1] == approx(0.0)


def test_kn_zero():
    z = _const(np.zeros((3, 3)))
    assert np.max(np.abs(kulkarni_nomizu_jets(z, z).value)) == 0.0


def test_kn_riemann_reconstruction(ejiri):
    p = np.array([1.3, 0.1, 0.2, -0.2])
    b = CurvatureBundle(ejiri.chart, p, order=3)
    kn = kulkarni_nomizu_jets(b.schouten, b.g).value
    reconstructed = b.weyl.value + kn / (b.dim - 2.0)
    scale = 1.0 + b.norm(b.riemann4.value, ("l",) * 4)
    assert np.max(np.abs(reconstructed - b.riemann4.value)) / scale < 1e-9


def test_kn_shape_mismatch():
    with pytest.raises(ValueError):
        kulkarni_nomizu_jets(_const(np.eye(3)), _const(np.zeros(3)))


# -- interior multiplication -----------------------------------------------------------


def test_interior_mult_dt_cotton_constant_r(ejiri):
    p = np.array([2.2, 0.2, 0.1, -0.3])
    b = CurvatureBundle(ejiri.chart, p, order=3)
    dt = np.array([1.0, 0.0, 0.0, 0.0])
    ic = np.einsum("a,abc->bc", dt, b.cotton.value)
    assert np.max(np.abs(ic)) < 1e-10


# -- norms ---------------------------------------------------------------------------


def _constant_metric_bundle(g0: np.ndarray) -> CurvatureBundle:
    """A bundle on the chart whose metric is g0 everywhere."""
    n = len(g0)
    chart = MetricChart(n, "constant", lambda coords: g0.tolist(), (np.full(n, -1.0), np.full(n, 1.0)))
    return CurvatureBundle(chart, np.zeros(n), order=1)


def _einsum_norm_sq(components, variance, g0, ginv0):
    """Oracle: one contraction of the components with themselves over n^(2 rank) terms."""
    rank = components.ndim
    operands, subs = [components, components], ["abcd"[:rank], "pqrs"[:rank]]
    for i, flag in enumerate(variance):
        operands.append(ginv0 if flag == "l" else g0)
        subs.append("abcd"[i] + "pqrs"[i])
    return float(np.einsum(",".join(subs) + "->", *operands))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_frame_norm_matches_einsum_oracle(n, rank, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    b = _constant_metric_bundle(a @ a.T + np.eye(n))
    variance = tuple("lu"[k] for k in rng.integers(0, 2, rank))
    comps = rng.standard_normal((n,) * rank)
    want = _einsum_norm_sq(comps, variance, b.g0, b.ginv0)
    assert b.norm_sq(comps, variance) == approx(want, rel=1e-12)
    assert b.norm(b.g0, ("l", "l")) == approx(math.sqrt(n), rel=1e-12)
    assert b.norm(b.ginv0, ("u", "u")) == approx(math.sqrt(n), rel=1e-12)
    # a non-finite component never norms to a silent 0.0
    for bad in (math.nan, math.inf, -math.inf):
        poisoned = comps.copy()
        poisoned.flat[rng.integers(poisoned.size)] = bad
        with np.errstate(invalid="ignore"):
            assert not math.isfinite(b.norm(poisoned, variance))


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("points", [1, 7])
@pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
def test_stacked_frame_norms_are_the_lone_frames_bit_for_bit(rank, points, transposed):
    """tensor_norm_sq on a (P, n, n) frame stack gives the bytes of P one-row stacks, each point alone, with mixed
    variance, components of magnitudes 1e-5 to 1e4 and a transposed (non-contiguous) component array; a lone
    frame, with no stack axis, gives its one-row stack's bytes as a 0-d array."""
    rng = np.random.default_rng(100 * rank + 10 * points + transposed)
    n = 4 if rank == 4 else 6
    a = rng.standard_normal((points, n, n))
    chol = np.linalg.cholesky(a @ a.transpose(0, 2, 1) + np.eye(n))
    up, low = chol.transpose(0, 2, 1), np.linalg.inv(chol)
    variance = tuple("lu"[k % 2] for k in rng.permutation(rank))
    comps = rng.standard_normal((points,) + (n,) * rank) * 10.0 ** rng.uniform(-5, 4, (points,) + (1,) * rank)
    if transposed:
        comps = np.asfortranarray(comps)
        assert comps.ndim - (points == 1) < 2 or not comps.flags.c_contiguous
    got = tensor_norm_sq(comps, variance, up, low)
    want = np.concatenate([tensor_norm_sq(comps[k : k + 1], variance, up[k : k + 1], low[k : k + 1])
                           for k in range(points)])
    assert got.shape == (points,) and got.tobytes() == want.tobytes()
    lone = tensor_norm_sq(comps[0], variance, up[0], low[0])
    assert lone.shape == () and lone.tobytes() == want[:1].tobytes()


def test_tensor_norm_op(ejiri):
    p = np.array([0.5, 0.1, -0.2, 0.3])
    b = CurvatureBundle(ejiri.chart, p, order=1)
    assert b.norm(b.g0, ("l", "l")) == approx(2.0, rel=1e-12)
    xi = np.array([1.0, 0.0, 0.0, 0.0])
    assert b.norm(xi, ("u",)) == approx(1.0, rel=1e-12)  # dt direction is unit
    for variance in (("l",), ("l", "l", "l")):
        with pytest.raises(ValueError, match="variance length"):
            b.norm(b.g0, variance)


def test_cotton_norm_zero_on_s4():
    chart = make_sphere_chart(4, 1.0)
    b = CurvatureBundle(chart, np.array([0.3, -0.2, 0.1, 0.4]), order=3)
    assert b.norm(b.cotton.value, ("l",) * 3) < 1e-10


def test_cotton_norm_positive_on_basicex(basicex52):
    wg, _ = basicex52
    bundles = [CurvatureBundle(wg.chart, p, order=3) for p in wg.chart.sample_points(5, offset=2)]
    values = [b.norm(b.cotton.value, ("l",) * 3) for b in bundles]
    assert max(values) > 0.1


# -- covariant derivative machinery ------------------------------------------------------


def test_metric_compatibility(basicex52):
    """nabla g = 0, exercising the covariant derivative on a (0,2) tensor."""
    wg, _ = basicex52
    p = wg.chart.sample_points(1, offset=9)[0]
    b = CurvatureBundle(wg.chart, p, order=3)
    dg = b.covariant_derivative(b.g, ("l", "l"))
    assert np.max(np.abs(dg.value)) < 1e-12


def test_scalar_second_bianchi(basicex52):
    """Contracted second Bianchi: div Ric = dR/2 (with the paper's conventions)."""
    wg, _ = basicex52
    p = wg.chart.sample_points(1, offset=4)[0]
    b = CurvatureBundle(wg.chart, p, order=3)
    dric = b.covariant_derivative(b.ric, ("l", "l"))
    div_ric = np.einsum("ij,ijk->k", b.ginv0, dric.value)
    dr = b.scalar_jet.partials().value
    assert div_ric == approx(0.5 * dr, abs=1e-10)


def test_a_lone_bundle_builds_a_field_once_as_a_batch_of_one():
    """A lone CurvatureBundle is a batch of one for its fields as for its metric: the builder runs once, on
    coordinate jets of shape (1,), however often the field is read."""
    shapes = []

    def builder(coords):
        shapes.append(coords[0].shape)
        return coords[0] * coords[1] + coords[2].elem("sin")

    b = CurvatureBundle(make_sphere_chart(3, 1.0), np.array([0.4, 0.1, -0.2]), order=3)
    reads = [b.scalar_field(builder) for _ in range(3)]
    assert shapes == [(1,)]
    assert all(f.shape == () and f.data.tobytes() == reads[0].data.tobytes() for f in reads)


def test_hessian_symmetry(expwarp4):
    p = np.array([0.4, 0.1, 0.2, -0.3])
    b = CurvatureBundle(expwarp4.chart, p, order=3)
    f = b.scalar_field(lambda coords: coords[0] * coords[1] + coords[2].elem("sin"))
    hess = b.hessian(f).value
    assert np.max(np.abs(hess - hess.T)) < 1e-12
