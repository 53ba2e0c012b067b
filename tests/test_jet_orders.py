"""Products formed only up to the jet order that is kept change no bit.

The curvature pipeline truncates factors before a product instead of
truncating the product.  That rests on two facts about the jet layout,
checked here on random tensors, and on the rewritten formulas matching
the straightforward ones bit for bit on real charts.  Each check's
declared metric order is pinned as exactly what it reads.  The vectorized
``partials`` and ``pow_const`` series are pinned the same way against the
loops they replaced, order-0 products against the general gathered
formula, and numpy's summation order under the kernels by a digest of their
output.
"""

import copy
import hashlib
import json
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcheck import geometry
from warpcheck.checks import CHECKS, EXAMPLE_CONFIGS, RunConfig, build_context, point_scratches, run_suite
from warpcheck.geometry import ChartBatch, CurvatureBundle, MetricChart
from warpcheck.jets import JetTensor, _elem_series, _raw_elem, _raw_mul, jet_space, jt_einsum
from conftest import example_geometry
from warpcheck.spaces import (
    basicex_geometry,
    make_flat_torus_chart,
    make_hyperbolic_chart,
    make_product_chart,
    make_sphere_chart,
)

# products of the curvature chain, and products formed from order-0 operands for
# jets that nothing differentiates again: the Hessian's connection term,
# R^l_ijk xi_l, g^ij Hess_ij, f Ric and the Kulkarni-Nomizu product
SPECS = (
    "mki,ljm->lijk",
    "ij,jk->ik",
    "sia,sbc->abci",
    "sia,s->ai",
    "lijk,l->ijk",
    "ij,ij->",
    "kl,ijl->kij",
    ",ij->ij",
    "ik,jl->ijkl",
)


def _bits(t: JetTensor) -> np.ndarray:
    return np.ascontiguousarray(t.data).view(np.int64)


def _assert_bitwise(x: JetTensor, y: JetTensor) -> None:
    assert x.space is y.space
    assert x.shape == y.shape
    np.testing.assert_array_equal(_bits(x), _bits(y))


def _operands(spec: str, dim: int, order: int, seed: int) -> tuple[JetTensor, JetTensor]:
    rng = np.random.default_rng(seed)
    space = jet_space(dim, order)
    sa, sb = spec.split("->")[0].split(",")
    return tuple(
        JetTensor(space, rng.standard_normal((dim,) * len(s) + (space.n_coeffs,))) for s in (sa, sb)
    )


jet_cases = st.tuples(
    st.sampled_from(SPECS),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(jet_cases)
def test_truncated_product_is_prefix_of_full_product(case):
    spec, dim, order, seed = case
    a, b = _operands(spec, dim, order, seed)
    full = jt_einsum(spec, a, b)
    for k in range(order):
        _assert_bitwise(full.truncate(k), jt_einsum(spec, a.truncate(k), b.truncate(k)))


@settings(max_examples=40, deadline=None)
@given(jet_cases)
def test_zero_value_factor_ignores_padded_top_order(case):
    """With one factor's value part 0.0, the other's top-order coefficients only add +0.0."""
    spec, dim, order, seed = case
    a, b = _operands(spec, dim, order, seed)
    for k in range(1, order + 1):
        space = jet_space(dim, k)
        for zero_first in (True, False):
            z, other = (a, b) if zero_first else (b, a)
            data = z.truncate(k).data.copy()
            data[..., 0] = 0.0
            z = JetTensor(space, data)
            padded = other.truncate(k - 1).embed(space, tuple(range(dim)))
            pair_full = (z, other) if zero_first else (other, z)
            pair_padded = (z, padded) if zero_first else (padded, z)
            _assert_bitwise(jt_einsum(spec, *pair_full).truncate(k), jt_einsum(spec, *pair_padded))


# the suites whose metric order 4 (for cxi_div) puts every curvature jet one order
# above what the checks read
@pytest.mark.parametrize("name", ["ejiri", "basicex-n5-k2"])
def test_jets_nothing_differentiates_are_order_zero(name):
    """Each such jet is formed at order 0, and so is every product formed from it."""
    config = RunConfig.from_dict(EXAMPLE_CONFIGS[name])
    ctx = build_context(config)
    specs = [CHECKS[check] for check in config.checks]
    orders = [max(getattr(spec, key) for spec in specs) for key in ("order", "fiber_order", "metric_order")]
    (sc,) = point_scratches(ctx, ctx.chart.sample_points(1, offset=3), *orders)
    b, st, ca = sc.chunk.chain, sc.chunk.static, sc.chunk.conformal
    assert b.batch.metric_order == 4
    jets = {
        "hessian": sc.chunk.chain.hessian(st.f),
        "lstar_f": st.lstar_f,
        "lstar_phi": ca.phi_analysis.lstar_f,
        "t_jets": st.t_jets,
        "phi_tensor_jets": ca.phi_tensor_jets,
        "efield": b.efield,
        "weyl": b.weyl,
        "cotton_xi": ca.cotton_xi,
        "cotton_mid_xi": ca.cotton_mid_xi,
        "ginv_d2p": ca.ginv_d2p,
        "ric_p_up": ca.ric_p_up,
        "df": st.df,
        "dphi": ca.phi_analysis.df,
    }
    assert {key: jet.order for key, jet in jets.items()} == dict.fromkeys(jets, 0)


# -- order-0 products ---------------------------------------------------------------

# SPECS, and the order-0 products of div P, i_xi C and the static analysis
ORDER0_SPECS = SPECS + ("ab,akb->k", "ilj,l->ij", "pd,pjdk->jk")


def reference_order0_einsum(spec: str, a: JetTensor, b: JetTensor) -> np.ndarray:
    """The general product at order 0: gather the pairs (here only (0, 0)), einsum, segmented sum."""
    a_idx, b_idx, starts = a.space.mul_table
    lhs, rhs = spec.split("->")
    sa, sb = lhs.split(",")
    prod = np.einsum(f"{sa}z,{sb}z->{rhs}z", a.data[..., a_idx], b.data[..., b_idx])
    return np.add.reduceat(prod, starts, axis=-1)


def _reversed_axes(t: JetTensor) -> JetTensor:
    """The same tensor read through a view whose tensor axes run backwards in memory."""
    rank = t.data.ndim - 1
    data = np.ascontiguousarray(t.data.transpose(tuple(range(rank))[::-1] + (rank,)))
    return JetTensor(t.space, data.transpose(tuple(range(rank))[::-1] + (rank,)))


def _long_axis_strides(x: np.ndarray) -> list[int]:
    return [stride for stride, size in zip(x.strides, x.shape) if size > 1]


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("dim", [3, 4, 5, 6])
@pytest.mark.parametrize("spec", ORDER0_SPECS)
def test_order0_product_matches_gathered_product_bitwise(spec, dim, layout):
    """An order-0 jt_einsum is one np.einsum of the values: same bytes, same layout as the general path."""
    a, b = _operands(spec, dim, 0, seed=dim)
    if layout == "transposed":
        a, b = _reversed_axes(a), _reversed_axes(b)
    got, want = jt_einsum(spec, a, b).data, reference_order0_einsum(spec, a, b)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    assert _long_axis_strides(got) == _long_axis_strides(want)


# -- numpy's summation order ------------------------------------------------------

# SHA-256 of the output bytes over dims 4-5 and orders 3-4, for the specs the
# curvature chain uses, and for _raw_mul.  The Ricci and Cotton-divergence
# specs are one contraction up to renaming, so their digests agree.  An
# ORDER0 entry is over dims 4-5 at order 0, where jt_einsum calls np.einsum
# on the values alone; its specs sum an index last in both operands.  A
# COMPOSE entry is an elementary function's series composed with fixed-seed
# jets (_raw_compose's Horner sum) over 1, 5 and 6 variables, orders 3-4 and
# batch shapes (), (1,), (40,) and (3, 4, 4); pow_const(-1) is the series that
# _raw_div composes.
ORDER0 = " at order 0"
COMPOSE = "_raw_compose "
COMPOSED = {"sin": None, "cos": None, "cosh": None, "sqrt": None, "pow_const(-1)": -1.0}
SUMMATION_DIGESTS = {
    "kl,ijl->kij": "39101bb022d631709c5a30de6d80cb812c7d16d91b1d599b317299572c34df26",
    "mki,ljm->lijk": "2d7451ef7e03ed7c167d4a5a1422ef824a707db622daa2292fd3bee6160e8e12",
    "is,sjkl->ijkl": "644976a1ddd85781efcb2c101805134e5fb4d7c8c21941203a8a8767154b5259",
    "kl,ikjl->ij": "1b8bdb602e607977754f3bf0aac9a8afe3ac4f063445c4c164c4141e7dff9bda",
    "ij,ij->": "61fab0f99645eb4c52b0637d14d9404989ea7861cf4d0fe5023b1b8f049c2a23",
    "jl,ijkl->ik": "1b8bdb602e607977754f3bf0aac9a8afe3ac4f063445c4c164c4141e7dff9bda",
    "_raw_mul": "ebc61f2fcaa4ce451f894929d76818331aa067d461dccfee7e6a81d6ae066ab9",
    "ij,ij->" + ORDER0: "d9fd13ce7d779e5af1d5362fc4fa451ff895427827b094d0e127034c585b0db3",
    "kl,ikjl->ij" + ORDER0: "9eb659abe4da00c5dbedfc5ccfdb6b8ac0846e4d252709476ba2f5ee2cc58d55",
    COMPOSE + "sin": "0d8a3f81d2828814ecf495a10a231b9df6311996b2c92d41edbf30d29a67a0f2",
    COMPOSE + "cos": "a5a1efee4f14c52086880632b8ace7047f1850c2de29d0201738ba141c2c075c",
    COMPOSE + "cosh": "6bda88ce18052b0edb81525d69790b7e5072f5997054a2734748afcb749fb033",
    COMPOSE + "sqrt": "ef0035c86e0d7cf47fc485d22911e8c07be995117dfe5668e60b4f832ad9c242",
    COMPOSE + "pow_const(-1)": "5723ba33f9e9c83aeb0eaef78ee288341bdaab767c8f41b6cfab437903cafa1b",
}


def _summation_digest(key: str) -> str:
    spec = key.removesuffix(ORDER0)
    digest = hashlib.sha256()
    if key.startswith(COMPOSE):
        name = key.removeprefix(COMPOSE)
        rng = np.random.default_rng(0)
        for num_vars in (1, 5, 6):
            for order in (3, 4):
                space = jet_space(num_vars, order)
                for shape in ((), (1,), (40,), (3, 4, 4)):
                    x = rng.standard_normal(shape + (space.n_coeffs,))
                    x[..., 0] = 0.5 + np.abs(x[..., 0])  # in the domain of sqrt and 1/x
                    out = _raw_elem(space, name.split("(")[0], x, COMPOSED[name])
                    digest.update(np.ascontiguousarray(out).tobytes())
        return digest.hexdigest()
    for dim in (4, 5):
        for order in (0,) if key.endswith(ORDER0) else (3, 4):
            if spec == "_raw_mul":
                a, b = _operands("ij,ij->ij", dim, order, seed=0)
                out = _raw_mul(a.space, a.data, b.data)
            else:
                out = jt_einsum(spec, *_operands(spec, dim, order, seed=0)).data
            digest.update(np.ascontiguousarray(out).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(SUMMATION_DIGESTS))
def test_numpy_summation_order_is_pinned(key):
    """The kernels' output bits on fixed operands.

    Every golden digit rests on the order in which ``np.einsum`` and
    ``np.add.reduceat`` sum.  A failure here means a numpy upgrade changed
    that order, so golden digits will move: re-derive the goldens and these
    digests together, and say which digits moved.
    """
    assert _summation_digest(key) == SUMMATION_DIGESTS[key]


# -- the rewritten formulas against the straightforward ones ----------------------


class FullOrderBundle(CurvatureBundle):
    """The chain at one point as first written: no product cut to the kept order, and g^-1 to the metric's."""

    @cached_property
    def ginv(self) -> JetTensor:
        g0inv = self.ginv0
        n_mat = self.g - JetTensor.const(self.space, self.g0)
        x = JetTensor.const(self.space, g0inv)
        for _ in range(self.order):
            prod = jt_einsum("ij,jk->ik", n_mat, x)
            x = JetTensor.const(self.space, g0inv) - JetTensor(prod.space, np.einsum("ij,jkz->ikz", g0inv, prod.data))
        return x

    @cached_property
    def gamma(self) -> JetTensor:
        dg = self.g.partials()
        sym = dg.transpose("jli->ijl") + dg.transpose("ilj->ijl") - dg
        return jt_einsum("kl,ijl->kij", self.ginv, sym) * 0.5

    @cached_property
    def riemann13(self) -> JetTensor:
        gamma = self.gamma
        dgamma = gamma.partials()
        term = dgamma.transpose("lkij->lijk") - dgamma.transpose("ljik->lijk")
        term = term + jt_einsum("mki,ljm->lijk", gamma, gamma)
        term = term - jt_einsum("mji,lkm->lijk", gamma, gamma)
        return term

    @cached_property
    def ric(self) -> JetTensor:
        return jt_einsum("kl,ikjl->ij", self.ginv, jt_einsum("is,sjkl->ijkl", self.g, self.riemann13))

    @cached_property
    def schouten(self) -> JetTensor:
        scalar = jt_einsum("ij,ij->", self.ginv, self.ric)
        return self.ric - jt_einsum(",ij->ij", scalar, self.g) / (2.0 * (self.dim - 1))

    @cached_property
    def cotton(self) -> JetTensor:
        da = self.covariant_derivative(self.schouten, ("l", "l"))
        return da - da.transpose("ijk->ikj")

    @cached_property
    def cotton_divergence(self) -> JetTensor:
        return jt_einsum("jl,ijkl->ik", self.ginv, self.covariant_derivative(self.cotton, ("l", "l", "l")))

    def covariant_derivative(self, t: JetTensor, variance: tuple[str, ...]) -> JetTensor:
        rank = len(variance)
        out = t.partials()
        letters = "abcdefgh"[:rank]
        for pos, flag in enumerate(variance):
            tsub = letters[:pos] + "s" + letters[pos + 1 :]
            if flag == "l":
                out = out - jt_einsum(f"si{letters[pos]},{tsub}->{letters}i", self.gamma, t)
            else:
                out = out + jt_einsum(f"{letters[pos]}is,{tsub}->{letters}i", self.gamma, t)
        return out


def dense_chart(n: int = 4) -> MetricChart:
    """g = I + 0.15 (A_ij cos(B_ij . x)): every entry and derivative nonzero."""
    rng = np.random.default_rng(7)
    amp = rng.uniform(-1.0, 1.0, (n, n))
    amp = (amp + amp.T) / 2.0
    freq = rng.uniform(-1.0, 1.0, (n, n, n))
    freq = (freq + freq.transpose(1, 0, 2)) / 2.0

    def builder(coords):
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                phase = coords[0] * float(freq[i, j, 0])
                for k in range(1, n):
                    phase = phase + coords[k] * float(freq[i, j, k])
                entry = phase.elem("cos") * (0.15 * float(amp[i, j]))
                rows[i][j] = rows[j][i] = entry + 1.0 if i == j else entry
        return rows

    return MetricChart(dim=n, label="dense", builder=builder, box=(np.full(n, -1.0), np.full(n, 1.0)))


CHARTS = {
    "sphere": lambda: make_sphere_chart(4, 1.0),
    "ejiri": lambda: example_geometry("ejiri").chart,
    "basicex": lambda: basicex_geometry(5, 2)[0].chart,
    "dense": dense_chart,
}


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("name", sorted(CHARTS))
def test_kept_order_formulas_match_full_order_bitwise(name, order):
    chart = CHARTS[name]()
    attrs = ("riemann13", "cotton") + (("cotton_divergence",) if order >= 4 else ())
    for point in chart.sample_points(2, offset=3):
        new, ref = CurvatureBundle(chart, point, order), FullOrderBundle(chart, point, order)
        _assert_bitwise(new.ginv, ref.ginv.truncate(order - 1))
        for attr in attrs:
            _assert_bitwise(getattr(new, attr), getattr(ref, attr))


def test_no_geometry_product_is_truncated_after_the_fact(monkeypatch):
    """No jt_einsum result built in geometry.py is cut to a lower order later."""
    made: list[JetTensor] = []
    cut: list[str] = []

    def recording_einsum(spec, a, b):
        out = jt_einsum(spec, a, b)
        made.append(out)
        return out

    truncate = JetTensor.truncate

    def checking_truncate(self, order):
        if order < self.order and any(self is m for m in made):
            cut.append(f"order {self.order} -> {order}, shape {self.shape}")
        return truncate(self, order)

    monkeypatch.setattr(geometry, "jt_einsum", recording_einsum)
    monkeypatch.setattr(JetTensor, "truncate", checking_truncate)
    chart = dense_chart()
    CurvatureBundle(chart, chart.sample_points(1)[0], order=4).cotton_divergence
    assert made
    assert cut == []


# -- the metric order each check declares -----------------------------------------

METRIC_CHARTS = dict(
    CHARTS,
    hyperbolic=lambda: make_hyperbolic_chart(4, 1.0),
    flat_torus=lambda: make_flat_torus_chart(3),
    product=lambda: make_product_chart(make_sphere_chart(2, 1.0), make_hyperbolic_chart(2, 2.0)),
    ode_warped=lambda: example_geometry("equiv-fail").chart,
)


# cos at a zero phase (the box centre): the Horner loop of a composition
# multiplies its extra top-order term by the zero value part of the phase
SIGNED_ZERO_CHARTS = {"dense"}


def _centre_and_samples(chart: MetricChart) -> list[np.ndarray]:
    """The box centre and two Halton points.

    At the centre the sphere, hyperbolic and product coordinates, and the
    fiber coordinates of the warped charts, are exactly 0.0.
    """
    lo, hi = chart.box
    return [(lo + hi) / 2.0, *chart.sample_points(2, offset=3)]


@pytest.mark.parametrize("name", sorted(METRIC_CHARTS))
def test_metric_jets_are_prefix_stable(name):
    """A metric built at order k is the order-(k+1) metric truncated, up to the sign of a zero.

    The sign differs on the dense chart, so a bundle builds its metric at the
    metric order and adds 0.0, which makes every zero +0.0.
    """
    chart = METRIC_CHARTS[name]()
    differs = False
    for point in _centre_and_samples(chart):
        for k in (1, 2, 3):
            low, cut = chart.metric_jets(point, k), chart.metric_jets(point, k + 1).truncate(k)
            np.testing.assert_array_equal(low.data, cut.data)
            differs |= not np.array_equal(_bits(low), _bits(cut))
    assert differs == (name in SIGNED_ZERO_CHARTS)


@pytest.mark.parametrize("metric_order", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(METRIC_CHARTS))
def test_curvature_at_a_lower_metric_order_is_a_prefix(name, metric_order):
    """The chain built from the metric at a lower order is the order-4 chain truncated, bit for bit."""
    chart = METRIC_CHARTS[name]()
    attrs = ("g", "ginv", "gamma", "riemann13", "ric", "scalar_jet", "cotton")[: (3, 6, 7)[metric_order - 1]]
    for point in _centre_and_samples(chart):
        low, full = CurvatureBundle(chart, point, 4, metric_order=metric_order), CurvatureBundle(chart, point, 4)
        for attr in attrs:
            got = getattr(low, attr)
            _assert_bitwise(got, getattr(full, attr).truncate(got.order))


def _outcome_alone(raw: dict, check: str) -> str:
    """The check's report entry when it runs alone, wall time aside, floats by repr."""
    (out,) = run_suite(RunConfig.from_dict(dict(raw, checks=[check]))).checks
    return json.dumps({key: value for key, value in out.to_dict().items() if key != "wall_time_s"})


def _poison_metric_above(monkeypatch, level: int) -> None:
    """Build each chunk's curvature at the field order, from a metric NaN above ``level``."""
    metric = ChartBatch.metric

    def poisoned(batch, rows):
        batch.metric_order = batch.order
        g = metric(batch, rows)
        data = g.data.copy()
        data[..., jet_space(batch.chart.dim, level).n_coeffs :] = np.nan
        return JetTensor(g.space, data)

    monkeypatch.setattr(ChartBatch, "metric", poisoned)


@pytest.mark.parametrize(
    "name, check", [(name, check) for name in sorted(EXAMPLE_CONFIGS) for check in EXAMPLE_CONFIGS[name]["checks"]]
)
def test_declared_metric_order_is_what_each_check_reads(monkeypatch, name, check):
    """Metric coefficients above ``metric_order`` change no bit; those at it change the outcome."""
    raw = dict(copy.deepcopy(EXAMPLE_CONFIGS[name]), samples=2)
    level = CHECKS[check].metric_order
    want = _outcome_alone(raw, check)
    with monkeypatch.context() as mp:
        _poison_metric_above(mp, level)
        assert _outcome_alone(raw, check) == want
    if json.loads(want)["status"] == "SKIP":
        return  # skipped before any point ran, so it reads no metric here
    with monkeypatch.context() as mp:
        _poison_metric_above(mp, level - 1)
        try:
            got = _outcome_alone(raw, check)
        except Exception:
            return
        assert got != want


# -- vectorized kernels against the loops they replaced ---------------------------


def reference_partials(self: JetTensor) -> JetTensor:
    """One gather per variable, stacked: partials() as first written."""
    space = self.space
    lower = jet_space(space.num_vars, self.order - 1)
    cols = []
    for i in range(space.num_vars):
        src = np.array([space.index[tuple(b + (a == i) for a, b in enumerate(beta))] for beta in lower.multi_indices])
        fac = np.array([beta[i] + 1.0 for beta in lower.multi_indices])
        cols.append(self.data[..., src] * fac)
    return JetTensor(lower, np.stack(cols, axis=-2))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_partials_match_per_variable_gathers_bitwise(dim, order):
    rng = np.random.default_rng(10 * dim + order)
    space = jet_space(dim, order)
    for rank in range(4):
        t = JetTensor(space, rng.standard_normal((dim,) * rank + (space.n_coeffs,)))
        got = t.partials()
        assert got.data.flags.c_contiguous
        _assert_bitwise(got, reference_partials(t))


def test_cotton_divergence_unchanged_by_reference_partials(monkeypatch):
    """The dense chart's order-4 pipeline, the deepest user of partials, moves no bit."""
    chart = dense_chart()
    point = chart.sample_points(1, offset=5)[0]
    new = CurvatureBundle(chart, point, order=4).cotton_divergence
    monkeypatch.setattr(JetTensor, "partials", reference_partials)
    _assert_bitwise(new, CurvatureBundle(chart, point, order=4).cotton_divergence)


def reference_pow_series(v, order: int, p: float) -> np.ndarray:
    """The pow_const series loop with a per-term errstate and np.where."""
    coeffs = []
    c = 1.0
    for j in range(order + 1):
        with np.errstate(invalid="ignore", divide="ignore"):
            term = np.where(c == 0.0, 0.0, c * v ** (p - j)) if float(p).is_integer() else c * v ** (p - j)
        coeffs.append(np.asarray(term, dtype=float))
        c *= (p - j) / (j + 1)
    return np.stack(coeffs)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([-1.0, 0.5, 2.0, -3.0, -1.5]),
    st.integers(min_value=0, max_value=5),
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=6),
    st.booleans(),
    st.booleans(),
)
def test_pow_const_series_matches_per_term_loop_bitwise(p, order, values, negate, shaped):
    v = np.array(values)
    if negate and float(p).is_integer():
        v = -v
    if p == 2.0:
        v[0] = 0.0  # 0 ** (2 - j) is inf for j > 2, where the binomial factor is 0
    data = np.zeros(v.shape + (2,))
    data[..., 0] = v
    if not shaped:
        data = data[0]
    value_part = data[..., 0]  # as _raw_elem passes it: a 0-d array for a scalar jet
    got = _elem_series("pow_const", value_part, order, exponent=p)
    want = reference_pow_series(value_part, order, p)
    assert got.shape == want.shape == (order + 1,) + value_part.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
