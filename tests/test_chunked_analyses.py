"""The analyses, residuals and norms of a chunk are, row for row, those of each point alone.

A suite forms everything past the metric and field builders once per chunk of
consecutive points (the Batch rule of ``geometry``), whose size
``geometry.chain_points`` sets.  These tests draw the chunk size and the
points, and compare every analysis jet (bytes and strides), every residual's
abs and scale, and every frame norm with the run in chunks of one point, and
check that a bundle reads its chunk without copies and that a chunk's chart and
fiber chains hold the same points.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcheck import checks
from warpcheck.checks import BATCH_POINTS, CHECKS, EXAMPLE_CONFIGS, RunConfig, build_context, point_scratches
from warpcheck.jets import JetShapeError, JetTensor
from warpcheck.residuals import PreconditionSkip

from conftest import RowView

CHAIN = ("gamma", "riemann13", "riemann4", "ric", "scalar_jet", "scalar_jet_times_g", "schouten", "cotton",
         "cotton_divergence", "dscalar", "efield", "weyl")
STATIC = ("f", "df", "df_up", "hess", "lap", "lstar_f", "f_plus_a", "generalized_lhs", "t_jets")
CONFORMAL = ("xi", "xi_flat", "dxi_flat", "phi", "xi_of_r", "cotton_xi", "cotton_mid_xi", "p", "p_up", "dp", "d2p",
             "div_p", "ginv_d2p", "ric_p_up", "phi_tensor_jets")

SUITES = {
    **EXAMPLE_CONFIGS,
    "rotation-s4": dict(EXAMPLE_CONFIGS["sphere-s4"], field={"builtin": "rotation", "axes": [0, 2]},
                        checks=["firstthm", "ixi_cotton", "closed_cvf", "cxi_div", "xicvf_forms"]),
}


def _orders(config):
    specs = [CHECKS[check] for check in config.checks]
    return [max(getattr(spec, key) for spec in specs) for key in ("order", "fiber_order", "metric_order")]


def _jets(chunk):
    """Every jet of a chunk's chain and analyses that its suite can form, by name."""
    sources = [("chain", chunk.chain, CHAIN)]
    if chunk.ctx.potential is not None or chunk.ctx.warped is not None:
        sources.append(("static", chunk.static, STATIC))
    if chunk.ctx.fld is not None:
        sources += [("conformal", chunk.conformal, CONFORMAL), ("phi", chunk.conformal.phi_analysis, STATIC)]
    if chunk.ctx.warped is not None:
        sources.append(("hdot", chunk.hdot, STATIC))
    out = {}
    for label, owner, names in sources:
        for name in names:
            try:
                out[label, name] = getattr(owner, name)
            except (JetShapeError, ValueError) as exc:  # too low an order or dim for it: alike in every chunk
                out[label, name] = repr(exc)
    return out


def _run(config, points):
    """Per point: every jet's row (as a view), the frame norm of its value, and each check's residuals."""
    ctx = build_context(config)
    rows, chunks = [], {}
    for sc in point_scratches(ctx, points, *_orders(config)):
        if id(sc.chunk) not in chunks:
            jets = _jets(sc.chunk)
            norms = {key: sc.chunk.chain.norm(jet.value, ("l",) * (jet.value.ndim - 1))
                     for key, jet in jets.items() if not isinstance(jet, str)}
            chunks[id(sc.chunk)] = jets, norms
        jets, norms = chunks[id(sc.chunk)]
        at_point = {key: jet if isinstance(jet, str) else (JetTensor(jet.space, jet.data[sc.row]), norms[key][sc.row])
                    for key, jet in jets.items()}
        residuals = {}
        for check in config.checks:
            try:
                residuals[check] = CHECKS[check].evaluate(sc)
            except PreconditionSkip as unmet:
                residuals[check] = unmet.reason
        rows.append((at_point, residuals))
    return rows


def _same(got, want) -> bool:
    """Same bytes, and for jets the same space and strides."""
    if isinstance(want, str) or isinstance(want, dict):
        return repr(got) == repr(want)
    if isinstance(want, JetTensor):
        return (got.space is want.space and got.data.shape == want.data.shape and got.data.strides == want.data.strides
                and got.data.tobytes() == want.data.tobytes())
    return np.float64(got).tobytes() == np.float64(want).tobytes()


def _chunks_of(size):
    """A stand-in for ``chain_points`` in ``point_scratches``: chunks of ``size`` points, capped by the batch."""
    return lambda dim, metric_order, points: min(size, points)


@st.composite
def _subsets(draw):
    """A chunk size, from 1 to 9 or one that the rule picks (16, 32, 64), and up to size + 9 consecutive sample
    points (at least size in half the draws) with up to 3 dropped, so that full chunks, a short last chunk and a
    second batch all occur."""
    size = draw(st.sampled_from([*range(1, 10), 16, 32, BATCH_POINTS]))
    count = draw(st.integers(size, size + 9) | st.integers(1, size + 9))
    dropped = draw(st.sets(st.integers(0, count - 1), max_size=3))
    return size, [k for k in range(count) if k not in dropped] or [0], count


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(SUITES)), _subsets(), st.integers(0, 500))
def test_chunked_run_equals_chunks_of_one(name, subset, offset):
    """Chunks of 1 to 64 points, short last chunks included, over a subset of sample points."""
    size, keep, count = subset
    config = RunConfig.from_dict(copy.deepcopy(SUITES[name]))
    points = build_context(config).chart.sample_points(count, offset)[keep]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "chain_points", _chunks_of(size))
        chunked = _run(config, points)
        mp.setattr(checks, "chain_points", _chunks_of(1))
        alone = _run(config, points)
    assert len(chunked) == len(alone) == len(points)
    for k, ((jets, residuals), (jets1, residuals1)) in enumerate(zip(chunked, alone)):
        assert jets.keys() == jets1.keys() and len(jets) >= 12
        for key, want in jets1.items():
            got = jets[key]
            assert all(_same(g, w) for g, w in zip(got, want)) if isinstance(want, tuple) else got == want, (k, key)
        assert repr(residuals) == repr(residuals1), k
        for check, want in residuals1.items():
            if isinstance(want, dict):
                for field, value in want.items():
                    got = residuals[check][field]
                    assert _same(got.abs, value.abs) and _same(got.scale, value.scale), (k, check, field)


@pytest.mark.parametrize("name", ["ejiri", "sphere-s4"])
def test_bundles_read_their_chunk_without_copies(name):
    """A point's bundle and fiber bundle hold views of its chunk's jets, frames and inputs, and so do the field
    jets that its chunk reads from the batch's."""
    config = RunConfig.from_dict(copy.deepcopy(EXAMPLE_CONFIGS[name]))
    ctx = build_context(config)
    scratches = point_scratches(ctx, ctx.chart.sample_points(12, 3), *_orders(config))
    for sc in scratches:
        chain, bundle = sc.chunk.chain, RowView(sc.chunk.chain, sc.row)
        jets = _jets(sc.chunk).items()
        formed = [name for (label, name), jet in jets if label == "chain" and not isinstance(jet, str)]
        assert len(formed) >= 10
        for attr in ["g", "ginv"] + [name for name in formed if name != "riemann4"]:  # R_ijkl is not kept
            assert np.shares_memory(getattr(bundle, attr).data, getattr(chain, attr).data), attr
        assert np.shares_memory(bundle.g0, chain.g0) and np.shares_memory(bundle.ginv0, chain.ginv0)
        assert all(np.shares_memory(mine, its) for mine, its in zip(bundle.frame, chain.frame))
        assert chain.g.data.base is scratches[0].chunk.chain.g.data.base is not None  # one batch, one metric
        if ctx.fld is not None:
            assert np.shares_memory(bundle.vector_field(ctx.fld.builder).data, sc.chunk.conformal.xi.data)
        if ctx.warped is not None:
            fiber = RowView(sc.chunk.fiber, sc.row)
            assert np.shares_memory(fiber.ric.data, sc.chunk.fiber.ric.data)


@pytest.mark.parametrize("name", ["ejiri", "basicex-n5-k2", "equiv-fail"])
def test_a_chunk_holds_the_same_points_on_the_chart_and_the_fiber(name):
    """The chart's dim and metric order size the chunks of the fiber batch too: sized by its own dim, ejiri's
    dim-3 fiber would be cut unlike its dim-4 chart, and a chunk would pair rows of different points."""
    config = RunConfig.from_dict(copy.deepcopy(EXAMPLE_CONFIGS[name]))
    ctx = build_context(config)
    scratches = point_scratches(ctx, ctx.chart.sample_points(config.samples, config.offset), *_orders(config))
    chunks = list({id(sc.chunk): sc.chunk for sc in scratches}.values())
    assert sum(len(chunk.chain.points) for chunk in chunks) == config.samples
    for chunk in chunks:
        assert chunk.fiber.rows == chunk.chain.rows
        assert np.array_equal(chunk.fiber.points, chunk.chain.points[:, 1:])


MIXED = {"space": {"kind": "flat_torus", "dim": 3}, "field": {"components": ["0", "4e-10*t*t*t", "0"]},
         "checks": ["closed_cvf", "ixi_cotton", "cxi_div"], "samples": 16}


def _key_sets(config, points, size):
    """Per point, the residual names of closed_cvf and ixi_cotton, and cxi_div's SKIP reason or its names."""
    ctx = build_context(config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "chain_points", _chunks_of(size))
        scratches = point_scratches(ctx, points, *_orders(config))
    rows = []
    for sc in scratches:
        row = {check: set(CHECKS[check].evaluate(sc)) for check in ("closed_cvf", "ixi_cotton")}
        try:
            row["cxi_div"] = set(CHECKS["cxi_div"].evaluate(sc))
        except PreconditionSkip as unmet:
            row["cxi_div"] = unmet.reason
        rows.append(row)
    return scratches, rows


def test_a_chunk_of_closed_and_non_closed_points_keeps_each_points_residual_names():
    """All 16 points fall in one chunk, and the field is closed only at the three with t < 1: there closed_cvf
    reports its five residuals and ixi_cotton adds closed_form, at the other 13 neither, as at each point alone;
    cxi_div SKIPs at the first point, which is not closed."""
    config = RunConfig.from_dict(copy.deepcopy(MIXED))
    points = build_context(config).chart.sample_points(config.samples, config.offset)
    scratches, chunked = _key_sets(config, points, 16)
    _, alone = _key_sets(config, points, 1)
    assert len({id(sc.chunk) for sc in scratches}) == 1
    assert chunked == alone
    closed = [k for k, row in enumerate(chunked) if "nabla_xi" in row["closed_cvf"]]
    assert closed == [k for k, t in enumerate(points[:, 0]) if t < 1] and len(closed) == 3
    general = {"nabla_p", "div_p"}
    for k, row in enumerate(chunked):
        if k in closed:
            assert row == {"closed_cvf": general | {"nabla_xi", "curvature_xi", "ric_xi"},
                           "ixi_cotton": {"general", "closed_form"},
                           "cxi_div": {"cotton_contraction", "divergence_contraction"}}, k
        else:
            assert row["closed_cvf"] == general and row["ixi_cotton"] == {"general"}, k
            assert row["cxi_div"].startswith("field 'components(t)' is not closed (defect "), k
    assert chunked[0]["cxi_div"] == "field 'components(t)' is not closed (defect 8.37e-09)"
    report = {c.check: (c.status, c.reason) for c in checks.run_suite(config).checks}
    assert report == {"closed_cvf": ("PASS", None), "ixi_cotton": ("PASS", None),
                      "cxi_div": ("SKIP", "field 'components(t)' is not closed (defect 8.37e-09)")}
