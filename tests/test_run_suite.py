"""run_suite as a whole: verdicts on broken points, bundle sharing, golden reports."""

import copy
import dataclasses
import hashlib
import importlib.util
import json
import math
import re
import tracemalloc
import warnings
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

from warpcheck.checks import (
    BATCH_POINTS,
    CHECKS,
    EXAMPLE_CONFIGS,
    RunConfig,
    build_context,
    point_scratches,
    report_to_json,
    run_suite,
)
from warpcheck.cli import main
from warpcheck.geometry import CurvatureBundle, MetricChart, SingularMetricError
from warpcheck.jets import JetShapeError, JetTensor
from warpcheck.ode import OdeWarpingFunction, WarpOdeParams, equilibrium_radius, rbar_from_initial
from warpcheck import checks, geometry, spaces, statics
from warpcheck.statics import StaticAnalysis

from conftest import RowView

GOLDEN = Path(__file__).parent / "golden"
ROOT = GOLDEN.parent.parent


def _warped_over_s3(interval, warping, checks, **extra):
    space = {"kind": "warped", "interval": interval, "warping": warping, "fiber": {"kind": "sphere", "dim": 3}}
    return dict({"space": space, "checks": checks}, **extra)


# -- points that break -----------------------------------------------------------


def test_nonfinite_residual_fails(tmp_path):
    """exp(exp(exp(t))) overflows on [5, 6]: NaN residuals must FAIL, never PASS."""
    raw = _warped_over_s3(
        [5, 6], "1+0*t", ["vss_residual", "lgh_forms"], potential={"potential_t": "exp(exp(exp(t)))"}, samples=5
    )
    config = RunConfig.from_dict(raw)
    with np.errstate(all="ignore"):
        report = run_suite(config)
    first = [float(x) for x in build_context(config).chart.sample_points(5)[0]]
    for outcome in report.checks:
        assert outcome.status == "FAIL", outcome.check
        assert outcome.max_rel_residual == math.inf
        assert outcome.worst_point == first
        assert outcome.reason.startswith("non-finite residual")

    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "r.json"
    with np.errstate(all="ignore"):
        assert main(["verify", str(path), "--out", str(out), "--no-timestamp"]) == 1
    assert [c["status"] for c in json.loads(out.read_text())["checks"]] == ["FAIL", "FAIL"]


def test_overflowing_warping_fails():
    """h = 2 + sin(exp(exp(exp(t)))) stays in [1, 3] on [1.78, 1.88] while its
    derivatives overflow: the warped chart's jets carry the inf and NaN into
    the residuals, which FAIL.  The scalar survey leaves the non-finite R out,
    so the constant-R checks run, and FAIL, rather than SKIP."""
    checks = ["vss_residual", "lgh_forms", "firstthm", "wp3_identity", "icotton_zero"]
    raw = _warped_over_s3([1.78, 1.88], "2+sin(exp(exp(exp(t))))", checks, samples=3)
    with np.errstate(all="ignore"):
        report = run_suite(RunConfig.from_dict(raw))
    for outcome in report.checks:
        assert outcome.status == "FAIL" and outcome.max_rel_residual == math.inf, outcome.check
        assert outcome.reason.startswith("non-finite residual"), outcome.check


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_norm_fails_its_check(monkeypatch, bad):
    """A non-finite Cotton component off the d/dt slot: only the scale norm sees it, and icotton_zero FAILs."""
    cotton = geometry._Chain.cotton.func

    def poisoned(chain):
        c = cotton(chain)
        data = c.data.copy()
        data[:, 1, 2, 3, 0] = bad
        return JetTensor(c.space, data)

    monkeypatch.setattr(geometry._Chain, "cotton", property(poisoned))
    raw = dict(copy.deepcopy(EXAMPLE_CONFIGS["ejiri-ode"]), checks=["icotton_zero"], samples=4)
    (outcome,) = run_suite(RunConfig.from_dict(raw)).checks
    assert outcome.status == "FAIL" and outcome.max_rel_residual == math.inf
    assert outcome.reason == "non-finite residual 'icotton'"


def test_infinite_tolerance_is_a_config_error(tmp_path, capsys):
    """With tol=inf the overflowing potential's non-finite lgh_forms residual would PASS: exit 2 instead."""
    raw = _warped_over_s3([5, 6], "exp(t/5)", ["lgh_forms"], potential={"potential_t": "exp(exp(exp(t)))"}, samples=5)
    path = tmp_path / "config.json"
    for tol in ("Infinity", "1e309"):
        path.write_text(json.dumps(dict(raw, tolerances={"lgh_forms": "TOL"})).replace('"TOL"', tol))
        assert main(["verify", str(path), "--no-timestamp"]) == 2
        assert capsys.readouterr().err == "error: tolerances.lgh_forms: must be a finite positive number\n"


def test_nonfinite_run_is_quiet(tmp_path, capfd):
    """The overflow behind a non-finite FAIL is reported as the FAIL, not as numpy warnings."""
    raw = _warped_over_s3([5, 6], "1+0*t", ["vss_residual"], potential={"potential_t": "exp(exp(exp(t)))"}, samples=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (vss,) = run_suite(RunConfig.from_dict(raw)).checks
        assert capfd.readouterr().err == ""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", str(path), "--out", str(tmp_path / "r.json"), "--no-timestamp"]) == 1
    assert [str(w.message) for w in caught] == []
    assert vss.status == "FAIL"
    assert vss.reason.startswith("non-finite residual")
    assert capfd.readouterr().err.splitlines() == [
        "[FAIL] vss_residual: max_rel=inf tol=1.0e-08 (non-finite residual 'full')"
    ]


def test_domain_error_fails_its_point_and_run_goes_on():
    """log(t) leaves its domain at t <= 0; the other points and checks still run."""
    raw = _warped_over_s3([-1, 1], "1", ["vss_residual", "icotton_zero"], potential={"potential_t": "log(t)"}, samples=6)
    report = run_suite(RunConfig.from_dict(raw))
    vss, icotton = report.checks
    assert vss.status == "FAIL"
    assert vss.reason.startswith("JetDomainError")
    assert vss.samples == 6
    bad = [row for row in vss.point_rows if row[2] == math.inf]
    good = [row for row in vss.point_rows if row[2] < math.inf]
    assert all(point[0] <= 0.0 for point, _, _ in bad) and bad
    assert all(point[0] > 0.0 and math.isfinite(rel) for point, _, rel in good) and good
    assert vss.worst_point == list(bad[0][0])
    assert icotton.status == "PASS" and icotton.samples == 6


def test_singular_metric_point_is_reported(tmp_path):
    """h(t) = (t - 0.3)^2 vanishes at t = 0.3: FAIL rows with the point, exit 1, and a report."""
    raw = _warped_over_s3([0, 1], "(t-0.3)*(t-0.3)", ["vss_residual", "icotton_zero"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "r.json"
    point = "0.3,0.3,0.2,0.1"
    assert main(["verify", str(path), "--out", str(out), "--no-timestamp", "--point", point]) == 1
    for outcome in json.loads(out.read_text())["checks"]:
        assert outcome["status"] == "FAIL"
        assert outcome["reason"].startswith("SingularMetricError")
        assert outcome["worst_point"] == [0.3, 0.3, 0.2, 0.1]


def test_ill_conditioned_metric_fails_every_check():
    """h = 1e-7 makes g0 = diag(1, 1e-14 gbar): cond(g0) passes 1e12 at every point, and every check FAILs there."""
    raw = _warped_over_s3([0, 1], "1e-7", ["vss_residual", "icotton_zero", "lgh_forms"], samples=3)
    report = run_suite(RunConfig.from_dict(raw))
    for outcome in report.checks:
        assert outcome.status == "FAIL", outcome.check
        assert outcome.samples == 3
        assert outcome.reason.startswith("SingularMetricError: singular metric (cond > 1e+12) at ["), outcome.reason


def _planted_chart(chart, broken):
    """``chart`` with g0 broken at the points whose first coordinate is a key of ``broken``: g_00 negated
    ("not_pd"), g_11 scaled by 1e-14 ("cond") or g_00 made NaN ("nan")."""

    def builder(coords):
        rows = [list(row) for row in chart.builder(coords)]
        x0 = np.asarray(coords[0].value)
        kinds = np.array([broken.get(float(x), "") for x in x0.ravel()]).reshape(x0.shape)[..., None]
        g00, g11 = rows[0][0], rows[1][1]
        rows[0][0] = JetTensor(g00.space, np.where(kinds == "not_pd", -1.0, 1.0) * g00.data + np.where(kinds == "nan", math.nan, 0.0))
        rows[1][1] = JetTensor(g11.space, np.where(kinds == "cond", 1e-14, 1.0) * g11.data)
        return rows

    return dataclasses.replace(chart, label="planted", builder=builder)


def test_singular_points_in_a_batch_fail_only_themselves(monkeypatch):
    """A batch with a point whose g0 is not positive definite, one with cond(g0) > 1e12 and one with a NaN, the
    last two inside the second chain chunk: each of the three FAILs with its own error, and every other point
    keeps, byte for byte, the residuals and the chain jets it has in a batch of regular points."""
    raw = {
        "space": {"kind": "sphere", "dim": 3},
        "field": {"builtin": "sphere_gradient", "axis": 1},
        "checks": ["scalar_value", "firstthm"],
        "samples": 20,
    }
    config = RunConfig.from_dict(raw)
    ctx = build_context(config)
    points = ctx.chart.sample_points(config.samples, config.offset)
    bad = (1, 12, 14)
    broken = {float(points[1, 0]): "not_pd", float(points[12, 0]): "cond", float(points[14, 0]): "nan"}
    planted = dataclasses.replace(ctx, chart=_planted_chart(ctx.chart, broken))
    regular = run_suite(config)
    monkeypatch.setattr(checks, "build_context", lambda config: planted)
    report = run_suite(config)

    for got, want in zip(report.checks, regular.checks):
        assert want.status == "PASS" and got.status == "FAIL", got.check
        assert [k for k, row in enumerate(got.point_rows) if row[2] == math.inf] == list(bad)
        assert repr([row for k, row in enumerate(got.point_rows) if k not in bad]) == repr(
            [row for k, row in enumerate(want.point_rows) if k not in bad]
        )
        assert got.reason == f"SingularMetricError: metric not positive definite at {points[1]} on 'planted'"
    reasons = {
        1: f"metric not positive definite at {points[1]} on 'planted'",
        12: f"singular metric (cond > 1e+12) at {points[12]} on 'planted'",
        14: f"metric not finite at {points[14]} on 'planted'",
    }
    scratches = zip(point_scratches(planted, points, 4, 2, 3), point_scratches(ctx, points, 4, 2, 3))
    for k, (sc, clean) in enumerate(scratches):
        for name in ("ginv0", "frame", "ginv", "gamma", "ric"):
            read = lambda sc: getattr(sc.chunk.chain, name)  # noqa: E731
            if k in reasons:
                with pytest.raises(SingularMetricError) as err:
                    checks._at_point(sc, read)
                assert str(err.value) == reasons[k]
            else:
                checks._at_point(sc, read)
        if k not in reasons:
            for got, want in _chain_pairs(RowView(sc.chunk.chain, sc.row), RowView(clean.chunk.chain, clean.row)):
                assert _same_bytes(got, want), k


@pytest.mark.parametrize(
    "space, check, reason",
    [
        ({"kind": "sphere", "dim": 3}, "wp3_identity", "needs a warped space"),
        ({"kind": "flat_torus", "dim": 3}, "vss_residual", "needs a potential"),
        ({"kind": "flat_torus", "dim": 3}, "firstthm", "needs a conformal field"),
    ],
)
def test_missing_context_skips_with_its_reason(space, check, reason):
    (outcome,) = run_suite(RunConfig.from_dict({"space": space, "checks": [check], "samples": 2})).checks
    assert (outcome.status, outcome.reason, outcome.samples) == ("SKIP", reason, 0)


@pytest.mark.parametrize(
    "raw, check, reason",
    [
        (
            {"space": {"kind": "flat_torus", "dim": 3}, "field": {"components": ["t", "0", "0"]}},
            "firstthm",
            r"field 'components\(t\)' is not conformal \(residual \d\.\d\de[+-]\d\d\)",
        ),
        (
            {"space": {"kind": "sphere", "dim": 3}, "field": {"builtin": "rotation"}},
            "cxi_div",
            r"field 'rotation\(0,1\)' is not closed \(defect \d\.\d\de[+-]\d\d\)",
        ),
        (EXAMPLE_CONFIGS["ejiri"], "propddoth", r"assembly criterion needs a factored potential u\(t\)\*fbar"),
        (EXAMPLE_CONFIGS["ejiri"], "inrp", r"product criterion needs a t-expression potential"),
    ],
)
def test_unmet_precondition_skips_with_its_reason(raw, check, reason):
    """A precondition an evaluator measures at a point SKIPs the check with the reason it names."""
    config = RunConfig.from_dict(dict(copy.deepcopy(raw), checks=[check], samples=2))
    (outcome,) = run_suite(config).checks
    assert outcome.status == "SKIP"
    assert re.fullmatch(reason, outcome.reason), outcome.reason


# -- the shipped examples ------------------------------------------------------------


@pytest.fixture(scope="module")
def example_runs():
    """Each example's report, and per example how often each value was derived.

    The values counted are CurvatureBundles, StaticAnalyses, fiber
    trace-free Riccis and vacuum-residual formations, which are per point;
    metric builds (``MetricChart.metric_jets``), warping jets and coordinate
    jets of all points at once (one for each metric and field build), which
    are per suite; and coordinate jets of one point, which are per point.
    """
    kinds = ("bundles", "analyses", "fiber_ric0", "vacuum", "metric", "warping", "batched", "alone")
    counts = {kind: Counter() for kind in kinds}
    current = [""]

    def counting(kind, fn):
        def counted(*args, **kwargs):
            counts[kind][current[0]] += 1
            return fn(*args, **kwargs)

        return counted

    def coordinate_jets(chart, point, order):
        counts["alone" if np.ndim(point) == 1 else "batched"][current[0]] += 1
        return coordinate_jets.original(chart, point, order)

    coordinate_jets.original = MetricChart.coordinate_jets
    reports = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CurvatureBundle, "__init__", counting("bundles", CurvatureBundle.__init__))
        mp.setattr(StaticAnalysis, "__init__", counting("analyses", StaticAnalysis.__init__))
        mp.setattr(statics, "fiber_ric0", counting("fiber_ric0", statics.fiber_ric0))
        vacuum = cached_property(counting("vacuum", StaticAnalysis.vacuum.func))
        vacuum.__set_name__(StaticAnalysis, "vacuum")
        mp.setattr(StaticAnalysis, "vacuum", vacuum)
        mp.setattr(MetricChart, "metric_jets", counting("metric", MetricChart.metric_jets))
        mp.setattr(spaces, "warping_jet", counting("warping", spaces.warping_jet))
        mp.setattr(MetricChart, "coordinate_jets", coordinate_jets)
        for name, raw in EXAMPLE_CONFIGS.items():
            current[0] = name
            reports[name] = run_suite(RunConfig.from_dict(copy.deepcopy(raw)))
    return reports, counts


def test_bundles_per_point(example_runs):
    """No example builds a bundle: every point reads the curvature of its chunk."""
    _, counts = example_runs
    assert counts["bundles"]["ejiri"] <= 2 * EXAMPLE_CONFIGS["ejiri"]["samples"]  # total space + fiber
    assert sum(counts["bundles"].values()) == 0


def test_r_ijkl_is_formed_at_full_order_once_per_chunk():
    """Ricci reads R_ijkl at full order; W, which decompose_ids reads, forms only its order-0 part."""
    calls = []

    def spy(spec, a, b):
        if spec == "pis,psjkl->pijkl":
            calls.append((a, a.order))  # a chunk's g, kept alive so that ids stay unique
        return spy.original(spec, a, b)

    spy.original = geometry.jt_einsum
    config = RunConfig.from_dict(copy.deepcopy(EXAMPLE_CONFIGS["sphere-s4"]))
    assert "decompose_ids" in config.checks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "jt_einsum", spy)
        run_suite(config)
    full = Counter(id(g) for g, order in calls if order > 0)
    assert full and set(full.values()) == {1}
    assert any(order == 0 for _, order in calls)


def _chunks(raw) -> int:
    """The chunks that a suite of ``raw`` runs in: its batches of BATCH_POINTS samples, each cut by the size
    that ``geometry.chain_points`` gives its chart's dim and the suite's metric order."""
    config = RunConfig.from_dict(copy.deepcopy(raw))
    dim = build_context(config).chart.dim
    metric_order = max(CHECKS[check].metric_order for check in config.checks)
    batches = [min(BATCH_POINTS, config.samples - start) for start in range(0, config.samples, BATCH_POINTS)]
    return sum(math.ceil(p / geometry.chain_points(dim, metric_order, p)) for p in batches)


def test_chunk_size_follows_the_riemann_jet():
    """A chunk holds at most 2^17 Riemann coefficients, in a power of two of points, at least 8 and at most the
    batch: whole batches on dims 4-5 up to metric order 3, 32 points on ejiri (dim 4, order 4), 8 on
    basicex-n5-k2 (dim 5, order 4) and on dim 6."""
    sizes = {}
    for name, raw in EXAMPLE_CONFIGS.items():
        config = RunConfig.from_dict(copy.deepcopy(raw))
        metric_order = max(CHECKS[check].metric_order for check in config.checks)
        sizes[name] = geometry.chain_points(build_context(config).chart.dim, metric_order, config.samples)
    assert sizes == {"basicex-n5-k2": 8, "ejiri": 32, "ejiri-ode": 20, "equiv-fail": 30, "nonconstant-exp": 40,
                     "sphere-s4": 40}
    assert [geometry.chain_points(dim, 3, 64) for dim in (4, 5, 6)] == [64, 32, 8]
    assert [geometry.chain_points(dim, 4, 64) for dim in (4, 5, 6)] == [32, 8, 8]
    assert geometry.chain_points(12, 4, 64) == 8 and geometry.chain_points(6, 4, 3) == 3


def test_dim6_order4_suite_peaks_below_53_mb():
    """The 64-sample dim-6 suite of firstthm and cxi_div runs its metric-order-4 chain in chunks of 8; its second
    run (the first builds the jet tables that the process keeps) peaks at most at 53.1 MB of traced allocations,
    2 MB above the 51.1 MB measured with zero plans gathered one rank block at a time (58.1 MB where a plan
    gathered all its terms at once).  Whole batches of 64 peak near 198 MB: the scalar survey holds every
    chunk's chain of a batch."""
    raw = {"space": {"kind": "sphere", "dim": 6, "radius": 1.0}, "field": {"builtin": "sphere_gradient", "axis": 1},
           "checks": ["firstthm", "cxi_div"], "samples": 64}
    config = RunConfig.from_dict(raw)
    run_suite(config)
    tracemalloc.start()
    try:
        report = run_suite(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.status for c in report.checks] == ["PASS", "PASS"]
    assert peak <= 53.1e6, peak
    assert _chunks(raw) == 8


# Per chunk (see _chunks): StaticAnalyses, fiber trace-free Riccis,
# vacuum-residual formations and field builds on one point's own
# coordinates.  basicex analyses its potential h*fbar, hdot and fbar on the
# fiber, and forms the vacuum residuals of h*fbar and of fbar; every other example analyses one
# potential (hdot where none is configured).  The characteristic function
# phi counts as one more StaticAnalysis wherever a check reads its
# derivatives (firstthm, closed_cvf, xicvf_forms).  No field is built on
# a point's own coordinates: phi and hdot are handed to their analyses as
# the jets they are.
DERIVED_PER_CHUNK = {
    "basicex-n5-k2": (4, 0, 2, 0),
    "ejiri": (2, 1, 1, 0),
    "ejiri-ode": (1, 0, 0, 0),
    "equiv-fail": (2, 1, 0, 0),
    "nonconstant-exp": (2, 1, 0, 0),
    "sphere-s4": (2, 0, 1, 0),
}

# Per suite, each on the coordinates of every sample point at once: metric
# builds (the chart's, and the fiber chart's where a check reads the fiber
# bundle), warping jets, and builds of the configured potential, the field
# and basicex's fbar.  A warped example forms its one warping jet where a
# check reads h or hdot.  wp3 reads h C(., d/dt, .) from the bundle, so
# ejiri-ode builds no field.  A builder run per point again multiplies its
# count by the sample count.
BATCHES_PER_SUITE = {
    "basicex-n5-k2": (2, 1, 3),
    "ejiri": (2, 1, 1),
    "ejiri-ode": (1, 1, 0),
    "equiv-fail": (2, 1, 1),
    "nonconstant-exp": (2, 1, 1),
    "sphere-s4": (1, 0, 2),
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_CONFIGS))
def test_point_values_derived_once(example_runs, name):
    _, counts = example_runs
    chunks = _chunks(EXAMPLE_CONFIGS[name])
    got = tuple(counts[kind][name] / chunks for kind in ("analyses", "fiber_ric0", "vacuum", "alone"))
    assert got == DERIVED_PER_CHUNK[name]


@pytest.mark.parametrize("name", sorted(EXAMPLE_CONFIGS))
def test_builders_run_once_per_suite(example_runs, name):
    _, counts = example_runs
    metric, warping, coords = (counts[kind][name] for kind in ("metric", "warping", "batched"))
    assert (metric, warping, coords - metric) == BATCHES_PER_SUITE[name]


def test_builders_run_once_per_batch_of_points(monkeypatch):
    """Past BATCH_POINTS samples, the builders and the inverse metric's Cholesky
    factorization run once for each BATCH_POINTS of them."""
    calls, factored = [], []
    metric_jets = MetricChart.metric_jets
    monkeypatch.setattr(MetricChart, "metric_jets", lambda chart, p, k: calls.append(len(p)) or metric_jets(chart, p, k))
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(len(a)) or cholesky(a))
    config = {"space": {"kind": "sphere", "dim": 3}, "checks": ["scalar_value"], "samples": 2 * BATCH_POINTS + 1}
    (outcome,) = run_suite(RunConfig.from_dict(config)).checks
    assert outcome.status == "PASS" and outcome.samples == 2 * BATCH_POINTS + 1
    assert calls == factored == [BATCH_POINTS, BATCH_POINTS, 1]


@pytest.mark.parametrize("name", ["basicex-n5-k2", "ejiri", "ejiri-ode", "equiv-fail"])
def test_wp3_reads_h_d_dt_whatever_the_configured_field(name):
    """wp3's xi is h d/dt by definition, so the configured field moves none of its bits."""
    def wp3(fld):
        raw = dict(copy.deepcopy(EXAMPLE_CONFIGS[name]), checks=["wp3_identity"], samples=10)
        if fld is not None:
            raw["field"] = fld
        out = run_suite(RunConfig.from_dict(raw)).checks[0]
        return out.status, out.max_abs_residual, out.max_rel_residual, out.worst_point

    default = wp3(None)
    assert default[0] == "PASS"
    assert wp3({"builtin": "zero"}) == default
    assert wp3({"builtin": "rotation", "axes": [1, 2]}) == default


def test_ode_warping_is_evaluated_on_jets_only(monkeypatch):
    """An ODE orbit is positive by construction (a lost RK4 stage raises PositivityLost, then the drift
    gate runs), so no positivity scan evaluates the warping on floats."""
    kinds = []
    call = OdeWarpingFunction.__call__
    monkeypatch.setattr(OdeWarpingFunction, "__call__", lambda self, t: kinds.append(type(t)) or call(self, t))
    report = run_suite(RunConfig.from_dict(dict(copy.deepcopy(EXAMPLE_CONFIGS["equiv-fail"]), samples=3)))
    assert report.checks and kinds and set(kinds) == {JetTensor}


# -- one batch per chart: each point's slice is its jets alone ----------------------

BATCH_CASES = {
    **EXAMPLE_CONFIGS,
    "sphere-s6-firstthm": {
        "space": {"kind": "sphere", "dim": 6, "radius": 1.0},
        "field": {"builtin": "sphere_gradient", "axis": 1},
        "checks": ["firstthm"],
    },
    "hyperbolic-h5-rotation": {
        "space": {"kind": "hyperbolic", "dim": 5, "radius": 1.0},
        "field": {"builtin": "rotation", "axes": [0, 1]},
        "checks": ["firstthm"],
    },
    "basicex-n6-k2": {"space": {"kind": "basicex", "n": 6, "k": 2}, "checks": ["ixi_cotton", "propddoth"]},
}


def _same_bytes(got: JetTensor, want: JetTensor) -> bool:
    """Same space, shape, bytes and strides."""
    return (got.space is want.space and got.data.shape == want.data.shape and got.data.strides == want.data.strides
            and got.data.tobytes() == want.data.tobytes())


def _own_field(chart: MetricChart, builder, point: np.ndarray, order: int, shape: tuple[int, ...]) -> JetTensor:
    """The field of ``builder`` formed on the coordinate jets of one point of shape (dim,)."""
    coords = chart.coordinate_jets(point, order)
    return geometry._stack_entries(coords[0].space, (), shape, list(builder(coords)) if shape else [builder(coords)])


CHAIN = ("gamma", "riemann13", "riemann4", "ric", "scalar_jet", "scalar_jet_times_g", "schouten", "cotton",
         "cotton_divergence")


def _chain_pairs(got: CurvatureBundle, want: CurvatureBundle, names=CHAIN) -> list[tuple[JetTensor, JetTensor]]:
    """The chain jets of two bundles, each that ``want`` can form at its metric order; ``got`` must fail alike."""
    pairs = []
    for name in names:
        try:
            pairs.append((getattr(got, name), getattr(want, name)))
        except JetShapeError:
            with pytest.raises(JetShapeError):
                getattr(got, name)
    return pairs


# sample counts that leave a short chunk (20, 30) and a second batch of one point (65)
BATCH_SAMPLES = {name: (20, 30, 65)[k % 3] for k, name in enumerate(sorted(BATCH_CASES))}


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batch_slices_equal_the_jets_of_a_lone_point(name):
    """The metric, inverse metric, fiber metric, potential, fbar, field and warping jets, every jet of the
    curvature chain and the fiber's Ricci and scalar jets, and g0^-1 and the frame, that a point reads from its
    suite's batch are, in bytes and strides, those formed at that point alone: by a lone CurvatureBundle, on the
    point's own coordinates, and by warping_jet at its t."""
    config = RunConfig.from_dict(dict(copy.deepcopy(BATCH_CASES[name]), samples=BATCH_SAMPLES[name], offset=7))
    ctx = build_context(config)
    specs = [CHECKS[check] for check in config.checks]
    order, fiber_order, metric_order = (max(getattr(s, k) for s in specs) for k in ("order", "fiber_order", "metric_order"))
    points = ctx.chart.sample_points(config.samples, config.offset)
    for sc in point_scratches(ctx, points, order, fiber_order, metric_order):
        bundle = RowView(sc.chunk.chain, sc.row)
        lone = CurvatureBundle(ctx.chart, sc.point, order, metric_order)
        own = ctx.chart.metric_jets(sc.point, metric_order)
        pairs = [(bundle.g, lone.g), (bundle.g, JetTensor(own.space, own.data + 0.0)), (bundle.ginv, lone.ginv)]
        pairs += _chain_pairs(bundle, lone)
        for got, want in [(bundle.ginv0, lone.ginv0), *zip(bundle.frame, lone.frame)]:
            assert got.tobytes() == want.tobytes() and got.strides == want.strides, sc.point
        if ctx.potential is not None:
            f = bundle.scalar_field(ctx.potential.builder)
            pairs += [(f, lone.scalar_field(ctx.potential.builder)),
                      (f, _own_field(ctx.chart, ctx.potential.builder, sc.point, order, ()))]
        if ctx.fld is not None:
            xi = bundle.vector_field(ctx.fld.builder)
            pairs += [(xi, lone.vector_field(ctx.fld.builder)),
                      (xi, _own_field(ctx.chart, ctx.fld.builder, sc.point, order, (ctx.chart.dim,)))]
        if ctx.warped is not None:
            fiber = ctx.warped.fiber_chart
            lone_fiber = CurvatureBundle(fiber, sc.point[1:], fiber_order)
            fiber_bundle = RowView(sc.chunk.fiber, sc.row)
            pairs += [(fiber_bundle.g, lone_fiber.g), (fiber_bundle.ginv, lone_fiber.ginv)]
            pairs += _chain_pairs(fiber_bundle, lone_fiber, ("ric", "scalar_jet"))
            fbar = ctx.potential.fiber if ctx.potential is not None else None
            if fbar is not None:
                f = fiber_bundle.scalar_field(fbar.builder)
                pairs += [(f, lone_fiber.scalar_field(fbar.builder)),
                          (f, _own_field(fiber, fbar.builder, sc.point[1:], fiber_order, ()))]
            warping = sc.chunk.warping_jet
            pairs.append((JetTensor(warping.space, warping.data[sc.row]),
                          spaces.warping_jet(ctx.warped.warping, sc.point[0], order + 1)))
        assert len(pairs) >= 8
        for k, (got, want) in enumerate(pairs):
            assert _same_bytes(got, want), (sc.point, k)


@pytest.mark.parametrize("samples", [20, 65])
def test_christoffel_symbols_formed_once_per_chunk(monkeypatch, samples):
    """The chain runs once per chunk of a chart batch: ceil(P / size) Christoffel products for a batch of P
    points (size 32 on ejiri, capped by the batch), on ejiri's chart and on its fiber chart, which the chart's
    size cuts alike, and none at a single point."""
    calls = Counter()
    einsum = geometry.jt_einsum

    def counting_einsum(spec, a, b):
        calls[spec] += 1
        return einsum(spec, a, b)

    monkeypatch.setattr(geometry, "jt_einsum", counting_einsum)
    raw = dict(copy.deepcopy(EXAMPLE_CONFIGS["ejiri"]), samples=samples)
    run_suite(RunConfig.from_dict(raw))
    assert calls["pkl,pijl->pkij"] == 2 * _chunks(raw) == 2 * (1 if samples == 20 else 3)
    assert calls["kl,ijl->kij"] == 0


def _rows_alone(raw, points):
    """Each point's per-check rows when the suite runs at that point alone."""
    rows = {}
    for p in points:
        for out in run_suite(RunConfig.from_dict(copy.deepcopy(raw)), point_override=p).checks:
            rows.setdefault(out.check, []).extend(out.point_rows)
            rows.setdefault((out.check, "reason"), []).append(out.reason)
    return rows


@pytest.mark.parametrize(
    "check, what",
    [
        ("vss_residual", {"potential": {"potential_t": "log(t)"}}),
        ("firstthm", {"field": {"components": ["1+0*sqrt(t)", "0", "0", "0"]}}),
    ],
    ids=["potential", "field"],
)
def test_domain_error_in_a_batch_fails_only_its_point(check, what):
    """Points outside a builder's domain make the whole batch raise; every point then
    forms that value alone, so each bad point reports its own error and the others
    their own residuals, exactly as when each runs alone."""
    raw = _warped_over_s3([-0.3, 1], "1", [check], samples=6, **what)
    (out,) = run_suite(RunConfig.from_dict(raw)).checks
    alone = _rows_alone(raw, [np.array(row[0]) for row in out.point_rows])
    assert repr(out.point_rows) == repr(alone[check])
    bad = [row for row in out.point_rows if row[2] == math.inf]
    assert bad and len(bad) < len(out.point_rows)
    assert out.reason == next(r for r in alone[(check, "reason")] if r is not None)
    assert out.reason.startswith("JetDomainError: "), out.reason


def test_a_failing_chunk_is_formed_once_then_its_points_alone(monkeypatch):
    """log(t) leaves its domain in both 8-point chunks of 16 points: the potential is built once for the batch,
    once for each chunk, and then once at each of its points alone for both checks: a bad point keeps its error.
    Over S^9 (dim 10, 10^4 Riemann entries a point at metric order 2) the rule cuts 16 points into two chunks."""
    sizes = []
    field = geometry.ChartBatch.field

    def counting_field(batch, builder, shape, rows):
        sizes.append(len(batch.points[rows]))
        return field(batch, builder, shape, rows)

    monkeypatch.setattr(geometry.ChartBatch, "field", counting_field)
    raw = _warped_over_s3([-0.3, 1], "1", ["vss_residual", "t_algebra"], potential={"potential_t": "log(t)"},
                          samples=16)
    raw["space"]["fiber"]["dim"] = 9
    assert _chunks(raw) == 2
    outcomes = run_suite(RunConfig.from_dict(raw)).checks
    for out in outcomes:
        assert out.status == "FAIL" and out.samples == 16 and out.reason.startswith("JetDomainError: ")
    bad = sum(row[2] == math.inf for row in outcomes[0].point_rows)
    assert 0 < bad < 8
    assert sorted(sizes, reverse=True) == [16, 8, 8] + [1] * 16


def test_overflow_in_a_batch_fails_only_its_point(capfd):
    """exp(exp(exp(t))) overflows only at the larger t: those points FAIL as non-finite,
    the others keep the residuals they have alone, and numpy warns of nothing."""
    potential = {"potential_t": "exp(exp(exp(t)))"}
    raw = _warped_over_s3([1.0, 2.2], "1+0*t", ["vss_residual"], potential=potential, samples=6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (vss,) = run_suite(RunConfig.from_dict(raw)).checks
    assert [str(w.message) for w in caught] == [] and capfd.readouterr().err == ""
    finite = [math.isfinite(row[2]) for row in vss.point_rows]
    assert any(finite) and not all(finite)
    assert vss.status == "FAIL" and vss.reason.startswith("non-finite residual")
    assert vss.worst_point == list(vss.point_rows[finite.index(False)][0])
    points = [np.array(row[0]) for row in vss.point_rows]
    with np.errstate(all="ignore"):
        assert repr(vss.point_rows) == repr(_rows_alone(raw, points)["vss_residual"])


# The first 16 hex digits of the SHA-256 of each example's report as
# `warpcheck example <name> --no-timestamp` writes it.
EXAMPLE_DIGESTS = {
    "basicex-n5-k2": "c3a409ba77980d7d",
    "ejiri": "c3cf4b6f11b569c9",
    "ejiri-ode": "527c0d27f74bc7ce",
    "equiv-fail": "dd94f63e25931541",
    "nonconstant-exp": "18d8f8338aea843b",
    "sphere-s4": "0b50c4e1fd2753ef",
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_CONFIGS))
def test_example_report_digest_is_pinned(example_runs, name):
    """The bytes of each example's ``--no-timestamp`` report, digested as
    ``scripts/run_catalog_suites.py`` digests them.

    These digests pin platform bits: every residual digit, and so the order
    in which numpy sums.  A change meant to be byte-identical (a speed-up, a
    refactor) keeps them.  A failure after a numpy upgrade or on another
    platform means summation order moved, as in
    ``test_numpy_summation_order_is_pinned``; a failure after a change to the
    code means a digit moved, which that change must name and explain.
    """
    report = copy.deepcopy(example_runs[0][name])
    for outcome in report.checks:  # as --no-timestamp writes it
        outcome.wall_time = 0.0
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest()[:16] == EXAMPLE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EXAMPLE_CONFIGS))
def test_example_report_matches_golden(example_runs, name):
    """Reports match those of the per-check bundle design they replaced.

    Residual values compare to 1e-12, relative to 1 + |value| as residuals
    are judged, so that another LAPACK build does not break the test.
    """
    reports, _ = example_runs
    got = reports[name].to_dict()
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert got["summary"] == want["summary"]
    assert [c["check"] for c in got["checks"]] == [c["check"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        for key in ("status", "samples", "tolerance", "reason", "worst_point"):
            assert g.get(key) == w.get(key), (g["check"], key)
        for key in ("max_abs_residual", "max_rel_residual"):
            assert g[key] == approx(w[key], rel=1e-12, abs=1e-12), (g["check"], key)
        assert g.get("details", {}).keys() == w.get("details", {}).keys(), g["check"]
        for key, value in w.get("details", {}).items():
            assert g["details"][key] == approx(value, rel=1e-12, abs=1e-12), (g["check"], key)


# A suite whose metric order (3) is below its field order (4): closed_cvf
# and vss_residual covariantly differentiate field jets of order 4.
SUITES = {
    **EXAMPLE_CONFIGS,
    "mixed-orders": dict(
        EXAMPLE_CONFIGS["nonconstant-exp"],
        label="mixed-orders",
        checks=["firstthm", "closed_cvf", "vss_residual", "t_algebra", "lgh_forms", "equiv_chain"],
    ),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_check_alone_matches_full_suite(name):
    """A check run alone gives its entry in the full suite, bit for bit.

    Alone, the point bundle has the check's own orders and not the suite's
    maxima, so an understated order, metric order or fiber order shows here.
    """
    raw = dict(copy.deepcopy(SUITES[name]), samples=2)
    for full in run_suite(RunConfig.from_dict(raw)).checks:
        (alone,) = run_suite(RunConfig.from_dict(dict(raw, checks=[full.check]))).checks
        for key in ("status", "reason", "worst_point", "samples", "max_abs_residual", "max_rel_residual", "details"):
            assert getattr(alone, key) == getattr(full, key), (full.check, key)


# -- closed conformal-field identities ----------------------------------------------------


def _closed_cvf(name, **extra):
    """closed_cvf alone on an example's space and field, at 4 samples."""
    raw = dict(copy.deepcopy(EXAMPLE_CONFIGS[name]), checks=["closed_cvf"], samples=4, **extra)
    (outcome,) = run_suite(RunConfig.from_dict(raw)).checks
    return outcome


@pytest.mark.parametrize("name", sorted(EXAMPLE_CONFIGS))
def test_closed_cvf_passes_on_every_example(name):
    """Every example's field (h d/dt, or grad y_1 on S^4) is closed: all five identities are reported."""
    out = _closed_cvf(name)
    assert (out.status, out.samples) == ("PASS", 4)
    assert set(out.details) == {"nabla_p", "div_p", "nabla_xi", "curvature_xi", "ric_xi"}
    assert out.max_rel_residual < 1e-12


def test_closed_cvf_rotation_reports_general_identities_only():
    out = _closed_cvf("sphere-s4", field={"builtin": "rotation"})
    assert out.status == "PASS"
    assert set(out.details) == {"nabla_p", "div_p"}


@pytest.mark.parametrize("name, fld", [("ejiri", "warped_xi"), ("sphere-s4", "sphere_gradient"), ("sphere-s4", "rotation")])
def test_closed_cvf_fails_on_scaled_riemann(monkeypatch, name, fld):
    """A Riemann tensor off by 1e-6 FAILs the check instead of turning a precondition into a SKIP."""
    riemann13 = geometry._Chain.riemann13.func
    monkeypatch.setattr(geometry._Chain, "riemann13", property(lambda chain: riemann13(chain) * (1.0 + 1e-6)))
    field = dict(EXAMPLE_CONFIGS[name].get("field", {}), builtin=fld)
    out = _closed_cvf(name, field=field)
    assert out.status == "FAIL"
    assert out.max_rel_residual > 1e-7


# Rotations on a warped S^2 x S^2(2): within one fiber factor a rotation is
# Killing but not closed; one that mixes t with a fiber coordinate is not
# even conformal.
ROTATION_SPACE = {
    "kind": "warped",
    "interval": [-1.0, 1.0],
    "warping": "2+0.3*sin(t)",
    "fiber": {
        "kind": "product",
        "left": {"kind": "sphere", "dim": 2, "radius": 1.0},
        "right": {"kind": "sphere", "dim": 2, "radius": 2.0},
    },
}


def _rotation_suite(axes):
    raw = {"space": ROTATION_SPACE, "field": {"builtin": "rotation", "axes": axes},
           "checks": ["ixi_cotton", "closed_cvf", "firstthm"], "samples": 20}
    return RunConfig.from_dict(copy.deepcopy(raw))


@pytest.mark.parametrize("axes", [[1, 2], [3, 4]])
def test_killing_rotation_of_a_fiber_factor_passes_on_general_identities(axes):
    """Every check PASSes and none reports a closed-field residual, at any point; i_xi C is compared with a
    right side of scale 0.05 or more, far above round-off."""
    config = _rotation_suite(axes)
    report = run_suite(config)
    assert [(c.check, c.status) for c in report.checks] == [
        ("ixi_cotton", "PASS"), ("closed_cvf", "PASS"), ("firstthm", "PASS")
    ]
    assert {c.check: set(c.details) for c in report.checks} == {
        "ixi_cotton": {"general"},
        "closed_cvf": {"nabla_p", "div_p"},
        "firstthm": {"firstthm", "phi_symmetry", "trace_identity"},
    }
    ctx = build_context(config)
    spec = CHECKS["ixi_cotton"]
    points = ctx.chart.sample_points(config.samples, config.offset)
    scales = []
    for sc in point_scratches(ctx, points, spec.order, spec.fiber_order, spec.metric_order):
        residuals = spec.evaluate(sc)
        assert set(residuals) == {"general"}
        scales.append(residuals["general"].scale)
    assert max(scales) >= 0.05 and min(scales) > 1e-3


def test_rotation_mixing_t_fails_and_skips_firstthm_mid_suite():
    """rotation(0,1) is not conformal: the general identities FAIL at their measured size, and firstthm, run
    after them at each point, SKIPs with its precondition's reason."""
    ixi, closed, firstthm = run_suite(_rotation_suite([0, 1])).checks
    assert (ixi.check, ixi.status, set(ixi.details)) == ("ixi_cotton", "FAIL", {"general"})
    assert ixi.max_rel_residual == approx(0.539, abs=0.005)
    assert (closed.check, closed.status, set(closed.details)) == ("closed_cvf", "FAIL", {"nabla_p", "div_p"})
    assert closed.max_rel_residual == approx(1.33, abs=0.005)
    assert (firstthm.check, firstthm.status) == ("firstthm", "SKIP")
    assert re.fullmatch(r"field 'rotation\(0,1\)' is not conformal \(residual \d\.\d\de[+-]\d\d\)", firstthm.reason)


def test_generalized_defect_once_per_chunk(monkeypatch):
    """tfe_identity, decompose_ids and xicvf_forms share one solution test per chunk: two for 10 points."""
    calls = []
    defect = StaticAnalysis.solution_defect.func

    def counting_defect(self):
        calls.append(self)
        return defect(self)

    solution_defect = cached_property(counting_defect)
    solution_defect.__set_name__(StaticAnalysis, "solution_defect")
    monkeypatch.setattr(StaticAnalysis, "solution_defect", solution_defect)
    raw = dict(EXAMPLE_CONFIGS["basicex-n5-k2"], samples=10)
    report = run_suite(RunConfig.from_dict(copy.deepcopy(raw)))
    assert {c.check: c.status for c in report.checks}["decompose_ids"] == "PASS"
    assert len(calls) == 2


def test_hessian_once_per_scalar_per_chunk(monkeypatch):
    """On ejiri the scalars of a chunk are hdot (the potential) and phi (the field's): 40 points make a chunk of
    32 and one of 8, each with two Hessians."""
    calls = []
    hessian = geometry._Chain.hessian

    def counting_hessian(self, f):
        calls.append(self.points.tobytes())
        return hessian(self, f)

    monkeypatch.setattr(geometry._Chain, "hessian", counting_hessian)
    raw = dict(EXAMPLE_CONFIGS["ejiri"], samples=40)
    report = run_suite(RunConfig.from_dict(copy.deepcopy(raw)))
    assert {c.status for c in report.checks} == {"PASS"}
    assert sorted(Counter(calls).values()) == [2] * _chunks(raw) == [2, 2]


# -- scalar_value: the computed R against the chart's known constant ----------------------


def _scalar_value(space):
    (outcome,) = run_suite(RunConfig.from_dict({"space": space, "checks": ["scalar_value"], "samples": 4})).checks
    return outcome


def _scale_christoffel(monkeypatch):
    """Christoffel symbols off by 1e-6 where the curvature chain forms them, so Riemann, Ricci and R inherit it."""
    gamma = geometry._Chain.gamma.func
    monkeypatch.setattr(geometry._Chain, "gamma", property(lambda chain: gamma(chain) * (1.0 + 1e-6)))


@pytest.mark.parametrize("name", ["sphere-s4", "H^5", "ejiri-ode"])
def test_scalar_value_fails_on_scaled_christoffel(monkeypatch, name):
    """Round-off clean; Christoffel symbols off by 1e-6 FAIL instead of turning constant-R checks into SKIPs."""
    space = EXAMPLE_CONFIGS[name]["space"] if name in EXAMPLE_CONFIGS else {"kind": "hyperbolic", "dim": 5}
    clean = _scalar_value(space)
    assert clean.status == "PASS" and clean.max_rel_residual < 1e-13
    _scale_christoffel(monkeypatch)
    broken = _scalar_value(space)
    assert broken.status == "FAIL" and broken.max_rel_residual > 1e-7


def test_ejiri_ode_example_exits_1_on_scaled_christoffel(monkeypatch):
    assert main(["example", "ejiri-ode", "--no-timestamp", "--samples", "4"]) == 0
    _scale_christoffel(monkeypatch)
    assert main(["example", "ejiri-ode", "--no-timestamp", "--samples", "4"]) == 1


def test_scalar_value_skips_without_known_scalar():
    outcome = _scalar_value(EXAMPLE_CONFIGS["ejiri"]["space"])
    assert (outcome.status, outcome.reason) == ("SKIP", "chart has no known scalar curvature")


# Orbits of hddot + h = 2 h^-3 (n = 4, R = 12, c1 = 2) about h_eq = 2^(1/4),
# each over the S^3 whose scalar curvature its first integral fixes.
ORBIT_BASE = WarpOdeParams(4, 12.0, 0.0, 2.0)


@pytest.mark.parametrize("ratio", [0.995, 0.95, 0.9, 0.8, 0.7])
def test_periodic_orbit_charts_have_constant_scalar(ratio):
    h0 = ratio * equilibrium_radius(ORBIT_BASE)
    rbar = rbar_from_initial(ORBIT_BASE, h0, 0.0)
    space = {
        "kind": "ode_warped",
        "scalar": 12.0,
        "h0": h0,
        "fiber": {"kind": "sphere", "dim": 3, "radius": math.sqrt(6.0 / rbar)},
    }
    checks = ["scalar_value", "icotton_zero", "wp3_identity"]
    report = run_suite(RunConfig.from_dict({"space": space, "checks": checks, "samples": 25}))
    assert [(c.check, c.status) for c in report.checks] == [(check, "PASS") for check in checks]


# -- scripts/run_catalog_suites.py ---------------------------------------------------------


def test_run_catalog_suites_script(monkeypatch, capsys):
    """One summary line per example; exit 1 once a tolerance no residual meets makes a check FAIL."""
    spec = importlib.util.spec_from_file_location("run_catalog_suites", ROOT / "scripts" / "run_catalog_suites.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    configs = {name: dict(copy.deepcopy(raw), samples=2) for name, raw in EXAMPLE_CONFIGS.items()}
    monkeypatch.setattr(script, "EXAMPLE_CONFIGS", configs)
    assert script.main() == 0
    summaries = [line for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
    assert [line.split()[0] for line in summaries] == sorted(EXAMPLE_CONFIGS)
    assert all(" fail=0 " in line for line in summaries)
    configs["sphere-s4"]["tolerances"] = {"firstthm": 1e-30}
    assert script.main() == 1
    assert "sphere-s4          pass= 5 fail=1" in capsys.readouterr().out


def test_run_catalog_suites_digest_is_that_of_the_example_report(monkeypatch, capsys, tmp_path):
    """Each summary line carries the SHA-256 of `warpcheck example <name> --no-timestamp`'s report."""
    spec = importlib.util.spec_from_file_location("run_catalog_suites", ROOT / "scripts" / "run_catalog_suites.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "EXAMPLE_CONFIGS", {"sphere-s4": dict(EXAMPLE_CONFIGS["sphere-s4"], samples=2)})
    assert script.main() == 0
    (line,) = capsys.readouterr().out.splitlines()
    out = tmp_path / "r.json"
    assert main(["example", "sphere-s4", "--no-timestamp", "--samples", "2", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
    assert re.search(r" sha256=([0-9a-f]{16}) ", line).group(1) == digest
