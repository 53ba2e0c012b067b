"""Named verification checks, run-config handling, and report assembly.

A run-config names one space (plus optional potential and conformal field)
and a list of check identifiers.  The suite samples Halton points in the
chart box, evaluates every requested check at every point, and aggregates
worst-case residuals into a :class:`VerificationReport`.  PASS/FAIL compares
the max relative residual against the check's tolerance; preconditions that
fail numerically produce SKIP with a reason, never a silent pass.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable

import numpy as np

from . import dsl, spaces, statics
from .conformal import ConformalAnalysis, rotation_field, sphere_gradient_field, zero_field
from .geometry import POINT_ERRORS, ChartBatch, MetricChart, _Chain, chain_points
from .jets import JetTensor
from .ode import (
    DRIFT_TOL,
    NoPeriodicOrbit,
    OdeWarpingFunction,
    PositivityLost,
    WarpOdeParams,
    c1_for_fiber_scalar,
    drift,
    find_periodic_solution,
)
from .residuals import PreconditionSkip, Residual, ResidualSet, at_row
from .spaces import (
    ConformalFieldSpec,
    StaticPotentialSpec,
    WarpedGeometry,
    assemble_warped,
    basicex_geometry,
    build_warped_geometry,
    hyperbolic_static_potential,
    make_flat_torus_chart,
    make_hyperbolic_chart,
    make_product_chart,
    make_sphere_chart,
    sphere_height_potential,
)
from .statics import (
    StaticAnalysis,
    assembly_premises,
    equivalence_residuals,
    icotton_warped_residual,
    inrp_product_check,
    lgh_closed_forms,
    nonconstant_r_cotton_formulas,
    propddoth_check,
    require_solution,
    t_potential,
    unit_warping,
    warpedproduct3_residual,
    xicvf_residuals,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "CheckOutcome",
    "VerificationReport",
    "Check",
    "CHECKS",
    "SPACE_KINDS",
    "POTENTIAL_BUILTINS",
    "FIELD_BUILTINS",
    "EXAMPLE_CONFIGS",
    "build_context",
    "run_suite",
    "report_to_json",
]


class ConfigError(ValueError):
    """Run-config schema violation; message carries the offending field path."""


SPACE_KINDS = ("sphere", "hyperbolic", "flat_torus", "product", "warped", "basicex", "ode_warped")
POTENTIAL_BUILTINS = ("warped_hdot", "basicex", "sphere_height", "hyperbolic_x0")
FIELD_BUILTINS = ("warped_xi", "sphere_gradient", "rotation", "zero")

R_CONSTANT_REL_TOL = 1e-8
BATCH_POINTS = 64  # sample points per ChartBatch, which keeps a large suite's batched jets to a few MB


# -- run configuration -----------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    space: dict
    checks: tuple[str, ...]
    potential: dict | None = None
    fld: dict | None = None
    samples: int = 100
    offset: int = 0
    tolerances: dict[str, float] = field(default_factory=dict)
    label: str | None = None
    report_path: str | None = None
    csv_path: str | None = None

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        def expect(cond: bool, path: str, msg: str):
            if not cond:
                raise ConfigError(f"{path}: {msg}")

        expect(isinstance(raw, dict), "$", "config must be a JSON object")
        expect("space" in raw, "space", "missing required field")
        expect(isinstance(raw["space"], dict), "space", "must be an object")
        expect("kind" in raw["space"], "space.kind", "missing required field")
        expect(
            raw["space"]["kind"] in SPACE_KINDS,
            "space.kind",
            f"must be one of {SPACE_KINDS}",
        )
        expect("checks" in raw, "checks", "missing required field")
        expect(isinstance(raw["checks"], list) and raw["checks"], "checks", "must be a nonempty list")
        for i, c in enumerate(raw["checks"]):
            expect(isinstance(c, str) and c in CHECKS, f"checks[{i}]", f"unknown check id {c!r}")
            expect(c not in raw["checks"][:i], f"checks[{i}]", f"repeated check id {c!r}")
        samples = raw.get("samples", 100)
        expect(type(samples) is int and samples >= 1, "samples", "must be an integer >= 1")  # JSON true is no int
        offset = raw.get("offset", 0)
        expect(type(offset) is int and offset >= 0, "offset", "must be an integer >= 0")
        tols = raw.get("tolerances", {})
        expect(isinstance(tols, dict), "tolerances", "must be an object")
        for key, value in tols.items():
            expect(key in CHECKS, f"tolerances.{key}", "unknown check id")
            # an infinite tolerance would PASS a non-finite residual; so would an int beyond float range
            expect(_finite_number(value) and value > 0, f"tolerances.{key}", "must be a finite positive number")
        pot = raw.get("potential")
        expect(pot is None or isinstance(pot, dict), "potential", "must be an object")
        fld = raw.get("field")
        expect(fld is None or isinstance(fld, dict), "field", "must be an object")
        output = raw.get("output", {})
        expect(isinstance(output, dict), "output", "must be an object")
        for key in output:
            expect(key in ("report", "csv"), f"output.{key}", "unknown output path key")
            expect(isinstance(output[key], str), f"output.{key}", "must be a path string")
        expect(raw.get("label") is None or isinstance(raw["label"], str), "label", "must be a string")
        return RunConfig(
            space=raw["space"],
            checks=tuple(raw["checks"]),
            potential=pot,
            fld=fld,
            samples=samples,
            offset=offset,
            tolerances=dict(tols),
            label=raw.get("label"),
            report_path=output.get("report"),
            csv_path=output.get("csv"),
        )

    def tolerance(self, check: str) -> float:
        return float(self.tolerances.get(check, CHECKS[check].tolerance))


def _finite_number(value: Any) -> bool:
    """A JSON number (no bool) that converts to a finite float."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _number(raw: dict, key: str, path: str, default: float | None, integer: bool = False) -> int | float:
    """``raw[key]`` as a finite float, or an int if ``integer``; a missing key is ``default`` (None: required)."""
    if key not in raw:
        if default is None:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    value = raw[key]
    if not (_finite_number(value) and (not integer or float(value).is_integer())):
        raise ConfigError(f"{path}.{key}: must be a finite {'integer' if integer else 'number'}, got {value!r}")
    return int(value) if integer else float(value)


def _chart_from_dict(raw: Any, path: str) -> MetricChart:
    """The chart of a space form or a product of them; ``path`` names ``raw`` in error messages."""
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"{path}: fiber spec must be an object with a 'kind'")
    kind = raw["kind"]
    if kind == "product":
        return make_product_chart(
            _chart_from_dict(raw.get("left"), path + ".left"),
            _chart_from_dict(raw.get("right"), path + ".right"),
        )
    if kind not in ("sphere", "hyperbolic", "flat_torus"):
        raise ConfigError(f"{path}.kind: unknown fiber kind {kind!r}")
    dim = _number(raw, "dim", path, None, integer=True)
    if kind == "flat_torus":
        return make_flat_torus_chart(dim)
    make = make_sphere_chart if kind == "sphere" else make_hyperbolic_chart
    return make(dim, _number(raw, "radius", path, 1.0))


@dataclass
class CheckContext:
    chart: MetricChart
    warped: WarpedGeometry | None = None
    potential: StaticPotentialSpec | None = None
    fld: ConformalFieldSpec | None = None


def build_context(config: RunConfig) -> CheckContext:
    """Construct chart, potential, and field from the config dicts."""
    space = config.space
    kind = space["kind"]
    warped: WarpedGeometry | None = None
    own: StaticPotentialSpec | None = None  # the potential that a space kind comes with
    try:
        if kind in ("sphere", "hyperbolic", "flat_torus", "product"):
            chart = _chart_from_dict(space, "space")
        elif kind == "warped":
            fiber = _chart_from_dict(space.get("fiber"), "space.fiber")
            interval = space.get("interval")
            if not (isinstance(interval, (list, tuple)) and len(interval) == 2 and all(map(_finite_number, interval))):
                raise ConfigError(f"space.interval: need two finite numbers [t0, t1], got {interval!r}")
            try:
                warped = build_warped_geometry(tuple(interval), space["warping"], fiber)
            except ArithmeticError as exc:  # the positivity scan evaluates h on floats
                raise ConfigError(f"space.warping: cannot evaluate on {interval} ({exc})") from exc
            chart = warped.chart
        elif kind == "basicex":
            n, k = (_number(space, key, "space", None, integer=True) for key in ("n", "k"))
            warped, own = basicex_geometry(n, k)
            chart = warped.chart
        elif kind == "ode_warped":
            warped = _build_ode_warped(space)
            chart = warped.chart
        else:  # pragma: no cover - guarded by RunConfig validation
            raise ConfigError(f"space.kind: unknown kind {kind!r}")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"space: missing or malformed field ({exc})") from exc
    except dsl.ParseError as exc:
        raise ConfigError(f"space.warping: {exc}") from exc

    return CheckContext(chart, warped, _build_potential(config, chart, own), _build_field(config, chart, warped))


def _build_ode_warped(space: dict) -> WarpedGeometry:
    """Warping from the constant-scalar ODE through its turning point (h0, 0); the fiber scalar fixes c1."""
    for key in ("hdot0", "c1"):
        if key in space:
            raise ConfigError(f"space.{key}: not an ode_warped key (h0 is the turning point; the fiber fixes c1)")
    fiber_chart = _chart_from_dict(space.get("fiber"), "space.fiber")
    if fiber_chart.known_scalar is None:
        raise ConfigError("space.fiber: ode_warped needs a fiber with known scalar curvature")
    n = fiber_chart.dim + 1
    scalar = _number(space, "scalar", "space", None)
    h0 = _number(space, "h0", "space", None)
    c1 = c1_for_fiber_scalar(n, scalar, fiber_chart.known_scalar, h0)
    params = WarpOdeParams(n, scalar, fiber_chart.known_scalar, c1)
    dt = space.get("dt", 1e-3)
    if type(dt) is int and _finite_number(dt):
        dt = float(dt)
    if type(dt) is not float or not 0.0 < dt < math.inf:  # the orbit search steps t by dt up to its horizon
        raise ConfigError(f"space.dt: must be a finite positive step, got {dt!r}")
    try:
        traj, period = find_periodic_solution(params, h0, dt=dt)
    except (NoPeriodicOrbit, PositivityLost) as exc:
        raise ConfigError(f"space: no periodic warping for these parameters ({exc})") from exc
    row, rel = drift(traj)
    if not rel <= DRIFT_TOL:
        raise ConfigError(
            f"space: the warping orbit drifts (first-integral residual {rel:.3g} at t = {traj.times[row]:.6g}, "
            f"above {DRIFT_TOL:g}); take a smaller space.dt"
        )
    warping = OdeWarpingFunction(params, traj, period=period or None)
    label = f"S^1 x_h {fiber_chart.label} [h: ode n={n} R={scalar:g} c1={c1:g}]"
    wg = assemble_warped(warping, fiber_chart, (0.0, period if period > 0 else 1.0), label)
    return replace(wg, chart=replace(wg.chart, known_scalar=scalar))


def _build_potential(
    config: RunConfig, chart: MetricChart, own: StaticPotentialSpec | None
) -> StaticPotentialSpec | None:
    """The configured potential; without one, ``own``, the potential the space kind comes with."""
    space, pot = config.space, config.potential
    if pot is None:
        return own
    if "builtin" in pot and "potential_t" in pot:
        raise ConfigError("potential: provide 'builtin' or 'potential_t', not both")
    if "builtin" in pot:
        name = pot["builtin"]
        if name == "warped_hdot":
            if space["kind"] not in ("warped", "ode_warped", "basicex"):
                raise ConfigError("potential.builtin: warped_hdot needs a warped space")
            return None  # handled as hdot jets by the checks that use it
        if name == "basicex":
            _need_kind(space, "basicex", "potential", name)
            return own
        if name == "sphere_height":
            _need_kind(space, "sphere", "potential", name)
            axis = _sphere_axis(pot, "potential", chart.dim)
            radius, shift = _number(space, "radius", "space", 1.0), _number(pot, "shift", "potential", 0.0)
            return sphere_height_potential(chart.dim, radius, axis, shift)
        if name == "hyperbolic_x0":
            _need_kind(space, "hyperbolic", "potential", name)
            return hyperbolic_static_potential(chart.dim, _number(space, "radius", "space", 1.0))
        raise ConfigError(f"potential.builtin: unknown builtin {name!r} (have {POTENTIAL_BUILTINS})")
    if "potential_t" in pot:
        try:
            ast = dsl.parse(pot["potential_t"])
        except dsl.ParseError as exc:
            raise ConfigError(f"potential.potential_t: {exc}") from exc
        a, b = (_number(pot, key, "potential", 0.0) for key in ("a", "b"))
        return t_potential(ast, f"f(t)={pot['potential_t']}", a, b)
    raise ConfigError("potential: provide 'builtin' or 'potential_t'")


def _need_kind(space: dict, kind: str, key: str, name: str) -> None:
    """A builtin written in one chart's coordinates runs only on that kind of space."""
    if space["kind"] != kind:
        raise ConfigError(f"{key}.builtin: {name} needs a {kind} space")


def _sphere_axis(raw: dict, key: str, dim: int) -> int:
    """The ambient axis 1..dim+1 of a sphere builtin (default: the last)."""
    axis = raw.get("axis", dim + 1)
    if type(axis) is not int or not 1 <= axis <= dim + 1:
        raise ConfigError(f"{key}.axis: need an integer in 1..{dim + 1}, got {axis!r}")
    return axis


def _build_field(config: RunConfig, chart: MetricChart, warped: WarpedGeometry | None) -> ConformalFieldSpec | None:
    fld = config.fld
    if fld is None:
        return warped.xi if warped is not None else None
    if "builtin" in fld and "components" in fld:
        raise ConfigError("field: provide 'builtin' or 'components', not both")
    if "builtin" in fld:
        name = fld["builtin"]
        if name == "warped_xi":
            if warped is None:
                raise ConfigError("field.builtin: warped_xi needs a warped space")
            return warped.xi
        if name == "sphere_gradient":
            _need_kind(config.space, "sphere", "field", name)
            axis = _sphere_axis(fld, "field", chart.dim)
            return sphere_gradient_field(chart.dim, _number(config.space, "radius", "space", 1.0), axis)
        if name == "rotation":
            axes = fld.get("axes", [0, 1])
            distinct = isinstance(axes, list) and len(axes) == 2 and axes[0] != axes[1]
            if not (distinct and all(type(a) is int and 0 <= a < chart.dim for a in axes)):
                raise ConfigError(f"field.axes: need two distinct integers in 0..{chart.dim - 1}, got {axes!r}")
            return rotation_field(chart.dim, axes[0], axes[1])
        if name == "zero":
            return zero_field(chart.dim)
        raise ConfigError(f"field.builtin: unknown builtin {name!r} (have {FIELD_BUILTINS})")
    if "components" in fld:
        comps = fld["components"]
        if not isinstance(comps, list) or len(comps) != chart.dim:
            raise ConfigError(f"field.components: need exactly {chart.dim} component expressions")
        try:
            asts = [dsl.parse(src) for src in comps]
        except dsl.ParseError as exc:
            raise ConfigError(f"field.components: {exc}") from exc

        def builder(coords):
            out = []
            for ast in asts:
                value = dsl.eval_expr(ast, coords[0])
                out.append(value)
            return out

        return ConformalFieldSpec(label="components(t)", builder=builder)
    raise ConfigError("field: provide 'builtin' or 'components'")


# -- per-chunk and per-point scratch -------------------------------------------------------


class ChunkScratch:
    """What the checks at the points of one chunk share (see the Batch rule of :mod:`geometry`).

    ``chains`` are the chunk's curvature on the chart and, on a warped
    space, on the fiber chart, at the highest orders any check of the suite
    needs.  Each analysis, each value derived from them and each identity's
    residuals are formed at most once, for every point of the chunk.  A
    chunk that raised a point error is ``failed``, and its points are formed
    alone from then on.
    """

    def __init__(self, ctx: CheckContext, chains: list[_Chain]):
        self.ctx = ctx
        self.chains = chains
        self.chain, self.fiber = chains[0], chains[1] if len(chains) > 1 else None
        self._formed: dict = {}  # by the identity that formed them
        self.failed = False

    def formed(self, identity: Callable[[ChunkScratch], ResidualSet]) -> ResidualSet:
        """The residuals that ``identity`` forms for the chunk, formed on the first request."""
        if identity not in self._formed:
            self._formed[identity] = identity(self)
        return self._formed[identity]

    @cached_property
    def conformal(self) -> ConformalAnalysis:
        return ConformalAnalysis(self.chain, self.ctx.fld)

    @cached_property
    def static(self) -> StaticAnalysis:
        """The configured potential; on a warped space without one, hdot."""
        if self.ctx.potential is None:
            return self.hdot
        return StaticAnalysis(self.chain, self.ctx.potential)

    @cached_property
    def hdot(self) -> StaticAnalysis:
        """hdot(t) as a potential, kept apart from a configured one (basicex has both)."""
        hd = self.warping_jet.partials()
        hdot = JetTensor(hd.space, hd.data[:, 0]).embed(self.chain.space, (0,))
        return StaticAnalysis(self.chain, StaticPotentialSpec("hdot", None), hdot)

    @cached_property
    def fiber_ric0(self) -> np.ndarray:
        return statics.fiber_ric0(self.fiber)

    @cached_property
    def warping_jet(self) -> JetTensor:
        """h as a one-variable jet at each point's t, one order above the chain so that hdot keeps its order."""
        batch, warping = self.chain.batch, self.ctx.warped.warping
        build = lambda rows: spaces.warping_jet(warping, batch.points[rows, 0], batch.order + 1)  # noqa: E731
        return batch.formed("warping", build, self.chain.rows)

    @cached_property
    def warping(self) -> list[np.ndarray]:
        """h(t) and its first three derivatives at each point's t."""
        return [self.warping_jet.partial((j,)) for j in range(4)]


class PointScratch:
    """One sample point: its row ``row`` of its chunk's scratch.

    A check's precondition takes the scratch as its one argument, and
    :meth:`Check.evaluate` reads the point's residuals from the chunk's.
    """

    def __init__(self, chunk: ChunkScratch, row: int):
        self.ctx = chunk.ctx
        self.point = chunk.chain.points[row]
        self.coords = tuple(self.point.tolist())  # the point as its outcomes record it
        self.chunk, self.row = chunk, row

    def split(self) -> bool:
        """After a point error in the chunk, form this point alone, as a chunk of one; False if it is one."""
        if len(self.chunk.chain.points) == 1:
            return False
        self.chunk.failed = True
        self.__init__(ChunkScratch(self.ctx, [chain.alone(self.row) for chain in self.chunk.chains]), 0)
        return True

    def rows(self, identity: Callable[[ChunkScratch], ResidualSet]) -> ResidualSet:
        """The point's residuals, of those that ``identity`` forms for its chunk."""
        return at_row(self.chunk.formed(identity), self.row)


def point_scratches(
    ctx: CheckContext, points: np.ndarray, order: int, fiber_order: int = 2, metric_order: int | None = None
) -> list[PointScratch]:
    """The scratches of a (P, dim) array of points; the builders of the chart and of the fiber chart run once
    for every BATCH_POINTS of them, and everything else once per chunk of :func:`geometry.chain_points` points,
    a size that the chart's dim and metric order set for the fiber batch too, so that a chunk's two chains hold
    the same points.  A chunk is freed with the scratch of its last point and a batch with its last chunk."""
    out = []
    for start in range(0, len(points), BATCH_POINTS):
        batch = points[start : start + BATCH_POINTS]
        batches = [ChartBatch(ctx.chart, batch, order, metric_order)]
        size = chain_points(ctx.chart.dim, batches[0].metric_order, len(batch))
        if ctx.warped is not None:
            batches.append(ChartBatch(ctx.warped.fiber_chart, batch[:, 1:], fiber_order))
        for chains in zip(*(b.chunks(size) for b in batches), strict=True):
            shared = ChunkScratch(ctx, list(chains))
            out += [PointScratch(shared, k) for k in range(len(chains[0].points))]
    return out


def _at_point(sc: PointScratch, evaluate: Callable[[PointScratch], Any]):
    """``evaluate(sc)``; where the point's chunk raises a point error, at the point alone, which raises its own."""
    if sc.chunk.failed:
        sc.split()
    try:
        return evaluate(sc)
    except POINT_ERRORS:
        if not sc.split():
            raise
        return evaluate(sc)


# -- preconditions and identities ---------------------------------------------------
# (see Check; those of the warped products and of the potentials are in statics)


def _known_scalar(sc: PointScratch) -> None:
    """The chart has a known scalar curvature."""
    if sc.ctx.chart.known_scalar is None:
        raise PreconditionSkip("chart has no known scalar curvature")


def _scalar_value(ch: ChunkScratch) -> ResidualSet:
    known = ch.ctx.chart.known_scalar
    scalar = ch.chain.scalar_jet.value
    return {"scalar": Residual(np.abs(scalar - known), np.full_like(scalar, abs(known)))}


def _conformal(sc: PointScratch) -> None:
    """The field is conformal at the point: its conformal defect is at most 1e-7."""
    rel = sc.chunk.conformal.conformality.at(sc.row).rel
    if rel > 1e-7:
        raise PreconditionSkip(f"field {sc.ctx.fld.label!r} is not conformal (residual {rel:.2e})")


def _closed(sc: PointScratch) -> None:
    """The field is closed at the point."""
    cf = sc.chunk.conformal
    if not cf.is_closed[sc.row]:
        raise PreconditionSkip(f"field {cf.spec.label!r} is not closed (defect {cf.closedness.at(sc.row).rel:.2e})")


def _firstthm(ch: ChunkScratch) -> ResidualSet:
    cf = ch.conformal
    return {
        "firstthm": cf.firstthm_defect(),
        "phi_symmetry": cf.phi_symmetry_defect(),
        "trace_identity": cf.trace_identity_defect(),
    }


def _cxi(ch: ChunkScratch) -> ResidualSet:
    cf = ch.conformal
    return {
        "cotton_contraction": cf.cxi_contraction_defect(),
        "divergence_contraction": cf.cxi_divergence_defect(),
    }


def _equiv_verdict(out: CheckOutcome) -> None:
    """The chain holds when its four clauses agree: all below tolerance or none."""
    verdicts = [value < out.tolerance for value in out.details.values()]
    coherent = len(set(verdicts)) == 1
    out.details = {f"max_{key}": value for key, value in out.details.items()}
    out.details["all_below_tol"] = float(all(verdicts))
    out.status = "PASS" if coherent else "FAIL"
    out.max_abs_residual = out.max_rel_residual = 0.0 if coherent else 1.0
    out.reason = None if coherent else "equivalence clauses disagree"
    out.worst_point = None
    out.point_rows = []


# -- registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """Everything the suite runner knows about one check id.

    ``identity`` takes a :class:`ChunkScratch` and forms the check's named
    residuals at every point of the chunk; ``precondition``, if set, takes
    one point's :class:`PointScratch` and raises :class:`PreconditionSkip`
    there, before the identity forms anything, where the identity does not
    apply.  ``order`` is the jet order of the coordinates and fields
    the identity needs, ``metric_order`` (default ``order``) that of its
    metric and curvature, and ``fiber_order`` that of the fiber chain.
    ``metric_order`` is below ``order`` where a field is differentiated
    more often than the metric.  ``needs`` names the context
    the check cannot run without: ``warped``, ``potential``, ``field`` and
    ``constant_r`` (the scalar curvature is constant over the samples).
    ``settle``, if set, replaces the tolerance verdict when every point gave finite residuals.
    """

    description: str
    tolerance: float
    order: int
    identity: Callable[[ChunkScratch], ResidualSet]
    needs: frozenset[str]
    precondition: Callable[[PointScratch], None] | None = None
    fiber_order: int = 2
    settle: Callable[[CheckOutcome], None] | None = None
    metric_order: int | None = None

    def __post_init__(self):
        if self.metric_order is None:
            object.__setattr__(self, "metric_order", self.order)

    def evaluate(self, sc: PointScratch) -> ResidualSet:
        """The check's residuals at the point of ``sc``, once its precondition holds there."""
        if self.precondition is not None:
            self.precondition(sc)
        return sc.rows(self.identity)


CHECKS: dict[str, Check] = {
    "scalar_value": Check("scalar curvature R equals the chart's known scalar curvature",
        1e-10, 2, _scalar_value, frozenset(), _known_scalar),
    "vss_residual": Check("vacuum static equation: full, trace, and trace-free residuals",
        1e-8, 2, lambda ch: ch.static.vacuum, frozenset({"potential"})),
    # L* f reads the metric twice differentiated, through Ricci
    "lgh_forms": Check("closed forms of L* on warped products (all slots + warped Laplacian)",
        1e-8, 3, lgh_closed_forms, frozenset({"warped"}), metric_order=2),
    "wp3_identity": Check("L* hdot = -C(.,xi,.) on constant-scalar warped products",
        1e-8, 3, warpedproduct3_residual, frozenset({"warped", "constant_r"})),
    "icotton_zero": Check("i_{d/dt} C = 0 on constant-scalar warped products",
        1e-8, 3, icotton_warped_residual, frozenset({"warped", "constant_r"})),
    # the fiber's Cotton tensor takes a third-order fiber chain
    "nein3_forms": Check("explicit warped Cotton components (nonconstant scalar allowed)",
        1e-7, 3, nonconstant_r_cotton_formulas, frozenset({"warped"}), fiber_order=3),
    "t_algebra": Check("T-tensor antisymmetry, cyclic sum, and traces",
        1e-10, 2, lambda ch: ch.static.t_algebra(), frozenset({"potential"})),
    "tfe_identity": Check("contraction identity E_ik T_ijk f_j = (n-2)/(2(n-1)) |T|^2",
        1e-7, 2, lambda ch: {"tfe": ch.static.tfe_defect()}, frozenset({"potential"}),
        require_solution("E-T contraction identity")),
    "decompose_ids": Check("curvature decomposition identities for generalized solutions",
        1e-7, 3, lambda ch: ch.static.decompose_residuals(), frozenset({"potential"}),
        require_solution("decomposition identities")),
    "xicvf_forms": Check("two contraction formulas tying f, phi, P, and C(.,xi,.)",
        1e-6, 3, xicvf_residuals, frozenset({"potential", "field"}),
        require_solution("conformal-field contraction identities")),
    "propddoth": Check("h*fbar assembly: fiber + warping equations imply the total equation",
        1e-8, 2, propddoth_check, frozenset({"warped"}), assembly_premises),
    "inrp": Check("product criterion: f'' + Rbar f/(n-1) = 0 over an Einstein fiber",
        1e-8, 2, inrp_product_check, frozenset({"warped"}), unit_warping),
    # the metric enters through Cotton, three derivatives deep; the field jets keep
    # order 4 because the sphere-gradient builder loses one order
    "firstthm": Check("L* phi = Phi for the characteristic function of a conformal field",
        1e-7, 4, _firstthm, frozenset({"field"}), _conformal, metric_order=3),
    "ixi_cotton": Check("i_xi C formula (general form; closed reduction when applicable)",
        1e-7, 4, lambda ch: ch.conformal.ixi_cotton_defect(), frozenset({"field"}), metric_order=3),
    "cxi_div": Check("Xi_ik xi^i = 0 for closed fields with constant scalar curvature",
        1e-6, 4, _cxi, frozenset({"field", "constant_r"}), _closed),
    "equiv_chain": Check("joint verdict of the four warped vacuum-static equivalence clauses",
        1e-6, 3, equivalence_residuals, frozenset({"warped"}), settle=_equiv_verdict),
    "closed_cvf": Check("nabla P and div P identities; (a) nabla xi = phi I, (d) R(.,xi) and "
        "(e) Ric(xi) = -(n-1) grad phi are reported only when the field is closed",
        1e-8, 3, lambda ch: ch.conformal.closed_identities(), frozenset({"field"})),
}

# A view, not a second table: run_suite looks a check's evaluate up here at
# call time, so a wrapper set into this dict (a tracer, a residual guard) is
# the one that runs.
_EVALUATORS = {name: c.evaluate for name, c in CHECKS.items()}


# -- outcomes and report -----------------------------------------------------------


@dataclass
class CheckOutcome:
    check: str
    status: str
    tolerance: float
    max_abs_residual: float = 0.0
    max_rel_residual: float = 0.0
    worst_point: list[float] | None = None
    samples: int = 0
    wall_time: float = 0.0
    reason: str | None = None
    details: dict[str, float] = field(default_factory=dict)
    # per-point rows (point, abs, rel), kept out of the JSON report
    point_rows: list[tuple[tuple[float, ...], float, float]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "check": self.check,
            "status": self.status,
            "tolerance": self.tolerance,
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "samples": self.samples,
            "wall_time_s": self.wall_time,
        }
        if self.worst_point is not None:
            out["worst_point"] = self.worst_point
        if self.reason is not None:
            out["reason"] = self.reason
        if self.details:
            out["details"] = self.details
        return out

    def add(self, point: tuple[float, ...], residuals: dict[str, Residual]) -> None:
        """Fold one point's residuals into the running worst case.

        A non-finite residual counts as an infinite relative residual, so
        the check FAILs and the first such point stays the worst one.
        """
        self.samples += 1
        point_abs = 0.0
        point_rel = 0.0
        for name, residual in residuals.items():
            rel = residual.rel
            if not (math.isfinite(residual.abs) and math.isfinite(residual.scale)):
                rel = math.inf
                self.reason = self.reason or f"non-finite residual {name!r}"
            self.details[name] = max(self.details.get(name, 0.0), rel)
            if rel > point_rel:
                point_rel, point_abs = rel, residual.abs
            if self.worst_point is None or rel > self.max_rel_residual:
                self.max_rel_residual, self.max_abs_residual = rel, residual.abs
                self.worst_point = list(point)
        self.point_rows.append((point, point_abs, point_rel))

    def add_error(self, point: tuple[float, ...], exc: Exception) -> None:
        """A domain or singular-metric error at a point counts as an infinite residual there."""
        self.samples += 1
        self.point_rows.append((point, math.inf, math.inf))
        self.reason = self.reason or f"{type(exc).__name__}: {exc}"
        if self.max_rel_residual < math.inf:
            self.max_rel_residual = self.max_abs_residual = math.inf
            self.worst_point = list(point)


@dataclass
class VerificationReport:
    schema: int
    label: str
    checks: list[CheckOutcome]
    summary: dict[str, Any]
    timestamp: str | None = None

    @property
    def any_fail(self) -> bool:
        return any(c.status == "FAIL" for c in self.checks)

    def to_dict(self) -> dict[str, Any]:
        out = {
            "schema": self.schema,
            "label": self.label,
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
        }
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
        return out


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


# -- suite runner --------------------------------------------------------------------


def _scalar_survey(scratches: deque[PointScratch]) -> tuple[bool, float, float]:
    """(constant, mean, spread) of the scalar curvature over the points where it is finite."""
    values = []
    for sc in scratches:
        try:
            value = _at_point(sc, lambda sc: float(sc.chunk.chain.scalar_jet.value[sc.row]))
        except POINT_ERRORS:
            continue  # the checks evaluated at this point report the error
        if math.isfinite(value):  # else they FAIL there as non-finite
            values.append(value)
    if not values:
        return True, 0.0, 0.0
    lo, hi = min(values), max(values)
    mean = sum(values) / len(values)
    constant = (hi - lo) <= R_CONSTANT_REL_TOL * (1.0 + abs(mean))
    return constant, mean, hi - lo


def run_suite(config: RunConfig, point_override: np.ndarray | None = None) -> VerificationReport:
    """Execute the configured checks over the chart's Halton samples.

    Points run outside and checks inside, so every check at a point shares
    that point's :class:`PointScratch`.  A check's ``wall_time`` is the
    time of its own evaluate calls, which includes whatever shared
    curvature it is the first to need.
    """
    ctx = build_context(config)
    if point_override is not None:
        points = np.asarray(point_override, dtype=float).reshape(1, -1)
        if points.shape[1] != ctx.chart.dim:
            raise ConfigError(f"--point: expected {ctx.chart.dim} coordinates")
        if not np.all(np.isfinite(points)):
            raise ConfigError(f"--point: coordinates must be finite, got {points[0].tolist()}")
    else:
        points = ctx.chart.sample_points(config.samples, config.offset)

    specs = [CHECKS[check] for check in config.checks]
    order = max(spec.order for spec in specs)
    fiber_order = max(spec.fiber_order for spec in specs)
    metric_order = max(spec.metric_order for spec in specs)
    scratches = deque(point_scratches(ctx, points, order, fiber_order, metric_order))

    # overflow at a point shows as a non-finite residual, which FAILs with that point
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r_constant, r_mean, r_spread = (True, 0.0, 0.0)
        if any("constant_r" in spec.needs for spec in specs):
            r_constant, r_mean, r_spread = _scalar_survey(scratches)

        outcomes: list[CheckOutcome] = []
        for check, spec in zip(config.checks, specs):
            skip = None
            if "warped" in spec.needs and ctx.warped is None:
                skip = "needs a warped space"
            elif "potential" in spec.needs and ctx.potential is None and ctx.warped is None:
                skip = "needs a potential"
            elif "field" in spec.needs and ctx.fld is None:
                skip = "needs a conformal field"
            elif "constant_r" in spec.needs and not r_constant:
                skip = f"scalar curvature not constant (spread {r_spread:.3e} about {r_mean:.6g})"
            # a PASS here is provisional: the status settles after the point loop
            outcomes.append(CheckOutcome(check, "SKIP" if skip else "PASS", config.tolerance(check), reason=skip))

        while scratches:
            sc = scratches.popleft()  # frees the point's jets once its checks ran
            for k, out in enumerate(outcomes):
                if out.status == "SKIP":
                    continue
                start = time.perf_counter()
                try:
                    residuals = _at_point(sc, _EVALUATORS[out.check])
                except PreconditionSkip as unmet:
                    out = outcomes[k] = CheckOutcome(
                        out.check, "SKIP", out.tolerance, reason=unmet.reason, wall_time=out.wall_time
                    )
                except POINT_ERRORS as exc:  # the point FAILs with the message, and the run goes on
                    out.add_error(sc.coords, exc)
                else:
                    out.add(sc.coords, residuals)
                out.wall_time += time.perf_counter() - start

    for out, spec in zip(outcomes, specs):
        if out.status == "SKIP":
            continue
        out.status = "PASS" if out.max_rel_residual <= out.tolerance else "FAIL"
        if spec.settle is not None and out.reason is None:
            spec.settle(out)
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    skip_reasons = []
    for outcome in outcomes:
        counts[outcome.status] += 1
        if outcome.status == "SKIP":
            skip_reasons.append({"check": outcome.check, "reason": outcome.reason})
    summary: dict[str, Any] = {
        "pass": counts["PASS"],
        "fail": counts["FAIL"],
        "skip": counts["SKIP"],
        "skip_reasons": skip_reasons,
    }
    label = config.label or ctx.chart.label
    return VerificationReport(schema=1, label=label, checks=outcomes, summary=summary)


# -- canned example configs ------------------------------------------------------------

EXAMPLE_CONFIGS: dict[str, dict] = {
    "ejiri": {
        "label": "ejiri",
        "space": {
            "kind": "warped",
            "interval": [0.0, 6.283185307179586],
            "warping": "sqrt(2+sin(t))",
            "fiber": {"kind": "sphere", "dim": 3, "radius": 1.0},
        },
        "checks": [
            "vss_residual",
            "icotton_zero",
            "wp3_identity",
            "lgh_forms",
            "firstthm",
            "ixi_cotton",
            "cxi_div",
            "t_algebra",
            "equiv_chain",
        ],
        "samples": 60,
    },
    "basicex-n5-k2": {
        "label": "basicex-n5-k2",
        "space": {"kind": "basicex", "n": 5, "k": 2},
        "checks": [
            "vss_residual",
            "t_algebra",
            "tfe_identity",
            "decompose_ids",
            "xicvf_forms",
            "propddoth",
            "firstthm",
            "cxi_div",
            "wp3_identity",
        ],
        "samples": 40,
    },
    "nonconstant-exp": {
        "label": "nonconstant-exp",
        "space": {
            "kind": "warped",
            "interval": [-1.0, 1.0],
            "warping": "exp(t/5)",
            "fiber": {"kind": "sphere", "dim": 3, "radius": 1.0},
        },
        "checks": ["lgh_forms", "nein3_forms", "ixi_cotton", "firstthm", "icotton_zero"],
        "samples": 40,
    },
    "equiv-fail": {
        "label": "equiv-fail",
        "space": {
            "kind": "ode_warped",
            "scalar": 2.0,
            "h0": 1.0,
            "fiber": {
                "kind": "product",
                "left": {"kind": "sphere", "dim": 2, "radius": 1.0},
                "right": {"kind": "sphere", "dim": 2, "radius": 2.0},
            },
        },
        "checks": ["equiv_chain", "wp3_identity", "icotton_zero", "firstthm"],
        "samples": 30,
    },
    # the S^1 x_h S^3(1) space of "ejiri", its warping solved from the ODE
    # through the turning point h = 1 of sqrt(2 + sin t)
    "ejiri-ode": {
        "label": "ejiri-ode",
        "space": {"kind": "ode_warped", "scalar": 3.0, "h0": 1.0, "fiber": {"kind": "sphere", "dim": 3, "radius": 1.0}},
        "checks": ["scalar_value", "icotton_zero", "wp3_identity"],
        "samples": 20,
    },
    "sphere-s4": {
        "label": "sphere-s4",
        "space": {"kind": "sphere", "dim": 4, "radius": 1.0},
        "potential": {"builtin": "sphere_height", "axis": 5},
        "field": {"builtin": "sphere_gradient", "axis": 1},
        "checks": ["vss_residual", "t_algebra", "decompose_ids", "xicvf_forms", "firstthm", "ixi_cotton"],
        "samples": 40,
    },
}
