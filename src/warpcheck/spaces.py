"""Model-space catalog: spheres, hyperbolic balls, tori, products, warped products.

Constant-curvature factors use conformally flat charts (stereographic for
spheres, Poincare ball for hyperbolic space) so jets stay smooth on the whole
sample box; hyperbolic boxes are shrunk to 0.8 of the ball radius.  Warped
products put the base coordinate first: x^0 = t, metric dt^2 + h(t)^2 gbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import dsl
from .geometry import MetricChart
from .jets import JetTensor, jet_space

__all__ = [
    "StaticPotentialSpec",
    "ConformalFieldSpec",
    "WarpedGeometry",
    "space_form",
    "make_sphere_chart",
    "make_hyperbolic_chart",
    "make_flat_torus_chart",
    "make_product_chart",
    "assemble_warped",
    "warping_jet",
    "build_warped_geometry",
    "basicex_geometry",
    "basicex_radii",
    "hyperbolic_static_potential",
    "sphere_height_potential",
    "basicex_potential",
]


@dataclass(frozen=True)
class StaticPotentialSpec:
    """A potential f and what it is: ``of_t`` if f is a function of t alone,
    ``fiber`` the fbar of f = h(t) * fbar, fbar living on the fiber chart.
    ``builder`` is None for a potential whose analysis is handed its jet."""

    label: str
    builder: Callable[[Sequence[JetTensor]], JetTensor] | None
    a: float = 0.0
    b: float = 0.0
    of_t: bool = False
    fiber: StaticPotentialSpec | None = None


@dataclass(frozen=True)
class ConformalFieldSpec:
    label: str
    builder: Callable[[Sequence[JetTensor]], Sequence[JetTensor]]


@dataclass(frozen=True)
class WarpedGeometry:
    """A warped chart together with the pieces the closed-form checks need.

    ``warping`` is h(t); ``xi`` is the closed conformal field h d/dt on
    ``chart``.
    """

    chart: MetricChart
    fiber_chart: MetricChart
    warping: Callable
    xi: ConformalFieldSpec


# -- constant-curvature charts ----------------------------------------------


def _sum_squares(coords: Sequence[JetTensor]) -> JetTensor:
    s = coords[0] * coords[0]
    for c in coords[1:]:
        s = s + c * c
    return s


def space_form(m: int, r: float, sign: int) -> tuple[MetricChart, Callable[[Sequence[JetTensor]], JetTensor]]:
    """The chart g = lam^2 delta, lam = 2r^2/(r^2 + sign |x|^2), and lam as a function of the coordinates.

    sign = 1 gives the stereographic chart of S^m(r) on |x| < 3r, sign = -1
    the Poincare ball of H^m(r) on |x| <= 0.8r.
    """
    if m < 1 or r <= 0:
        raise ValueError(f"{'sphere' if sign > 0 else 'hyperbolic space'} needs m >= 1, r > 0 (got m={m}, r={r})")
    r2 = r * r

    def factor(coords):
        s = _sum_squares(coords)
        return (2.0 * r2) / (r2 + s if sign > 0 else r2 - s)

    def builder(coords):
        lam = factor(coords)
        lam2 = lam * lam
        return [[lam2 if i == j else 0.0 for j in range(m)] for i in range(m)]

    half = (3.0 if sign > 0 else 0.8) * r / math.sqrt(m)
    chart = MetricChart(
        dim=m,
        label=f"{'S' if sign > 0 else 'H'}^{m}({r:g})",
        builder=builder,
        box=(np.full(m, -half), np.full(m, half)),
        exclude=None if sign > 0 else lambda p: float(np.dot(p, p)) >= (0.85 * r) ** 2,
        known_scalar=sign * m * (m - 1) / r2,
    )
    return chart, factor


def make_sphere_chart(m: int, r: float) -> MetricChart:
    """Stereographic chart of S^m(r)."""
    return space_form(m, r, 1)[0]


def make_hyperbolic_chart(m: int, r: float) -> MetricChart:
    """Poincare-ball chart of H^m(r)."""
    return space_form(m, r, -1)[0]


def make_flat_torus_chart(m: int) -> MetricChart:
    def builder(coords):
        return [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]

    return MetricChart(
        dim=m,
        label=f"T^{m}",
        builder=builder,
        box=(np.zeros(m), np.full(m, 2.0 * math.pi)),
        known_scalar=0.0,
    )


def _block_diagonal(blocks: Sequence[Sequence[Sequence]]) -> list[list]:
    """The matrix with these square blocks on its diagonal and 0.0 elsewhere."""
    n = sum(len(rows) for rows in blocks)
    out = [[0.0] * n for _ in range(n)]
    at = 0
    for rows in blocks:
        for i, row in enumerate(rows):
            out[at + i][at : at + len(row)] = row
        at += len(rows)
    return out


def make_product_chart(a: MetricChart, b: MetricChart) -> MetricChart:
    da, db = a.dim, b.dim

    def builder(coords):
        return _block_diagonal([a.builder(coords[:da]), b.builder(coords[da:])])

    def exclude(p):
        if a.exclude is not None and a.exclude(p[:da]):
            return True
        return b.exclude is not None and b.exclude(p[da:])

    known = None
    if a.known_scalar is not None and b.known_scalar is not None:
        known = a.known_scalar + b.known_scalar
    return MetricChart(
        dim=da + db,
        label=f"{a.label} x {b.label}",
        builder=builder,
        box=(np.concatenate([a.box[0], b.box[0]]), np.concatenate([a.box[1], b.box[1]])),
        exclude=exclude if (a.exclude or b.exclude) else None,
        known_scalar=known,
    )


# -- warped products ----------------------------------------------------------


def assemble_warped(
    warping: Callable, fiber_chart: MetricChart, interval: tuple[float, float], label: str
) -> WarpedGeometry:
    """dt^2 + h(t)^2 gbar over interval x fiber, for an h callable on jets; h > 0 on the interval, the caller checks."""
    t0, t1 = float(interval[0]), float(interval[1])
    if not t1 > t0:
        raise ValueError(f"empty interval {interval}")
    dfib = fiber_chart.dim
    if dfib + 1 < 3:
        raise ValueError(f"warped product needs total dim >= 3, got {dfib + 1}")

    def builder(coords):
        h = warping(coords[0])
        h2 = h * h
        fiber_rows = [
            [h2 * entry if isinstance(entry, JetTensor) or entry != 0.0 else 0.0 for entry in row]
            for row in fiber_chart.builder(coords[1:])
        ]
        return _block_diagonal([[[1.0]], fiber_rows])

    line = MetricChart(dim=1, label="I", builder=lambda coords: [[1.0]], box=(np.array([t0]), np.array([t1])))
    chart = replace(make_product_chart(line, fiber_chart), label=label, builder=builder)

    def xi_builder(coords):
        h = warping(coords[0])
        return [h] + [JetTensor.const(coords[0].space, 0.0)] * dfib

    return WarpedGeometry(chart, fiber_chart, warping, ConformalFieldSpec(label="h d/dt", builder=xi_builder))


def warping_jet(warping: Callable, t0: float | np.ndarray, order: int) -> JetTensor:
    """h as a one-variable jet at t0, or at each entry of an array t0."""
    h = warping(JetTensor.variable(0, t0, 1, order))
    if not isinstance(h, JetTensor):
        h = JetTensor.const(jet_space(1, order), np.full(np.shape(t0), float(h)))
    return h


def build_warped_geometry(interval: tuple[float, float], warping_src: str, fiber_chart: MetricChart) -> WarpedGeometry:
    """The warped product whose warping is the DSL expression ``warping_src`` in t, checked finite and positive at
    257 points; a value that is not finite raises ArithmeticError, as h has no value there."""
    ast = dsl.parse(warping_src)

    def warping(t):
        return dsl.eval_expr(ast, t)

    wg = assemble_warped(warping, fiber_chart, interval, f"I x_h {fiber_chart.label} [h={dsl.unparse(ast)}]")
    t0, t1 = float(interval[0]), float(interval[1])
    ts = np.linspace(t0, t1, 257)
    try:
        with np.errstate(all="ignore"):  # a NaN or inf is reported below
            hs = np.array([float(warping(t)) for t in ts])
    except ValueError as exc:  # a math function's domain error
        raise ArithmeticError(exc) from exc
    if not np.isfinite(hs).all():
        k = np.flatnonzero(~np.isfinite(hs))[0]
        raise ArithmeticError(f"h = {hs[k]:g} at t = {ts[k]:g}")
    if hs.min() <= 0.0:
        raise ValueError(f"warping function is nonpositive on [{t0}, {t1}] (min {hs.min():g})")
    return wg


# -- static potentials ---------------------------------------------------------


def hyperbolic_static_potential(m: int, r: float) -> StaticPotentialSpec:
    """The x0 hyperboloid coordinate on the Poincare ball: Hess f = (f/r^2) g."""
    if m < 1:
        raise ValueError("hyperbolic potential needs m >= 1")
    r2 = r * r

    def builder(coords):
        s = _sum_squares(coords)
        return r * (r2 + s) / (r2 - s)

    return StaticPotentialSpec(label=f"x0 on H^{m}({r:g})", builder=builder)


def sphere_height_potential(m: int, r: float, axis: int, shift: float = 0.0) -> StaticPotentialSpec:
    """Ambient height function y_axis (+ shift) on the stereographic chart.

    Solves Hess f + (f - shift)/r^2 g = 0; as a generalized-equation solution
    it carries a = 0, b = shift/r^2.
    """
    if not 1 <= axis <= m + 1:
        raise ValueError(f"axis must be in 1..{m + 1}")
    r2 = r * r

    def builder(coords):
        s = _sum_squares(coords)
        if axis == m + 1:
            f = r * (s - r2) / (r2 + s)
        else:
            f = 2.0 * r2 * coords[axis - 1] / (r2 + s)
        return f + shift if shift else f

    return StaticPotentialSpec(
        label=f"y_{axis}{f'+{shift:g}' if shift else ''} on S^{m}({r:g})",
        builder=builder,
        b=shift / r2,
    )


# -- Example-1 style assemblies -------------------------------------------------


def basicex_radii(n: int, k: int) -> tuple[float, float]:
    return math.sqrt(k / (n - 1)), math.sqrt((n - k - 2) / (n - 1))


def basicex_potential(n: int, k: int) -> StaticPotentialSpec:
    """cosh(t) times the x0 potential of the first hyperbolic factor."""
    r_k, _ = basicex_radii(n, k)
    fiber_factor = hyperbolic_static_potential(k, r_k).builder

    def fiber_builder(coords):
        return fiber_factor(coords[:k])

    def builder(coords):
        return coords[0].elem("cosh") * fiber_builder(coords[1:])

    return StaticPotentialSpec(
        label=f"cosh(t) f_{{{k},r_{k}}}",
        builder=builder,
        fiber=StaticPotentialSpec(label="fbar", builder=fiber_builder),
    )


def basicex_geometry(n: int, k: int) -> tuple[WarpedGeometry, StaticPotentialSpec]:
    if not (1 <= k <= n - 3):
        raise ValueError(f"basicex needs 1 <= k <= n-3, got n={n}, k={k}")
    r_k, s_k = basicex_radii(n, k)
    fiber = make_product_chart(make_hyperbolic_chart(k, r_k), make_hyperbolic_chart(n - k - 1, s_k))
    wg = build_warped_geometry((-1.2, 1.2), "cosh(t)", fiber)
    label = f"R x_cosh (H^{k}({r_k:.4g}) x H^{n - k - 1}({s_k:.4g})), n={n}"
    chart = replace(wg.chart, label=label, known_scalar=-n * (n - 1))
    return replace(wg, chart=chart), basicex_potential(n, k)

