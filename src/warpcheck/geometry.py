"""Curvature of a metric chart via jet arithmetic.

Everything downstream of the metric (Christoffel symbols, Riemann, Ricci,
scalar, Schouten, trace-free Ricci, Weyl, Cotton, Cotton divergence) is
computed as jet-valued tensors at a point, so covariant derivatives of
any computed field are one :meth:`CurvatureBundle.covariant_derivative`
call away.  Index conventions:

* ``R^l_{ijk} d_l = R(d_j, d_k) d_i`` and ``R_ijkl = g_is R^s_jkl`` --
  hence ``R_ijkl`` is antisymmetric in (i,j) and (k,l) and symmetric under
  swapping the pairs, and a constant-curvature metric has
  ``R = (kappa/2) (g KN g)``.
* ``Ric_ij = g^kl R_ikjl``, ``A = Ric - R/(2(n-1)) g``,
  ``C_ijk = A_{ij,k} - A_{ik,j}``, ``Xi_ik = C_{ijk,j}``.
* Comma derivatives append the derivative index last, so
  ``T_{ij,k}`` is ``cov(T)[i, j, k]``.

Order rule: a jet product is formed only up to the order its result keeps
(Riemann's quadratic term, each covariant derivative, the k-th Neumann
term of the inverse metric at order k).  The metric is built only to
the order the checks read, which may be below that of the fields, with
every zero coefficient made +0.0 (a composed function's Horner loop signs
some zeros differently at different orders); a contraction of a field
with curvature keeps the lower of the two orders.
The inverse metric stops one order below the metric: everything it is
contracted with is built from a derivative of the metric or of a field,
so has at most that order.  No bit moves: the graded-lex layout makes a
lower order's coefficients, product pairs and sums a prefix of the higher
order's, and a factor with zero value part (``g - g0``) meets the dropped
top-order coefficients only through products equal to 0.0.
A jet that no code differentiates again is formed at order 0, without
exception: the Hessian (from ``f`` truncated to order 2), L*, E, W, and
in the analyses div P and every product whose only reader is its value.  One order-0 operand makes a whole
product order 0, as arithmetic aligns to the lower order, and its value is
the full product's, bit for bit, by the same prefix property.  An order-0
product is one ``np.einsum`` of the values.

Batch rule: chart, potential and field builders run once for many sample
points (:class:`ChartBatch`), on coordinate jets with a leading point axis,
and so does the inverse metric (Cholesky factor, cond, g0^-1, frame and the
Neumann series).  Everything read from them runs once for each chunk of
consecutive points of a batch (:class:`_Chain`, of :func:`chain_points` points),
with the point axis p prefixed to every spec: the curvature chain from the
Christoffel symbols to the Cotton divergence; dR, E and W; the Hessian, Laplacian and
L*; the analyses of :mod:`statics` and :mod:`conformal`; and the frame
norms, one ``matmul`` per frame of the stack and one BLAS dot per point.
A lone :class:`CurvatureBundle` is the one row of its own chunk.
A row is, bit for bit and stride for stride, the value formed at that
point alone: jet arithmetic acts on each row alone, numpy's linalg runs one
LAPACK call per matrix of a stack, and the point axis is the outermost of
every operand and result, so numpy runs each point's inner loops as at that
point alone, and the zero rule's plan sums each entry in the dense order.
A formation of the batch that raises a point error (:class:`JetDomainError`
or :class:`SingularMetricError`) is formed again for each chunk; a chunk
that raises is formed again as chunks of one point, each of which raises
its own error (``PointScratch.split`` of :mod:`checks`).  A chunk or
point that raised raises the same error again without forming it again
(:meth:`ChartBatch.formed`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .jets import JetDomainError, JetShapeError, JetSpace, JetTensor, jet_space, jt_einsum
from .residuals import Residual
from .sampling import halton_points
from .tensors import tensor_norm_sq

__all__ = [
    "MetricChart", "ChartBatch", "CurvatureBundle", "SingularMetricError", "POINT_ERRORS", "kulkarni_nomizu_jets"
]

COND_LIMIT = 1e12
# Riemann coefficients in a chunk of a ChartBatch at most: dims 4-5 run whole batches to metric order 3, and
# dim 6 chunks of 8, where whole batches of 64 raise an order-4 suite's peak memory from 58 to 198 MB
CHUNK_COEFFS = 2**17


def chain_points(dim: int, metric_order: int, points: int) -> int:
    """Points per chunk of a batch of ``points``: the largest power of two whose chunk holds at most CHUNK_COEFFS
    coefficients of Riemann's jet, the chain's widest (dim^4 entries at order metric_order - 2), at least 8 and at
    most the batch.  A larger chunk pays the per-call overhead of the chain and the analyses fewer times."""
    per_point = dim**4 * math.comb(dim + metric_order - 2, dim)
    return min(1 << max((CHUNK_COEFFS // per_point).bit_length() - 1, 3), points)


class SingularMetricError(ValueError):
    """Metric matrix not usably positive definite at the requested point."""


# errors confined to the sample point where they arise
POINT_ERRORS = (JetDomainError, SingularMetricError)


MetricBuilder = Callable[[Sequence[JetTensor]], Sequence[Sequence[JetTensor | float]]]


@dataclass(frozen=True)
class MetricChart:
    """A coordinate chart with jet-evaluable metric components.

    ``builder`` maps the coordinate jets (one scalar ``JetTensor`` per
    coordinate, all in one space) to the n x n matrix of metric component
    jets; plain numbers are accepted for constant components.  Every
    component jet must live in that one space.
    """

    dim: int
    label: str
    builder: MetricBuilder
    box: tuple[np.ndarray, np.ndarray]
    exclude: Callable[[np.ndarray], bool] | None = None
    known_scalar: float | None = None

    def coordinate_jets(self, point: np.ndarray, order: int) -> list[JetTensor]:
        """The coordinate jets at a point of shape (dim,), or at each row of a (P, dim) batch."""
        point = np.asarray(point, dtype=float)
        if point.shape[-1:] != (self.dim,):
            raise ValueError(f"point has shape {point.shape}, chart dim is {self.dim}")
        return [JetTensor.variable(i, point[..., i], self.dim, order) for i in range(self.dim)]

    def metric_jets(self, point: np.ndarray, order: int) -> JetTensor:
        coords = self.coordinate_jets(point, order)
        entries = [entry for row in self.builder(coords) for entry in row]
        return _stack_entries(coords[0].space, coords[0].shape, (self.dim, self.dim), entries)

    def contains(self, point: np.ndarray) -> bool:
        lo, hi = self.box
        point = np.asarray(point, dtype=float)
        if np.any(point < lo) or np.any(point > hi):
            return False
        return not (self.exclude is not None and self.exclude(point))

    def sample_points(self, count: int, offset: int = 0) -> np.ndarray:
        """Low-discrepancy (Halton) points inside the box, exclusion applied."""
        lo, hi = self.box
        out = []
        index = offset
        while len(out) < count:
            batch = halton_points(self.dim, count, index)
            index += count
            for u in batch:
                p = lo + u * (hi - lo)
                if self.contains(p):
                    out.append(p)
                    if len(out) == count:
                        break
        return np.array(out)


def _stack_entries(space: JetSpace, batch: tuple[int, ...], shape: tuple[int, ...], entries: list) -> JetTensor:
    """A builder's jets and plain numbers (constants), in C order, as one jet tensor of ``batch + shape``.

    A jet of shape () is broadcast across the batch.  It lives in the first entry's space (``space`` if that
    is a number), which every jet entry must share.
    """
    if isinstance(entries[0], JetTensor):
        space = entries[0].space
    data = np.zeros(batch + shape + (space.n_coeffs,))
    flat = data.reshape(batch + (-1, space.n_coeffs))
    for k, entry in enumerate(entries):
        if not isinstance(entry, JetTensor):
            flat[..., k, 0] = float(entry)
        elif entry.space is space:
            flat[..., k, :] = entry.data
        else:
            raise JetShapeError("all jets in a JetTensor must share one space")
    return JetTensor(space, data)


class ChartBatch:
    """One chart's metric, inverse metric and field jets at the rows of a (P, dim) array of points.

    Each is formed once, with a leading point axis, on the first request from any chunk (:meth:`chunks`), which
    reads its rows as views.  Where that raised a point error, each chunk forms it at its own rows.
    """

    def __init__(self, chart: MetricChart, points: np.ndarray, order: int, metric_order: int | None = None):
        self.chart = chart
        self.points = np.asarray(points, dtype=float)
        self.order = order
        self.metric_order = order if metric_order is None else metric_order
        self._formed: dict = {}
        self._errors: dict = {}  # the point errors of build(rows), by (key, rows.start, rows.stop)

    def chunks(self, size: int) -> list[_Chain]:
        """The consecutive chunks of ``size`` points, the last one short if need be."""
        n = len(self.points)
        return [_Chain(self, slice(k, min(k + size, n))) for k in range(0, n, size)]

    def formed(self, key, build: Callable[[slice], Any], rows: slice):
        """``build(rows)``: the rows of ``build`` at every point, formed on the first request for ``key``, or, where
        that raised a point error, ``build`` at ``rows`` alone, which raises its point error again where it raised
        one.  A value is a jet, an array or a tuple of them."""
        if key not in self._formed:
            try:
                self._formed[key] = build(slice(None))
            except POINT_ERRORS as exc:
                self._formed[key] = None
                self._errors[key, 0, len(self.points)] = exc  # a chunk of the whole batch is that formation
        whole = self._formed[key]
        if whole is not None:
            return _rows(whole, rows)
        at = key, rows.start, rows.stop
        if at in self._errors:
            raise self._errors[at].with_traceback(None)
        try:
            return build(rows)
        except POINT_ERRORS as exc:
            self._errors[at] = exc
            raise

    def metric(self, rows: slice) -> JetTensor:
        # + 0.0: a function composed at a zero argument (cos at phase 0, say)
        # signs some zero coefficients differently at different orders
        return self.chart.metric_jets(self.points[rows], self.metric_order) + 0.0

    def inverse(self, rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray, JetTensor]:
        try:
            return _inverse_metric(self.formed("g", self.metric, rows))
        except SingularMetricError as exc:  # the text of a point only for its error: numpy's repr is slow
            points = self.points[rows]
            where = f"at {points[0]} on {self.chart.label!r}" if len(points) == 1 else "in a batch"
            raise SingularMetricError(f"{exc} {where}") from None

    def field(self, builder, shape: tuple[int, ...], rows: slice) -> JetTensor:
        """A scalar (``shape`` ()) or vector (``shape`` (dim,)) field at ``rows``."""
        coords = self.chart.coordinate_jets(self.points[rows], self.order)
        comps = list(builder(coords)) if shape else [builder(coords)]
        if shape and len(comps) != shape[0]:
            raise ValueError(f"vector field has {len(comps)} components, chart dim {shape[0]}")
        return _stack_entries(jet_space(self.chart.dim, self.order), coords[0].shape, shape, comps)


def _rows(value, rows: slice | int):
    """Views of the rows (or of one row) of a jet, an array or a tuple of them."""
    if isinstance(value, tuple):
        return tuple(_rows(v, rows) for v in value)
    return JetTensor(value.space, value.data[rows]) if isinstance(value, JetTensor) else value[rows]


def _inverse_metric(g: JetTensor) -> tuple[np.ndarray, np.ndarray, np.ndarray, JetTensor]:
    """(g0^-1, L, L^-1, g^-1) at each point of a (P, n, n) batch of metric jets, g0 = L L^T, with g^-1 to order
    ``g.order - 1``, the highest any contraction keeps.  A g0 that is not finite, not positive definite or has
    cond(g0) > COND_LIMIT raises :class:`SingularMetricError`, which :meth:`ChartBatch.inverse` tells where."""
    g0 = g.value
    if not np.isfinite(g0).all():
        raise SingularMetricError("metric not finite")
    try:
        chol = np.linalg.cholesky(g0)
    except np.linalg.LinAlgError:
        raise SingularMetricError("metric not positive definite") from None
    if np.any(np.linalg.cond(g0) > COND_LIMIT):
        raise SingularMetricError(f"singular metric (cond > {COND_LIMIT:g})")
    # Neumann series: with g = g0 + N, inverse = sum_j (-G0 N)^j G0,
    # exact at jet order k after k terms because N has no value part, so
    # term k runs at order k on the previous one zero-padded.
    ginv0 = np.linalg.inv(g0)
    n_mat = g - JetTensor.const(g.space, g0)
    dim = g.space.num_vars
    x = JetTensor.const(jet_space(dim, 0), ginv0)
    for k in range(1, g.order):
        space = jet_space(dim, k)
        prod = jt_einsum("pij,pjk->pik", n_mat, x.embed(space, tuple(range(dim))))
        x = JetTensor.const(space, ginv0) - JetTensor(space, np.einsum("pij,pjkz->pikz", ginv0, prod.data))
    return ginv0, chol, np.linalg.inv(chol), x


def covariant_derivative(gamma: JetTensor, t: JetTensor, variance: tuple[str, ...], prefix: str = "") -> JetTensor:
    """One covariant derivative of ``t`` by the Christoffel symbols ``gamma``; the new (covariant) index goes last.

    ``prefix`` names leading axes that both carry unchanged (the chain's point axis ``p``).  The order is the
    lower of ``t``'s less one and the connection's, so a field of a higher order than the metric loses what
    cannot be kept.
    """
    rank = len(variance)
    if t.data.ndim - 1 - len(prefix) != rank:
        raise ValueError(f"tensor rank {t.data.ndim - 1 - len(prefix)} != variance length {rank}")
    out = t.truncate(min(t.order, gamma.order + 1)).partials()
    t, gamma = t.truncate(out.order), gamma.truncate(out.order)
    letters = "abcdefgh"[:rank]
    for pos, flag in enumerate(variance):
        tsub = prefix + letters[:pos] + "s" + letters[pos + 1 :]
        if flag == "l":
            out = out - jt_einsum(f"{prefix}si{letters[pos]},{tsub}->{prefix}{letters}i", gamma, t)
        else:
            out = out + jt_einsum(f"{prefix}{letters[pos]}is,{tsub}->{prefix}{letters}i", gamma, t)
    return out


def _need_dim(dim: int, minimum: int, what: str) -> None:
    if dim < minimum:
        raise ValueError(f"{what} requires dim >= {minimum}, chart has dim {dim}")


def _row_of(name: str) -> cached_property:
    """A bundle's jet ``name``: a view of its row of its chunk's (see :meth:`CurvatureBundle.read`)."""
    get = lambda bundle: bundle.read(operator.attrgetter(name))  # noqa: E731
    get.__name__ = name
    return cached_property(get)


class CurvatureBundle:
    """All curvature data of one chart at one point, as jets: the one row of its own chunk (:class:`_Chain`), read
    as views.

    ``order`` is the jet order of the coordinates and of every field
    evaluated on them (``space``).  ``metric_order`` (default ``order``) is
    that of the metric, from which the whole curvature chain is built, and
    may not exceed ``order``: 2 suffices for Riemann/Ricci/scalar, 3 adds
    the Cotton tensor, 4 the Cotton divergence.  A field may need the
    higher order: L* phi differentiates phi = div(xi)/n twice, and the
    sphere-gradient field loses one order in its builder.  The operators
    act on jets at the point, and a chunk's on jets with its point axis.
    """

    prefix = ""  # the axes that every spec of the operators below carries first

    def __init__(self, chart: MetricChart, point: np.ndarray, order: int = 3, metric_order: int | None = None):
        self.chart = chart
        self.point = np.asarray(point, dtype=float)
        self.order = order
        self.metric_order = order if metric_order is None else metric_order
        self.dim = chart.dim
        self.space = jet_space(chart.dim, order)

    @cached_property
    def _chain(self) -> _Chain:
        """The point's own chunk, of this one point."""
        return ChartBatch(self.chart, self.point[None], self.order, self.metric_order).chunks(1)[0]

    def read(self, get: Callable[[_Chain], Any]):
        """This point's row of ``get`` of its chunk, as views."""
        return _rows(get(self._chain), 0)

    # -- metric ----------------------------------------------------------

    g = _row_of("g")
    g0 = _row_of("g0")
    ginv0 = _row_of("ginv0")
    frame = _row_of("frame")
    ginv = _row_of("ginv")

    # -- connection and curvature ----------------------------------------

    gamma = _row_of("gamma")
    riemann13 = _row_of("riemann13")
    riemann4 = _row_of("riemann4")
    ric = _row_of("ric")
    scalar_jet = _row_of("scalar_jet")
    scalar_jet_times_g = _row_of("scalar_jet_times_g")
    schouten = _row_of("schouten")
    cotton = _row_of("cotton")
    cotton_divergence = _row_of("cotton_divergence")
    dscalar = _row_of("dscalar")
    efield = _row_of("efield")
    weyl = _row_of("weyl")

    @property
    def scalar(self) -> float:
        return float(self.scalar_jet.value)

    # -- field evaluation --------------------------------------------------

    def scalar_field(self, builder) -> JetTensor:
        """Evaluate a scalar field builder at this point as a jet."""
        return self.read(lambda chain: chain.scalar_field(builder))

    def vector_field(self, builder) -> JetTensor:
        """Evaluate a vector field builder; components are contravariant."""
        return self.read(lambda chain: chain.vector_field(builder))

    # -- derived operators -------------------------------------------------

    def covariant_derivative(self, t: JetTensor, variance: tuple[str, ...]) -> JetTensor:
        """One covariant derivative (see :func:`covariant_derivative`)."""
        return covariant_derivative(self.gamma, t, variance, self.prefix)

    # The scalar operators below take what the caller of a scalar f holds
    # (its Hessian, its Laplacian), so each is formed once per scalar.

    def hessian(self, f: JetTensor) -> JetTensor:
        """Hess f (0,2) of a scalar-shaped f at order 0; symmetric up to round-off."""
        return self.covariant_derivative(f.truncate(2).partials(), ("l",))

    def laplacian(self, hess: JetTensor) -> JetTensor:
        """Lap f = g^ij Hess_ij f, from the Hessian of f."""
        p = self.prefix
        return jt_einsum(f"{p}ij,{p}ij->{p}", self.ginv, hess)

    def lstar(self, f: JetTensor, hess: JetTensor, lap: JetTensor) -> JetTensor:
        """Formal adjoint of the linearized scalar curvature: Hess f - (Lap f) g - f Ric."""
        p = self.prefix
        spec = f"{p},{p}ij->{p}ij"
        return hess - jt_einsum(spec, lap, self.g) - jt_einsum(spec, f.truncate(hess.order), self.ric)

    def norm(self, components: np.ndarray, variance: tuple[str, ...]):
        """g-norm of tensor components, one variance flag ("l" or "u") per index; a chunk's, one per point."""
        return np.sqrt(self.norm_sq(components, variance))

    def norm_sq(self, components: np.ndarray, variance: tuple[str, ...]):
        return tensor_norm_sq(components, variance, *self.frame)

    def defect(self, lhs: np.ndarray, rhs: np.ndarray, variance: tuple[str, ...]) -> Residual:
        """The residual of the identity lhs = rhs, on the scale of both sides."""
        return Residual(self.norm(lhs - rhs, variance), self.norm(lhs, variance) + self.norm(rhs, variance))


class _Chain(CurvatureBundle):
    """The curvature of a chunk: the consecutive points ``rows`` of a batch (see the Batch rule).

    Every jet has a leading point axis p, and every spec is the one at a point with p prefixed to each operand
    and to the output; the docstrings name the axes at one point.  The metric, its inverse and the fields are
    the chunk's rows of the batch's, and the operators are the bundle's, on the point axis.
    """

    prefix = "p"

    def __init__(self, batch: ChartBatch, rows: slice):
        self.batch, self.rows = batch, rows
        self.points = batch.points[rows]
        self.dim = batch.chart.dim
        self.space = jet_space(self.dim, batch.order)

    def alone(self, row: int) -> _Chain:
        """The chunk of the point ``row`` alone."""
        start = self.rows.start + row
        return _Chain(self.batch, slice(start, start + 1))

    @cached_property
    def g(self) -> JetTensor:
        return self.batch.formed("g", self.batch.metric, self.rows)

    @cached_property
    def g0(self) -> np.ndarray:
        return self.g.value

    @cached_property
    def _inverse(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, JetTensor]:
        return self.batch.formed("inverse", self.batch.inverse, self.rows)

    @cached_property
    def ginv0(self) -> np.ndarray:
        """The inverse of g0; a metric that is not finite or not usably positive definite raises here."""
        return self._inverse[0]

    @cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        """(L^T, L^-1) with g0 = L L^T: they take a contravariant and a covariant index to an orthonormal frame."""
        _, chol, chol_inv, _ = self._inverse
        return chol.transpose(0, 2, 1), chol_inv

    @cached_property
    def ginv(self) -> JetTensor:
        """Inverse metric jets to order ``metric_order - 1``, the highest any contraction keeps."""
        return self._inverse[3]

    def scalar_field(self, builder) -> JetTensor:
        return self.batch.formed(builder, lambda rows: self.batch.field(builder, (), rows), self.rows)

    def vector_field(self, builder) -> JetTensor:
        return self.batch.formed(builder, lambda rows: self.batch.field(builder, (self.dim,), rows), self.rows)

    @cached_property
    def gamma(self) -> JetTensor:
        """Christoffel symbols, axes (k, i, j) for Gamma^k_ij."""
        dg = self.g.partials()  # (p, i, j, deriv)
        # d_i g_jl + d_j g_il - d_l g_ij, laid out as (p, i, j, l)
        sym = dg.transpose("pjli->pijl") + dg.transpose("pilj->pijl") - dg
        return jt_einsum("pkl,pijl->pkij", self.ginv, sym) * 0.5

    @cached_property
    def riemann13(self) -> JetTensor:
        """R^l_{ijk}, axes (l, i, j, k)."""
        dgamma = self.gamma.partials()  # (p, upper, low1, low2, deriv)
        gamma = self.gamma.truncate(dgamma.order)
        term = dgamma.transpose("plkij->plijk") - dgamma.transpose("pljik->plijk")  # a fresh array: sum into it
        # Gamma^m_ki Gamma^l_jm; the term Gamma^m_ji Gamma^l_km is it with j, k swapped
        quad = jt_einsum("pmki,pljm->plijk", gamma, gamma)
        term.data += quad.data
        term.data -= quad.transpose("plijk->plikj").data
        return term

    @property
    def riemann4(self) -> JetTensor:
        """R_ijkl = g_is R^s_jkl, formed where read and not kept: the scalar survey holds every chunk's chain of a
        batch until its checks run.  Only Ricci reads it; W forms its own order-0 part."""
        return jt_einsum("pis,psjkl->pijkl", self.g, self.riemann13)

    @cached_property
    def ric(self) -> JetTensor:
        """Ric_ij = g^kl R_ikjl."""
        return jt_einsum("pkl,pikjl->pij", self.ginv, self.riemann4)

    @cached_property
    def scalar_jet(self) -> JetTensor:
        """R = g^ij Ric_ij."""
        return jt_einsum("pij,pij->p", self.ginv, self.ric)

    @cached_property
    def scalar_jet_times_g(self) -> JetTensor:
        """R g_ij."""
        return jt_einsum("p,pij->pij", self.scalar_jet, self.g)

    @cached_property
    def schouten(self) -> JetTensor:
        """A = Ric - R/(2(n-1)) g."""
        _need_dim(self.dim, 3, "Schouten tensor")
        return self.ric - self.scalar_jet_times_g / (2.0 * (self.dim - 1))

    @cached_property
    def cotton(self) -> JetTensor:
        """C_ijk = A_{ij,k} - A_{ik,j}."""
        _need_dim(self.dim, 3, "Cotton tensor")
        da = self.covariant_derivative(self.schouten, ("l", "l"))
        return da - da.transpose("pijk->pikj")

    @cached_property
    def cotton_divergence(self) -> JetTensor:
        """Xi_ik = C_{ijk,j} (divergence over the middle slot)."""
        dc = self.covariant_derivative(self.cotton, ("l", "l", "l"))
        return jt_einsum("pjl,pijkl->pik", self.ginv, dc)

    @cached_property
    def dscalar(self) -> JetTensor:
        """dR, covariant."""
        return self.scalar_jet.partials()

    @cached_property
    def efield(self) -> JetTensor:
        """Trace-free Ricci E_ij = Ric_ij - (R/n) g_ij, at order 0."""
        return self.ric.truncate(0) - self.scalar_jet_times_g / float(self.dim)

    @cached_property
    def weyl(self) -> JetTensor:
        """The Weyl tensor, at order 0."""
        _need_dim(self.dim, 3, "Weyl tensor")
        # R_ijkl at order 0 has the full-order bits: einsum sums s in order, as s is not last in both operands
        r0 = jt_einsum("pis,psjkl->pijkl", self.g.truncate(0), self.riemann13)
        return r0 - kulkarni_nomizu_jets(self.schouten.truncate(0), self.g, "p") / (self.dim - 2.0)


def kulkarni_nomizu_jets(u: JetTensor, v: JetTensor, prefix: str = "") -> JetTensor:
    """(U KN V)_ijkl = U_ik V_jl + U_jl V_ik - U_il V_jk - U_jk V_il, on leading axes ``prefix`` that both carry."""
    p = prefix
    t1 = jt_einsum(f"{p}ik,{p}jl->{p}ijkl", u, v)
    t2 = jt_einsum(f"{p}il,{p}jk->{p}ijkl", u, v)
    swap = f"{p}ijkl->{p}jilk"
    return t1 + t1.transpose(swap) - t2 - t2.transpose(swap)

