"""Truncated multivariate Taylor (jet) arithmetic.

A jet stores the normalized Taylor coefficients d^a f / a! of a scalar
function at a base point, for all multi-indices a with |a| <= order.  With
that normalization, multiplication is a plain truncated convolution and the
whole layer reduces to index bookkeeping on flat numpy arrays.

The one jet type is :class:`JetTensor`: an ndarray of jets sharing one
:class:`JetSpace` (coefficient axis last).  A scalar jet is a JetTensor of
shape ``()``, so chart, field and DSL code runs the same arithmetic as the
curvature pipeline, where :func:`jt_einsum` fuses tensor contraction with
the Cauchy product so geometry code reads like ordinary einsum code.
Arithmetic between jets of different orders truncates to the lower one.

Multi-indices are ordered graded-lexicographically (total degree first).
Because that ordering is degree-graded, the coefficient array of a
lower-order jet is a prefix of the higher-order layout, which makes
truncation a slice.

The zero rule of :func:`jt_einsum`.  Diagonal and warped charts make most
entries of g^-1, Christoffel and Riemann jets that are exactly zero.  A
product at order >= 1 with at most two contracted letters skips every term
(output entry, contracted indices) with an all-zero operand jet.  It
numbers the entries by term count, most first, and gathers, multiplies and
sums only the other terms one rank block at a time from +0.0, each block
into a prefix of the entries; it segment-sums only the entries that have a
term, and the rest stay +0.0.  The bits are the dense path's where the
ranks follow einsum's order: einsum adds without FMA, a skipped term would
add +-0.0, which leaves a sum as it is, and ``np.add.reduceat`` sums each
entry on its own.  einsum sums a contracted letter that is the fastest
axis of both operands (the lane letter) innermost, in SIMD lanes, and
another one in order outside it.  So the dense path still runs for a
product below ``_ZERO_MIN_WORK`` multiply-adds; for one that would skip
less than ``_ZERO_MIN_SKIP`` of its terms, a cut-off by jet order and, at
order 1, by the number of contracted letters; for a lane letter alone with
more than two terms to an entry; for a lane letter and another with more
than one term to an (entry, other index), or that einsum may coalesce into
one lane axis; for two letters without a lane letter whose two nestings
would order an entry's terms unlike; for two letters in operands that
order their shared axes unlike in memory, which numpy 2.4 sums in an order
of its own; and for a NaN or inf operand, where 0 * inf must stay NaN
(gated by one sum of both operands, so finite ones whose sum overflows run
dense too).  A plan is built from the zero masks before the product's
first call, which then runs through it; it takes the dense output's layout
from the same product on two coefficient pairs.  It is kept on the jet
space by spec, operand layouts and zero masks: where the operands and the
output lead with the point axis p, by the per-point layouts and the union
of the points' masks (ORed over the points first, whole rows at a time,
then over the short coefficient axis), so that chunks of any number of
points share it.
"""

from __future__ import annotations

import math
from functools import lru_cache
import numpy as np

__all__ = [
    "JetTensor",
    "JetSpace",
    "JetDomainError",
    "JetShapeError",
    "jet_space",
    "jt_einsum",
]


class JetShapeError(ValueError):
    """Arithmetic between jets with mismatched (num_vars, order)."""


class JetDomainError(ValueError):
    """Elementary function evaluated outside its domain at the jet value."""


def _ranges(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, one run after another."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _multi_indices(num_vars: int, order: int) -> np.ndarray:
    """All multi-indices with |a| <= order, one per row, graded-lexicographic (first entries descending)."""
    alphas = np.zeros((1, 0), dtype=np.intp)
    for _ in range(num_vars):
        room = order + 1 - alphas.sum(axis=1)
        alphas = np.column_stack([np.repeat(alphas, room, axis=0), _ranges(room)])
    return alphas[np.lexsort(np.vstack([-alphas.T[::-1], alphas.sum(axis=1)]))]


class JetSpace:
    """Index tables for jets in ``num_vars`` variables up to ``order``.

    Instances are interned via :func:`jet_space`; everything on them is
    immutable after construction except lazily built lookup tables.
    """

    def __init__(self, num_vars: int, order: int):
        if num_vars < 1:
            raise ValueError(f"num_vars must be >= 1, got {num_vars}")
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        self.num_vars = num_vars
        self.order = order
        self._alphas = _multi_indices(num_vars, order)
        self.multi_indices = [tuple(alpha) for alpha in self._alphas.tolist()]
        self.index = {alpha: i for i, alpha in enumerate(self.multi_indices)}
        self.n_coeffs = len(self.multi_indices)
        self.factorials = np.array([float(math.factorial(k)) for k in range(order + 1)])[self._alphas].prod(axis=1)
        self._mul_table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._partials_table: tuple[np.ndarray, np.ndarray] | None = None
        self._embed_tables: dict[tuple[int, int, tuple[int, ...]], np.ndarray] = {}
        self._zero_plans: dict[tuple, tuple | bool] = {}  # jt_einsum's zero rule

    # -- lookup tables -------------------------------------------------

    def _slots(self, alphas: np.ndarray) -> np.ndarray:
        """The slot of each multi-index along the last axis of ``alphas`` (total degree <= order).

        Before a multi-index of degree d come the C(d - 1 + n, n) of lower
        degree, and at each entry a_i, with r the degree of the entries after
        it and k their count, the C(r - 1 + k, k) that agree before it and
        take more at it.
        """
        n = self.num_vars
        comb = np.array([[math.comb(m, k) for k in range(n + 1)] for m in range(self.order + n + 1)])
        rest = np.cumsum(alphas[..., :0:-1], axis=-1)[..., ::-1]  # degree after entry i, for i < n - 1
        k = np.arange(n - 1, 0, -1)
        degree = alphas.sum(axis=-1)
        ahead = np.where(rest > 0, comb[np.maximum(rest - 1 + k, 0), k], 0).sum(axis=-1)
        return np.where(degree > 0, comb[np.maximum(degree - 1 + n, 0), n], 0) + ahead

    @property
    def mul_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a_idx, b_idx, group_starts) for the truncated Cauchy product.

        Pairs are sorted by output slot, then by the slots of a and b, so a
        segmented sum (``np.add.reduceat``) finishes the convolution.
        """
        if self._mul_table is None:
            # the slots of degree <= order - |alpha| are a prefix, as the order is graded
            degree = self._alphas.sum(axis=1)
            count = np.searchsorted(degree, self.order - degree, side="right")
            a_idx, b_idx = np.repeat(np.arange(self.n_coeffs), count), _ranges(count)
            g_idx = self._slots(self._alphas[a_idx] + self._alphas[b_idx])
            by_out = np.argsort(g_idx, kind="stable")
            starts = np.searchsorted(g_idx[by_out], np.arange(self.n_coeffs))
            self._mul_table = (a_idx[by_out], b_idx[by_out], starts)
        return self._mul_table

    @property
    def partials_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(source slots, scales) mapping coefficients of f to those of all df/dx_i.

        Both arrays have shape (num_vars, lower.n_coeffs) for the space of
        one lower order: coeff(df/dx_i)[b] = coeff(f)[b + e_i] * (b_i + 1).
        """
        if self._partials_table is None:
            lower = jet_space(self.num_vars, self.order - 1)
            shifted = lower._alphas + np.eye(self.num_vars, dtype=np.intp)[:, None, :]
            self._partials_table = (self._slots(shifted), np.ascontiguousarray(lower._alphas.T + 1.0))
        return self._partials_table

    def embed_table(self, sub: "JetSpace", var_positions: tuple[int, ...]) -> np.ndarray:
        """Slot mapping that places a jet of ``sub`` into this space.

        ``var_positions[j]`` is the coordinate of this space carrying the
        j-th variable of ``sub``; all other partials are zero.
        """
        key = (sub.num_vars, sub.order, var_positions)
        if key not in self._embed_tables:
            full = np.zeros((sub.n_coeffs, self.num_vars), dtype=np.intp)
            full[:, list(var_positions)] = sub._alphas
            self._embed_tables[key] = self._slots(full)
        return self._embed_tables[key]

    def __repr__(self) -> str:
        return f"JetSpace(num_vars={self.num_vars}, order={self.order})"


@lru_cache(maxsize=None)
def jet_space(num_vars: int, order: int) -> JetSpace:
    return JetSpace(num_vars, order)


# -- raw-array kernels --------------------------------------------------


def _raw_mul(space: JetSpace, a: np.ndarray, b: np.ndarray, b_gathered: bool = False) -> np.ndarray:
    """The truncated Cauchy product; ``b_gathered`` says that ``b`` is already gathered over the pair table."""
    a_idx, b_idx, starts = space.mul_table
    prod = a[..., a_idx] * (b if b_gathered else b[..., b_idx])
    return np.add.reduceat(prod, starts, axis=-1)


def _raw_compose(space: JetSpace, series: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Compose a univariate power series with a jet (Horner form).

    ``series`` has shape (order+1, *slot_shape): series[j] is the j-th
    Taylor coefficient of the outer function at the jet's value part.  The
    Horner factor x - x0 is gathered over the pair table once, for all steps.
    """
    tilde = x.copy()
    tilde[..., 0] = 0.0
    tilde = tilde[..., space.mul_table[1]]
    out = np.zeros_like(x)
    out[..., 0] = series[space.order]
    for j in range(space.order - 1, -1, -1):
        out = _raw_mul(space, out, tilde, True)
        out[..., 0] += series[j]
    return out


def _series_cyclic(f, df, flip: bool, v: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients of f where f'' = -f (``flip``) or f'' = f: f and f' are evaluated once, and the
    derivatives past them are the two, or their exact negations, in turn."""
    fv, dfv = f(v), df(v)
    cycle = (fv, dfv, -fv, -dfv) if flip else (fv, dfv)
    factorials = np.array([math.factorial(j) for j in range(order + 1)], dtype=float)
    return np.stack([cycle[j % len(cycle)] for j in range(order + 1)]) / factorials.reshape((-1,) + (1,) * np.ndim(v))


def _check_positive(name: str, v: np.ndarray) -> None:
    values = np.asarray(v)
    bad = values <= 0
    if np.any(bad):
        raise JetDomainError(f"{name} requires a positive value part, got {float(values[bad][0])!r}")


def _elem_series(name: str, v: np.ndarray, order: int, exponent: float | None = None) -> np.ndarray:
    if name == "exp":
        e = np.exp(v)
        return np.stack([e / math.factorial(j) for j in range(order + 1)])
    if name == "log":
        _check_positive("log", v)
        coeffs = [np.log(v)]
        for j in range(1, order + 1):
            coeffs.append((-1.0) ** (j - 1) / (j * v**j))
        return np.stack(coeffs)
    if name == "sqrt":
        _check_positive("sqrt", v)
        coeffs = [np.sqrt(v)]
        c = 0.5
        for j in range(1, order + 1):
            coeffs.append(c * v ** (0.5 - j))
            c *= (0.5 - j) / (j + 1)
        return np.stack(coeffs)
    if name == "sin":
        return _series_cyclic(np.sin, np.cos, True, v, order)
    if name == "cos":
        return _series_cyclic(np.cos, lambda x: -np.sin(x), True, v, order)
    if name == "sinh":
        return _series_cyclic(np.sinh, np.cosh, False, v, order)
    if name == "cosh":
        return _series_cyclic(np.cosh, np.sinh, False, v, order)
    if name == "pow_const":
        if exponent is None:
            raise ValueError("pow_const requires an exponent")
        p = float(exponent)
        if not float(p).is_integer():
            _check_positive(f"pow_const({p})", v)
        elif p < 0 and np.any(np.asarray(v) == 0):
            raise JetDomainError(f"pow_const({p}) requires a nonzero value part")
        # the exponent stays a Python float: numpy's fast paths for a scalar
        # exponent (-1, 0.5, 2) round differently from np.power on an array
        coeffs = np.empty((order + 1,) + np.shape(v))
        c = 1.0
        with np.errstate(invalid="ignore"):
            for j in range(order + 1):
                coeffs[j] = 0.0 if c == 0.0 else c * v ** (p - j)
                c *= (p - j) / (j + 1)
        return coeffs
    raise ValueError(f"unknown elementary function {name!r}")


def _raw_elem(space: JetSpace, name: str, x: np.ndarray, exponent: float | None = None) -> np.ndarray:
    if name == "tan":
        return _raw_div(space, _raw_elem(space, "sin", x), _raw_elem(space, "cos", x), fn="tan")
    if name == "tanh":
        return _raw_div(space, _raw_elem(space, "sinh", x), _raw_elem(space, "cosh", x), fn="tanh")
    series = _elem_series(name, x[..., 0], space.order, exponent)
    return _raw_compose(space, series, x)


def _raw_div(space: JetSpace, a: np.ndarray, b: np.ndarray, fn: str | None = None) -> np.ndarray:
    v = b[..., 0]
    if np.any(v == 0.0):
        what = f"{fn} pole" if fn else "division by jet with zero value part"
        raise JetDomainError(what)
    series = _elem_series("pow_const", v, space.order, exponent=-1.0)
    return _raw_mul(space, a, _raw_compose(space, series, b))


# -- jet tensors ----------------------------------------------------------


class JetTensor:
    """An ndarray of jets sharing one space; coefficient axis last."""

    __slots__ = ("space", "data", "order", "_truncations")

    def __init__(self, space: JetSpace, data: np.ndarray):
        if data.shape[-1] != space.n_coeffs:
            raise JetShapeError(f"coefficient axis {data.shape[-1]} != space size {space.n_coeffs}")
        self.space = space
        self.data = data
        self.order = space.order
        self._truncations: dict[int, JetTensor] | None = None  # truncate's results, by order

    @staticmethod
    def const(space: JetSpace, values: np.ndarray | float) -> "JetTensor":
        values = np.asarray(values, dtype=float)
        data = np.zeros(values.shape + (space.n_coeffs,))
        data[..., 0] = values
        return JetTensor(space, data)

    @staticmethod
    def variable(i: int, value: float | np.ndarray, num_vars: int, order: int) -> "JetTensor":
        """The jets of the coordinate function x_i where it takes ``value``, one per entry of an array."""
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if not 0 <= i < num_vars:
            raise IndexError(f"variable index {i} out of range for {num_vars} variables")
        space = jet_space(num_vars, order)
        data = np.zeros(np.shape(value) + (space.n_coeffs,))
        data[..., 0] = value
        data[..., space.index[tuple(1 if j == i else 0 for j in range(num_vars))]] = 1.0
        return JetTensor(space, data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape[:-1]

    @property
    def value(self) -> np.ndarray:
        return self.data[..., 0].copy()

    def partial(self, alpha: tuple[int, ...]):
        """Raw partial derivative d^alpha f at the base point (coefficient times alpha!)."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.space.num_vars:
            raise JetShapeError(f"multi-index length {len(alpha)} != num_vars {self.space.num_vars}")
        if sum(alpha) > self.order:
            raise JetShapeError(f"|alpha| = {sum(alpha)} exceeds jet order {self.order}")
        i = self.space.index[alpha]
        return self.data[..., i] * self.space.factorials[i]

    def truncate(self, order: int) -> "JetTensor":
        """The jet to a lower ``order``: one copy per order, kept on this jet, as no code writes a jet's data."""
        if order == self.order:
            return self
        if order > self.order:
            raise JetShapeError(f"cannot extend order {self.order} to {order}")
        if self._truncations is None:
            self._truncations = {}
        if order not in self._truncations:
            lower = jet_space(self.space.num_vars, order)
            self._truncations[order] = JetTensor(lower, np.ascontiguousarray(self.data[..., : lower.n_coeffs]))
        return self._truncations[order]

    def partials(self) -> "JetTensor":
        """All first partials, as a new tensor axis appended before the jet axis."""
        if self.order < 1:
            raise JetShapeError(
                "insufficient jet order: cannot differentiate an order-0 jet"
            )
        lower = jet_space(self.space.num_vars, self.order - 1)
        src, fac = self.space.partials_table
        # np.take keeps the result C-contiguous, as data[..., src] does not:
        # np.einsum picks its inner kernel, and so its bits, by operand layout.
        return JetTensor(lower, np.take(self.data, src, axis=-1) * fac)

    def embed(self, target: JetSpace, var_positions: tuple[int, ...]) -> "JetTensor":
        """Re-express in a larger variable set (other partials vanish)."""
        tgt = target.embed_table(self.space, var_positions)
        data = np.zeros(self.shape + (target.n_coeffs,))
        data[..., tgt] = self.data
        return JetTensor(target, data)

    # arithmetic (auto-truncating to the lower order)

    def _align(self, other: "JetTensor") -> tuple["JetTensor", "JetTensor"]:
        if self.space is other.space:
            return self, other
        if self.space.num_vars != other.space.num_vars:
            raise JetShapeError("jet tensors with different variable counts")
        k = min(self.order, other.order)
        return self.truncate(k), other.truncate(k)

    def __add__(self, other):
        if isinstance(other, JetTensor):
            a, b = self._align(other)
            return JetTensor(a.space, a.data + b.data)
        return JetTensor(self.space, self.data + self._const_data(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, JetTensor):
            a, b = self._align(other)
            return JetTensor(a.space, a.data - b.data)
        return JetTensor(self.space, self.data - self._const_data(other))

    def __rsub__(self, other):
        return JetTensor(self.space, self._const_data(other) - self.data)

    def __neg__(self):
        return JetTensor(self.space, -self.data)

    def __mul__(self, other):
        if isinstance(other, JetTensor):
            a, b = self._align(other)
            return JetTensor(a.space, _raw_mul(a.space, a.data, b.data))
        return JetTensor(self.space, self.data * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, JetTensor):
            a, b = self._align(other)
            return JetTensor(a.space, _raw_div(a.space, a.data, b.data))
        return JetTensor(self.space, self.data / float(other))

    def __rtruediv__(self, other):
        return JetTensor(self.space, _raw_div(self.space, self._const_data(other), self.data))

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)) or (isinstance(p, float) and p.is_integer()):
            p = int(p)
            if p == 0:
                return JetTensor.const(self.space, np.ones(self.shape))
            if 0 < p <= 8:
                out = self
                for _ in range(p - 1):
                    out = out * self
                return out
        return self.elem("pow_const", exponent=float(p))

    def _const_data(self, other) -> np.ndarray:
        data = np.zeros_like(self.data)
        data[..., 0] = float(other)
        return data

    def elem(self, fn: str, exponent: float | None = None) -> "JetTensor":
        return JetTensor(self.space, _raw_elem(self.space, fn, self.data, exponent))

    def transpose(self, spec: str) -> "JetTensor":
        """Pure index permutation, e.g. 'lkij->lijk' (jet axis rides along)."""
        return JetTensor(self.space, self.data.transpose(_permutation(spec)))


def jt_einsum(spec: str, a: JetTensor, b: JetTensor) -> JetTensor:
    """Binary einsum whose scalar product is the truncated Cauchy product.

    ``spec`` uses ordinary einsum syntax over the tensor axes only, e.g.
    ``jt_einsum('kl,ikjl->ij', ginv, riem)``.  Terms with an all-zero
    operand jet are skipped by the zero rule of the module docstring.
    """
    a, b = a._align(b)
    space = a.space
    ad, bd = a.data, b.data
    if space.order == 0:
        # one coefficient, so one pair: the gather and the segmented sum would
        # only copy, and the gather keeps a transposed view's strides, so
        # np.einsum sees the same layout and sums in the same order
        return JetTensor(space, np.einsum(_jet_spec(spec), ad, bd))
    a_idx, b_idx, starts = space.mul_table
    letters, work = _zero_letters(spec, space, ad.shape[:-1], bd.shape[:-1])
    if work >= _ZERO_MIN_WORK:
        plan = _zero_plan(spec, letters, space, ad, bd)
        if plan and math.isfinite(ad.sum() + bd.sum()):
            return JetTensor(space, _zero_product(plan, ad, bd, starts))
    return JetTensor(space, np.add.reduceat(np.einsum(_jet_spec(spec), ad[..., a_idx], bd[..., b_idx]), starts, axis=-1))


# -- the zero rule of jt_einsum -------------------------------------------

# products below this many multiply-adds (entries of the full index space
# times coefficient pairs) stay dense: the masks and the plan lookup would
# cost more than the skipped terms
_ZERO_MIN_WORK = 10_000
# products that skip less than this share of their (output, contracted
# index) terms stay dense: a term through a plan costs more than in einsum.
# By jet order 1 or >= 2, then by up to one or two contracted letters: at
# order 1 einsum's lane sums over two letters cost more a term
_ZERO_MIN_SKIP = ((0.85, 0.75), (0.7, 0.7))
_ZERO_PLANS_MAX = 512  # per jet space


@lru_cache(maxsize=1024)
def _zero_letters(spec: str, space: JetSpace, shape_a: tuple, shape_b: tuple) -> tuple[tuple[str, ...], int]:
    """((sa, sb, out, contracted letters in sa's order), multiply-adds), or ((), -1) where the zero rule cannot hold."""
    lhs, so = spec.split("->")
    sa, sb = lhs.split(",")
    summed = "".join(x for x in sa if x in sb and x not in so)
    if len(set(sa)) < len(sa) or len(set(sb)) < len(sb) or len(summed) > 2 or set(sa + sb) - set(so) != set(summed):
        return (), -1
    extent = dict(zip(sa + sb, shape_a + shape_b))
    return (sa, sb, so, summed), math.prod(extent.values()) * len(space.mul_table[0])


def _zero_plan(spec: str, letters, space: JetSpace, ad: np.ndarray, bd: np.ndarray) -> tuple | bool:
    """The product's plan, built before its first call: for one point where the point axis p leads and is outermost."""
    sa, sb, so, _ = letters
    lead = int(sa[:1] == sb[:1] == so[:1] == "p" and all(d.strides[0] == max(d.strides) for d in (ad, bd)))
    nz_a, nz_b = (d.any(axis=0).any(axis=-1) if lead else d.any(axis=-1) for d in (ad, bd))
    key = (spec, ad.shape[lead:], ad.strides[lead:], bd.shape[lead:], bd.strides[lead:], nz_a.tobytes(), nz_b.tobytes())
    plan = space._zero_plans.get(key)
    if plan is None:
        if len(space._zero_plans) >= _ZERO_PLANS_MAX:
            space._zero_plans.clear()
        plan = space._zero_plans[key] = _build_plan(spec, letters, lead, space, nz_a, nz_b, ad, bd)
    return plan


def _build_plan(spec, letters, lead, space, nz_a, nz_b, ad, bd) -> tuple | bool:
    """Index tables of a product's nonzero terms for one point (or the whole product), or False where it stays dense.

    Terms are (output entry, contracted indices) with both operand jets
    nonzero.  They are grouped by rank, the term's place in its entry's sum,
    so that the sums run in einsum's order: the contracted indices ascending,
    a lane letter last.  Entries are numbered by term count, most first, so
    the entries of each rank block are a prefix of the rank-0 block.
    """
    (sa, sb, so), c = (x[lead:] for x in letters[:3]), letters[3]
    pa, pb = (ad[0], bd[0]) if lead else (ad, bd)
    # einsum sums a letter that is the fastest axis of both gathered operands
    # (a gather keeps its source's axis order) innermost, in SIMD lanes
    fast_a, fast_b = ([x for _, x in sorted((s, x) for x, s, e in zip(ls, d.strides, d.shape) if e > 1)]
                      for ls, d in ((sa, pa), (sb, pb)))
    lane = next(iter(set(fast_a[:1]) & set(fast_b[:1]) & set(c)), "")
    c = c.replace(lane, "") + lane
    if len(c) == 2 and ([x for x in fast_a if x in fast_b] != [x for x in fast_b if x in fast_a]
                        or (lane and fast_a[1:2] == fast_b[1:2] == [c[0]])):
        # where the operands order their shared axes unlike in memory, numpy
        # 2.4 sums the two letters in an order of its own, and it coalesces a
        # lane letter with the other where that is next in both operands
        return False
    terms = np.einsum(f"{sa},{sb}->{so}{c}", nz_a, nz_b)
    n = np.count_nonzero(terms)
    if n > (1.0 - _ZERO_MIN_SKIP[min(space.order, 2) - 1][len(c) == 2]) * terms.size:
        return False
    # the dense output's layout, taken from the same product on two coefficient pairs
    a_idx, b_idx, starts = space.mul_table
    probe = np.add.reduceat(np.einsum(_jet_spec(spec), ad[..., a_idx[:2]], bd[..., b_idx[:2]]), starts[:2], axis=-1)
    perm = np.argsort([-s for s in probe.strides[lead:]], kind="stable")
    if perm[-1] != len(so) or (lead and probe.strides[0] < max(probe.strides)):
        return False
    at = dict(zip(so + c, np.nonzero(np.atleast_1d(terms))))

    def rows(letters, shape):
        return np.ravel_multi_index([at[x] for x in letters], shape) if letters else np.zeros(n, dtype=np.intp)

    entry = rows(so, terms.shape[: len(so)])
    first = np.ones(n, dtype=bool)
    first[1:] = entry[1:] != entry[:-1]
    group = np.cumsum(first) - 1
    rank = np.arange(n) - np.flatnonzero(first)[group]
    if len(c) == 2:
        # with a lane letter einsum sums it from 0.0 for each index of the
        # other letter, in order, and adds that sum: one term to a lane sum;
        # without one it adds term by term, the letters nested as the
        # operands order them: both nestings must order an entry's terms alike
        outer, inner = at[c[0]], at[c[1]]
        clash = outer[1:] == outer[:-1] if lane else inner[1:] < inner[:-1]
        if (clash & ~first[1:]).any():
            return False
    elif lane and n and rank.max() > 1:
        # a lane sum equals an ordered sum only for at most two terms
        return False
    by_count = np.argsort(np.argsort(-np.bincount(group), kind="stable"))  # each entry's number, most terms first
    order = np.lexsort((by_count[group], rank))
    bounds = np.cumsum(np.bincount(rank, minlength=1))  # bounds[0]: entries with a term, each with its rank-0 term
    ia = rows(sa, pa.shape[:-1])[order, None] * space.n_coeffs + a_idx
    ib = rows(sb, pb.shape[:-1])[order, None] * space.n_coeffs + b_idx
    # the output in the dense path's memory order, coefficient axis last
    shape = tuple(np.take(terms.shape[: len(so)] + (space.n_coeffs,), perm))
    out_rows = rows([so[i] for i in perm[:-1]], shape[:-1])[order[: bounds[0]]]
    return lead, ia, ib, bounds, out_rows, shape, (0, *(1 + np.argsort(perm)))


def _zero_product(plan, ad: np.ndarray, bd: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Gather, multiply and sum a plan's terms one rank block at a time from +0.0, point by point, each block into
    a prefix of the entries; the other entries stay +0.0."""
    lead, ia, ib, bounds, out_rows, shape, axes = plan
    points = len(ad) if lead else 1
    ad, bd = ad.reshape(points, -1), bd.reshape(points, -1)

    def block(lo, hi):
        return np.take(ad, ia[lo:hi], axis=1) * np.take(bd, ib[lo:hi], axis=1)

    acc = block(0, bounds[0])
    acc += 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        acc[:, : hi - lo] += block(lo, hi)
    buf = np.zeros((points, math.prod(shape[:-1]), shape[-1]))
    buf[:, out_rows] = np.add.reduceat(acc, starts, axis=-1)
    out = buf.reshape(points, *shape).transpose(axes)
    return out if lead else out[0]


@lru_cache(maxsize=None)
def _jet_spec(spec: str) -> str:
    """``spec`` with the coefficient-pair axis z appended to every operand."""
    lhs, rhs = spec.split("->")
    sa, sb = lhs.split(",")
    return f"{sa}z,{sb}z->{rhs}z"


@lru_cache(maxsize=None)
def _permutation(spec: str) -> tuple[int, ...]:
    """The axes of ``ndarray.transpose`` for an index permutation like 'lkij->lijk', jet axis last."""
    lhs, rhs = spec.split("->")
    return tuple(lhs.index(c) for c in rhs) + (len(lhs),)
