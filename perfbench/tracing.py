"""Span tracing of warpcheck's layers, installed from outside the package.

Every hook wraps a public call of one layer where it is looked up: a name
imported into another module (``jt_einsum`` in ``geometry``, ``statics`` and
``conformal``; the warped helpers in ``checks``; ``eval_expr`` in
``statics``) is patched in that module as well as in its home module, and
cached properties are rebuilt around the wrapped function with
``__set_name__``.  Hooks whose target no longer exists are skipped and
listed in ``Tracer.missing``.

A span records its name, start, end and parent.  A call into a layer from
inside the same layer (``eval_expr`` recursing, a product chart's builder
calling its factors' builders) opens no new span, so ``calls`` counts
entries into a layer.  A layer's self time is the time of its spans minus
the time of their child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MISSING = object()


class Patcher:
    """Replaces attributes and dict items, and puts the originals back."""

    def __init__(self):
        self._undo: list = []

    def setattr(self, target, name: str, value) -> None:
        holder = target.__dict__ if isinstance(target, type) else vars(target)
        self._undo.append((target, name, holder.get(name, _MISSING), False))
        setattr(target, name, value)

    def setitem(self, mapping: dict, key, value) -> None:
        self._undo.append((mapping, key, mapping.get(key, _MISSING), True))
        mapping[key] = value

    def restore(self) -> None:
        while self._undo:
            target, name, old, is_item = self._undo.pop()
            if is_item:
                target[name] = old
            elif old is _MISSING:
                delattr(target, name)
            else:
                setattr(target, name, old)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


@dataclass
class PassTrace:
    """Per-layer totals of one traced pass."""

    calls: dict[str, int]
    self_s: dict[str, float]
    counts: dict[str, float]
    bundles_by_label: dict[str, int]
    spans: dict[str, np.ndarray]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.stack: list[int] = []
        self.stack_names: list[int] = []
        self.counts: Counter = Counter()
        self.bundles_by_label: Counter = Counter()
        self.label = ""
        self.missing: list[str] = []
        self._einsum_cost: dict = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, stack_names = self.stack, self.stack_names
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack_names and stack_names[-1] == nid:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            stack_names.append(nid)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                stack_names.pop()

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def einsum_counted(self, fn):
        """Adds the exact flop and byte counts of each ``jt_einsum`` call.

        For ``spec`` over tensor axes with P coefficient pairs in the
        ``mul_table`` of the common (lower-order) jet space and N
        coefficients: the pair products take prod(all extents) * P
        multiplications and (prod(all) - prod(out)) * P additions, and the
        segmented sum prod(out) * (P - N) additions.  Bytes are the float64
        arrays the kernel streams: both gathered operands, the pair-product
        array and the result.
        """
        counts = self.counts
        cache = self._einsum_cost

        @functools.wraps(fn)
        def counting(spec, a, b):
            key = (spec, a.data.shape, b.data.shape)
            cost = cache.get(key)
            if cost is None:
                cost = cache[key] = _einsum_cost(spec, a, b)
            counts["jets.einsum.flops"] += cost[0]
            counts["jets.einsum.bytes"] += cost[1]
            return fn(spec, a, b)

        return counting

    # -- installation ------------------------------------------------------

    def _hook(self, patcher: Patcher, target, attr: str, make) -> None:
        fn = getattr(target, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(target, '__name__', target)}.{attr}")
            return
        patcher.setattr(target, attr, make(fn))

    def _methods(self, patcher: Patcher, cls, attrs, name: str) -> None:
        for attr in attrs:
            if attr in cls.__dict__:
                patcher.setattr(cls, attr, self.span(name, cls.__dict__[attr]))
            else:
                self.missing.append(f"{cls.__name__}.{attr}")

    def _cached(self, patcher: Patcher, cls, attrs, name: str) -> None:
        for attr in attrs:
            prop = cls.__dict__.get(attr)
            if not isinstance(prop, cached_property):
                self.missing.append(f"{cls.__name__}.{attr}")
                continue
            wrapped = cached_property(self.span(name, prop.func))
            wrapped.__set_name__(cls, attr)
            patcher.setattr(cls, attr, wrapped)

    def _wrap_builder_field(self, patcher: Patcher, cls) -> None:
        """Wrap the ``builder`` callable of every new instance of ``cls``."""
        init = cls.__init__
        span = self.span

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            builder = getattr(obj, "builder", None)
            if builder is not None and not getattr(builder, "_perfbench_traced", False):
                wrapped = span("spaces.builders", builder)
                wrapped._perfbench_traced = True
                object.__setattr__(obj, "builder", wrapped)

        patcher.setattr(cls, "__init__", traced_init)

    def install(self, patcher: Patcher, run_pass_module) -> None:
        from warpcheck import checks, cli, conformal, dsl, geometry, jets, ode, sampling, spaces, statics, tensors

        span = self.span

        # jets
        einsum = self.einsum_counted(span("jets.einsum", jets.jt_einsum))
        for mod in (jets, geometry, statics, conformal):
            self._hook(patcher, mod, "jt_einsum", lambda fn: einsum)
        self._hook(patcher, jets, "_raw_mul", lambda fn: span("jets.raw_mul", fn))
        self._hook(patcher, jets, "_raw_compose", lambda fn: span("jets.raw_compose", fn))
        arith = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__truediv__")
        jt = jets.JetTensor
        self._methods(patcher, jt, arith + ("partials", "transpose", "embed"), "jets.tensor_arith")
        if isinstance(jt.__dict__.get("from_jets"), staticmethod):
            patcher.setattr(jt, "from_jets", staticmethod(span("jets.tensor_arith", jt.__dict__["from_jets"].__func__)))
        if hasattr(jets, "Jet"):
            self._methods(patcher, jets.Jet, arith + ("__rtruediv__", "__pow__", "elem"), "jets.scalar_arith")
        self._install_tables(patcher, jets.JetSpace)

        # geometry
        cb = geometry.CurvatureBundle
        for attrs, name in (
            (("g", "g0", "ginv0", "ginv"), "geometry.metric"),
            (("gamma",), "geometry.christoffel"),
            (("riemann13", "riemann4"), "geometry.riemann"),
            (("ric", "scalar_jet"), "geometry.ricci"),
            (("schouten", "scalar_jet_times_g", "efield", "weyl"), "geometry.schouten_weyl"),
            (("cotton",), "geometry.cotton"),
            (("cotton_divergence",), "geometry.cotton_div"),
        ):
            self._cached(patcher, cb, attrs, name)
        self._methods(patcher, geometry.MetricChart, ("metric_jets",), "geometry.metric")
        self._methods(patcher, cb, ("lstar", "hessian", "laplacian"), "geometry.lstar")
        self._hook(patcher, cb, "covariant_derivative", lambda fn: self.counted("geometry.covd.calls", fn))
        self._count_bundles(patcher, cb)

        # spaces: chart, potential and field builders
        for cls in (geometry.MetricChart, spaces.StaticPotentialSpec, spaces.ConformalFieldSpec):
            self._wrap_builder_field(patcher, cls)

        # dsl
        for mod in (dsl, statics):
            self._hook(patcher, mod, "eval_expr", lambda fn: span("dsl.eval", fn))

        # ode
        for mod in (ode, checks):
            self._hook(patcher, mod, "find_periodic_solution", lambda fn: span("ode.shoot", fn))
        self._methods(patcher, ode.OdeWarpingFunction, ("__call__",), "ode.warping")

        # conformal
        ca = conformal.ConformalAnalysis
        self._cached(
            patcher, ca,
            ("xi", "xi_flat", "dxi_flat", "phi", "dphi", "p", "dp", "d2p", "phi_tensor_jets", "lstar_phi"),
            "conformal.chain",
        )
        self._methods(
            patcher, ca,
            ("conformal_defect", "closedness_defect", "closed_identities", "firstthm_defect",
             "phi_symmetry_defect", "trace_identity_defect", "ixi_cotton_defect",
             "cxi_contraction_defect", "cxi_divergence_defect"),
            "conformal.residuals",
        )
        self._hook(patcher, ca, "__init__", lambda fn: self.counted("conformal.analyses", fn))

        # statics
        sa = statics.StaticAnalysis
        self._cached(patcher, sa, ("f", "df", "df_up", "hess", "lap", "lstar_f", "f_plus_a", "t_jets"), "statics.static")
        self._methods(
            patcher, sa,
            ("vacuum_residuals", "generalized_defect", "require_solution", "t_algebra",
             "decompose_residuals", "tfe_defect"),
            "statics.static",
        )
        self._hook(patcher, statics, "xicvf_residuals", lambda fn: span("statics.static", fn))
        self._hook(patcher, sa, "__init__", lambda fn: self.counted("statics.analyses", fn))
        for attr in ("lgh_closed_forms", "icotton_warped_residual", "warpedproduct3_residual",
                     "equivalence_clauses", "nonconstant_r_cotton_formulas", "propddoth_check",
                     "inrp_product_check", "hdot_field"):
            for mod in (checks, statics):
                self._hook(patcher, mod, attr, lambda fn: span("statics.warped", fn))

        # checks
        self._hook(patcher, checks, "run_suite", self._suite_span)
        self._hook(patcher, checks, "_scalar_survey", lambda fn: span("checks.survey", fn))
        evaluators = getattr(checks, "_EVALUATORS", None)
        if evaluators is None:
            self.missing.append("checks._EVALUATORS")
        else:
            for check, fn in list(evaluators.items()):
                patcher.setitem(evaluators, check, self.counted("checks.evals", span("checks.eval", fn)))
        self._hook(patcher, cli, "_emit_report", lambda fn: span("checks.report", fn))
        self._hook(patcher, run_pass_module, "dense_report", self._dense_span)

        # tensors and sampling
        for mod, attrs in ((geometry, ("_components_norm", "tensor_norm_sq")), (tensors, ("tensor_norm", "tensor_norm_sq"))):
            for attr in attrs:
                self._hook(patcher, mod, attr, lambda fn: span("tensors.norm", fn))
        for mod in (geometry, sampling):
            self._hook(patcher, mod, "halton_points", lambda fn: span("sampling.halton", fn))

    def _suite_span(self, fn):
        traced = self.span("checks.suite", fn)

        def suite(config, *args, **kwargs):
            self.label = config.label
            return traced(config, *args, **kwargs)

        return suite

    def _dense_span(self, fn):
        traced = self.span("bench.dense", fn)

        def dense(spec, *args, **kwargs):
            self.label = spec.label
            return traced(spec, *args, **kwargs)

        return dense

    def _count_bundles(self, patcher: Patcher, cls) -> None:
        init = cls.__init__
        counts, by_label, stack_names = self.counts, self.bundles_by_label, self.stack_names
        warped = self.name_id("statics.warped")

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            counts["geometry.bundles"] += 1
            by_label[self.label] += 1
            if warped in stack_names:
                counts["statics.warped.bundles"] += 1
            init(obj, *args, **kwargs)

        patcher.setattr(cls, "__init__", counting_init)

    def _install_tables(self, patcher: Patcher, space_cls) -> None:
        """Time lazy table builds only; a cached table costs one attribute read."""
        span = self.span
        self._methods(patcher, space_cls, ("__init__",), "jets.tables")
        prop = space_cls.__dict__.get("mul_table")
        if isinstance(prop, property):
            build = span("jets.tables", prop.fget)

            def mul_table(space):
                cached = getattr(space, "_mul_table", None)
                return cached if cached is not None else build(space)

            patcher.setattr(space_cls, "mul_table", property(mul_table))
        else:
            self.missing.append(f"{space_cls.__name__}.mul_table")
        for attr, store in (("diff_table", "_diff_tables"), ("embed_table", "_embed_tables")):
            fn = space_cls.__dict__.get(attr)
            if fn is None:
                self.missing.append(f"{space_cls.__name__}.{attr}")
                continue
            patcher.setattr(space_cls, attr, _build_only(span("jets.tables", fn), fn, store))

    # -- results -----------------------------------------------------------

    def drain(self) -> PassTrace:
        """Aggregate the spans and counts recorded since the last drain."""
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        starts = np.asarray(self.span_start)
        ends = np.asarray(self.span_end)
        dur = ends - starts
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        self_s = np.bincount(names, weights=dur - child, minlength=width)
        trace = PassTrace(
            calls={n: int(calls[i]) for i, n in enumerate(self.names)},
            self_s={n: float(self_s[i]) for i, n in enumerate(self.names)},
            counts=dict(self.counts),
            bundles_by_label=dict(self.bundles_by_label),
            spans={"name": names, "parent": parents, "start": starts, "end": ends},
        )
        for lst in (self.span_name, self.span_parent, self.span_start, self.span_end):
            lst.clear()
        self.counts.clear()
        self.bundles_by_label.clear()
        return trace


def _build_only(traced, fn, store: str):
    """Send a call to ``traced`` only when the table is not yet cached."""

    @functools.wraps(fn)
    def table(space, key, *args):
        cache = getattr(space, store, None)
        if cache is not None:
            cache_key = key if not args else (id(key), args[0])
            if cache_key in cache:
                return cache[cache_key]
        return traced(space, key, *args)

    return table


def _einsum_cost(spec: str, a, b) -> tuple[int, int]:
    low = a.space if a.space.order <= b.space.order else b.space
    pairs = len(low.mul_table[0])
    coeffs = low.n_coeffs
    lhs, out = spec.split("->")
    sa, sb = lhs.split(",")
    extent = dict(zip(sa, a.shape))
    extent.update(zip(sb, b.shape))
    n_all = int(np.prod([extent[c] for c in extent], dtype=np.int64))
    n_a = int(np.prod(a.shape, dtype=np.int64))
    n_b = int(np.prod(b.shape, dtype=np.int64))
    n_out = int(np.prod([extent[c] for c in out], dtype=np.int64))
    flops = n_all * pairs + (n_all - n_out) * pairs + n_out * (pairs - coeffs)
    nbytes = 8 * ((n_a + n_b) * pairs + n_out * (pairs + coeffs))
    return flops, nbytes
