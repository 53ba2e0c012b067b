"""Workloads of the warpcheck benchmark and the pass that runs them.

A workload is a fixed list of run-configs plus, for ``deep-o4``, a dense
non-diagonal chart that no catalog space covers.  The seed only picks the
Halton offset of every config (and of the dense chart's sample set), so the
same seed always gives the same sample points.  Each workload states the
verdict it expects for every (config, check) pair; the benchmark compares
the reports against those verdicts without trusting the report's status.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import math
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from warpcheck import CurvatureBundle, MetricChart, checks, cli
from warpcheck.checks import CheckOutcome, RunConfig, VerificationReport, build_context
from warpcheck.residuals import Residual

from tracing import Patcher

OFFSET_RANGE = 10_000

# -- workload inputs -----------------------------------------------------------

# Copies of the five shipped example configs, so that the workload stays
# fixed even if the shipped examples change.
_CATALOG = [
    {
        "label": "ejiri",
        "space": {
            "kind": "warped",
            "interval": [0.0, 6.283185307179586],
            "warping": "sqrt(2+sin(t))",
            "periodic": True,
            "fiber": {"kind": "sphere", "dim": 3, "radius": 1.0},
        },
        "checks": [
            "vss_residual", "icotton_zero", "wp3_identity", "lgh_forms", "firstthm",
            "ixi_cotton", "cxi_div", "t_algebra", "equiv_chain",
        ],
        "samples": 60,
    },
    {
        "label": "basicex-n5-k2",
        "space": {"kind": "basicex", "n": 5, "k": 2},
        "checks": [
            "vss_residual", "t_algebra", "tfe_identity", "decompose_ids", "xicvf_forms",
            "propddoth", "firstthm", "cxi_div", "wp3_identity",
        ],
        "samples": 40,
    },
    {
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
    {
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
    {
        "label": "sphere-s4",
        "space": {"kind": "sphere", "dim": 4, "radius": 1.0},
        "potential": {"builtin": "sphere_height", "axis": 5},
        "field": {"builtin": "sphere_gradient", "axis": 1},
        "checks": ["vss_residual", "t_algebra", "decompose_ids", "xicvf_forms", "firstthm", "ixi_cotton"],
        "samples": 40,
    },
]

_DEEP = [
    {
        "label": "sphere-s6-firstthm",
        "space": {"kind": "sphere", "dim": 6, "radius": 1.0},
        "field": {"builtin": "sphere_gradient", "axis": 1},
        "checks": ["firstthm"],
        "samples": 20,
    },
    {
        "label": "basicex-n6-k2-ixi",
        "space": {"kind": "basicex", "n": 6, "k": 2},
        "checks": ["ixi_cotton"],
        "samples": 20,
    },
    {
        "label": "hyperbolic-h5-rotation",
        "space": {"kind": "hyperbolic", "dim": 5, "radius": 1.0},
        "field": {"builtin": "rotation", "axes": [0, 1]},
        "checks": ["firstthm"],
        "samples": 20,
    },
]

@dataclass(frozen=True)
class DenseSpec:
    """A dense chart g = I + 0.15 (A_ij cos(B_ij . x)) on [-1, 1]^dim.

    A and B are symmetric in (i, j) and drawn once from a fixed generator,
    so every metric entry, and every derivative up to the jet order, is
    nonzero.  Gershgorin keeps g positive definite: each off-diagonal row
    sum is below 0.15 (dim - 1) < 0.85.
    """

    label: str
    dim: int
    samples: int
    tolerance: float = 1e-9
    checks: tuple[str, ...] = ("cotton_tracefree", "xi_trace")


@dataclass(frozen=True)
class Workload:
    name: str
    configs: list[dict]
    expected: dict[str, dict[str, str]]
    # Bundles built per sample point when the benchmark was defined; the
    # traced run prints its own count next to these.
    baseline_bundles_per_point: dict[str, float]
    dense: DenseSpec | None = None


def _all_pass(configs, dense: DenseSpec | None = None) -> dict[str, dict[str, str]]:
    out = {cfg["label"]: {c: "PASS" for c in cfg["checks"]} for cfg in configs}
    if dense is not None:
        out[dense.label] = {c: "PASS" for c in dense.checks}
    return out


def _catalog_expected() -> dict[str, dict[str, str]]:
    out = _all_pass(_CATALOG)
    out["nonconstant-exp"]["icotton_zero"] = "SKIP"
    return out


_DENSE = DenseSpec(label="dense-d5-cotton-div", dim=5, samples=20)

WORKLOADS = {
    "catalog": Workload(
        name="catalog",
        configs=_CATALOG,
        expected=_catalog_expected(),
        baseline_bundles_per_point={
            "ejiri": 15.0, "basicex-n5-k2": 13.0, "nonconstant-exp": 9.0, "equiv-fail": 8.0, "sphere-s4": 6.0,
        },
    ),
    "deep-o4": Workload(
        name="deep-o4",
        configs=_DEEP,
        expected=_all_pass(_DEEP, _DENSE),
        baseline_bundles_per_point={c["label"]: 1.0 for c in _DEEP} | {_DENSE.label: 1.0},
        dense=_DENSE,
    ),
}


# -- the dense chart -----------------------------------------------------------


def make_dense_chart(spec: DenseSpec) -> MetricChart:
    n = spec.dim
    rng = np.random.default_rng(20250710)
    amp = rng.uniform(-1.0, 1.0, (n, n))
    amp = (amp + amp.T) / 2.0
    freq = rng.uniform(-1.0, 1.0, (n, n, n))
    freq = (freq + freq.transpose(1, 0, 2)) / 2.0
    amp_l = [[float(x) for x in row] for row in amp]
    freq_l = [[[float(x) for x in vec] for vec in row] for row in freq]

    def builder(coords):
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                phase = coords[0] * freq_l[i][j][0]
                for k in range(1, n):
                    phase = phase + coords[k] * freq_l[i][j][k]
                entry = phase.elem("cos") * (0.15 * amp_l[i][j])
                if i == j:
                    entry = entry + 1.0
                rows[i][j] = rows[j][i] = entry
        return rows

    return MetricChart(
        dim=n,
        label=spec.label,
        builder=builder,
        box=(np.full(n, -1.0), np.full(n, 1.0)),
    )


def dense_report(spec: DenseSpec, offset: int) -> VerificationReport:
    """Universal identities on the dense chart, as a report like run_suite's.

    ``cotton_tracefree``: g^ij C_ijk = 0.  ``xi_trace``: g^ik Xi_ik = 0 with
    Xi the Cotton divergence.  Both hold on every metric.  The loop's wall
    time is split evenly between the two checks.
    """
    chart = make_dense_chart(spec)
    points = chart.sample_points(spec.samples, offset)
    start = time.perf_counter()
    rows: dict[str, list[Residual]] = {c: [] for c in spec.checks}
    for p in points:
        b = CurvatureBundle(chart, p, order=4)
        ginv0 = b.ginv0
        cotton = b.cotton.value
        xi = b.cotton_divergence.value
        rows["cotton_tracefree"].append(
            Residual(b.norm(np.einsum("ij,ijk->k", ginv0, cotton), ("l",)), b.norm(cotton, ("l",) * 3))
        )
        rows["xi_trace"].append(Residual(abs(float(np.einsum("ik,ik->", ginv0, xi))), b.norm(xi, ("l", "l"))))
    wall = time.perf_counter() - start
    outcomes = []
    for check, residuals in rows.items():
        rel = np.array([r.rel for r in residuals])
        worst = int(np.nanargmax(rel)) if np.any(np.isfinite(rel)) else 0
        max_rel = float(np.max(rel))  # NaN propagates, and NaN <= tol is False
        outcomes.append(
            CheckOutcome(
                check=check,
                status="PASS" if max_rel <= spec.tolerance else "FAIL",
                tolerance=spec.tolerance,
                max_abs_residual=float(np.max([r.abs for r in residuals])),
                max_rel_residual=max_rel,
                worst_point=[float(x) for x in points[worst]],
                samples=len(points),
                wall_time=wall / len(rows),
            )
        )
    counts = {s: sum(o.status == s for o in outcomes) for s in ("PASS", "FAIL", "SKIP")}
    summary = {"pass": counts["PASS"], "fail": counts["FAIL"], "skip": counts["SKIP"], "skip_reasons": []}
    return VerificationReport(schema=1, label=spec.label, checks=outcomes, summary=summary)


# -- inputs and passes ---------------------------------------------------------


@dataclass
class Inputs:
    """The seeded inputs of one run: raw configs with their offsets."""

    workload: Workload
    raw_configs: list[dict]
    dense_offset: int

    @property
    def samples(self) -> dict[str, int]:
        out = {raw["label"]: raw["samples"] for raw in self.raw_configs}
        if self.workload.dense is not None:
            out[self.workload.dense.label] = self.workload.dense.samples
        return out


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{workload.name}/{seed}")
    raw = [dict(copy.deepcopy(cfg), offset=rng.randrange(OFFSET_RANGE)) for cfg in workload.configs]
    return Inputs(workload, raw, rng.randrange(OFFSET_RANGE))


def parse(inputs: Inputs) -> list[RunConfig]:
    return [RunConfig.from_dict(copy.deepcopy(raw)) for raw in inputs.raw_configs]


def setup(inputs: Inputs) -> list[RunConfig]:
    """Parse every config and build its context: charts, DSL, ODE shooting."""
    configs = parse(inputs)
    for config in configs:
        build_context(config)
    if inputs.workload.dense is not None:
        make_dense_chart(inputs.workload.dense)
    return configs


@dataclass
class PassResult:
    wall_s: float
    reports: dict[str, VerificationReport] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    # wall time of each config's suite (and of the dense chart), by label
    item_s: dict[str, float] = field(default_factory=dict)


def run_pass(inputs: Inputs, configs: list[RunConfig], between: Callable[[], None] | None = None) -> PassResult:
    """One warm pass: ``run_suite`` over every config, then the dense chart.

    A config whose suite raises is recorded as an error and the pass goes
    on; the benchmark counts every check of that config as failed.  If
    ``between`` is given it is called before the first item and after each
    one, outside the timed intervals; ``wall_s`` is the sum of the items.
    """
    reports: dict[str, VerificationReport] = {}
    errors: dict[str, str] = {}
    item_s: dict[str, float] = {}
    items = [(config.label, lambda config=config: checks.run_suite(config)) for config in configs]
    dense = inputs.workload.dense
    if dense is not None:
        items.append((dense.label, lambda: dense_report(dense, inputs.dense_offset)))
    if between is not None:
        between()
    for label, item in items:
        start = time.perf_counter()
        try:
            reports[label] = item()
        except Exception as exc:  # noqa: BLE001 - recorded and counted as failures
            errors[label] = f"{type(exc).__name__}: {exc}"
        item_s[label] = time.perf_counter() - start
        if between is not None:
            between()
    return PassResult(sum(item_s.values()), reports, errors, item_s)


def check_wall_times(result: PassResult) -> dict[str, float]:
    """Per-check wall time summed over configs, from the reports."""
    out: dict[str, float] = {}
    for report in result.reports.values():
        for outcome in report.checks:
            out[outcome.check] = out.get(outcome.check, 0.0) + outcome.wall_time
    return out


def report_digest(report: VerificationReport) -> str:
    """SHA-256 of the report as ``warpcheck ... --no-timestamp`` prints it.

    This zeroes the report's wall times, so read them first.
    """
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli._emit_report(report, None, True)
    return hashlib.sha256(text.getvalue().encode()).hexdigest()


def digests(result: PassResult) -> dict[str, str]:
    return {label: report_digest(report) for label, report in result.reports.items()}


# -- verdicts ------------------------------------------------------------------


@dataclass
class Verdicts:
    attempted: int = 0
    failed: set[tuple[str, str]] = field(default_factory=set)
    messages: list[str] = field(default_factory=list)
    point_checks: int = 0
    min_margin_log10: float = math.inf

    def fail(self, label: str, check: str, why: str) -> None:
        self.failed.add((label, check))
        self.messages.append(f"{label}/{check}: {why}")


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def judge(inputs: Inputs, result: PassResult, nonfinite: dict[tuple[str, str], int]) -> Verdicts:
    """Compare every (config, check) verdict with the expected one.

    The verdict is recomputed from the residuals, not read from ``status``:
    a check fails here if its suite raised, a residual is not finite
    (including the per-point residuals counted in ``nonfinite``), it
    evaluated fewer points than configured, its status disagrees with
    ``max_rel <= tol``, or the verdict differs from the expected one.
    """
    out = Verdicts()
    samples = inputs.samples
    for label, expected in inputs.workload.expected.items():
        out.attempted += len(expected)
        if label in result.errors:
            for check in expected:
                out.fail(label, check, f"suite raised {result.errors[label]}")
            continue
        outcomes = {o.check: o for o in result.reports[label].checks}
        for extra in sorted(set(outcomes) - set(expected)):
            out.attempted += 1
            out.fail(label, extra, "unexpected check in report")
        for check, want in expected.items():
            o = outcomes.get(check)
            if o is None:
                out.fail(label, check, "missing from report")
                continue
            if o.status == "SKIP":
                verdict = "SKIP"
                if not o.reason:
                    out.fail(label, check, "SKIP without a reason")
            else:
                verdict = "PASS" if o.max_rel_residual <= o.tolerance else "FAIL"
                if not _finite(o.max_rel_residual, o.max_abs_residual, *o.details.values()):
                    out.fail(label, check, "non-finite residual in report")
                if nonfinite.get((label, check), 0):
                    out.fail(label, check, f"{nonfinite[(label, check)]} non-finite point residuals")
                if o.samples < samples[label]:
                    out.fail(label, check, f"{o.samples} of {samples[label]} points evaluated")
                if verdict != o.status:
                    out.fail(label, check, f"status {o.status} but max_rel {o.max_rel_residual:.3e}, tol {o.tolerance:.1e}")
                out.point_checks += o.samples
                margin = math.log10(o.tolerance / max(o.max_rel_residual, 1e-16))
                out.min_margin_log10 = min(out.min_margin_log10, margin)
            if verdict != want:
                out.fail(label, check, f"verdict {verdict}, expected {want}")
    return out


class FiniteGuard:
    """Counts non-finite residuals per (config, check) and point.

    ``run_suite`` keeps a running maximum with ``>``, which a NaN never
    wins, so a NaN residual can vanish from the report.  Installed for the
    checked pass only, the guard sees every per-point residual before that.
    """

    def __init__(self):
        self.counts: dict[tuple[str, str], int] = {}
        self.label = ""
        self.missing: list[str] = []

    def install(self, patcher: Patcher) -> None:
        run_suite = checks.run_suite

        def guarded_run_suite(config, *args, **kwargs):
            self.label = config.label
            return run_suite(config, *args, **kwargs)

        patcher.setattr(checks, "run_suite", guarded_run_suite)
        evaluators = getattr(checks, "_EVALUATORS", None)
        if evaluators is None:
            self.missing.append("checks._EVALUATORS")
        else:
            for check, fn in list(evaluators.items()):
                patcher.setitem(evaluators, check, self._residuals(check, fn))
        if hasattr(checks, "equivalence_clauses"):
            patcher.setattr(checks, "equivalence_clauses", self._values("equiv_chain", checks.equivalence_clauses))
        else:
            self.missing.append("checks.equivalence_clauses")

    def _bump(self, check: str) -> None:
        key = (self.label, check)
        self.counts[key] = self.counts.get(key, 0) + 1

    def _residuals(self, check, fn):
        def guarded(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not all(_finite(r.abs, r.scale) for r in out.values()):
                self._bump(check)
            return out

        return guarded

    def _values(self, check, fn):
        def guarded(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not _finite(*out.values()):
                self._bump(check)
            return out

        return guarded
