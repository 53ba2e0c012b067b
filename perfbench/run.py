"""The warpcheck benchmark: verdict time and throughput, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py``):

* ``catalog``   -- the five shipped example suites at their own sample counts:
                   many checks and bundles per point, the scalar survey, the
                   warped helpers and the only ODE set-up.
* ``deep-o4``   -- one order-4 check per config at dims 5-6 plus a dense
                   non-diagonal chart: one bundle per point, time in the jet
                   kernel.

Everything runs in this process, without worker threads, and BLAS/OpenMP
threads are capped at the number of usable cores.  The seed sets the Halton
offset of every config.  A run first makes one checked pass: every verdict
is recomputed from the residuals and compared with the workload's expected
verdict, and the report digests of that pass are the reference that every
later pass (and the cold subprocess) must reproduce byte for byte.

On a shared host the speed of the machine drifts, in bursts, by up to a
factor of two.  So every time the plain run reports is in calibrated seconds
(``calibration.py``): each timed item's wall time scaled by a fixed
calibration kernel's time measured just before and after it.  The raw wall
times are printed next to them.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds;
``--trace 1`` alternates traced and untraced passes and reports per-layer
metrics (``tracing.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count verdicts, and
``failed / attempted`` is the run's ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)

# set-ups after every timed pass; setup_s is their median
SETUP_REPS_PER_PASS = 3
# share of the measuring window spent on cold starts
COLD_SHARE = 0.3
COLD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "pass_s": "s",
    "point_checks_per_s": "1/s",
    "min_margin_log10": "decades",
}

CHECK_IDS = (
    "vss_residual", "lgh_forms", "wp3_identity", "icotton_zero", "nein3_forms", "t_algebra",
    "tfe_identity", "decompose_ids", "xicvf_forms", "propddoth", "inrp", "firstthm",
    "ixi_cotton", "cxi_div", "equiv_chain", "cotton_tracefree", "xi_trace",
)

# (metric, unit); "<span>.calls" and "<span>.self_s" come from the spans of
# that name, the others from counters.
PER_LAYER = (
    [
        ("jets.einsum.calls", "count"), ("jets.einsum.self_s", "s"),
        ("jets.einsum.flops", "flop"), ("jets.einsum.bytes", "B"),
        ("jets.raw_mul.calls", "count"), ("jets.raw_mul.self_s", "s"),
        ("jets.raw_compose.calls", "count"), ("jets.raw_compose.self_s", "s"),
        ("jets.tensor_arith.calls", "count"), ("jets.tensor_arith.self_s", "s"),
        ("jets.scalar_arith.calls", "count"), ("jets.scalar_arith.self_s", "s"),
        ("jets.tables_s", "s"),
        ("geometry.bundles", "count"), ("geometry.bundles_per_point", "bundle/point"),
        ("geometry.metric.self_s", "s"), ("geometry.christoffel.self_s", "s"),
        ("geometry.riemann.self_s", "s"), ("geometry.ricci.self_s", "s"),
        ("geometry.schouten_weyl.self_s", "s"), ("geometry.cotton.self_s", "s"),
        ("geometry.cotton_div.self_s", "s"), ("geometry.lstar.self_s", "s"),
        ("geometry.covd.calls", "count"),
        ("spaces.builders.calls", "count"), ("spaces.builders.self_s", "s"),
        ("dsl.eval.calls", "count"), ("dsl.eval.self_s", "s"),
        ("ode.shoot.calls", "count"), ("ode.shoot.self_s", "s"),
        ("ode.warping.calls", "count"), ("ode.warping.self_s", "s"),
        ("conformal.analyses", "count"), ("conformal.chain.self_s", "s"),
        ("conformal.residuals.self_s", "s"),
        ("statics.analyses", "count"), ("statics.static.self_s", "s"),
        ("statics.warped.self_s", "s"), ("statics.warped.bundles", "count"),
        ("checks.suite.self_s", "s"), ("checks.survey.self_s", "s"),
        ("checks.evals", "count"), ("checks.eval.self_s", "s"), ("checks.report_s", "s"),
    ]
    + [(f"checks.{check}.s", "s") for check in CHECK_IDS]
    + [
        ("bench.dense.self_s", "s"),
        ("tensors.norm.calls", "count"), ("tensors.norm.self_s", "s"),
        ("sampling.halton_s", "s"),
        ("trace.overhead_frac", "frac"),
    ]
)

# metric name -> span name, for metrics named after a span's self time
_SPAN_SELF = {"checks.report_s": "checks.report", "sampling.halton_s": "sampling.halton"}
_COUNTERS = {
    "jets.einsum.flops", "jets.einsum.bytes", "geometry.bundles", "geometry.covd.calls",
    "conformal.analyses", "statics.analyses", "statics.warped.bundles", "checks.evals",
}


def cap_threads() -> int:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = str(cores)
    return cores


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


# -- plain run ---------------------------------------------------------------


def checked_pass(wl, inputs, configs):
    """The first pass, with the non-finite guard, judged against expectations."""
    guard = wl.FiniteGuard()
    with wl.Patcher() as patcher:
        guard.install(patcher)
        result = wl.run_pass(inputs, configs)
    verdicts = wl.judge(inputs, result, guard.counts)
    if guard.missing:
        print(f"non-finite guard hooks without a target: {', '.join(guard.missing)}", file=sys.stderr)
    return result, verdicts, wl.digests(result)


class Tally:
    """Verdicts judged over a run: the checked pass in full, every later pass
    by its report digests against the checked pass's."""

    def __init__(self, inputs, verdicts, reference):
        self.pairs = {label: len(checks) for label, checks in inputs.workload.expected.items()}
        self.reference = reference
        self.attempted = verdicts.attempted
        self.failed = len(verdicts.failed)
        self.messages = list(verdicts.messages)

    def compare(self, what: str, errors: dict, found: dict) -> None:
        for label, pairs in self.pairs.items():
            self.attempted += pairs
            if label in errors or found.get(label) != self.reference.get(label):
                self.failed += pairs
                self.messages.append(f"{what}: {label}: {errors.get(label, 'report digest differs')}")


def cold_start(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=COLD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def plain_run(wl, args, inputs) -> tuple[dict, Tally, list[str]]:
    import calibration

    configs = wl.setup(inputs)
    result, verdicts, reference = checked_pass(wl, inputs, configs)
    tally = Tally(inputs, verdicts, reference)
    cal = calibration.Calibration()

    # Cold starts, warm passes and set-ups are interleaved over the window,
    # so that a burst of load on the machine does not hit one metric alone.
    # Lists ending in _wall hold raw wall times, the others calibrated ones.
    passes_wall: list[float] = []
    passes: list[float] = []
    items: dict[str, list[float]] = {}
    setups_wall: list[float] = []
    setups: list[float] = []
    colds_wall: list[float] = []
    cold_segments: dict[int, list[float]] = {}  # the import, then each config
    cold_busy = 0.0
    begin = time.perf_counter()
    while not passes or not colds_wall or time.perf_counter() < begin + args.seconds:
        if not colds_wall or cold_busy < COLD_SHARE * (time.perf_counter() - begin):
            start = time.perf_counter()
            cal.mark()
            cal.run()
            cold = cold_start(args.workload, args.seed)
            cold_busy += time.perf_counter() - start
            cal.times.extend(cold["calibration_s"])
            colds_wall.append(sum(cold["segments_s"]))
            for k, s in enumerate(cold["segments_s"]):
                cold_segments.setdefault(k, []).append(cal.scaled(s, k))
            tally.compare(f"cold start {len(colds_wall)}", cold["errors"], cold["digests"])
            continue
        cal.mark()
        result = wl.run_pass(inputs, configs, between=cal.run)
        scaled = {label: cal.scaled(s, k) for k, (label, s) in enumerate(result.item_s.items())}
        for label, s in scaled.items():
            items.setdefault(label, []).append(s)
        passes_wall.append(result.wall_s)
        passes.append(sum(scaled.values()))
        tally.compare(f"pass {len(passes)}", result.errors, wl.digests(result))
        cal.mark()
        cal.run()
        for k in range(SETUP_REPS_PER_PASS):
            start = time.perf_counter()
            wl.setup(inputs)
            wall = time.perf_counter() - start
            cal.run()
            setups_wall.append(wall)
            setups.append(cal.scaled(wall, k))

    # per config the median over passes, so that a burst during one suite
    # does not move the others; the same for the segments of a cold start
    pass_s = sum(statistics.median(v) for v in items.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "cold_s": sum(statistics.median(v) for v in cold_segments.values()),
        "pass_s": pass_s,
        "point_checks_per_s": verdicts.point_checks / pass_s,
        "min_margin_log10": verdicts.min_margin_log10,
    }
    t = tail(passes)
    q = statistics.quantiles(cal.times, n=4)
    lines = [
        f"setup_s = {metrics['setup_s']:.6f} s (median of {len(setups)} set-ups; "
        f"raw median {statistics.median(setups_wall):.6f} s)",
        f"cold_s = {metrics['cold_s']:.4f} s (sum over the import and configs of the median of {len(colds_wall)} "
        f"fresh interpreters' times: import + first pass; "
        f"raw median {statistics.median(colds_wall):.4f} s)",
        f"pass_s = {pass_s:.4f} s (sum over configs of the median of {len(passes)} warm suite times; "
        f"raw median pass {statistics.median(passes_wall):.4f} s)",
        (f"pass_s_tail = {t[1]:.4f} s (p{t[0]:.1f} of {len(passes)} warm passes, 10 above it)" if t
         else f"pass_s_tail = n/a ({len(passes)} warm passes; a tail with 10 samples above it needs 11)"),
        f"point_checks_per_s = {metrics['point_checks_per_s']:.2f} 1/s "
        f"({verdicts.point_checks} (check, point) verdicts per pass)",
        f"min_margin_log10 = {verdicts.min_margin_log10:.4f} decades",
        f"calibration kernel: median {statistics.median(cal.times) * 1e3:.2f} ms of {len(cal.times)} runs, "
        f"quartiles {q[0] * 1e3:.2f} and {q[2] * 1e3:.2f} ms; times above are scaled to {calibration.NOMINAL_S * 1e3:g} ms",
    ]
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, tally, lines


# -- traced run --------------------------------------------------------------


def traced_run(wl, args, inputs) -> tuple[dict, Tally, list[str]]:
    import numpy as np
    import tracing
    from warpcheck import jets

    configs = wl.setup(inputs)
    result, verdicts, reference = checked_pass(wl, inputs, configs)
    tally = Tally(inputs, verdicts, reference)
    tracer = tracing.Tracer()
    untraced: list[float] = []
    untraced_checks: list[dict[str, float]] = []
    traced: list[tuple[float, float, tracing.PassTrace]] = []

    def traced_pass():
        start = time.perf_counter()
        with tracing.Patcher() as patcher:
            tracer.install(patcher, wl)
            result = wl.run_pass(inputs, configs)
            found = wl.digests(result)
        wall = time.perf_counter() - start
        tally.compare(f"traced pass {len(traced) + 1}", result.errors, found)
        traced.append((result.wall_s, wall, tracer.drain()))

    def untraced_pass():
        result = wl.run_pass(inputs, configs)
        untraced.append(result.wall_s)
        untraced_checks.append(wl.check_wall_times(result))
        tally.compare(f"untraced pass {len(untraced)}", result.errors, wl.digests(result))

    # The first traced pass starts from empty jet-space caches, so it times
    # every table build; the later ones are warm.
    clear = getattr(jets.jet_space, "cache_clear", None)
    if clear is None:
        tracer.missing.append("jets.jet_space.cache_clear")
    else:
        clear()
    deadline = time.perf_counter() + args.seconds
    traced_pass()
    untraced_pass()
    traced_pass()
    while time.perf_counter() < deadline:
        untraced_pass()
        traced_pass()

    warm = [t for _, _, t in traced[1:]]
    points = sum(inputs.samples.values())

    def self_s(span: str) -> float:
        return statistics.median(t.self_s.get(span, 0.0) for t in warm)

    first = warm[0]
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name in _COUNTERS:
            values[name] = float(first.counts.get(name, 0))
        elif name == "jets.tables_s":
            values[name] = traced[0][2].self_s.get("jets.tables", 0.0)
        elif name in _SPAN_SELF:
            values[name] = self_s(_SPAN_SELF[name])
        elif name.endswith(".calls"):
            values[name] = float(first.calls.get(name[: -len(".calls")], 0))
        elif name.endswith(".self_s"):
            values[name] = self_s(name[: -len(".self_s")])
    for check in CHECK_IDS:
        values[f"checks.{check}.s"] = statistics.median(c.get(check, 0.0) for c in untraced_checks)
    values["geometry.bundles_per_point"] = first.counts.get("geometry.bundles", 0) / points
    # each warm traced pass against the untraced pass just before it
    values["trace.overhead_frac"] = statistics.median(t[0] / u for t, u in zip(traced[1:], untraced)) - 1.0

    # Self-tests of the tracer.  Digests were compared pass by pass above.
    walls = [(sum(t.self_s.values()), wall) for _, wall, t in traced]
    sums_ok = all(total <= wall for total, wall in walls)

    def repeatable(t):
        calls = {k: v for k, v in t.calls.items() if k != "jets.tables"}  # pass 1 builds the tables
        return calls, t.counts, t.bundles_by_label

    counts_ok = all(repeatable(t) == repeatable(traced[0][2]) for _, _, t in traced[1:])
    ok = sums_ok and counts_ok
    lines = [
        f"selftest self times {'ok' if sums_ok else 'FAIL'}: in each of {len(traced)} traced passes the layers' "
        f"self times sum to no more than the pass ({walls[-1][0]:.4f} s of {walls[-1][1]:.4f} s in the last)",
        f"selftest counts {'ok' if counts_ok else 'FAIL'}: every traced pass repeats pass 1's calls and counts",
    ]
    for label, want in inputs.workload.baseline_bundles_per_point.items():
        got = first.bundles_by_label.get(label, 0) / inputs.samples[label]
        lines.append(
            f"selftest bundles_per_point {'ok' if got == want else 'differs'}: {label} {got:g} "
            f"(benchmark's defining commit: {want:g})"
        )
    if tracer.missing:
        lines.append(f"trace hooks without a target: {', '.join(sorted(set(tracer.missing)))}")
    if not ok:
        tally.failed += 1
        tally.attempted += 1
        tally.messages.append("tracer self-test failed")
    lines.append(
        f"trace.overhead_frac = {values['trace.overhead_frac']:.4f} "
        f"(median over {len(traced) - 1} pairs of a warm traced pass and the untraced pass before it)"
    )
    for name, unit in PER_LAYER:
        lines.append(f"{name} = {values[name]:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    spans = traced[-1][2].spans
    np.savez_compressed(OUT_DIR / f"spans-{args.workload}.npz", span_names=np.array(tracer.names), **spans)
    return {name: (values[name], unit) for name, unit in PER_LAYER}, tally, lines


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "warpcheck" / "__init__.py").is_file():
        print(f"error: warpcheck sources not found under {SRC}", file=sys.stderr)
        return 2
    # numpy reads the thread caps when it is first imported, so nothing
    # above this line imports it.
    cores = cap_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have {sorted(wl.WORKLOADS)})", file=sys.stderr)
        return 2
    inputs = wl.make_inputs(wl.WORKLOADS[args.workload], args.seed)
    run = traced_run if args.trace else plain_run
    metrics, tally, lines = run(wl, args, inputs)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}, BLAS/OpenMP threads capped at {cores}")
    for raw in inputs.raw_configs:
        print(f"  {raw['label']}: offset {raw['offset']}, sha256 {tally.reference.get(raw['label'], '-')}")
    if inputs.workload.dense is not None:
        label = inputs.workload.dense.label
        print(f"  {label}: offset {inputs.dense_offset}, sha256 {tally.reference.get(label, '-')}")
    for line in lines:
        print(f"  {line}")
    print(f"  failed_frac = {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} verdicts)")
    for message in tally.messages[:50]:
        print(f"  FAILED {message}")
    correct = tally.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
