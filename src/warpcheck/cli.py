"""Command-line driver: verify, solve-ode, example, list.

Exit codes: 0 = every check PASS or SKIP; 1 = at least one FAIL;
2 = configuration, space-construction or output-path error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys

import numpy as np

from .checks import (
    CHECKS,
    EXAMPLE_CONFIGS,
    FIELD_BUILTINS,
    POTENTIAL_BUILTINS,
    SPACE_KINDS,
    ConfigError,
    RunConfig,
    VerificationReport,
    report_to_json,
    run_suite,
)
from .geometry import SingularMetricError
from .ode import (
    DRIFT_TOL,
    NoPeriodicOrbit,
    PositivityLost,
    WarpOdeParams,
    drift,
    find_periodic_solution,
    integrate_warpedvss,
    rbar_from_initial,
    trajectory_csv_rows,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="warpcheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a check suite from a JSON run-config")
    p_verify.add_argument("config", help="path to the run-config JSON file")
    p_verify.add_argument("--out", help="write the JSON report here (default: stdout)")
    p_verify.add_argument("--csv", help="write per-check worst-point rows as CSV")
    p_verify.add_argument("--no-timestamp", action="store_true", help="omit timestamp and wall times")
    p_verify.add_argument("--point", help="evaluate at one comma-separated point instead of sampling")
    p_verify.add_argument("--samples", type=int, help="override the config's sample count")

    p_ode = sub.add_parser("solve-ode", help="integrate the warping ODE and write a trajectory CSV")
    p_ode.add_argument("--n", type=int, required=True, help="total dimension (>= 3)")
    p_ode.add_argument("--scalar", type=float, required=True, help="scalar curvature R")
    p_ode.add_argument("--rbar", type=float, help="fiber scalar (default: from the first integral)")
    p_ode.add_argument("--c1", type=float, required=True, help="constant c1 of the equation")
    p_ode.add_argument("--h0", type=float, required=True, help="initial h (> 0)")
    p_ode.add_argument("--hdot0", type=float, default=0.0, help="initial hdot (must be 0 with --periodic)")
    p_ode.add_argument("--t-end", type=float, default=10.0, help="integration horizon")
    p_ode.add_argument("--dt", type=float, default=1e-3, help="RK4 step size")
    p_ode.add_argument("--periodic", action="store_true", help="search for a periodic orbit instead")
    p_ode.add_argument("--out", required=True, help="trajectory CSV path")

    p_example = sub.add_parser("example", help="run a canned example configuration")
    p_example.add_argument("name", choices=sorted(EXAMPLE_CONFIGS), help="example name")
    p_example.add_argument("--out", help="write the JSON report here (default: stdout)")
    p_example.add_argument("--no-timestamp", action="store_true")
    p_example.add_argument("--samples", type=int, help="override the example's sample count")

    sub.add_parser("list", help="list space kinds, built-ins, and check identifiers")
    return parser


def _emit_report(report: VerificationReport, out_path: str | None, no_timestamp: bool) -> None:
    if no_timestamp:
        report.timestamp = None
        for outcome in report.checks:
            outcome.wall_time = 0.0
    else:
        report.timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = report_to_json(report)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(report: VerificationReport, path: str) -> None:
    """Per-point residual rows for every non-skipped check."""
    rows = ["check,point,abs_residual,rel_residual,tolerance"]
    for outcome in report.checks:
        for point, abs_r, rel_r in outcome.point_rows:
            coords = ";".join(f"{x:.17g}" for x in point)
            rows.append(
                f"{outcome.check},{coords},{abs_r:.17g},{rel_r:.17g},{outcome.tolerance:.17g}"
            )
    with open(path, "w") as handle:
        handle.write("\n".join(rows) + "\n")


def _print_status_lines(report: VerificationReport) -> None:
    for outcome in report.checks:
        extra = f" ({outcome.reason})" if outcome.reason else ""
        print(
            f"[{outcome.status}] {outcome.check}: max_rel={outcome.max_rel_residual:.3e} "
            f"tol={outcome.tolerance:.1e}{extra}",
            file=sys.stderr,
        )


def _cmd_verify(args) -> int:
    try:
        with open(args.config) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    return _run_and_emit(raw, args)


def _cmd_example(args) -> int:
    raw = json.loads(json.dumps(EXAMPLE_CONFIGS[args.name]))
    args.point = None
    args.csv = None
    return _run_and_emit(raw, args)


def _run_and_emit(raw: dict, args) -> int:
    try:
        if getattr(args, "samples", None) is not None and isinstance(raw, dict):  # RunConfig rejects the rest
            raw = dict(raw, samples=args.samples)
        config = RunConfig.from_dict(raw)
        point = None
        if getattr(args, "point", None):
            try:
                point = np.array([float(x) for x in args.point.split(",")])
            except ValueError as exc:
                raise ConfigError(f"--point: {exc}") from None
        report = run_suite(config, point_override=point)
    except (ConfigError, SingularMetricError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_status_lines(report)
    # config-supplied output paths; CLI flags take precedence
    out_path = args.out or config.report_path
    csv_path = getattr(args, "csv", None) or config.csv_path
    _emit_report(report, out_path, args.no_timestamp)
    if csv_path:
        _write_csv(report, csv_path)
    return 1 if report.any_fail else 0


def _cmd_solve_ode(args) -> int:
    for flag in ("scalar", "rbar", "c1", "h0", "hdot0"):
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            print(f"error: --{flag} must be a finite number", file=sys.stderr)
            return 2
    if args.h0 <= 0:
        print("error: --h0 must be positive", file=sys.stderr)
        return 2
    if args.n < 3:
        print("error: --n must be at least 3", file=sys.stderr)
        return 2
    if not 0.0 < args.dt < math.inf:
        print("error: --dt must be a finite positive step", file=sys.stderr)
        return 2
    if not 0.0 < args.t_end < math.inf:
        print("error: --t-end must be a finite positive horizon", file=sys.stderr)
        return 2
    if args.periodic and args.hdot0 != 0.0:
        print("error: --periodic starts the orbit at its turning point (h0, 0); drop --hdot0", file=sys.stderr)
        return 2
    rbar = args.rbar
    if rbar is None:
        try:
            rbar = rbar_from_initial(WarpOdeParams(args.n, args.scalar, 0.0, args.c1), args.h0, args.hdot0)
        except OverflowError:  # h0^(2-n) or h0^2
            rbar = math.inf
        if not math.isfinite(rbar):
            print(f"error: --h0 {args.h0:g} and --n {args.n} take the fiber scalar out of float range; give --rbar",
                  file=sys.stderr)
            return 2
    params = WarpOdeParams(args.n, args.scalar, rbar, args.c1)
    try:
        if args.periodic:
            traj, period = find_periodic_solution(params, args.h0, dt=args.dt)
            print(f"period: {period:.12g}")
        else:
            traj = integrate_warpedvss(params, args.h0, args.hdot0, args.t_end, args.dt)
    except (PositivityLost, NoPeriodicOrbit, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    row, rel = drift(traj)
    if not rel <= DRIFT_TOL:
        print(
            f"error: the orbit drifts: first-integral residual {rel:.3g} relative to its terms at row {row} "
            f"(t = {traj.times[row]:.6g}) is above {DRIFT_TOL:g}; take a smaller --dt",
            file=sys.stderr,
        )
        return 1
    with open(args.out, "w") as handle:
        handle.write("\n".join(trajectory_csv_rows(traj)) + "\n")
    return 0


def _cmd_list() -> int:
    print("space kinds:")
    for kind in SPACE_KINDS:
        print(f"  {kind}")
    print("built-in potentials:")
    for name in POTENTIAL_BUILTINS:
        print(f"  {name}")
    print("built-in conformal fields:")
    for name in FIELD_BUILTINS:
        print(f"  {name}")
    print("checks:")
    for name, check in sorted(CHECKS.items()):
        print(f"  {name}: {check.description} [tol {check.tolerance:g}]")
    print("examples:")
    for name in sorted(EXAMPLE_CONFIGS):
        print(f"  {name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "solve-ode":
            return _cmd_solve_ode(args)
        if args.command == "example":
            return _cmd_example(args)
    except OSError as exc:  # the config is read under its own error; every other file is an output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    if args.command == "list":
        return _cmd_list()
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
