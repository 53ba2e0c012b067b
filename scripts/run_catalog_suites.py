#!/usr/bin/env python3
"""Run every canned verification suite and print a one-line summary per space.

Each summary line carries the first 16 hex digits of the SHA-256 of the
suite's report as `warpcheck example <name> --no-timestamp` writes it, so
the digests of two runs show whether a change kept every report
byte-identical.
"""

import hashlib
import json
import sys
import time

from warpcheck.checks import EXAMPLE_CONFIGS, RunConfig, report_to_json, run_suite


def main() -> int:
    any_fail = False
    for name in sorted(EXAMPLE_CONFIGS):
        config = RunConfig.from_dict(json.loads(json.dumps(EXAMPLE_CONFIGS[name])))
        start = time.perf_counter()
        report = run_suite(config)
        elapsed = time.perf_counter() - start
        summary = report.summary
        worst = max((c.max_rel_residual for c in report.checks if c.status != "SKIP"), default=0.0)
        for outcome in report.checks:  # as --no-timestamp writes it
            outcome.wall_time = 0.0
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()[:16]
        print(
            f"{name:18s} pass={summary['pass']:2d} fail={summary['fail']} "
            f"skip={summary['skip']} worst_rel={worst:.3e} sha256={digest} ({elapsed:.1f}s)"
        )
        for skip in summary["skip_reasons"]:
            print(f"{'':18s}   SKIP {skip['check']}: {skip['reason']}")
        any_fail |= summary["fail"] > 0
    return 1 if any_fail else 0


if __name__ == "__main__":
    sys.exit(main())
