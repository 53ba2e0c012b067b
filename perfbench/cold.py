"""Cold start of one workload: a fresh interpreter imports warpcheck and runs
the first pass, paying every lazy jet-table build on the way.

Run by ``run.py`` in a subprocess with the same thread caps.  The
calibration kernel runs after the import and after each item of the pass,
outside the timed segments.  Prints one JSON line: the wall time of the
import and of each item, the kernel times, and the report digests.
"""

import sys
import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import warpcheck  # noqa: E402,F401

import workloads  # noqa: E402
from calibration import Calibration  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    inputs = workloads.make_inputs(workloads.WORKLOADS[args.workload], args.seed)
    configs = workloads.parse(inputs)
    import_s = time.perf_counter() - START
    cal = Calibration()
    result = workloads.run_pass(inputs, configs, between=cal.run)
    print(json.dumps({
        "segments_s": [import_s, *result.item_s.values()],
        "calibration_s": cal.times,
        "errors": result.errors,
        "digests": workloads.digests(result),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
