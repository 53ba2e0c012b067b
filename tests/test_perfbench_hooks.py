"""perfbench's hooks, installed from outside the package, leave every report as it is.

``perfbench/tracing.py`` wraps layers' methods, cached properties and module
functions by name, and the ``FiniteGuard`` of ``perfbench/workloads.py``
wraps each check's evaluator in ``checks._EVALUATORS``.  A pass under both
must give the reports of a plain pass, raise nothing, and see only finite
residuals.  A name that the tracer wraps as a plain method and that became a
cached property would raise at its first traced read.
"""

import copy
import importlib.util
import sys
from pathlib import Path

import pytest

from warpcheck import checks
from warpcheck.checks import CHECKS, EXAMPLE_CONFIGS, RunConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SUITES = [
    *(dict(copy.deepcopy(raw), samples=4) for raw in EXAMPLE_CONFIGS.values()),
    {
        "label": "product-inrp",
        "space": {"kind": "warped", "interval": [-1.0, 1.0], "warping": "1",
                  "fiber": {"kind": "sphere", "dim": 3, "radius": 1.0}},
        "potential": {"potential_t": "cos(1.4142135623730951*t)"},
        "checks": ["inrp", "vss_residual", "lgh_forms"],
        "samples": 4,
    },
    dict(copy.deepcopy(EXAMPLE_CONFIGS["sphere-s4"]), label="sphere-s4-closed", checks=["closed_cvf", "ixi_cotton"],
         samples=4),
    {
        "label": "torus-mixed-closedness",  # closed at the point with t < 1 only
        "space": {"kind": "flat_torus", "dim": 3},
        "field": {"components": ["0", "4e-10*t*t*t", "0"]},
        "checks": ["closed_cvf", "ixi_cotton", "cxi_div"],
        "samples": 4,
    },
]


@pytest.fixture
def perfbench(monkeypatch):
    """The modules ``tracing`` and ``workloads``, loaded from their files; workloads imports tracing by name."""
    modules = []
    for name in ("tracing", "workloads"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        modules.append(module)
    return modules


def test_traced_and_guarded_pass_gives_the_plain_reports(perfbench):
    tracing, workloads = perfbench
    configs = [RunConfig.from_dict(copy.deepcopy(raw)) for raw in SUITES]
    assert set().union(*(config.checks for config in configs)) == set(CHECKS)

    def digests():
        return [workloads.report_digest(checks.run_suite(config)) for config in configs]

    plain = digests()
    guard, tracer = workloads.FiniteGuard(), tracing.Tracer()
    with tracing.Patcher() as patcher:
        guard.install(patcher)
        tracer.install(patcher, workloads)
        hooked = digests()
        trace = tracer.drain()
    assert hooked == plain
    assert guard.counts == {}
    assert trace.counts["checks.evals"] > 0 and trace.calls["conformal.chain"] > 0
    assert digests() == plain  # the hooks are gone again
