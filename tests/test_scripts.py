"""The scripts under ``scripts/`` run end to end as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_ejiri_reproduction_reports_ok():
    assert _run("ejiri_reproduction.py")[-1] == "OK"


def test_periodic_orbit_sweep_charts_have_constant_scalar():
    """The sweep prints no verdict; each of its five orbits' scalar spread is round-off."""
    lines = _run("periodic_orbit_sweep.py")
    assert lines[1].split() == ["h0/h_eq", "period", "fiber", "r", "scalar", "spread"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["0.995", "0.950", "0.900", "0.800", "0.700"]
    assert all(float(row[3]) < 1e-9 for row in rows)
